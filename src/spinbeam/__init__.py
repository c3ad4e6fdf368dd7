"""Cylindrically symmetric spin-polarized electron beams.

Spinor wavefunctions for non-diffractive Bessel beams and finite
modified-Bessel-Gaussian beams in radial and azimuthal polarization
configurations, their spin-polarization textures, and the skyrmion
topological charge of the finite-beam textures.  Every closed form is
paired with an independent quadrature oracle.
"""

from .specfun import HalfInt, bessel_i_scaled, bessel_j, bessel_j_zero
from .quadrature import QuadResult, integrate
from .beams import (
    BeamSpec,
    Configuration,
    CylPoint,
    Finite,
    FiniteMethod,
    GaussianSpectrum,
    NonDiffractive,
    Spinor,
    eigenspinor_azimuthal,
    eigenspinor_radial,
    evaluate,
    evaluate_finite,
    evaluate_nondiffractive,
    reconstruct_from_momentum,
    spectral_profile,
)
from .polarization import (
    PolarizationVector,
    closed_form_polarization,
    closed_form_texture,
    probability_density,
    spin_expectation,
    spin_polarization,
)
from .topology import (
    ChargeReport,
    charge_boundary,
    charge_formula,
    charge_integral,
    full_charge_report,
)
from .errors import (
    ConvergenceError,
    IllConvergedLimitError,
    IntegrandError,
    SpinBeamError,
    UndefinedPolarizationError,
)

__version__ = "0.1.0"
