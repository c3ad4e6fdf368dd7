"""Exception types shared across the package.

Precondition violations (bad orders, out-of-range arguments, malformed
beam descriptions) raise ValueError; :class:`_ArgumentError` is the one
that names the argument at fault, so the CLI names the field without
checking the input again.  The public classes below mark runtime
numerical failures that callers may want to catch and handle.
"""

from __future__ import annotations


class _ArgumentError(ValueError):
    """An argument that the message explains; ``argument`` names it: 'r' or
    'z' for a coordinate at which a value is not finite, or 'beam', 'n_r' or
    'r_max' for a charge request."""

    def __init__(self, argument: str, message: str):
        super().__init__(message)
        self.argument = argument


class SpinBeamError(Exception):
    """Base class for numerical failures raised by this package."""


class IntegrandError(SpinBeamError):
    """An integral on a rung of the quadrature ladder is not finite (from an
    integrand value at a node, the interval's ends included, or an overflow),
    or the integrand returned a result whose shape is not that of its nodes."""


class ConvergenceError(SpinBeamError):
    """A sum or integral stopped before meeting tolerance: raised before any
    node of a quadrature rung past the last, 2^18, or of a momentum-space
    trapezoid rule past its budget, and where Hankel's expansion of a Bessel
    order keeps no term below 1e-18 in 60.  ``result`` carries the best
    QuadResult of ``integrate``, that of its last rung, and is None elsewhere.
    """

    def __init__(self, message, result=None):
        super().__init__(message)
        self.result = result


class UndefinedPolarizationError(SpinBeamError):
    """Spin polarization requested where the probability density vanishes."""


class IllConvergedLimitError(SpinBeamError):
    """Large-radius extrapolation spread exceeded its convergence gate."""
