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
    """Integrand returned a non-finite value inside the integration interval,
    or a result whose shape is not that of its 1-D array of nodes."""


class ConvergenceError(SpinBeamError):
    """Integration stopped before meeting tolerance.

    Raised before a refinement round that would split a panel at the depth
    limit or one too narrow to halve, or take the panel tree past its
    panel budget.  Carries the best available result in ``result`` (a
    QuadResult); ``result`` is None when the initial split alone exceeds
    the panel budget, which stops the integral before any integrand call,
    and when the momentum-space oracle's trapezoid rule or a rung of
    spectral quadrature would exceed its budget, which each checks before
    forming any node.
    """

    def __init__(self, message, result=None):
        super().__init__(message)
        self.result = result


class UndefinedPolarizationError(SpinBeamError):
    """Spin polarization requested where the probability density vanishes."""


class IllConvergedLimitError(SpinBeamError):
    """Large-radius extrapolation spread exceeded its convergence gate."""
