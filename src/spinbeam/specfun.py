"""Bessel functions needed by the beam evaluators.

Provides J_n (integer order, real non-negative argument), its positive
zeros, and the scaled modified Bessel function e^{-z} I_nu(z) for
integer and half-odd-integer order at complex argument with Re z >= 0.
Orders are carried exactly through :class:`HalfInt` so half-integers
never pick up rounding error.

Algorithm regimes
-----------------
J_n : ascending series for small x, backward (Miller) recurrence
      normalized with 1 = J_0 + 2*(J_2 + J_4 + ...) for moderate x, and
      the large-argument cosine expansion for x > 50*max(1, n).
I_nu: half-integer orders reduce to hyperbolic closed forms plus the
      three-term recurrence; integer orders use the ascending series for
      small |z|, Miller recurrence normalized with e^z = I_0 + 2*sum I_k
      for moderate |z|, and the two-exponential asymptotic expansion for
      large |z|.  The scaling keeps values representable where I_nu
      itself would overflow.

Pairs of consecutive orders (``_jn_pair``: J_n, J_{n+1}; ``_iv_pair``:
e^{-z} I_nu, e^{-z} I_{nu+1}) take one pass of each regime, and each order
keeps its own thresholds.  ``bessel_j`` and ``bessel_i_scaled`` return the
first order of a pair for a scalar or an array argument; each regime runs
once on the elements that select it.  All functions are pure and reentrant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "HalfInt",
    "bessel_j",
    "bessel_j_zero",
    "bessel_i_scaled",
]

_TINY = 1e-250
_BIG = 1e250


@dataclass(frozen=True, order=True)
class HalfInt:
    """Exact integer or half-odd-integer, stored as twice its value.

    ``HalfInt(1)`` is 1/2, ``HalfInt(-3)`` is -3/2, ``HalfInt(4)`` is 2.
    """

    twice_value: int

    def __post_init__(self):
        if isinstance(self.twice_value, bool) or not isinstance(
            self.twice_value, (int, np.integer)
        ):
            raise TypeError("twice_value must be an integer")
        object.__setattr__(self, "twice_value", int(self.twice_value))

    @classmethod
    def from_int(cls, n: int) -> "HalfInt":
        return cls(2 * int(n))

    @classmethod
    def parse(cls, text: str) -> "HalfInt":
        """Parse '3/2', '-1/2' or a plain integer string like '2'."""
        s = text.strip()
        if "/" in s:
            num, den = s.split("/", 1)
            if den.strip() != "2":
                raise ValueError(f"half-integer strings must end in '/2': {text!r}")
            return cls(int(num))
        return cls.from_int(int(s))

    @property
    def is_integer(self) -> bool:
        return self.twice_value % 2 == 0

    def as_int(self) -> int:
        if not self.is_integer:
            raise ValueError(f"{self} is not an integer")
        return self.twice_value // 2

    def __float__(self) -> float:
        return self.twice_value / 2.0

    def __neg__(self) -> "HalfInt":
        return HalfInt(-self.twice_value)

    def _coerce(self, other) -> "HalfInt":
        if isinstance(other, HalfInt):
            return other
        if isinstance(other, (int, np.integer)) and not isinstance(other, bool):
            return HalfInt.from_int(other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return HalfInt(self.twice_value + o.twice_value)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return HalfInt(self.twice_value - o.twice_value)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return HalfInt(o.twice_value - self.twice_value)

    def __str__(self) -> str:
        if self.is_integer:
            return str(self.twice_value // 2)
        return f"{self.twice_value}/2"

    def __repr__(self) -> str:
        return f"HalfInt({self.twice_value})"


def _order_as_int(order) -> int:
    if isinstance(order, HalfInt):
        if not order.is_integer:
            raise ValueError(f"bessel_j requires an integer order, got {order}")
        return order.as_int()
    if isinstance(order, bool) or not isinstance(order, (int, np.integer)):
        raise ValueError(f"bessel_j requires an integer order, got {order!r}")
    return int(order)


# ----------------------------------------------------------------------
# J_n, real argument
# ----------------------------------------------------------------------

_J_SERIES_MAX_X = 6.0


def _series(nu: float, z: np.ndarray, sign: int) -> np.ndarray:
    # Ascending series sum_k (sign z^2/4)^k (z/2)^nu / (k! Gamma(nu+k+1)) at
    # nonzero z: J_nu for sign -1 (safe cancellation for x <= ~6), I_nu for
    # sign +1 (all terms of one sign for real z).  The first term is built in
    # log space so large nu underflows gracefully instead of overflowing;
    # for nu = 0 it is 1, also where a subnormal z/2 underflows the log.
    if nu:
        with np.errstate(divide="ignore"):
            term = np.exp(nu * np.log(z / 2.0) - math.lgamma(nu + 1.0))
    else:
        term = np.ones_like(z)
    total = term.copy()
    q = sign * z * z / 4.0
    for k in range(1, 200):
        term = term * q / (k * (nu + k))
        total += term
        if np.all(np.abs(term) <= 1e-18 * np.abs(total) + 1e-300):
            break
    return total


def _fill(out: np.ndarray, mask: np.ndarray, regime, x: np.ndarray) -> None:
    # evaluate one regime on the elements that select it; leading axes of
    # out (the two orders of a Bessel pair) take the regime's leading axes
    if np.any(mask):
        out[..., mask] = regime(x[mask])


def _jn_miller_arr(n: int, x: np.ndarray) -> np.ndarray:
    # Backward recurrence p_{k-1} = (2k/x) p_k - p_{k+1}, normalized with
    # 1 = J_0 + 2*(J_2 + J_4 + ...); returns J_n and J_{n+1}.  x must be > 0.
    # Cushion above the turning point scales like top^(1/3): the admixture
    # of the dominant companion solution decays only across the Airy zone.
    top = max(n, int(np.max(x)))
    m = top + int(13.0 * (top + 1) ** (1.0 / 3.0)) + 25
    # |p| grows by at most a factor 2m/x + 1 per step, and x > 6 in this
    # regime, so between overflow tests `stride` steps apart |p| stays under
    # _BIG * 1e50 = 1e300, which leaves room for the norm's sum of m terms
    stride = max(1, int(50.0 / math.log10(2.0 * m / _J_SERIES_MAX_X + 1.0)))
    pkp1 = np.zeros_like(x)
    pk = np.full_like(x, _TINY)
    pair = np.zeros((2,) + x.shape)
    norm = np.zeros_like(x)
    for k in range(m, 0, -1):
        pkm1 = (2.0 * k / x) * pk - pkp1
        pkp1 = pk
        pk = pkm1
        if k - 1 in (n, n + 1):
            pair[k - 1 - n] = pk
        if (k - 1) % 2 == 0 and k - 1 > 0:
            norm += pk
        if k % stride == 0:
            big = np.maximum(np.abs(pk), np.abs(pkp1)) > _BIG
            if np.any(big):
                # common rescale cancels in pair / norm
                f = np.where(big, 1.0 / _BIG, 1.0)
                for values in (pk, pkp1, pair, norm):
                    values *= f
    norm = pk + 2.0 * norm
    return pair / norm


def _jn_asymptotic_arr(n: int, x: np.ndarray) -> np.ndarray:
    # Large-argument expansion J_nu = sqrt(2/(pi x)) (P cos chi - Q sin chi)
    # for nu = n and n + 1.
    nu = np.array([[n], [n + 1]], dtype=float)
    mu = 4.0 * nu * nu
    inv8x = 1.0 / (8.0 * x)
    p_sum, q_sum, term = np.ones((2,) + x.shape), np.zeros((2,) + x.shape), np.ones((2,) + x.shape)
    for k in range(1, 40):
        term = term * (mu - (2 * k - 1) ** 2) * inv8x / k
        if k % 2 == 1:
            q_sum += term * (-1.0) ** ((k - 1) // 2)
        else:
            p_sum += term * (-1.0) ** (k // 2)
        if np.all(np.abs(term) < 1e-18):
            break
    chi = x - (0.5 * nu + 0.25) * math.pi
    return np.sqrt(2.0 / (math.pi * x)) * (p_sum * np.cos(chi) - q_sum * np.sin(chi))


def _jn_pair(n: int, x: np.ndarray) -> np.ndarray:
    """J_n(x) and J_{n+1}(x), shape (2,) + x.shape, for n >= 0 and x >= 0: each
    regime serves both orders, but J_{n+1} keeps its own asymptotic threshold,
    so on (50n, 50(n+1)] it still comes from the recurrence."""
    out = np.empty((2,) + x.shape)
    zero = x == 0.0
    out[:, zero] = [[1.0 if n == 0 else 0.0], [0.0]]
    small = (~zero) & (x <= _J_SERIES_MAX_X)
    large = x > 50.0 * max(1, n)
    _fill(out, small, lambda v: (_series(n, v, -1), _series(n + 1, v, -1)), x)
    _fill(out, large, lambda v: _jn_asymptotic_arr(n, v), x)
    _fill(out, (~zero) & (~small) & (~large), lambda v: _jn_miller_arr(n, v), x)
    _fill(out[1], large & (x <= 50.0 * (n + 1)), lambda v: _jn_miller_arr(n, v)[1], x)
    return out


def bessel_j(order, x):
    """Bessel function of the first kind J_n(x) for integer n, x >= 0.

    Accepts a scalar or ndarray argument; negative orders are reflected
    through J_{-n}(x) = (-1)^n J_n(x).
    """
    n = _order_as_int(order)
    arr = np.asarray(x, dtype=float)
    if np.any(arr < 0.0) or not np.all(np.isfinite(arr)):
        raise ValueError("bessel_j requires finite x >= 0")
    sign = 1.0
    if n < 0:
        n = -n
        if n % 2 == 1:
            sign = -1.0
    vals = sign * _jn_pair(n, np.atleast_1d(arr))[0]
    if arr.ndim == 0:
        return float(vals[0])
    return vals.reshape(arr.shape)


def bessel_j_zero(order: int, index: int) -> float:
    """index-th positive zero of J_order, by bracketing plus bisection."""
    n = _order_as_int(order)
    if n < 0:
        raise ValueError("bessel_j_zero requires order >= 0")
    if index < 1:
        raise ValueError("bessel_j_zero requires index >= 1")
    beta = (index + 0.5 * n - 0.25) * math.pi
    mu = 4.0 * n * n
    guess = beta - (mu - 1.0) / (8.0 * beta)
    half = 0.6
    lo, hi = max(guess - half, 1e-8), guess + half
    flo, fhi = bessel_j(n, lo), bessel_j(n, hi)
    grow = 0
    while flo * fhi > 0.0:
        half *= 1.7
        lo, hi = max(guess - half, 1e-8), guess + half
        flo, fhi = bessel_j(n, lo), bessel_j(n, hi)
        grow += 1
        if grow > 8:
            raise ValueError(f"could not bracket zero {index} of J_{n}")
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        fmid = bessel_j(n, mid)
        if fmid == 0.0:
            return mid
        if flo * fmid < 0.0:
            hi, fhi = mid, fmid
        else:
            lo, flo = mid, fmid
        if hi - lo < 1e-13 * max(1.0, hi):
            break
    return 0.5 * (lo + hi)


# ----------------------------------------------------------------------
# I_nu, complex argument
# ----------------------------------------------------------------------

_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)


def _check_i_order(order) -> HalfInt:
    if isinstance(order, (int, np.integer)) and not isinstance(order, bool):
        order = HalfInt.from_int(int(order))
    if not isinstance(order, HalfInt):
        raise ValueError(f"bessel_i_scaled order must be HalfInt or int, got {order!r}")
    if order.twice_value < -1:
        raise ValueError(f"bessel_i_scaled supports orders >= -1/2 only, got {order}")
    return order


def _iv_int_miller_scaled(n: int, z: np.ndarray) -> np.ndarray:
    # Backward recurrence normalized with 1 = e^{-z}(I_0 + 2 sum_{k>=1} I_k);
    # returns e^{-z} I_n(z) and e^{-z} I_{n+1}(z) directly.  Requires Re z >= 0,
    # z != 0; the start is set by the largest |z| of the batch.
    m = n + 1 + int(1.3 * np.max(np.abs(z))) + 40
    # |z| > 2 here, so |p| grows by at most 2m/|z| + 1 <= m + 1 per step: between
    # overflow tests `stride` steps apart it stays under _BIG * 1e50 = 1e300
    stride = max(1, int(50.0 / math.log10(m + 1.0)))
    two_over_z = 2.0 / z
    pk, pkp1, tail = np.full_like(z, _TINY), np.zeros_like(z), np.zeros_like(z)
    pair = np.zeros((2,) + z.shape, dtype=complex)
    for k in range(m, 0, -1):
        tail += pk
        pk, pkp1 = pkp1 + (k * two_over_z) * pk, pk
        if k - 1 in (n, n + 1):
            pair[k - 1 - n] = pk
        if k % stride == 0:
            big = np.maximum(np.abs(pk), np.abs(pkp1)) > _BIG
            if np.any(big):
                # common rescale cancels in pair / norm
                f = np.where(big, 1.0 / _BIG, 1.0)
                for values in (pk, pkp1, pair, tail):
                    values *= f
    return pair / (pk + 2.0 * tail)


def _iv_asymptotic_scaled(nu: float, z: np.ndarray) -> np.ndarray:
    # e^{-z} I_mu(z) ~ (2 pi z)^{-1/2} [ sum_k (-1)^k a_k/z^k
    #   + e^{+-(mu+1/2) pi i} e^{-2z} sum_k a_k/z^k ],  Re z >= 0, for
    # mu = nu and nu + 1, which share the powers z^k; each (order, element)
    # stops at its own smallest term.
    mu = np.array([[nu], [nu + 1.0]])
    s1, s2 = np.ones((2, 2) + z.shape, dtype=complex)
    zk, ak = np.ones_like(z), np.ones((2, 1))
    prev, live = np.full(s1.shape, math.inf), np.ones(s1.shape, dtype=bool)
    for k in range(1, 60):
        ak = ak * (4.0 * mu * mu - (2 * k - 1) ** 2) / (8.0 * k)
        zk = zk * z
        t = ak / zk
        live &= np.abs(t) < prev
        s1 += np.where(live, (-1) ** k * t, 0.0)
        s2 += np.where(live, t, 0.0)
        prev = np.where(live, np.abs(t), prev)
        live &= prev >= 1e-18
        if not np.any(live):
            break
    sign = np.where(z.imag >= 0.0, 1.0, -1.0)
    reflected = np.exp(sign * (mu + 0.5) * math.pi * 1j - 2.0 * z) * s2
    total = s1 + np.where(2.0 * z.real < 60.0, reflected, 0.0)
    return total / np.sqrt(2.0 * math.pi * z)


def _iv_int_scaled(nu: HalfInt, z: np.ndarray) -> np.ndarray:
    n = nu.as_int()
    out = np.empty((2,) + z.shape, dtype=complex)
    small, large = np.abs(z) <= 2.0, np.abs(z) > 60.0
    _fill(out, small, lambda v: np.exp(-v) * [_series(n, v, 1), _series(n + 1, v, 1)], z)
    _fill(out, ~small & ~large, lambda v: _iv_int_miller_scaled(n, v), z)
    _fill(out, large, lambda v: _iv_asymptotic_scaled(float(n), v), z)
    return out


def _iv_halfint_scaled(order: HalfInt, z: np.ndarray) -> np.ndarray:
    # orders nu >= -1/2 and nu + 1.  Hyperbolic closed forms for +-1/2, then
    # one upward three-term recurrence; each order takes the ascending series
    # at its own small |z| < max(2, 2 mu), where the recurrence would cancel.
    twice = order.twice_value

    def recurrence(v):
        pref = _SQRT_2_OVER_PI / np.sqrt(v)
        em2z = np.exp(-2.0 * v)
        lo, hi = pref * 0.5 * (1.0 + em2z), pref * 0.5 * (1.0 - em2z)  # orders -1/2, 1/2
        for tw in range(1, twice + 2, 2):
            lo, hi = hi, lo - (tw / v) * hi
        return lo, hi

    out = np.empty((2,) + z.shape, dtype=complex)
    small = [(np.abs(z) < max(2.0, tw)) & (tw > 0) for tw in (twice, twice + 2)]
    _fill(out, ~small[0], recurrence, z)
    for row, mask, tw in zip(out, small, (twice, twice + 2)):
        _fill(row, mask, lambda v: _series(tw / 2.0, v, 1) * np.exp(-v), z)
    return out


def _iv_pair(order, z) -> np.ndarray:
    """e^{-z} I_nu(z) and e^{-z} I_{nu+1}(z), shape (2,) + z.shape, from one pass
    of each regime; order and z as for :func:`bessel_i_scaled`."""
    nu = _check_i_order(order)
    arr = np.asarray(z, dtype=complex)
    if not np.all(np.isfinite(arr)):
        raise ValueError("bessel_i_scaled requires finite z")
    if np.any(arr.real < 0.0):
        raise ValueError("bessel_i_scaled requires Re z >= 0")
    zs = arr.ravel()
    zero = zs == 0.0
    if nu.twice_value == -1 and np.any(zero):
        raise ValueError("I_{-1/2} is singular at z = 0")
    out = np.full((2,) + zs.shape, [[1.0 if nu.twice_value == 0 else 0.0], [0.0]], dtype=complex)
    kernel = _iv_int_scaled if nu.is_integer else _iv_halfint_scaled
    _fill(out, ~zero, lambda v: kernel(nu, v), zs)
    return out.reshape((2,) + arr.shape)


def bessel_i_scaled(order, z):
    """Scaled modified Bessel function e^{-z} I_nu(z), for finite z with Re z >= 0.

    Supported orders are integers and half-odd-integers >= -1/2.  A
    scalar z gives a ``complex``; an array gives a complex array of its
    shape.  The scaling keeps values representable at large |z| where
    I_nu itself would overflow.
    """
    row = _iv_pair(order, z)[0]
    return complex(row) if row.ndim == 0 else row
