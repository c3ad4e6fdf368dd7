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

All functions are pure and reentrant.
"""

from __future__ import annotations

import cmath
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


def _jn_series_arr(n: int, x: np.ndarray) -> np.ndarray:
    # Ascending series; safe cancellation for x <= ~6.  First term built in
    # log space so large n underflows gracefully instead of overflowing.
    out = np.zeros_like(x)
    pos = x > 0.0
    if n == 0:
        out[~pos] = 1.0
    if not np.any(pos):
        return out
    xp = x[pos]
    with np.errstate(divide="ignore"):  # subnormal x/2 underflows the log
        log_t0 = n * np.log(xp / 2.0) - math.lgamma(n + 1)
    term = np.where(log_t0 < -745.0, 0.0, np.exp(np.maximum(log_t0, -746.0)))
    total = term.copy()
    q = xp * xp / 4.0
    for k in range(1, 80):
        term = -term * q / (k * (n + k))
        total += term
        if np.all(np.abs(term) <= 1e-18 * np.abs(total) + 1e-300):
            break
    out[pos] = total
    return out


def _jn_miller_arr(n: int, x: np.ndarray) -> np.ndarray:
    # Backward recurrence p_{k-1} = (2k/x) p_k - p_{k+1}, normalized with
    # 1 = J_0 + 2*(J_2 + J_4 + ...).  x must be strictly positive.
    # Cushion above the turning point scales like top^(1/3): the admixture
    # of the dominant companion solution decays only across the Airy zone.
    top = max(n, int(np.max(x)))
    m = top + int(13.0 * (top + 1) ** (1.0 / 3.0)) + 25
    pkp1 = np.zeros_like(x)
    pk = np.full_like(x, _TINY)
    ans = np.zeros_like(x)
    norm = np.zeros_like(x)
    for k in range(m, 0, -1):
        pkm1 = (2.0 * k / x) * pk - pkp1
        pkp1 = pk
        pk = pkm1
        if k - 1 == n:
            ans = pk.copy()
        if (k - 1) % 2 == 0 and k - 1 > 0:
            norm += pk
        big = np.abs(pk) > _BIG
        if np.any(big):
            # common rescale cancels in ans / norm
            f = np.where(big, 1.0 / _BIG, 1.0)
            pk *= f
            pkp1 *= f
            ans *= f
            norm *= f
    norm = pk + 2.0 * norm
    return ans / norm


def _jn_asymptotic_arr(n: int, x: np.ndarray) -> np.ndarray:
    # Large-argument expansion J_n = sqrt(2/(pi x)) (P cos chi - Q sin chi).
    mu = 4.0 * n * n
    inv8x = 1.0 / (8.0 * x)
    p_sum = np.ones_like(x)
    q_sum = np.zeros_like(x)
    term = np.ones_like(x)
    for k in range(1, 40):
        term = term * (mu - (2 * k - 1) ** 2) * inv8x / k
        if k % 2 == 1:
            q_sum += term * (-1.0) ** ((k - 1) // 2)
        else:
            p_sum += term * (-1.0) ** (k // 2)
        if np.all(np.abs(term) < 1e-18):
            break
    chi = x - (0.5 * n + 0.25) * math.pi
    return np.sqrt(2.0 / (math.pi * x)) * (p_sum * np.cos(chi) - q_sum * np.sin(chi))


def _jn_nonneg_arr(n: int, x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    zero = x == 0.0
    out[zero] = 1.0 if n == 0 else 0.0
    small = (~zero) & (x <= _J_SERIES_MAX_X)
    if np.any(small):
        out[small] = _jn_series_arr(n, x[small])
    large = x > 50.0 * max(1, n)
    if np.any(large):
        out[large] = _jn_asymptotic_arr(n, x[large])
    mid = (~zero) & (~small) & (~large)
    if np.any(mid):
        out[mid] = _jn_miller_arr(n, x[mid])
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
    vals = sign * _jn_nonneg_arr(n, np.atleast_1d(arr))
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


def _iv_series(nu: float, z: complex) -> complex:
    # Ascending series; all coefficients positive, so cancellation is set
    # by arg(z^2) only and stays mild on the domain this is called for.
    if z == 0:
        return 1.0 + 0.0j if nu == 0.0 else 0.0 + 0.0j
    term = cmath.exp(nu * cmath.log(z / 2.0) - math.lgamma(nu + 1.0))
    total = term
    q = z * z / 4.0
    for k in range(1, 200):
        term = term * q / (k * (nu + k))
        total += term
        if abs(term) <= 1e-18 * abs(total):
            break
    return total


def _iv_int_miller_scaled(n: int, z: complex) -> complex:
    # Backward recurrence normalized with 1 = e^{-z}(I_0 + 2 sum_{k>=1} I_k);
    # returns e^{-z} I_n(z) directly.  Requires Re z >= 0, z != 0.
    m = n + int(1.3 * abs(z)) + 40
    pkp1 = 0.0 + 0.0j
    pk = complex(_TINY, 0.0)
    ans = pk if m == n else 0.0 + 0.0j
    tail = 0.0 + 0.0j
    for k in range(m, 0, -1):
        pkm1 = pkp1 + (2.0 * k / z) * pk
        tail += pk
        pkp1 = pk
        pk = pkm1
        if k - 1 == n:
            ans = pk
        if abs(pk.real) > _BIG or abs(pk.imag) > _BIG:
            pk /= _BIG
            pkp1 /= _BIG
            ans /= _BIG
            tail /= _BIG
    norm = pk + 2.0 * tail
    return ans / norm


def _iv_asymptotic_scaled(nu: float, z: complex) -> complex:
    # e^{-z} I_nu(z) ~ (2 pi z)^{-1/2} [ sum_k (-1)^k a_k/z^k
    #   + e^{+-(nu+1/2) pi i} e^{-2z} sum_k a_k/z^k ],  Re z >= 0.
    s1 = 1.0 + 0.0j
    s2 = 1.0 + 0.0j
    ak = 1.0
    zk = 1.0 + 0.0j
    prev = math.inf
    for k in range(1, 60):
        ak = ak * (4.0 * nu * nu - (2 * k - 1) ** 2) / (8.0 * k)
        zk = zk * z
        t = ak / zk
        if abs(t) >= prev:
            break
        s1 += (-1) ** k * t
        s2 += t
        prev = abs(t)
        if prev < 1e-18:
            break
    total = s1
    if 2.0 * z.real < 60.0:
        sign = 1.0 if z.imag >= 0.0 else -1.0
        total = s1 + cmath.exp(sign * (nu + 0.5) * math.pi * 1j - 2.0 * z) * s2
    return total / cmath.sqrt(2.0 * math.pi * z)


def _iv_int_scaled(n: int, z: complex) -> complex:
    if abs(z) <= 2.0:
        return _iv_series(float(n), z) * cmath.exp(-z)
    if abs(z) <= 60.0:
        return _iv_int_miller_scaled(n, z)
    return _iv_asymptotic_scaled(float(n), z)


def _iv_halfint_scaled(twice: int, z: complex) -> complex:
    # twice is odd and >= -1.  Hyperbolic closed forms for +-1/2, then the
    # upward three-term recurrence; ascending series where the recurrence
    # would cancel (small |z|).
    nu_max = twice / 2.0
    pref = _SQRT_2_OVER_PI / cmath.sqrt(z)
    em2z = cmath.exp(-2.0 * z)
    i_minus = pref * 0.5 * (1.0 + em2z)  # e^{-z} I_{-1/2}
    i_plus = pref * 0.5 * (1.0 - em2z)  # e^{-z} I_{+1/2}
    if twice == -1:
        return i_minus
    if abs(z) < max(2.0, 2.0 * nu_max):
        return _iv_series(nu_max, z) * cmath.exp(-z)
    if twice == 1:
        return i_plus
    prev, cur = i_minus, i_plus
    tw = 1
    while tw < twice:
        nxt = prev - (tw / z) * cur
        prev, cur = cur, nxt
        tw += 2
    return cur


def bessel_i_scaled(order, z) -> complex:
    """Scaled modified Bessel function e^{-z} I_nu(z), for Re z >= 0.

    Supported orders are integers and half-odd-integers >= -1/2.  The
    scaling keeps values representable at large |z| where I_nu itself
    would overflow.
    """
    nu = _check_i_order(order)
    zc = complex(z)
    if zc.real < 0.0:
        raise ValueError("bessel_i_scaled requires Re z >= 0")
    if zc == 0:
        if nu.twice_value == -1:
            raise ValueError("I_{-1/2} is singular at z = 0")
        return 1.0 + 0.0j if nu.twice_value == 0 else 0.0 + 0.0j
    if nu.is_integer:
        return _iv_int_scaled(nu.as_int(), zc)
    return _iv_halfint_scaled(nu.twice_value, zc)
