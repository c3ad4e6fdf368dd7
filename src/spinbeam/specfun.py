"""Bessel functions needed by the beam evaluators.

Provides J_n (integer order, real non-negative argument), its positive
zeros, and the scaled modified Bessel function e^{-z} I_nu(z) for
integer and half-odd-integer order at complex argument with Re z >= 0.
Orders are carried exactly through :class:`HalfInt` so half-integers
never pick up rounding error.

Algorithm regimes
-----------------
One driver gives every pair of consecutive orders mu, mu + 1 (``_jn_pair``:
J_n, J_{n+1}; ``_iv_pair``: e^{-z} I_nu, e^{-z} I_{nu+1}) from one regime
table.  Each order switches to its family's large-argument closure past its
own threshold s(mu); where the two orders' thresholds differ, the second
order comes from the recurrence in between.

            series      recurrence        closure past s(mu)
J_n         x <= 6      6 < x <= s(mu)    expansion, P cos chi - Q sin chi;
                                          s = 50 max(1, mu)
I_n         |z| <= 2    2 < |z| <= s(mu)  expansion, two exponentials;
                                          s = max(60, mu^2/4)
I_{n+1/2}   |z| <= 2    2 < |z| <= s(mu)  hyperbolic closed forms for
                                          -+1/2, then upward recurrence;
                                          s = max(2, mu^2/4)

Below mu^2/4 the expansion's second term exceeds its first; above it, and
above 2, the upward recurrence from -+1/2 loses no more than a few ulps.
The kernels are one algorithm each, whose ``sign`` argument (-1 for J, +1
for I) carries the change of argument from iz to z:

_series : the ascending series (DLMF 10.2, 10.25), its term count fixed
          by the batch's largest |z| and its sum by Horner's rule.
_miller : the backward (Miller) recurrence on the lattice of mu, started
          above the batch's turning point max(mu, |z|) with an Airy-zone
          cushion and normalized with 1 = J_0 + 2*(J_2 + J_4 + ...),
          e^z = I_0 + 2*sum I_k (DLMF 10.12, 10.35) or, on half-odd orders,
          e^z = sqrt(pi/2z) sum (2k+1) I_{k+1/2} (DLMF 10.60).
_hankel : Hankel's large-argument expansion (DLMF 10.17, 10.40) with
          the terms the batch's smallest |z| needs (ConvergenceError past
          60), even and odd parts summed by Horner's rule in -+1/z^2.
          I_n's expansion adds the reflected term e^{+-(n+1/2) pi i} e^{-2z}
          (even + odd) only on the elements with 2 Re z < 60; past that it
          is below e^{-60} of the sum and is not formed.

Below the |z| where the bound (|z|/2)^mu / Gamma(mu + 1) of both orders
rounds to 0 (DLMF 10.14.4), no regime runs and the pair is 0; for J the cut
is the larger of that and where the sharper bound x^mu e^{mu s} / (1 + s)^mu,
s = sqrt(1 - x^2), of |J_mu(mu x)| rounds to 0 (DLMF 10.14.5).  e^{-z} I at
z = 0 is its limit (1 for I_0, else 0) from the same single pass over the
batch.

``bessel_j`` and ``bessel_i_scaled`` return the first order of a pair for a
scalar or an array argument; each regime runs once on the elements that
select it.  The scaling of I keeps values representable where I_nu itself
would overflow.  All functions are pure and reentrant.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError

__all__ = [
    "HalfInt",
    "bessel_j",
    "bessel_j_zero",
    "bessel_i_scaled",
]

_TINY = 1e-250
_BIG = 1e250
# log 2^-1075: a positive value whose log is below it rounds to 0
_LOG_UNDERFLOW = -1075.0 * math.log(2.0)


@dataclass(frozen=True, order=True)
class HalfInt:
    """Exact integer or half-odd-integer, stored as twice its value.

    ``HalfInt(1)`` is 1/2, ``HalfInt(-3)`` is -3/2, ``HalfInt(4)`` is 2.  It
    has no arithmetic: the next order up is ``HalfInt(twice_value + 2)``.
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
    # Ascending series sum_k (sign z^2/4)^k (z/2)^mu / (k! Gamma(mu+k+1)) at
    # real z >= 0 or complex z != 0 for mu = nu and nu + 1, shape (2,) +
    # z.shape: J_mu for sign -1 (safe cancellation for x <= ~6), I_mu for sign
    # +1 (all terms of one sign for real z).  Each first term is built in log
    # space so large mu underflows gracefully instead of overflowing; for mu =
    # 0 it is 1, also where z/2 is 0 or underflows the log (J is exact at 0).
    with np.errstate(divide="ignore"):
        first = np.stack([np.exp(mu * np.log(z / 2.0) - math.lgamma(mu + 1.0)) if mu
                          else np.ones_like(z) for mu in (nu, nu + 1)])
    q = sign * z * z / 4.0
    # K terms after the first, from the batch's largest |q|: prod_{i<=K} |q|max / (i (nu + i))
    # is at most 1e-18 of its running maximum, 100x below the sum's rounding (eps x largest term)
    q_max, count, term, top = float(np.max(np.abs(q), initial=0.0)), 0, 1.0, 1.0
    while term > 1e-18 * top:
        count += 1
        term *= q_max / (count * (nu + count))
        top = max(top, term)
    # Horner's rule in place, from the K-th term in: acc = 1 + acc q / (k (mu + k))
    mu = np.reshape([nu, nu + 1], (2,) + (1,) * z.ndim)
    k = np.arange(count, 0, -1).reshape((-1, 1) + (1,) * z.ndim)
    acc = np.ones_like(first)
    for c in 1.0 / (k * (mu + k)):
        acc *= q
        acc *= c
        acc += 1.0
    return first * acc


# an even power of two, so scaling by it and by its root is exact
_PRESCALE = 2.0 ** 64


def _root_of_product(c: float, z: np.ndarray, root, degree: float) -> np.ndarray:
    # root(c z) for a closure's prefactor, root homogeneous of degree +-1/2.
    # Where c z overflows (|z| near the end of the float range) it is
    # root(c z / 2^64) 2^(64 degree), exact in both scalings; every other
    # element is root(c z), bit for bit
    with np.errstate(over="ignore", invalid="ignore"):
        product = c * z
    huge = ~np.isfinite(product)
    if not huge.any():
        return root(product)
    product[huge] = c * (z[huge] / _PRESCALE)
    out = root(product)
    out[huge] *= _PRESCALE ** degree
    return out


def _exp_minus_twice(z: np.ndarray) -> np.ndarray:
    # e^{-2z}; where -2z overflows, the square of e^{-z}, which keeps the
    # phase of a huge Im z (the modulus there is at most 1 for Re z >= 0)
    with np.errstate(over="ignore", invalid="ignore"):
        arg = -2.0 * z
    huge = ~np.isfinite(arg)
    if not huge.any():
        return np.exp(arg)
    arg[huge] = 0.0
    out = np.exp(arg)
    half = np.exp(-z[huge])
    out[huge] = half * half
    return out


def _fill(out: np.ndarray, mask: np.ndarray, regime, x: np.ndarray) -> None:
    # evaluate one regime on the elements that select it; leading axes of
    # out (the two orders of a Bessel pair) take the regime's leading axes
    if np.any(mask):
        out[..., mask] = regime(x[mask])


def _miller(mu: float, z: np.ndarray, sign: int) -> np.ndarray:
    # Backward recurrence p_{nu-1} = (2 nu/z) p_nu + sign p_{nu+1} on the
    # lattice of mu, normalized with the sum of the module docstring: J_mu,
    # J_{mu+1} at real z > 0 for sign -1, and e^{-z} I_mu, e^{-z} I_{mu+1} at
    # Re z >= 0, z != 0 for sign +1.  The start's cushion above the turning
    # point max(mu, |z|) of the batch scales like top^(1/3): the admixture of
    # the dominant companion solution decays only across the Airy zone (I at
    # z near the imaginary axis is J).
    half = mu % 1.0
    low = int(mu - half)  # mu = low + half
    size = np.abs(z)
    top = max(low, int(size.max()))
    m = top + int(13.0 * (top + 1) ** (1.0 / 3.0)) + 25
    # |p| grows by at most about 2m/|z| + 1 per step, most at the batch's
    # smallest |z|, so between overflow tests `stride` steps apart it stays
    # under _BIG * 1e50 = 1e300, which leaves room for the norm's sum of m
    # terms (weighted by up to 2m + 1 on half-odd orders)
    stride = max(1, int(50.0 / math.log10(2.0 * m / size.min() + 1.0)))
    two_over_z = 2.0 / z
    pk, pkp1, tail = np.full_like(z, _TINY), np.zeros_like(z), np.zeros_like(z)
    pair = np.zeros((2,) + z.shape, dtype=z.dtype)
    step = np.add if sign > 0 else np.subtract
    # half-odd orders run one step further, to -1/2, so the norm takes in 1/2
    for k in range(m, -1 if half else 0, -1):
        if half:
            tail += (2 * k + 1) * pk
        elif sign > 0 or k % 2 == 0:
            tail += pk
        # p_{k-1} built in place: one new array per step
        grown = (k + half) * two_over_z
        grown *= pk
        pk, pkp1 = step(grown, pkp1, out=grown), pk
        if k - 1 in (low, low + 1):
            pair[k - 1 - low] = pk
        if k % stride == 0:
            big = np.maximum(np.abs(pk), np.abs(pkp1)) > _BIG
            if np.any(big):
                # common rescale cancels in pair / norm
                f = np.where(big, 1.0 / _BIG, 1.0)
                for values in (pk, pkp1, pair, tail):
                    values *= f
    if half:
        return pair / (np.sqrt(0.5 * math.pi / z) * tail)
    return pair / (pk + 2.0 * tail)


def _hankel(n: int, z: np.ndarray, sign: int) -> tuple[np.ndarray, np.ndarray]:
    # Hankel's large-argument sums for mu = n and n + 1, each of shape
    # (2,) + z.shape: the even part sum_k a_{2k}(mu) (sign/z^2)^k and the odd
    # part z^{-1} sum_k a_{2k+1}(mu) (sign/z^2)^k, with
    # a_k(mu) = prod_{j<=k} (4 mu^2 - (2j-1)^2) / (8j).  Sign -1 gives J's
    # P and Q (DLMF 10.17), sign +1 the two sums of I's expansion (DLMF
    # 10.40).  Each order keeps the terms the batch's smallest |z| keeps, up
    # to the first below 1e-18; a larger |z| only shrinks every term, so no
    # element loses accuracy.  An order whose 60 terms never fall that far
    # (past mu ~ 1150 at J's switch |z| = 50 mu) raises ConvergenceError.
    coeffs = np.zeros((60, 2))
    coeffs[0] = 1.0
    z_min, kept = float(np.min(np.abs(z))), 0
    for i, m in enumerate((float(n), n + 1.0)):
        a, size = 1.0, 1.0
        for k in range(1, 60):
            step = (4.0 * m * m - (2 * k - 1) ** 2) / (8.0 * k)
            a, size = a * step, size * abs(step) / z_min
            coeffs[k, i], kept = a, max(kept, k)
            if size < 1e-18:
                break
        else:
            raise ConvergenceError(f"Hankel's expansion of order {m:g} at |z| = {z_min!r} "
                                   "keeps no term below 1e-18 within 60 terms")
    # (sign/z^2)^j = sign^j (1/z^2)^j: the sign goes into the coefficients
    coeffs = coeffs[:kept + 1] * (float(sign) ** (np.arange(kept + 1) // 2))[:, None]
    # past |z| ~ 1e308 the complex quotient's scaling overflows, and 1/z, which
    # underflows there, comes out 0
    with np.errstate(over="ignore"):
        w = 1.0 / z
    w2 = w * w
    even, odd = np.zeros((2, 2) + z.shape, dtype=z.dtype)
    for part, c in ((even, coeffs[0::2]), (odd, coeffs[1::2])):
        for row in c[::-1]:
            part *= w2
            part += row[:, None]
    odd *= w
    return even, odd


def _underflow_size(mu: float) -> float:
    # (|z|/2)^mu / Gamma(mu + 1) bounds |J_mu| and, for Re z >= 0, |e^{-z} I_mu|
    # (DLMF 10.14.4), and both orders with it: below the |z| where it rounds to
    # 0 they are 0, and no regime runs (the recurrence would take O(mu) steps).
    # Past lgamma's range (mu ~ 2.5e305) Stirling's ln Gamma(mu + 1) = mu (ln mu
    # - 1) + ln(2 pi mu)/2 + O(1/mu) is divided by mu before it can overflow.
    if mu <= 0:
        return 0.0
    try:
        return 2.0 * math.exp((math.lgamma(mu + 1.0) + _LOG_UNDERFLOW) / mu)
    except OverflowError:
        log_mu = math.log(mu)
        return 2.0 * math.exp(log_mu - 1.0
                              + (0.5 * (math.log(2.0 * math.pi) + log_mu) + _LOG_UNDERFLOW) / mu)


@functools.lru_cache(maxsize=256)
def _kapteyn_size(mu: float) -> float:
    # |J_mu(mu x)| <= x^mu e^{mu s} / (1 + s)^mu, s = sqrt(1 - x^2) (DLMF 10.14.5),
    # bounds J_{mu+1} too: the largest mu x below which it rounds to 0.  Its
    # log, mu (ln(1 - s^2)/2 + s - ln(1 + s)), cancels to -mu s^3/3 near s = 0,
    # so s is bisected with each term's rounding added, and the cut shaded down
    def log_bound(s):
        terms = (0.5 * math.log1p(-s * s), s, -math.log1p(s))
        return mu * (sum(terms) + 4e-16 * sum(map(abs, terms)))

    lo, hi = 0.0, 1.0  # the bound underflows at s = hi (x = 0), not at s = lo
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if mid == 1.0 or log_bound(mid) < _LOG_UNDERFLOW else (mid, hi)
    return mu * math.sqrt((1.0 - hi) * (1.0 + hi)) * (1.0 - 1e-15)


def _regimes(mu: float, z: np.ndarray, sign: int, closure, switch) -> np.ndarray:
    # orders mu and mu + 1 at z by the module docstring's table: J for sign -1,
    # e^{-z} I for sign +1, shape (2,) + z.shape.  I at z = 0 runs no regime
    # and is left 0, the limit of every order but I_0 (the caller sets I_0(0) = 1)
    size, floor = np.abs(z), _underflow_size(mu)
    if sign < 0:
        floor = max(floor, _kapteyn_size(mu))
    live = size >= (floor if sign < 0 else max(floor, math.ulp(0.0)))
    small = live & (size <= (_J_SERIES_MAX_X if sign < 0 else 2.0))
    large = live & (size > switch(mu))

    def series(v):
        return _series(mu, v, -1) if sign < 0 else np.exp(-v) * _series(mu, v, 1)

    out = np.zeros((2,) + z.shape, dtype=z.dtype)
    _fill(out, small, series, z)
    _fill(out, large, closure, z)
    _fill(out, live & ~small & ~large, lambda v: _miller(mu, v, sign), z)
    _fill(out[1], large & (size <= switch(mu + 1)), lambda v: _miller(mu, v, sign)[1], z)
    return out


def _jn_pair(n: int, x: np.ndarray) -> np.ndarray:
    """J_n(x) and J_{n+1}(x), shape (2,) + x.shape, for n >= 0 and x >= 0; past
    x = 50 max(1, mu) the order mu takes Hankel's expansion."""

    def hankel(v):
        # J_mu = sqrt(2/(pi x)) (P cos chi - Q sin chi), chi = x - (2 mu + 1) pi/4, by angle
        # addition: numpy reduces x exactly, and chi formed in doubles loses up to ulp(x)
        p, q = _hankel(n, v, -1)
        shift = (np.array([[2 * n + 1], [2 * n + 3]]) % 8) * (0.25 * math.pi)
        c, s = np.cos(v), np.sin(v)
        cos_chi = c * np.cos(shift) + s * np.sin(shift)
        sin_chi = s * np.cos(shift) - c * np.sin(shift)
        root = _root_of_product(math.pi, v, lambda pi_x: np.sqrt(2.0 / pi_x), -0.5)
        return root * (p * cos_chi - q * sin_chi)

    return _regimes(n, x, -1, hankel, lambda mu: 50.0 * max(1, mu))


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
    """index-th positive zero of J_order, to a relative bracket width of 1e-13.

    J_n has no zero below n, its zeros are more than 1 apart, and past 2n
    every interval of length 2 pi / sqrt(3) holds one (Sturm comparison of
    sqrt(x) J_n with sin(sqrt(3) x / 2)).  So the index-th sign change on a
    grid of step <= 1 from n to 2n + index * 2 pi / sqrt(3) brackets the zero
    alone; each refinement step evaluates J_n on 257 points of the bracket.
    """
    n = _order_as_int(order)
    if n < 0:
        raise ValueError("bessel_j_zero requires order >= 0")
    if index < 1:
        raise ValueError("bessel_j_zero requires index >= 1")
    end = 2.0 * n + index * 2.0 * math.pi / math.sqrt(3.0) + 1.0
    x = np.linspace(n, end, int(math.ceil(end - n)) + 1)
    while True:
        positive = _jn_pair(n, x)[0] > 0.0
        # each x[k] with a sign other than x[k - 1]'s ends a bracket
        k = np.flatnonzero(positive[1:] != positive[:-1])[index - 1] + 1
        lo, hi = x[k - 1], x[k]
        if hi - lo < 1e-13 * max(1.0, hi):
            return float(0.5 * (lo + hi))
        # the next pass refines this bracket, which holds one zero
        x, index = np.linspace(lo, hi, 257), 1


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


def _iv_pair(order, z) -> np.ndarray:
    """e^{-z} I_nu(z) and e^{-z} I_{nu+1}(z), shape (2,) + z.shape, from one pass
    of each regime; order and z as for :func:`bessel_i_scaled`."""
    nu = _check_i_order(order)
    arr = np.asarray(z, dtype=complex)
    if not np.all(np.isfinite(arr)):
        raise ValueError("bessel_i_scaled requires finite z")
    if np.any(arr.real < 0.0):
        raise ValueError("bessel_i_scaled requires Re z >= 0")
    twice, mu = nu.twice_value, nu.twice_value / 2.0
    zs = arr.ravel()
    zero = zs == 0.0
    if twice == -1 and np.any(zero):
        raise ValueError("I_{-1/2} is singular at z = 0")

    def hankel(v):
        # integer orders: e^{-z} I_mu(z) ~ (2 pi z)^{-1/2} [ sum_k (-1)^k a_k/z^k
        #   + e^{+-(mu+1/2) pi i} e^{-2z} sum_k a_k/z^k ],  Re z >= 0
        # e^{+-(mu+1/2) pi i} is exactly (+-i)^(2 mu + 1); as a sum of the
        # exponent, (mu + 1/2) pi would be rounded at ulp(2|z|); the reflected
        # term is formed only where it can reach the sum, 2 Re z < 60 (tested
        # as Re z < 30, since 2 Re z overflows near the end of the float range)
        even, odd = _hankel(twice // 2, v, 1)
        out = even - odd
        near = v.real < 30.0
        if np.any(near):
            turn = np.array([[1j ** ((twice + 1) % 4)], [1j ** ((twice + 3) % 4)]])
            vn = v[near]
            out[:, near] += (np.where(vn.imag >= 0.0, turn, turn.conj()) * _exp_minus_twice(vn)
                             * (even[:, near] + odd[:, near]))
        return out / _root_of_product(2.0 * math.pi, v, np.sqrt, 0.5)

    def upward(v):
        # half-odd orders: hyperbolic closed forms for -1/2 and 1/2, then the
        # upward three-term recurrence
        pref = _SQRT_2_OVER_PI / np.sqrt(v)
        em2z = _exp_minus_twice(v)
        lo, hi = pref * 0.5 * (1.0 + em2z), pref * 0.5 * (1.0 - em2z)
        # past |z| ~ 1e308 the scaling of the complex quotient tw / z
        # overflows, and the quotient, which underflows there, comes out 0
        with np.errstate(over="ignore"):
            for tw in range(1, twice + 2, 2):
                lo, hi = hi, lo - (tw / v) * hi
        return lo, hi

    closure, floor = (hankel, 60.0) if nu.is_integer else (upward, 2.0)
    out = _regimes(mu, zs, 1, closure, lambda m: max(floor, m * m / 4.0))
    if twice == 0:
        out[0, zero] = 1.0
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
