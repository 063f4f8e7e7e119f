"""Infinite cosine-product transform values and nearest-integer digit traces.

mu_hat evaluates prod_{k>=0} cos(2 pi theta^-k t) with a certified truncation
bound derived from |log cos x| <= x^2 on |x| <= 1.  Its factors come from a
fixed-point integer kernel: x = |t| theta^-k is a Python int with W
fractional bits, stepped by one multiply by a fixed-point theta^-1 and a
shift, reduced mod 1 by a mask, with each cosine from _cos_fixed.  That
returns the bits of mpmath's cos_sin_fixed, but between 400 and 1500 bits
it skips, in the even quadrants, the square root that derives a sine the
kernel would discard.  W is chosen from the kernel's derived error, so
that error stays within 2^-(pb+12) and the bound of each value is
certified.  The loop (_kernel_cosines) and its running product
(_fixed_product) also give the descending head of spectrum's two-sided
products; _cos_fixed gives the cosines of their ascending side.

The even moments of mu_theta come from one fixed-point integer recurrence
with a derived error (_moment_table).  Every tail takes mu_hat's Taylor
polynomial from it: the float64 path rounds its ten coefficients once
(_tail_coefficients), and the two-sided products' descending side and
mu_hat under a descent plan (_descent_plan) run it at W bits by Horner's
rule (_moment_polynomial, _tail_factor), after a head cut by the float64
path's rule on the kernel's integers (_head).  Both take one plan type,
_DescentPlan, from one fit (_fit_descent), which raises W until the
kernel's derived error fits.

mu_hat_fast evaluates a Progression t_i = a + b i in float64, at its exact
points: k_c head factors, until the batch's largest argument x has
2 pi x theta/(theta - 1) <= TAIL_REACH, and then the infinite tail as one
polynomial, mu_hat's Taylor polynomial from the even moments of mu_theta,
by Horner with + and x only.  Head factor k at i = h _ROW + j comes by
angle addition from small tables of the cosines and sines of
h _ROW b theta^-k + a theta^-k and j b theta^-k (_unit_tables), built once
per call from fixed-point steps: no cosine per point.  Its error bound is
derived a priori from theta, the batch's largest |t| and k_c (see
fast_error_bound); a batch whose bound exceeds the caller's tolerance is
refused, not evaluated.  A batch may be cut into segments, each planned
and refused as a batch of its own.  An admitted batch runs in blocks of at
most FAST_BLOCK points, each in block-sized scratch arrays, and the blocks
of all its segments are shared over one pool of at most one thread per
core this process may run on (numpy's ufuncs release the GIL); every value
bit is that of the plain expression.  Given a retention floor, a value of
modulus below it comes back as +0.0, as does a value where the product
vanishes at the exact t_i (_zero_classes: residue classes of i, from the
integers of a and b).  Arbitrary points are mu_hat's.
numpy is imported inside the float64 functions only, so the precise
commands start without it.

digit_trace records the nearest integers K_j and remainders delta_j of
y theta^j; runs of small remainders force the integer recurrence
K_{j+m} = d_1 K_{j+m-1} + ... + d_m K_j, which check_recurrence verifies.
"""

from __future__ import annotations

import functools
import math
import operator
import os
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Iterator, NamedTuple, Union

import mpmath as mp
from mpmath.libmp.libelefun import (COS_SIN_CACHE_PREC, EXP_SERIES_U_CUTOFF,
                                    cos_sin_fixed, pi_fixed)

from .errors import (
    InvalidDeltaError,
    InvalidToleranceError,
    PrecisionExhaustedError,
)
from .pisot import (PisotNumber, _as_multiplier, _nearest_int, _theta_value,
                    _to_mpf, embed)

# below this modulus a cosine factor is treated as a potential exact zero
FACTOR_FLOOR = 1e-30
_FLOOR_NUM, _FLOOR_DEN = FACTOR_FLOOR.as_integer_ratio()
# error of cos_sin_fixed(a, W, pi_fixed(W - 1)) against cos(a 2^-W), in
# units of 2^-W.  Up to W = 400 mpmath sums a Taylor series of at most W/8
# terms at W bits, each floored at most twice, onto a cached table; past
# that it sums at W + 10 or more bits.  tests/test_transform.py pins it for
# W = 96..1600, where the worst seen is 12.7.  _cos_fixed shortens the
# second regime below 1500 bits (no square root for a discarded sine) and
# keeps its bits, so the constant covers it too.
COS_FIXED_ERROR = 128
# error bound that float64 series and block maxima carry; a batch whose
# derived bound exceeds it is refused (on the golden base the bound is
# 8.5e-14 at |t| = 1e6 and 1.4e-13 at 1e11, so the head limit and the
# indices' 2^37 refuse first)
FAST_ERROR = 1e-9
# default tolerance of mu_hat_fast: sampling reports resolve moduli to 1e-6
FAST_TOL = 1e-6
# unit roundoff of float64
_U = 2.0 ** -53
# absolute error of one float64 head factor (see mu_hat_fast): C c - S s
# errs by 18u for its four table values (each within 9u of its modulus, see
# _unit_tables, and |C c| + |S s| <= 1), 2u for its two products and its
# subtraction, and u for the running product; 21.5u holds it with its
# terms of order u^2
_FACTOR_ERROR = 21.5 * _U
# 2 pi - 2 math.pi, rounded
_TWO_PI_ERROR = 2.4492935982947064e-16
# the float64 tail: once 2 pi x theta/(theta - 1) <= TAIL_REACH, the factors
# left are mu_hat(x), which the even-moment polynomial of degree TAIL_DEGREE
# in (2 pi x)^2 gives within TAIL_REACH^(2 TAIL_DEGREE + 2)/(2 TAIL_DEGREE
# + 2)! = 1/20!, about 4e-19 (see mu_hat_fast).  A head factor costs about
# 2 Horner steps (one einsum and the product), and each doubling of the
# reach saves log 2/log theta factors for two steps.  At 1, |P~| <= 1 + 8u
# keeps the tail inside the 21u past modulus 1 that _fast_plan's growth
# factor allows every factor; at 1.5 _tail_rounding gives 30u, past it,
# and at 2 the series remainder alone is 4e-13
TAIL_REACH = 1.0
TAIL_DEGREE = 9
# longest head a float64 segment is planned with: each head factor is two
# numpy calls over each block, so 2^20 of them take seconds even on one
# point.  A base just above 1 needs more (1 + 2^-40 needs about 3e13 at
# |t| = 1), and its segment is refused after 2^20 divisions instead of
# planned one division at a time
_HEAD_LIMIT = 2 ** 20
# fractional bits of the float64 path's moment coefficients, each rounded
# once to float64 from them
_MOMENT_BITS = 192


def _tail_rounding() -> float:
    """Bound on |P~(v~) - mu_hat(x)| plus the rounding of w P~ (see
    mu_hat_fast): the series remainder and the rounding of v, of the
    coefficients and of Horner's steps."""
    def gamma(k):
        return k * _U / (1 - k * _U)
    total = TAIL_REACH ** (2 * TAIL_DEGREE + 2) / math.factorial(
        2 * TAIL_DEGREE + 2)
    for n in range(TAIL_DEGREE + 1):
        # |b_n| v^n <= (2 pi x A)^(2n)/(2n)!, and v~ <= v (1 + gamma_5)
        a = TAIL_REACH ** (2 * n) / math.factorial(2 * n)
        grown = (1 + gamma(5)) ** n
        total += a * (grown - 1 + grown * (_U if n else 0)
                      + grown * (1 + _U) * gamma(2 * n + 1))
    return (total + _U) * (1 + 2.0 ** -30)


# error of the tail factor P~ and of its product, argument error apart:
# 6.8u for P~ and u for the product, so |P~| <= 1 + 8u
_TAIL_ERROR = _tail_rounding()
# points per block of a mu_hat_fast batch: 256 KiB per block-sized array
FAST_BLOCK = 2 ** 15

Theta = Union[PisotNumber, int, float, Fraction, mp.mpf]


@dataclass(frozen=True)
class MuHatResult:
    """One transform value: [value - error_bound, value + error_bound]
    brackets the true infinite product; contains_zero marks a factor that
    fell below the factor floor, in which case the bracket straddles 0."""

    value: mp.mpf
    error_bound: mp.mpf
    truncation_index: int
    contains_zero: bool


@dataclass(frozen=True)
class DigitTrace:
    """Nearest integers K_j and remainders delta_j of y theta^j, j = 1..N.

    exceed_set lists the (1-based) j whose |delta_j| exceeded the threshold
    the trace was built against.
    """

    y: mp.mpf
    N: int
    K: tuple[int, ...]
    delta: tuple
    exceed_set: tuple[int, ...]


@dataclass(frozen=True)
class SeriesItem:
    """One coefficient sample: t = r*n in the real embedding."""

    n: int
    t: object
    value: object
    error_bound: object
    contains_zero: bool


def _check_tol(tol) -> None:
    if not 0 < tol < 0.5:
        raise InvalidToleranceError(f"tol must lie in (0, 1/2), got {tol}")


def _truncation_depth(x0, q, tol) -> int:
    """Least K >= 0 with x_(K+1) <= 1 and x_(K+1)^2 / (1 - q^-2) <= tol,
    where x_j = x0 / q^j and q > 1.

    Past such a K, |log cos x| <= x^2 on |x| <= 1 bounds the log-defect of
    the product cut after x_K by the geometric tail sum, which is at most
    tol.  x_j is stepped by division, so float64 inputs give a fixed depth.
    """
    tail_scale = 1 / (1 - q ** -2)
    K, x = 0, x0 / q
    while x > 1 or x * x * tail_scale > tol:
        K += 1
        x /= q
    return K


def _mag_estimate(t) -> int:
    if isinstance(t, Fraction):
        if t == 0:
            return 0
        return max(0, t.numerator.bit_length() - t.denominator.bit_length() + 1)
    if not t:
        return 0
    return max(0, int(mp.mag(t)))


def _float_depth(x0: float, q: float, tol: float) -> int | None:
    """_truncation_depth(x0, q, tol) taken in float64, or None when a
    comparison it decides lies within float64's error.

    x0 and q are floats within a relative 3u and u of their exact values
    (u = 2^-53), as three roundings and one give.  x_j = x0 / q^j, after j
    divisions, then lies within a relative (2j + 4)u of its exact value,
    and x_j^2 / (1 - q^-2) within twice that plus 4u / (1 - q^-2) for the
    cancellation in 1 - q^-2.  The mpf rule rounds at far more bits.  Each
    comparison here clears its threshold by twice these margins, so the
    mpf rule decides it the same way.
    """
    if not (x0 < 1e150 and tol >= 1e-250):
        return None
    s = 1 / (1 - q ** -2)
    j, x = 1, x0 / q  # x = x_j, after j divisions
    while True:
        mx = (4 * j + 8) * _U
        mv = (8 * j + 16 + 8 * s) * _U
        v = x * x * s
        if x * (1 - mx) > 1 or v * (1 - mv) > tol:
            j, x = j + 1, x / q
        elif x * (1 + mx) <= 1 and v * (1 + mv) <= tol:
            return j - 1
        else:
            return None


def _depth(x0, q, tol) -> int:
    """_truncation_depth(x0, q, tol) for mpf x0 and q: _float_depth decides
    it, and the mpf rule at the ambient precision settles what float64
    cannot."""
    K = _float_depth(float(x0), float(q), tol)
    return _truncation_depth(x0, q, tol) if K is None else K


def _fixed_abs(t, W: int, work: int) -> int:
    """floor(|t| 2^W), exact for int, Fraction, float and mpf t; any other
    input is converted at work + W bits first."""
    if isinstance(t, (int, Fraction)):
        n, d = abs(t.numerator), t.denominator
    elif isinstance(t, float):
        n, d = abs(t).as_integer_ratio()
    else:
        if not isinstance(t, mp.mpf):
            with mp.workprec(work + W):
                t = _to_mpf(t)
        _, man, exp, _ = t._mpf_
        return man << (W + exp) if W + exp >= 0 else man >> -(W + exp)
    return (n << W) // d


def _descent_x_error(th, K: int, mag: int, x0_error: int = 1) -> int:
    """Error of x_k, k <= K, in the kernel's descent at |t| < 2^mag, in
    units of 2^-W, when x_0 is off by under x0_error units (see mu_hat)."""
    with mp.workprec(64):
        gap = int(mp.ldexp(th / (th - 1), 16)) + 2
    # gap 2^(mag - 16) >= S = 2^mag theta/(theta - 1)
    return x0_error + 2 + K + (gap << mag >> 16)


def _descent_error(th, K: int, mag: int) -> int:
    """Error of one factor of mu_hat's descent to depth K at |t| < 2^mag,
    in units of 2^-W, its product shift included (see mu_hat)."""
    return COS_FIXED_ERROR + 4 + 7 * _descent_x_error(th, K, mag)


def _kernel_plan(theta: Theta, t, tol: float, pb: int):
    """(K, W, E) of mu_hat's kernel at t, or None at t = 0: the depth, the
    fractional bits and the derived error in units of 2^-W (see mu_hat)."""
    th = _theta_value(theta, pb + 64)
    mag = _mag_estimate(t)
    with mp.workprec(pb + mag + 32):
        x0 = 2 * mp.pi * abs(_to_mpf(t))
        if not x0:
            return None
        K = _depth(x0, th, tol)
    E = 2 * (K + 1) * _descent_error(th, K, mag)
    return K, pb + 12 + E.bit_length(), E


def _cos_fixed(a: int, W: int, half_pi: int) -> int:
    """cos_sin_fixed(a, W, half_pi)[0], bit for bit, without the sine that
    mpmath derives and the kernels discard.

    Above COS_SIN_CACHE_PREC and below EXP_SERIES_U_CUTOFF, cos_sin_fixed
    reduces a to t = a mod pi/2 and calls exponential_series(t, W, 2), which
    sums the cosine's series, applies r double-angle steps and then takes
    the sine with isqrt_fast.  In the even quadrants the cosine is +-that
    series cosine, so this runs the same r, extra, wp, loop and steps and
    stops before the square root.  The odd quadrants' cosine is that sine,
    and every other W has no such waste; cos_sin_fixed takes both.
    """
    if W <= COS_SIN_CACHE_PREC or W >= EXP_SERIES_U_CUTOFF:
        return cos_sin_fixed(a, W, half_pi)[0]
    n, t = divmod(a, half_pi)
    if n & 1:
        return cos_sin_fixed(a, W, half_pi)[0]
    xmag = t.bit_length() - W
    r = max(0, xmag + int(0.5 * W ** 0.5))
    extra = 10 + 2 * max(r, -xmag)
    wp = W + extra
    x = t << (extra - r)
    one = 1 << wp
    x2 = term = (x * x) >> wp
    x4 = (x2 * x2) >> wp
    s0 = s1 = 0
    k = 2
    while term:
        term //= (k - 1) * k
        s0 += term
        k += 2
        term //= (k - 1) * k
        s1 += term
        k += 2
        term = (term * x4) >> wp
    c = ((x2 * s1) >> wp) - s0 + one
    for _ in range(r):
        c = ((c * c) >> (wp - 1)) - one
    c >>= extra
    return -c if n & 2 else c


def _kernel_step(theta: Theta, W: int) -> int:
    """R = round(2^W / theta), from theta at W + 16 bits: the kernel's step
    x_(k+1) = (x_k R) >> W (see mu_hat)."""
    _, man, exp, _ = _theta_value(theta, W + 16)._mpf_
    return ((1 << (W + 1 - exp)) // man + 1) >> 1


def _kernel_cosines(R: int, x: int, W: int, count: int):
    """cos(2 pi x_k) in units of 2^-W for k = 0..count-1, where x_0 = x and
    x_(k+1) = (x_k R) >> W, R the kernel's step (_kernel_step); each cosine
    is _cos_fixed's, which has cos_sin_fixed's bits."""
    two_pi, half_pi = pi_fixed(W + 1), pi_fixed(W - 1)
    mask = (1 << W) - 1
    for _ in range(count):
        yield _cos_fixed(((x & mask) * two_pi) >> W, W, half_pi)
        x = (x * R) >> W


@functools.cache
def _tail_degree(W: int) -> int:
    """The least N with (2N + 2)! > 2^W: the moment polynomial of degree N
    is then within one unit of 2^-W of mu_hat (see _moment_polynomial)."""
    N, f = 0, 2
    while f <= 1 << W:
        N += 1
        f *= (2 * N + 1) * (2 * N + 2)
    return N


@functools.lru_cache(maxsize=64)
def _moment_polynomial(theta: Theta, pb, W: int) -> tuple[list, int, int]:
    """(a, R, cap): a_n = m_2n/(2n)!, n = 0.._tail_degree(W), in units of
    2^-W; cap = floor(2^W/(2 pi A)) - 1, A = theta/(theta - 1); and R in
    units, so that for integers 0 <= x <= cap, with z = (x two_pi) >> W
    and v = (z z) >> W, |_moment_tail(a, v, W) - mu_hat(v')| <= R for the
    real v' = v 2^-W, mu_hat taken at s = sqrt(v')/(2 pi).  Cached per
    base and W; pb as in _moment_table.

    mu_hat(s) = E cos(2 pi s X) for X = sum_k +-theta^-k, |X| <= A, so its
    Taylor polynomial P(v) = sum_{n<=N} (-1)^n a_n v^n in v = (2 pi s)^2,
    a_n = m_2n/(2n)! with m_2n = E X^2n, is within |2 pi s A|^(2N+2)/(2N+2)!
    <= 1/(2N+2)! < one unit while 2 pi s A <= 1, which both floors keep
    for x <= cap.  The a_n come from _moment_table at Wm = B - 4 bits,
    B the multiple of 64 at or above W + 16, so theta is read at the
    kernel's own precision (_kernel_step) and one table of the degree of
    Wm serves every W with the same B; each a_n is floored to W bits,
    within c_n = ceil(e_n 2^(W - Wm)) + 1 units.  Horner's rule floors once
    per step, and v <= 1 scales each earlier error by at most 1.  So
    R = 1 + sum_n c_n + N.  cap is taken from theta at W + 16 bits, one
    unit below the floor.
    """
    Wm = ((W + 79) >> 6 << 6) - 4
    N, s = _tail_degree(W), Wm - W
    a, e = _moment_table(theta, pb, _tail_degree(Wm), Wm)
    with mp.workprec(W + 16):
        th = _theta_value(theta, W + 16)
        cap = int(mp.ldexp((th - 1) / (2 * mp.pi * th), W)) - 1
    return ([c >> s for c in a[:N + 1]],
            1 + N + sum(((err - 1) >> s) + 2 for err in e[:N + 1]), cap)


def _moment_tail(a: list, v: int, W: int) -> int:
    """P(v) = sum_n (-1)^n a_n v^n in units of 2^-W by Horner's rule, one
    floor per step, for v and the a_n in units (see _moment_polynomial)."""
    p = a[-1]
    for c in a[-2::-1]:
        p = c - ((p * v) >> W)
    return p


class _DescentPlan(NamedTuple):
    """mu_hat's descent at pb bits for every |t| < 2^mag (_fit_descent)."""

    pb: int
    mag: int
    K: int          # the head rule's bound: k_c <= K at every such t
    X: int          # the error of x_k, k <= K, in units of 2^-W
    e: int          # the error of one head factor, k <= K
    W: int          # the kernel's fractional bits
    E: int          # its derived error in units of 2^-W
    tail_error: int  # the tail factor's error E_d
    moments: list   # the tail's coefficients (_moment_polynomial)
    cap: int        # the head rule's threshold (_head)
    step: int       # the kernel's step (_kernel_step)


def _fit_descent(theta: Theta, pb: int, mag: int, K: int, X: int,
                 heads: int, other: int) -> _DescentPlan:
    """The descent plan of _descent_plan and of spectrum._phi_plan: K head
    factors whose x_k err by at most X units of 2^-W, heads of them charged
    e = COS_FIXED_ERROR + 4 + 7 X each, other the summed error of every
    other factor but the tail.  The tail factor (_tail_factor) errs by at
    most E_d = R + (floor(a_1) + 2)(2 e_z + 1), e_z = 7 X + 2, R and a_1
    from _moment_polynomial (see spectrum's _biinfinite_product).  So
    E = 2 (heads e + other + E_d), the cosines' excess over 1 at most
    doubling the sum; the tail's degree and coefficients depend on W, so W
    is raised from pb + 12 plus the bit length of 2 (heads e + other)
    until E fits in 2^(W - pb - 12)."""
    e = COS_FIXED_ERROR + 4 + 7 * X
    base = heads * e + other
    key = getattr(theta, "precision_bits", None)
    W = pb + 12 + (2 * base).bit_length()
    while True:
        moments, rounding, cap = _moment_polynomial(theta, key, W)
        # a_1 = m_2/2 bounds mu_hat's slope in v
        tail = rounding + ((moments[1] >> W) + 2) * (14 * X + 5)
        E = 2 * (base + tail)
        if E.bit_length() <= W - pb - 12:
            return _DescentPlan(pb, mag, K, X, e, W, E, tail, moments, cap,
                                _kernel_step(theta, W))
        W = pb + 12 + E.bit_length()


def _head(x: int, plan: _DescentPlan) -> list:
    """[x_0, ..., x_k]: the kernel's descent x_(j+1) = (x_j step) >> W from
    x_0 = x, to the least k <= K with x_k + X <= cap, the plan's step, W,
    K, X and cap.  The true x_k then has 2 pi A x_k <= 1,
    A = theta/(theta - 1): the float64 path's head rule, decided by one
    integer comparison per step.  Raises PrecisionExhaustedError when no
    k <= K has it."""
    xs = [x]
    while x + plan.X > plan.cap:
        if len(xs) > plan.K:
            raise PrecisionExhaustedError(
                f"the descending head passes its planned {plan.K} factors at "
                f"{plan.pb} bits"
            )
        x = (x * plan.step) >> plan.W
        xs.append(x)
    return xs


def _tail_factor(x: int, plan: _DescentPlan) -> int:
    """mu_hat(x 2^-W) within the plan's E_d units of 2^-W, for the head's
    last x: the moment polynomial (_moment_tail) at v = (z z) >> W,
    z = (x two_pi) >> W."""
    W = plan.W
    z = (x * pi_fixed(W + 1)) >> W
    return _moment_tail(plan.moments, (z * z) >> W, W)


def _descent_plan(theta: Theta, pb: int, mag: int) -> _DescentPlan:
    """The plan of mu_hat's descent that serves every |t| < 2^mag at pb
    bits (see mu_hat's plan).

    K is the head rule's count at a 64-bit estimate of y = 2 pi A 2^mag,
    A = theta/(theta - 1), with 2^-10 of the count to spare, as
    spectrum._phi_plan takes it: y theta^-K <= theta^-(2^-10) < 1 - 2^-12
    for every theta above 1.2841, the Pisot numbers among them, and
    2 pi A (2 X + 2) 2^-W is far below 2^-12, so the exact walk of _head
    stops at or before K.  X = _descent_x_error(theta, K, mag) bounds the
    error of x_k for k <= K.  _fit_descent charges each of the K head
    factors e = COS_FIXED_ERROR + 4 + 7 X (see mu_hat), and nothing else
    but the tail factor, and fits W.
    """
    th = _theta_value(theta, pb + 64)
    with mp.workprec(64):
        y = mp.ldexp(2 * mp.pi * th / (th - 1), mag)
        K = max(0, int(mp.log(y) / mp.log(th) + mp.ldexp(1, -10)) + 1)
    return _fit_descent(theta, pb, mag, K, _descent_x_error(th, K, mag), K, 0)


def _descent_factors(plan: _DescentPlan, t):
    """(k_c, factors): the kernel's k_c head factors at t by the head rule
    (_head), from x_0 = floor(|t| 2^W), and then the tail factor, the
    moment polynomial at x_(k_c), each in units of 2^-W.  Raises ValueError
    unless |t| < 2^mag, the plan's mag."""
    W, mag = plan.W, plan.mag
    x = _fixed_abs(t, W, plan.pb + mag + 32)
    if x >> (W + mag):
        raise ValueError(f"a descent plan for |t| < 2^{mag} cannot serve "
                         f"|t| >= 2^{mag}")
    xs = _head(x, plan)
    k_c = len(xs) - 1
    return k_c, chain(_kernel_cosines(plan.step, x, W, k_c),
                      [_tail_factor(xs[-1], plan)])


def _floor_units(W: int) -> int:
    """The least integer c with c 2^-W >= FACTOR_FLOOR: |c| < it exactly
    when |c| 2^-W < FACTOR_FLOOR."""
    return -((-_FLOOR_NUM << W) // _FLOOR_DEN)


def _fixed_product(cosines, W: int, floor_units: int = 1):
    """(value, low): the product of the factors c 2^-W with
    |c| >= floor_units, as an mpf of W + 1 bits, and the list of the others.

    The running product keeps W + 1 significant bits, one shift per factor;
    floor_units >= 1 keeps a zero factor out of it.
    """
    value, exp = 1 << W, -W
    low = []
    for c in cosines:
        if -floor_units < c < floor_units:
            low.append(c)
        else:
            value *= c
            shift = value.bit_length() - W - 1
            value >>= shift
            exp += shift - W
    with mp.workprec(W + 1):
        return mp.ldexp(value, exp), low


def mu_hat(theta: Theta, t, tol: float = 1e-20,
           precision_bits: int | None = None,
           plan: _DescentPlan | None = None) -> MuHatResult:
    """Transform value at t with certified truncation error.

    Truncates after the minimal K with (2 pi theta^-(K+1) |t|)^2/(1-theta^-2)
    <= tol and 2 pi theta^-(K+1) |t| <= 1: _float_depth decides it, and
    the mpf rule _truncation_depth settles what float64 cannot.  Even in t
    by construction.

    The K + 1 factors come from a fixed-point integer kernel with W
    fractional bits.  x_0 = floor(|t| 2^W) and x_(k+1) = (x_k R) >> W, with
    R = round(2^W / theta) from theta at W + 16 bits.  The W low bits of x_k
    are its fraction mod 1; 2 pi times it, in fixed point, goes to
    _cos_fixed, which has the bits of mpmath's cos_sin_fixed, with
    pi_fixed(W - 1), pi/2 in fixed point.  The running
    product keeps W + 1 significant bits, one shift per factor.

    The kernel's absolute error, in units of 2^-W, with
    S = 2^mag(t) theta/(theta - 1) >= sum_k |t| theta^-k:
      - x_k is off by at most 2 + K + S: under one unit from x_0, one per
        shift, and x_j |R - 2^W/theta| <= x_j per step, while an earlier
        error is scaled by at most theta^-1 + 2^-W <= 1;
      - a factor by COS_FIXED_ERROR for the cosine, 3 for its fixed-point
        argument and 2 pi < 7 times the error of x_k;
      - the product by one unit per shift.  The factors have modulus at
        most 1 and their errors add up; the cosines' excess over 1 at most
        doubles the sum over K + 1 factors.
    So E = 2 (K + 1) (COS_FIXED_ERROR + 4 + 7 (2 + K + S)), and W is
    pb + 12 plus the bit length of E: the kernel is within 2^-(pb+12).
    The bound adds e^tol times that to the truncated tail, within its
    2^-(pb+10) term.

    A factor of modulus below FACTOR_FLOOR is a floor hit: it stays out of
    the product, and the result brackets zero, taking |c| + E as the
    modulus of that factor.

    With plan, a _descent_plan taken at some mag with |t| < 2^mag (it
    takes pb from the plan, and reads neither tol nor precision_bits; a
    larger |t| raises ValueError), there is no truncation at tol.  The
    same kernel takes factor k while x_k + X > cap, on its integer x_k
    from x_0 = floor(|t| 2^W): the float64 path's head rule
    2 pi A x <= 1, A = theta/(theta - 1), decided by one comparison per
    step (_head).  Then one factor, mu_hat(x_(k_c)) by the moment
    polynomial at W bits (_tail_factor), takes every later factor.  The
    kernel is within E 2^-W <= 2^-(pb+12) of the infinite product (see
    _fit_descent), and the value comes back with the bound 2^-(pb+10);
    truncation_index is k_c.  A floor hit brackets zero as above.  Every
    t of a batch can share one plan: the spot check's references and
    leading-factor proofs (empirical._sampled) do.
    """
    if plan is not None:
        return _descent_value(t, plan)
    _check_tol(tol)
    pb = precision_bits or (theta.precision_bits
                            if isinstance(theta, PisotNumber) else 256)
    plan = _kernel_plan(theta, t, tol, pb)
    if plan is None:
        return MuHatResult(mp.mpf(1), mp.mpf(0), 0, False)
    K, W, E = plan
    work = pb + _mag_estimate(t) + 32
    cosines = _kernel_cosines(_kernel_step(theta, W), _fixed_abs(t, W, work),
                              W, K + 1)
    value, low = _fixed_product(cosines, W, _floor_units(W))
    floor_hits = [abs(c) + E for c in low]

    with mp.workprec(work):
        rounding = (K + 2) * mp.mpf(2) ** (-(pb + 20))
        if floor_hits:
            floor_prod = mp.fprod(mp.ldexp(h, -W) for h in floor_hits)
            bracket = abs(value) * (floor_prod + rounding) * mp.exp(tol) + rounding
            return MuHatResult(mp.mpf(0), bracket, K, True)
        err = abs(value) * mp.expm1(tol + rounding) + mp.mpf(2) ** (-(pb + 10))
        return MuHatResult(value, err, K, False)


def _descent_value(t, plan: _DescentPlan) -> MuHatResult:
    """mu_hat(theta, t, plan=plan): k_c head factors by the head rule, then
    the tail by the moment polynomial (see mu_hat)."""
    W = plan.W
    k_c, factors = _descent_factors(plan, t)
    value, low = _fixed_product(factors, W, _floor_units(W))
    bound = mp.ldexp(1, -(plan.pb + 10))
    if low:
        with mp.workprec(plan.pb + 32):
            floor_prod = mp.fprod(mp.ldexp(abs(c) + plan.E, -W) for c in low)
            return MuHatResult(mp.mpf(0), abs(value) * floor_prod + bound,
                               k_c, True)
    return MuHatResult(value, bound, k_c, False)


def _leading_factors_below(t, limit, plan: _DescentPlan) -> bool:
    """True when mu_hat's leading factors at t alone show |mu_hat(t)| <=
    limit, a float or a Fraction.

    mu_hat(t) is the product of the head factors cos(2 pi t theta^-k),
    k < k_c, and of mu_hat(x_(k_c)), each of modulus at most 1, so the
    product of the first j of them bounds |mu_hat(t)| for each j.  plan is
    a _descent_plan that serves t: taken at some mag with |t| < 2^mag (so
    for the points r n of a batch, Fraction(r) n, at the batch's largest
    |t|).  Its kernel then takes the factors at t as mu_hat(t, plan=plan)
    does (_descent_factors): each head factor within the plan's
    e = COS_FIXED_ERROR + 4 + 7 X units of 2^-W, X bounding x_k's error at
    every |t| < 2^mag, and the tail factor within its E_d (see
    _fit_descent).  The running product of |c| plus
    its error, rounded up at each shift, bounds the partial products from
    above, and the factors are taken only until it falls to limit.  So
    one plan, taken at a batch's largest |t|, serves every point of the
    batch.
    """
    W = plan.W
    num, den = limit.as_integer_ratio()
    cap, run = (num << W) // den, 1 << W
    k_c, factors = _descent_factors(plan, t)
    for k, c in enumerate(factors):
        err = plan.e if k < k_c else plan.tail_error
        run = -((-run * (abs(c) + err)) >> W)
        if run <= cap:
            return True
    return False


@functools.cache
def _even_binomials(n: int) -> tuple:
    """C(2n, 2k) for k = 0..n-1."""
    return tuple(math.comb(2 * n, 2 * k) for k in range(n))


@functools.lru_cache(maxsize=64)
def _moment_table(theta: Theta, pb, N: int, Wm: int) -> tuple:
    """((A_0, ..., A_N), (e_0, ..., e_N)): a_n = m_2n/(2n)! of mu_theta in
    units of 2^-Wm, each within e_n units, m_2n its even moments.  Cached per
    base, degree and Wm; pb is part of the key because bases compare by
    their digits alone.

    X = e_0 + X'/theta, with e_0 = +-1 and X' distributed as X, so
    m_2n = sum_{k<=n} C(2n, 2k) m_2k theta^-2k, whose k = n term is
    m_2n q^n, q = theta^-2: m_2n (1 - q^n) = sum_{k<n} C(2n, 2k) m_2k q^k,
    from m_0 = 1.  The recurrence runs on integers in units u = 2^-Wm, and
    the error of each value is derived alongside it:
      - Q_1 = round(q 2^Wm) from theta at Wm + 4 bits, within one unit:
        q's relative error is below 3 2^-(Wm+4), and q < 1;
        Q_k = (Q_(k-1) Q_1) >> Wm is within eq_k = eq_(k-1) + eq_1 + 1,
        since Q_(k-1) Q_1 - q^k = (Q_(k-1) - q^(k-1)) Q_1 + q^(k-1) (Q_1 - q)
        with Q_1, q^(k-1) <= 1, and the floor adds one; Q_0 is exact;
      - g_k = (M_k Q_k) >> Wm, M_k within e'_k of m_2k, is within
        eg_k = e'_k + h_k eq_k + 1, h_k = (M_k + e'_k)/2^Wm + 1 >= m_2k, by
        the same split; T = sum_{k<n} C(2n, 2k) g_k is exact, within
        e_T = sum_{k<n} C(2n, 2k) eg_k;
      - M_n = floor(T 2^Wm/D), D = 2^Wm - Q_n within eq_n of d = 2^Wm (1 -
        q^n).  T 2^Wm/D - t 2^Wm/d = (T - t) 2^Wm/D + m_2n (d - D)/D, and
        with i >= 2^Wm/(D - eq_n), an integer, m_2n <= (T + e_T) i 2^-Wm, so
        M_n is within e'_n = 1 + e_T i + h i^2 eq_n, h = (T + e_T)/2^Wm + 1;
      - A_n = floor(M_n/(2n)!) is within e_n = e'_n/(2n)! + 1, rounded up.
    """
    one = 1 << Wm
    with mp.workprec(Wm + 8):
        Q1 = int(mp.nint(mp.ldexp(1 / _theta_value(theta, Wm + 4) ** 2, Wm)))
    Q, eq = [one, Q1], [0, 1]
    for _ in range(2, N + 1):
        Q.append((Q[-1] * Q1) >> Wm)
        eq.append(eq[-1] + 2)
    M, em = [one], [0]            # m_2n and its error
    g, eg = [], []                # g_k and its error
    a, e = [one], [0]
    for n in range(1, N + 1):
        k = n - 1
        g.append((M[k] * Q[k]) >> Wm)
        eg.append(em[k] + (((M[k] + em[k]) >> Wm) + 1) * eq[k] + 1)
        row = _even_binomials(n)
        T, eT = sum(map(operator.mul, row, g)), sum(map(operator.mul, row, eg))
        D = one - Q[n]
        inv = one // (D - eq[n]) + 1        # >= 2^Wm/D and 2^Wm/d
        M.append((T << Wm) // D)
        em.append(1 + eT * inv + (((T + eT) >> Wm) + 1) * inv * inv * eq[n])
        f = math.factorial(2 * n)
        a.append(M[n] // f)
        e.append(em[n] // f + 2)
    return tuple(a), tuple(e)


def _tail_coefficients(theta: Theta) -> tuple[float, ...]:
    """b_n = (-1)^n m_2n/(2n)!, n = 0..TAIL_DEGREE, each rounded once to
    float64 from _moment_table at _MOMENT_BITS bits: P(v) = sum b_n v^n is
    mu_hat's Taylor polynomial in v = (2 pi x)^2."""
    a, _ = _moment_table(theta, getattr(theta, "precision_bits", None),
                         TAIL_DEGREE, _MOMENT_BITS)
    return tuple((-1) ** n * c / (1 << _MOMENT_BITS)
                 for n, c in enumerate(a))


def _fast_plan(theta: Theta, t_max: float) -> tuple[int, float]:
    """Head length k_c and a-priori error bound of a mu_hat_fast batch
    whose largest |t| is t_max (see fast_error_bound).
    A head longer than _HEAD_LIMIT is not planned: k_c comes back as
    _HEAD_LIMIT + 1, with bound inf.  The bound is inf, too, past
    t_max A = 2^100, A = theta/(theta - 1), where the tables' angles are
    not shown within 2^-100 turns (see mu_hat_fast)."""
    th = float(_theta_value(theta))
    with mp.workprec(128):
        exact = _theta_value(theta, 128)
        A = exact / (exact - 1)
        if not t_max * A <= 2 ** 100:
            return 0, math.inf
        reach = mp.mpf(TAIL_REACH) / (2 * mp.pi * A)
        # the largest float x with 2 pi x A <= TAIL_REACH
        x_c = float(reach)
        if mp.mpf(x_c) > reach:
            x_c = math.nextafter(x_c, 0)
    # k_c divisions of t_max by th
    kc, x = 0, t_max
    while x > x_c:
        if kc == _HEAD_LIMIT:
            return kc + 1, math.inf
        kc, x = kc + 1, x / th
    bound = (kc * _FACTOR_ERROR + TAIL_REACH * 4 * _U / (1 - 4 * _U)
             + _TAIL_ERROR)
    # the terms are float64 sums and products, within far less than a
    # relative 2^-31, and factors rounded past modulus 1, by at most 21u,
    # and the running product's roundings scale the sum by at most
    # (1 + 22u)^(k_c+1), which is below 1 + 2^-31 while k_c < 190,000
    return kc, bound * max(1 + 2.0 ** -30,
                           (1 + 22 * _U) ** (kc + 1) * (1 + 2.0 ** -31))


def fast_error_bound(theta: Theta, t_max: float) -> float:
    """Absolute error bound of mu_hat_fast on any Progression whose points
    have |t| <= t_max.

    The value computed at a point t_i = a + b i of the batch differs from
    the infinite product at t_i by at most the sum of
      - k_c times the error of one head factor, _FACTOR_ERROR.  Factor k's
        angle is t_i theta^-k to within 2^-100 turns (see mu_hat_fast),
        which _FACTOR_ERROR covers with the tables' rounding, at every k,
        and every factor has modulus at most 1, so the factors' absolute
        errors add up through the product;
      - gamma_4 TAIL_REACH for the tail's argument, gamma_4 = 4u/(1 - 4u)
        and u = 2^-53.  The tail is mu_hat at x = t_i theta^-k_c, and
        |mu_hat'| <= 2 pi E|X| <= 2 pi A, A = theta/(theta - 1), where
        mu_hat is the characteristic function of X = sum_k +-theta^-k,
        |X| <= A.  The block reads x within a relative gamma_4 (see
        mu_hat_fast), and 2 pi x A <= TAIL_REACH;
      - _TAIL_ERROR for the tail polynomial: its series remainder, the
        rounding of its coefficients, of v and of Horner's steps, and that
        of the final product (see mu_hat_fast);
    times _fast_plan's growth factor, for factors rounded past modulus 1
    and the running product's roundings.

    k_c is decided on t_max after k_c float divisions by th = theta
    rounded, so that the value bits stay pinned; the exact x_(k_c) of t_max
    may then pass x_c, the largest float with 2 pi x_c A <= TAIL_REACH, by
    a relative e = e^(k_c rate) - 1, rate = (u + d)/(1 - u - d) <= 2.01u,
    where d = |th/theta - 1| <= u.  The last two terms are polynomials of
    degree at most 2 TAIL_DEGREE + 2 = 20 in 2 pi x A with nonnegative
    coefficients, so such an x raises their 11.8u by at most
    (1 + e)^20 - 1 <= 21 e (k_c <= 2^20, so k_c rate < 2^-31): by at most
    21.3 k_c rate 11.8u <= 506 k_c u^2, below 24u, or 2^-48, of the bound's
    k_c _FACTOR_ERROR.  The growth factor's 2^-31 of margin absorbs it,
    and |P~| <= 1 + 8u still holds.
    On the golden base the bound is 5.1e-14 at t_max = 1e3, 8.5e-14 at
    1e6 and 1.4e-13 at 1e11.  It is inf where the head would be longer
    than _HEAD_LIMIT factors, and past t_max A = 2^100.
    """
    return _fast_plan(theta, abs(float(t_max)))[1]


@dataclass(frozen=True)
class Progression:
    """The points t_i = a + b i, i = start .. stop - 1, as one mu_hat_fast
    batch, whose position p holds index start + p.  a >= 0 and b > 0 are
    read as floats and taken at their exact values, so t_i is exact."""

    a: float
    b: float
    start: int
    stop: int

    def __post_init__(self):
        try:
            a, b = float(self.a), float(self.b)
        except OverflowError:
            a = b = math.nan        # past the float range: refused below
        start, stop = operator.index(self.start), operator.index(self.stop)
        if not (0 <= a < math.inf and 0 < b < math.inf and 0 <= start <= stop):
            raise ValueError("a progression needs finite a >= 0 and b > 0, "
                             f"and 0 <= start <= stop, got {self}")
        for name, value in zip(("a", "b", "start", "stop"),
                               (a, b, start, stop)):
            object.__setattr__(self, name, value)

    @property
    def size(self) -> int:
        return self.stop - self.start

    def _t_max(self, p: int) -> float:
        """The largest t at positions below p > 0, rounded up to a float."""
        exact = Fraction(self.a) + Fraction(self.b) * (self.start + p - 1)
        try:
            t = float(exact)
        except OverflowError:
            return math.inf
        return t if t >= exact else math.nextafter(t, math.inf)


# points per row of a progression's tables: index i = h _ROW + j
_ROW = 2 ** 10
# fractional bits of the fixed-point steps b theta^-k of a progression
_ANGLE_BITS = 256
# a progression's indices lie below 2^37, so that each row index h < 2^27
# times a 26-bit limb of a step is exact in float64
_INDEX_LIMIT = 2 ** 37


def _unit_tables(steps: list, offsets: list, m):
    """(cos, sin) of 2 pi r, r = m f + o mod 1, one row per (f, o) of steps
    and offsets (integers in units of 2^-_ANGLE_BITS) and one column per
    integer m < 2^27 of the float array m; each value is within 9u of its
    modulus and 2^-100 (see mu_hat_fast), u = 2^-53.

    f and o are cut into limbs of 26, 26 and the remaining bits.  m times a
    limb of 26 bits is exact, and so is each reduction x - rint(x) and each
    sum of two reduced limbs of 52 bits or fewer; only e = m f_3 + o_3,
    below 2^-24, rounds, within 3 2^-25 u.  r = hi + lo exactly by TwoSum,
    and 2 pi r = z + dz within 2^-100 by Dekker's product of hi by 2 math.pi
    and the terms of lo and of 2 pi - 2 math.pi, |dz| < 4u.  So cos(2 pi r)
    = cos z - dz sin z within 2^-100, which the float path takes within 8u
    (the cosine) plus u (the correction and its rounding) of its modulus.
    """
    import numpy as np
    W = _ANGLE_BITS

    def limbs(units):
        return (np.array([[u >> W - 26] for u in units]) * 2.0 ** -26,
                np.array([[u >> W - 52 & (1 << 26) - 1] for u in units])
                * 2.0 ** -52,
                np.array([[(u & (1 << W - 52) - 1) / (1 << W)]
                          for u in units]))

    def reduced(x):
        x -= np.rint(x)
        return x

    def split(x):
        # Veltkamp: x = x1 + x2, each half of x's bits
        c = x * 134217729.0
        x1 = c - (c - x)
        return x1, x - x1
    (f1, f2, f3), (o1, o2, o3) = limbs(steps), limbs(offsets)
    r = reduced(reduced(f1 * m) + o1)
    r += reduced(reduced(f2 * m) + o2)
    r = reduced(r)
    e = f3 * m + o3
    hi = r + e
    carry = hi - r
    lo = (r - (hi - carry)) + (e - carry)
    hi = reduced(hi)
    two_pi = 2 * math.pi
    (p1, p2), (h1, h2) = split(two_pi), split(hi)
    z = two_pi * hi
    dz = ((p1 * h1 - z) + p1 * h2 + p2 * h1) + p2 * h2
    dz += two_pi * lo + _TWO_PI_ERROR * hi
    cos, sin = np.cos(z), np.sin(z)
    return cos - sin * dz, sin + cos * dz


def _progression_tables(theta: Theta, ts: Progression, depth: int):
    """(B, A, h_0), in the layout of mu_hat_fast's einsum: for k < depth,
    B[k, :, j] = (c, s), the cosine and sine of 2 pi j b theta^-k, j <
    _ROW, and A[k, h - h_0] = (C, -S), C and S the cosine and sine of
    2 pi (h _ROW b theta^-k + a theta^-k), for every row h of ts, from
    h_0 = ts.start // _ROW (see mu_hat_fast)."""
    import numpy as np
    W = _ANGLE_BITS
    mask, R = (1 << W) - 1, _kernel_step(theta, W)
    xb, xa = _fixed_abs(ts.b, W, 0), _fixed_abs(ts.a, W, 0)
    steps, rows, offsets, zeros = [], [], [], [0] * depth
    for _ in range(depth):
        steps.append(xb & mask)
        rows.append(xb * _ROW & mask)
        offsets.append(xa & mask)
        xb, xa = xb * R >> W, xa * R >> W
    h0 = ts.start // _ROW
    j = np.arange(_ROW, dtype=np.float64)
    h = np.arange(h0, (ts.stop - 1) // _ROW + 1, dtype=np.float64)
    B, A = np.empty((depth, 2, j.size)), np.empty((depth, h.size, 2))
    # eight depths at a time, so that _unit_tables' temporaries stay small
    for k in range(0, depth, 8):
        part = slice(k, k + 8)
        B[part, 0], B[part, 1] = _unit_tables(steps[part], zeros[part], j)
        A[part, :, 0], A[part, :, 1] = _unit_tables(rows[part],
                                                    offsets[part], h)
    np.negative(A[..., 1], out=A[..., 1])
    return B, A, h0


def mu_hat_fast(theta: Theta, ts: Progression, tol: float = FAST_TOL,
                segments=None, floor: float = 0.0) -> np.ndarray:
    """Float64 transform values at the exact points t_i = a + b i of the
    Progression ts, fixed evaluation order.  Any other ts raises TypeError:
    mu_hat takes arbitrary points.

    segments, if given, are ascending positions in ts at which it is cut;
    each piece between cuts is a segment, planned as a call of its own.
    Without them the batch is one segment.  A segment's head length k_c
    comes from its largest |t|, so all its entries share it.  Raises
    PrecisionExhaustedError, before any block or output is built, when a
    segment's head would be longer than _HEAD_LIMIT factors or its derived
    error bound (fast_error_bound) exceeds tol: the plans are checked in
    segment order, so the first segment refused raises, with the message a
    call on it alone would give.  It raises so, too, once every plan is
    admitted, when an index reaches 2^37.

    Every segment runs in blocks of at most FAST_BLOCK points, cut at the
    multiples of FAST_BLOCK in i.  The blocks of all segments, larger
    first, are shared over one pool of min(cores this process may run on,
    blocks) threads, each block in two block-sized scratch arrays, and
    every value bit is that of the plain expression on its segment,
    whatever the block and thread count.

    Head factor k at i = h _ROW + j, h = i // _ROW on the absolute index,
    is cos(2 pi (h _ROW q + a theta^-k) + 2 pi j q), q =
    b theta^-k, taken by angle addition as C[k, h] c[k, j] - S[k, h]
    s[k, j] from _progression_tables: one np.einsum("hk,kj->hj") of the
    block's rows (C, -S) by the columns (c, s) into a (rows, _ROW) view of
    its scratch, then the running product.  einsum's own product loops
    (optimize=False) round each product and the sum, so each element is
    fl(fl(C c) - fl(S s)), the bits of the plain expression (a zero may
    come out +0.0 for -0.0, and the block ends every zero as +0.0); BLAS
    (np.dot, optimize=True) may fuse a product into the sum.  The steps
    b theta^-k and a theta^-k are integers in units of 2^-W, W =
    _ANGLE_BITS: b and a exactly, then one multiply by R = round(2^W/theta)
    (_kernel_step) and a shift per k, within 1 + k + b A and 1 + k + a A
    units (_descent_x_error's reasoning), A = theta/(theta - 1).  So the
    angle of i is within i (1 + k + b A) + 1 + k + a A <= (i + 1)(1 + k)
    + 2 t_max A < 2^156 units, or 2^-100 turns, of t_i theta^-k: i < 2^37,
    k <= 2^20, and t_max A <= 2^100, or the plan is refused (_fast_plan).
    _unit_tables takes
    each table value within 9u of its modulus (u = 2^-53), and
    _FACTOR_ERROR the rest of the factor's rounding.  No table value
    depends on the block, so a value's bits depend only on theta, a, b, i
    and its segment's k_c.
    The tail reads x_(k_c) = fl(fl(b' i) + a') once, with b' = fl(b g),
    a' = fl(a g) and g = fl(theta^-k_c), within a relative gamma_4 of
    t_i theta^-k_c.

    k_c is the least k at which the segment's largest x_k = |t|/theta^k
    (k float divisions) has 2 pi x_k A <= TAIL_REACH.  The factors left are
    mu_hat(x_(k_c)), and mu_hat(s) = E cos(2 pi s X) for X = sum_k
    +-theta^-k, |X| <= A.  The cosine's Taylor polynomial of degree
    2 TAIL_DEGREE is within |y|^(2N+2)/(2N+2)! of it, so
    P(v) = sum_{n<=N} b_n v^n, v = (2 pi x)^2, b_n = (-1)^n m_2n/(2n)!, is
    within TAIL_REACH^(2N+2)/(2N+2)! of mu_hat(x); m_2n are the even
    moments of X (_moment_table), each b_n rounded once
    (_tail_coefficients).
    The block forms z = 2 pi x and v = z z in the scratch, then P(v) by
    Horner in x's array, whose values are spent, and multiplies each
    running product by it: + and x only, so no value depends on which
    vectorised exp or cos numpy dispatches.  With |b_n| v^n <= y^(2n)/(2n)!
    for y = TAIL_REACH, the computed P~ differs from mu_hat(x) by at most
      - the series remainder;
      - sum |b_n| v^n ((1 + gamma_5)^n - 1) for v's five roundings (2 pi,
        the product, the square);
      - u |b_n| v~^n for each coefficient's rounding;
      - gamma_(2n+1) |b_n| v~^n for Horner's 2n + 1 roundings of term n,
    about 6.8u in all (gamma_k = k u/(1 - k u)); w P~ rounds once more
    (_TAIL_ERROR).  So |P~| <= 1 + 8u.

    Each block starts the running product at 0.0 at the indices of
    _zero_classes, where the product vanishes at the exact t_i, found once
    per call from the integers of a and b, and at 1.0 elsewhere; adding +0.0
    at the end makes each zero +0.0, as on the precise path, and leaves
    every other value as it is.

    floor > 0 returns +0.0 for every point whose value has modulus below
    floor, and every other point has the bits of the plain expression: each
    block evaluates every point, then sets each value of modulus below floor
    to +0.0 in its scratch.  floor = 0 drops nothing.
    """
    import numpy as np
    if not isinstance(ts, Progression):
        raise TypeError("mu_hat_fast takes a Progression t_i = a + b i; "
                        "mu_hat takes arbitrary points, got "
                        f"{type(ts).__name__}")
    if not floor >= 0:
        raise ValueError(f"floor must be nonnegative, got {floor}")
    cuts = [0, *([] if segments is None else segments), ts.size]
    if any(not 0 <= a <= b <= ts.size for a, b in zip(cuts, cuts[1:])):
        raise ValueError("segments must be ascending indices into the batch")
    # plan and refuse every segment, then check the indices, before any
    # block or output is built
    plans = []
    for a, b in zip(cuts, cuts[1:]):
        if a == b:
            continue
        t_max = ts._t_max(b)
        kc, bound = _fast_plan(theta, t_max)
        if kc > _HEAD_LIMIT:
            raise PrecisionExhaustedError(
                f"float64 head at |t| <= {t_max:.6g} needs more than "
                f"{_HEAD_LIMIT} factors"
            )
        if not bound <= tol:
            raise PrecisionExhaustedError(
                f"float64 error bound {bound:.3e} at |t| <= {t_max:.6g} "
                f"exceeds the tolerance {tol:.3e}"
            )
        plans.append((a, b, kc))
    if plans and ts.stop > _INDEX_LIMIT:
        raise PrecisionExhaustedError(
            f"a progression's indices must lie below 2^37, got {ts.stop - 1}")
    blocks = []
    for a, b, kc in plans:
        starts = [a, *range(a + FAST_BLOCK - (ts.start + a) % FAST_BLOCK, b,
                            FAST_BLOCK)]
        blocks += [(p, q, kc) for p, q in zip(starts, [*starts[1:], b])]
    vals = np.empty(ts.size)
    if not blocks:
        return vals
    coef = _tail_coefficients(theta)
    zeros = _zero_classes(theta, ts)
    B, A, h0 = _progression_tables(theta, ts, max(plan[2] for plan in plans))
    iota = np.arange(min(ts.size, FAST_BLOCK), dtype=np.float64)
    with mp.workprec(128):
        th_exact = _theta_value(theta, 128)
        tails = {kc: float(th_exact ** -kc)
                 for kc in {plan[2] for plan in plans}}

    def run_block(block) -> None:
        start, stop, kc = block
        n, i = stop - start, ts.start + start
        # v holds the running product; an exact zero's starts at 0.0
        v = vals[start:stop]
        v.fill(1.0)
        for i0, period in zeros:
            # a slice clamps a start or step past 2^63 - 1, so a class
            # whose first index lies past the block writes nothing
            v[(i0 - i) % period::period] = 0.0
        first, rows = i // _ROW - h0, (i + n - 1) // _ROW - i // _ROW + 1
        x, y = np.empty(rows * _ROW), np.empty(rows * _ROW)
        ahead = x.reshape(rows, _ROW)
        factor = x[i % _ROW:i % _ROW + n]
        for k in range(kc):
            # C c + (-S) s: numpy's own product loops round each product and
            # the sum, where BLAS (optimize=True, np.dot) may fuse
            np.einsum("hk,kj->hj", A[k, first:first + rows], B[k], out=ahead,
                      optimize=False)
            v *= factor
        x, y = x[:n], y[:n]
        g = tails[kc]
        # x = fl(fl(b' i) + a'), b' = fl(b g) and a' = fl(a g), from i on
        np.add(iota[:n], i, out=x)
        x *= ts.b * g
        if ts.a:
            x += ts.a * g
        # the tail P((2 pi x)^2) by Horner: v in the scratch, P in x
        np.multiply(2 * math.pi, x, out=y)
        y *= y
        np.multiply(y, coef[-1], out=x)
        for b in coef[-2:0:-1]:
            x += b
            x *= y
        x += coef[0]
        v *= x
        v += 0.0        # an exact zero's -0.0 becomes +0.0
        if floor:
            low = y.view(np.bool_)[:n]
            np.less(np.abs(v, out=x), floor, out=low)
            np.copyto(v, 0.0, where=low)

    # imported here, not at start-up: concurrent.futures loads logging, which
    # costs every command that evaluates no batch about 7 ms and 0.7 MB
    from concurrent.futures import ThreadPoolExecutor
    blocks.sort(key=lambda block: block[0] - block[1])
    workers = min(len(os.sched_getaffinity(0)), len(blocks))
    with ThreadPoolExecutor(workers) as pool:
        list(pool.map(run_block, blocks))
    return vals


def _integer_base(theta: Theta) -> int:
    """theta as an int when its value is an integer, else 1: the digit of a
    PisotNumber of degree 1, or an int, float, Fraction or mpf."""
    if isinstance(theta, PisotNumber):
        return theta.d[0] if theta.m == 1 else 1
    return int(theta) if theta == int(theta) else 1


def _zero_classes(theta: Theta, ts: Progression) -> list[tuple[int, int]]:
    """(i0, period) pairs, 0 <= i0 < period: the indices i of ts at which
    the product vanishes at the exact t_i are those with i = i0 mod period
    for some pair.

    A factor cos(2 pi t theta^-k) is 0 when 4t = theta^k times an odd
    integer.  With a = n_a/d_a and b = n_b/d_b as integer ratios, d_a and
    d_b powers of 2, t_i = (A + B i)/d for d = max(d_a, d_b), and 4 t_i =
    p times an odd integer, p = theta^k, exactly when 4 (A + B i) = d p
    mod 2 d p: one linear congruence in i per power p, whose solutions, if
    any, are one residue class modulo 2 d p/gcd(4 B, 2 d p).  Every base
    takes k = 0.  An even integer base b (_integer_base: theta's value,
    whatever its type) also takes each k with d b^k <= 4 (A + B (stop - 1)),
    so b^k <= 4 t_max; then x_k >= 1/4, past the tail's reach, so k < k_c.
    For odd b, b^k times an odd integer is odd, so k = 0 finds them all, and
    an irrational theta admits no k > 0, since 4t is rational.  A rational
    theta that is not an integer leaves its k > 0 zeros to the product.
    """
    (na, da), (nb, db) = ts.a.as_integer_ratio(), ts.b.as_integer_ratio()
    d = max(da, db)
    A, B = na * (d // da), nb * (d // db)
    top, base = 4 * (A + B * (ts.stop - 1)), _integer_base(theta)
    classes, power = [], 1
    while True:
        modulus, rest = 2 * d * power, d * power - 4 * A
        g = math.gcd(4 * B, modulus)
        if rest % g == 0:
            period = modulus // g
            classes.append((rest // g * pow(4 * B // g, -1, period) % period,
                            period))
        power *= base
        if base % 2 or d * power > top:
            return classes


def digit_trace(P: PisotNumber, y, N: int, delta=None) -> DigitTrace:
    """Nearest-integer digits of y theta^j for j = 1..N, y in [1, theta).

    exceed_set is measured against P.delta_max unless a user threshold
    delta in (0, delta_max] is supplied.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    pb = P.precision_bits
    if -pb + N * P.log2_theta() >= -2:
        raise PrecisionExhaustedError(
            f"digit trace of length {N} needs 2^-{pb} theta^N < 1/4"
        )
    if delta is None:
        threshold = P.delta_max
    else:
        if not 0 < delta <= P.delta_max:
            raise InvalidDeltaError(
                f"threshold must lie in (0, {P.delta_max}], got {delta}"
            )
        threshold = delta

    work = pb + int(N * P.log2_theta()) + 64
    with mp.workprec(work):
        th = P.theta_at(work)
        y_mp = _to_mpf(y)
        if not 1 <= y_mp < th:
            raise ValueError(f"y must lie in [1, theta), got {mp.nstr(y_mp, 12)}")
        thr = _to_mpf(threshold)
        exact = P.m == 1

        Ks, deltas, exceed = [], [], []
        x = y_mp
        for j in range(1, N + 1):
            x = x * th
            Kj, dj = _nearest_int(x, pb, f"y theta^{j}", exact=exact)
            Ks.append(Kj)
            deltas.append(dj)
            if abs(dj) > thr:
                exceed.append(j)
        return DigitTrace(y_mp, N, tuple(Ks), tuple(deltas), tuple(exceed))


def check_recurrence(trace: DigitTrace, P: PisotNumber, delta) -> list[int]:
    """Indices j where K_{j+m} != d_1 K_{j+m-1} + ... + d_m K_j inside a
    maximal run of |delta_j| <= delta longer than m.  Small remainders force
    the recurrence, so a correct trace returns [].
    """
    if not 0 < delta < P.delta_max:
        raise InvalidDeltaError(
            f"delta must lie strictly inside (0, {P.delta_max}), got {delta}"
        )
    thr = _to_mpf(delta)
    m = P.m
    d = P.d
    violations = []
    N = trace.N
    j = 1
    while j <= N:
        if abs(trace.delta[j - 1]) > thr:
            j += 1
            continue
        start = j
        while j <= N and abs(trace.delta[j - 1]) <= thr:
            j += 1
        run_len = j - start
        if run_len > m:
            for a in range(start, j - m):
                expect = sum(d[i - 1] * trace.K[a + m - i - 1] for i in range(1, m + 1))
                if trace.K[a + m - 1] != expect:
                    violations.append(a)
    return violations


def coefficient_series(P: PisotNumber, r, N: int,
                       tol: float = 1e-20) -> Iterator[SeriesItem]:
    """Stream (n, t=r*n, transform value) for n = 1..N, ordered by n, each
    item with its certified bound.  r is read by pisot._as_multiplier.  The
    float64 rows of the same range are empirical._rows'.
    """
    if N < 0:
        raise ValueError(f"the index range 1..N is empty at N = {N}")
    r_emb = embed(_as_multiplier(P, r), 1)
    for n in range(1, N + 1):
        with mp.workprec(P.precision_bits + 64):
            t = r_emb * n
        res = mu_hat(P, t, tol)
        yield SeriesItem(n, t, res.value, res.error_bound, res.contains_zero)
