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
(_fixed_product) also give the descending side of spectrum's two-sided
products; _cos_fixed gives the cosines of their ascending side.

mu_hat_fast evaluates whole batches in float64: k_c head cosines, until the
batch's largest argument x has 2 pi x theta/(theta - 1) <= TAIL_REACH, and
then the infinite tail as one polynomial, mu_hat's Taylor polynomial from
the even moments of mu_theta, by Horner with + and x only.  Its error bound
is derived a priori from theta, the batch's largest |t| and k_c (see
fast_error_bound); a batch whose bound exceeds the caller's tolerance is
refused, not evaluated.  A batch may be cut into segments, each planned and
refused as a batch of its own.  An admitted batch runs in blocks of
FAST_BLOCK points, each in block-sized scratch arrays, and the blocks of all
its segments are shared over one pool of at most one thread per core this
process may run on (numpy's ufuncs release the GIL); every value bit is that
of the plain expression.  Given a retention floor, a block stops the
product of each point once it is known to end below the floor, and returns
0.0 there, and +0.0 where the product vanishes exactly (_zero_test, with
exact comparisons in the block's own scratch).
numpy is imported inside the float64 functions only, so the precise
commands start without it.

digit_trace records the nearest integers K_j and remainders delta_j of
y theta^j; runs of small remainders force the integer recurrence
K_{j+m} = d_1 K_{j+m-1} + ... + d_m K_j, which check_recurrence verifies.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Union

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
# derived bound exceeds it is refused (the bound reaches it at |t| = 2.598e5
# on the golden base and is 3.85e-8 at |t| = 1e7)
FAST_ERROR = 1e-9
# default tolerance of mu_hat_fast: sampling reports resolve moduli to 1e-6
FAST_TOL = 1e-6
# unit roundoff of float64
_U = 2.0 ** -53
# absolute error of one float64 factor, apart from its argument's error:
# 2 pi times the reduced argument (two roundings, |argument| <= pi), the
# cosine (numpy's float64 cosine, libm or SVML, is within 4 ulps; an ulp of
# a value of modulus <= 1 is at most 2u) and the running product (one
# rounding of a value of modulus <= 1)
_FACTOR_ERROR = (2 * math.pi * (1 + _U) + 8 + 1) * _U
# the float64 tail: once 2 pi x theta/(theta - 1) <= TAIL_REACH, the factors
# left are mu_hat(x), which the even-moment polynomial of degree TAIL_DEGREE
# in (2 pi x)^2 gives within TAIL_REACH^(2 TAIL_DEGREE + 2)/(2 TAIL_DEGREE
# + 2)! = 1/20!, about 4e-19 (see mu_hat_fast).  A head factor costs about
# 40 Horner steps (0.68 ms against 16 us on 2^15 points), and each doubling
# of the reach saves log 2/log theta factors for two steps; past 1 the
# rounding of P~ outgrows the 8u that the floor's proof allows
TAIL_REACH = 1.0
TAIL_DEGREE = 9
# longest head a float64 segment is planned with: each head factor is a
# pass of about six numpy calls over each block, so 2^20 of them take
# seconds even on one point.  A base just above 1 needs more (1 + 2^-40
# needs about 3e13 at |t| = 1), and its segment is refused after 2^20
# divisions instead of planned one division at a time
_HEAD_LIMIT = 2 ** 20
# working precision of the even moments and of their coefficients, each
# rounded once to float64 from it
_MOMENT_BITS = 128


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
# float64 values below this are reported as bracketing zero
FAST_ZERO = 1e-12
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


def _descent_error(th, K: int, mag: int, x0_error: int = 1) -> int:
    """Error of one factor of the kernel's descent to depth K at |t| < 2^mag,
    in units of 2^-W, its product shift included, when x_0 is off by under
    x0_error units (see mu_hat)."""
    with mp.workprec(64):
        gap = int(mp.ldexp(th / (th - 1), 16)) + 2
    # gap 2^(mag - 16) >= S = 2^mag theta/(theta - 1)
    return COS_FIXED_ERROR + 4 + 7 * (x0_error + 1 + K
                                      + (gap << mag >> 16) + 1)


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


def _kernel_cosines(theta: Theta, x: int, W: int, start: int, stop: int):
    """cos(2 pi x_k) in units of 2^-W for k = start..stop, where x_0 = x and
    x_(k+1) = (x_k R) >> W with R = round(2^W / theta) (see mu_hat); each
    cosine is _cos_fixed's, which has cos_sin_fixed's bits."""
    _, man, exp, _ = _theta_value(theta, W + 16)._mpf_
    R = ((1 << (W + 1 - exp)) // man + 1) >> 1
    two_pi, half_pi = pi_fixed(W + 1), pi_fixed(W - 1)
    mask = (1 << W) - 1
    for k in range(stop + 1):
        if k >= start:
            yield _cos_fixed(((x & mask) * two_pi) >> W, W, half_pi)
        x = (x * R) >> W


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
           precision_bits: int | None = None) -> MuHatResult:
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
    """
    _check_tol(tol)
    pb = precision_bits or (theta.precision_bits
                            if isinstance(theta, PisotNumber) else 256)
    plan = _kernel_plan(theta, t, tol, pb)
    if plan is None:
        return MuHatResult(mp.mpf(1), mp.mpf(0), 0, False)
    K, W, E = plan
    work = pb + _mag_estimate(t) + 32
    # |c| < floor_units exactly when |c| 2^-W < FACTOR_FLOOR
    floor_units = -((-_FLOOR_NUM << W) // _FLOOR_DEN)
    cosines = _kernel_cosines(theta, _fixed_abs(t, W, work), W, 0, K)
    value, low = _fixed_product(cosines, W, floor_units)
    floor_hits = [abs(c) + E for c in low]

    with mp.workprec(work):
        rounding = (K + 2) * mp.mpf(2) ** (-(pb + 20))
        if floor_hits:
            floor_prod = mp.fprod(mp.ldexp(h, -W) for h in floor_hits)
            bracket = abs(value) * (floor_prod + rounding) * mp.exp(tol) + rounding
            return MuHatResult(mp.mpf(0), bracket, K, True)
        err = abs(value) * mp.expm1(tol + rounding) + mp.mpf(2) ** (-(pb + 10))
        return MuHatResult(value, err, K, False)


def _leading_factors_below(theta: Theta, t, limit: float, tol: float,
                           pb: int) -> bool:
    """True when mu_hat's leading factors at t alone show |mu_hat(t)| <=
    limit.

    Every factor has modulus at most 1, so |mu_hat(t)| <= prod_{k<=j}
    |cos(2 pi t theta^-k)| for each j.  The kernel's factors at the plan of
    mu_hat(theta, t, tol, pb) are each within E/(2 (K + 1)) units of 2^-W,
    one _descent_error (see mu_hat), so the running product of |c_k| plus
    that, rounded up at each shift, bounds the partial products from
    above; the factors are taken only until it falls to limit.
    """
    plan = _kernel_plan(theta, t, tol, pb)
    if plan is None:
        return limit >= 1
    K, W, E = plan
    e = E // (2 * (K + 1))                       # one factor's error
    num, den = limit.as_integer_ratio()
    cap, run = (num << W) // den, 1 << W
    work = pb + _mag_estimate(t) + 32
    for c in _kernel_cosines(theta, _fixed_abs(t, W, work), W, 0, K):
        run = -((-run * (abs(c) + e)) >> W)
        if run <= cap:
            return True
    return False


def _even_moments(theta: Theta) -> list:
    """m_0, m_2, ..., m_(2 TAIL_DEGREE) of mu_theta, at _MOMENT_BITS bits.

    X = e_0 + X'/theta, with e_0 = +-1 and X' distributed as X, so
    m_2n = sum_{k<=n} C(2n, 2k) m_2k theta^-2k, whose k = n term is
    m_2n theta^-2n: m_2n (1 - theta^-2n) = sum_{k<n} C(2n, 2k) m_2k
    theta^-2k, from m_0 = 1.
    """
    with mp.workprec(_MOMENT_BITS):
        q = 1 / _theta_value(theta, _MOMENT_BITS + 16) ** 2
        m, powers = [mp.mpf(1)], [mp.mpf(1)]
        for n in range(1, TAIL_DEGREE + 1):
            powers.append(powers[-1] * q)
            m.append(mp.fsum(math.comb(2 * n, 2 * k) * m[k] * powers[k]
                             for k in range(n)) / (1 - powers[n]))
        return m


def _tail_coefficients(theta: Theta) -> tuple[float, ...]:
    """b_n = (-1)^n m_2n/(2n)!, n = 0..TAIL_DEGREE, each rounded once to
    float64 from _MOMENT_BITS bits: P(v) = sum b_n v^n is mu_hat's Taylor
    polynomial in v = (2 pi x)^2."""
    with mp.workprec(_MOMENT_BITS):
        return tuple(float((-1) ** n * m / math.factorial(2 * n))
                     for n, m in enumerate(_even_moments(theta)))


def _fast_plan(theta: Theta, t_max: float) -> tuple[float, int, float]:
    """Float64 base, head length k_c and a-priori error bound of a
    mu_hat_fast batch whose largest |t| is t_max (see fast_error_bound).
    A head longer than _HEAD_LIMIT is not planned: k_c comes back as
    _HEAD_LIMIT + 1, with bound inf."""
    th = float(_theta_value(theta))
    if not math.isfinite(t_max):
        return th, 0, math.inf
    with mp.workprec(128):
        exact = _theta_value(theta, 128)
        delta = float(abs(mp.mpf(th) - exact) / exact)
        A = exact / (exact - 1)
        reach = mp.mpf(TAIL_REACH) / (2 * mp.pi * A)
        # the largest float x with 2 pi x A <= TAIL_REACH
        x_c = float(reach)
        if mp.mpf(x_c) > reach:
            x_c = math.nextafter(x_c, 0)
        A = float(A)
    # k_c divisions of t_max by th, as a block steps its largest x
    kc, x = 0, t_max
    while x > x_c:
        if kc == _HEAD_LIMIT:
            return th, kc + 1, math.inf
        kc, x = kc + 1, x / th
    # x_k = t / th^k after k divisions: each division and each of the k
    # powers of th's own rounding delta scale x_k by a factor in
    # [e^(-k rate), e^(k rate)]
    rate = (_U + delta) / (1 - _U - delta)
    argument = sum(t_max * th ** -k * math.expm1(k * rate)
                   for k in range(kc))
    argument += A * t_max * th ** -kc * math.expm1(kc * rate)
    bound = 2 * math.pi * argument + kc * _FACTOR_ERROR + _TAIL_ERROR
    # the terms are float64 sums and powers, and a factor rounded past
    # modulus 1 scales the sum by at most (1 + 8u)^(k_c+1): together far
    # less than a relative 2^-30
    return th, kc, bound * (1 + 2.0 ** -30)


def fast_error_bound(theta: Theta, t_max: float) -> float:
    """Absolute error bound of mu_hat_fast on any batch with max |t| <= t_max.

    The value computed at a float64 t differs from the infinite product at
    the same t by at most the sum of
      - 2 pi sum_{k<k_c} t_max theta^-k (e^(k rate) - 1): the argument
        x_k = t theta^-k is stepped by k float divisions by a rounded
        theta, so it carries a relative error below e^(k rate) - 1, with
        rate ~ u + |theta_float/theta - 1| and u = 2^-53; its reduction
        x - rint(x) is exact, and the cosine is 1-Lipschitz;
      - k_c times the rounding of one head factor (_FACTOR_ERROR).  Every
        factor has modulus at most 1, so the factors' absolute errors add
        up through the product;
      - 2 pi A t_max theta^-k_c (e^(k_c rate) - 1), with A = theta/(theta
        - 1): the tail is mu_hat at x_(k_c), and |mu_hat'| <= 2 pi E|X|
        <= 2 pi A, where mu_hat is the characteristic function of
        X = sum_k +-theta^-k, |X| <= A;
      - _TAIL_ERROR for the tail polynomial: its series remainder, the
        rounding of its coefficients, of v and of Horner's steps, and that
        of the final product (see mu_hat_fast).
    On the golden base it is about 4e-9 at t_max = 1e6 and 4e-8 at 1e7.
    It is inf where the head would be longer than _HEAD_LIMIT factors.
    """
    return _fast_plan(theta, abs(float(t_max)))[2]


def _checked_plan(theta: Theta, t_max: float, tol: float):
    """_fast_plan's base, head length and error bound for a batch whose
    largest |t| is t_max; raises PrecisionExhaustedError when its head would
    be longer than _HEAD_LIMIT factors or its error bound exceeds tol."""
    th, kc, bound = _fast_plan(theta, t_max)
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
    return th, kc, bound


def mu_hat_fast(theta: Theta, ts, tol: float = FAST_TOL,
                segments=None, floor: float = 0.0) -> np.ndarray:
    """Float64 bulk transform values, fixed evaluation order.

    segments, if given, are ascending indices into the flattened batch at
    which it is cut; each piece between cuts is a segment, planned as a
    call of its own.  Without them the batch is one segment.  A segment's
    head length k_c comes from its largest |t|, so all its entries share
    it.  Raises PrecisionExhaustedError, before evaluating, when a
    segment's head would be longer than _HEAD_LIMIT factors or its derived
    error bound (fast_error_bound) exceeds tol: the plans are checked in
    segment order, so the first segment refused raises, with the message a
    call on it alone would give.

    Every segment runs in blocks of FAST_BLOCK points from its start, and
    the blocks of all segments, larger first, are shared over one pool of
    min(cores this process may run on, blocks) threads.  A block takes its
    k_c head factors cos(2 pi (x - rint x)) in two block-sized scratch
    arrays and tracks an upper bound m of its largest argument by the same
    division that steps x.  Division by theta > 0 is monotone under
    rounding, so m bounds every x of the block from above; once m <= 1/2,
    rint x is 0 and x - 0 is x, so the factor is cos(2 pi x) and the
    reduction is skipped.

    k_c is the least k at which the segment's largest x_k = |t|/theta^k
    (k float divisions) has 2 pi x_k A <= TAIL_REACH, A = theta/(theta - 1).
    The factors left are mu_hat(x_(k_c)), and mu_hat(s) = E cos(2 pi s X)
    for X = sum_k +-theta^-k, |X| <= A.  The cosine's Taylor polynomial of
    degree 2 TAIL_DEGREE is within |y|^(2N+2)/(2N+2)! of it, so
    P(v) = sum_{n<=N} b_n v^n, v = (2 pi x)^2, b_n = (-1)^n m_2n/(2n)!, is
    within TAIL_REACH^(2N+2)/(2N+2)! of mu_hat(x); m_2n are the even
    moments of X (_even_moments), rounded once per call (_tail_coefficients).
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
    about 6.8u in all (u = 2^-53, gamma_k = k u/(1 - k u)); w P~ rounds
    once more (_TAIL_ERROR).  So |P~| <= 1 + 8u.  Each block first runs
    _zero_test on its |t| and starts the running product at 0.0 where the
    product vanishes exactly; adding +0.0 at the end makes that +0.0, as on
    the precise path, and leaves every other value as it is.  Every value
    bit is that of the plain expression on its segment, whatever the block
    and thread count.

    floor > 0 lets a block stop the product of a point whose value is known
    to fall below floor: such a point comes back as 0.0, and every other
    point has the bits of the plain expression.  After each head factor,
    the block compares the modulus of each running product w_k with
    cut = floor (1 - 32 (k_c + 1) u), in its scratch and one block-sized
    bool buffer; once fewer than half of its points are at or above cut, it
    keeps x, w and their indices for those points only, and goes on with
    them; an exact zero falls below cut at once.  A dropped point's plain
    value is below floor: each later factor is a cosine within 4 ulps, so
    of modulus at most 1 + 8u, or P~, of modulus at most 1 + 8u, and its
    product rounds once and monotonically,
    so each factor scales |w| by at most (1 + 8u)(1 + u) <= 1 + 10u.  At
    most k_c + 1 factors follow, so the value has modulus below
    cut (1 + 10u)^(k_c+1) <= cut (1 + 11 (k_c + 1) u), and cut, rounded at
    most three times, is at most floor (1 - 32 (k_c + 1) u)(1 + 3u), so the
    product stays below floor (1 - 18 (k_c + 1) u) while (k_c + 1) u is
    below 2^-10.  floor = 0 drops nothing.
    """
    import numpy as np
    if not floor >= 0:
        raise ValueError(f"floor must be nonnegative, got {floor}")
    t = np.asarray(ts, dtype=np.float64)
    flat = t.reshape(-1)
    cuts = [0, *([] if segments is None else segments), flat.size]
    if any(not 0 <= a <= b <= flat.size for a, b in zip(cuts, cuts[1:])):
        raise ValueError("segments must be ascending indices into the batch")
    blocks = []
    for a, b in zip(cuts, cuts[1:]):
        if a == b:
            continue
        seg = flat[a:b]
        th, kc, _ = _checked_plan(theta, float(max(abs(seg.min()),
                                                   abs(seg.max()))), tol)
        cut = floor * (1 - 32 * (kc + 1) * _U)
        blocks += [(start, min(start + FAST_BLOCK, b), th, kc, cut)
                   for start in range(a, b, FAST_BLOCK)]
    vals = np.empty(t.shape)
    out = vals.reshape(-1)
    two_pi = 2 * math.pi
    if not blocks:
        return vals
    coef = _tail_coefficients(theta)

    def run_block(block) -> None:
        start, stop, th, kc, cut = block
        x, y = np.empty(stop - start), np.empty(stop - start)
        v = out[start:stop]
        # w holds the running products of the points still evaluated, and
        # live their indices in the block once it has dropped any; an exact
        # zero's product starts at 0.0
        _zero_test(theta, flat[start:stop], x, y, v)
        w, live = v, None
        above = np.empty(x.shape, dtype=bool) if cut else None
        m = float(x.max())
        for _ in range(kc):
            z = y[:x.size]
            if m > 0.5:
                np.rint(x, out=z)
                np.subtract(x, z, out=z)
                np.multiply(two_pi, z, out=z)
            else:
                np.multiply(two_pi, x, out=z)
            np.cos(z, out=z)
            w *= z
            x /= th
            m /= th
            if cut:
                kept = above[:x.size]
                np.greater_equal(np.abs(w, out=z), cut, out=kept)
                n = np.count_nonzero(kept)
                if 2 * n < x.size:
                    keep = np.flatnonzero(kept)
                    live = keep if live is None else live[keep]
                    # x moves into the scratch, whose values are spent, w
                    # into the front of x's old array and the scratch to its
                    # rest, so no value array is allocated (mode "clip"
                    # takes into out directly, where "raise" buffers it)
                    x, w, y = (np.take(x, keep, out=y[:n], mode="clip"),
                               np.take(w, keep, out=x[:n], mode="clip"),
                               x[n:])
                    if not n:
                        break
        # the tail P((2 pi x)^2) by Horner: v in the scratch, P in x
        z = y[:x.size]
        np.multiply(two_pi, x, out=z)
        z *= z
        np.multiply(z, coef[-1], out=x)
        for b in coef[-2:0:-1]:
            x += b
            x *= z
        x += coef[0]
        w *= x
        if live is None:
            w += 0.0        # an exact zero's -0.0 becomes +0.0
        else:
            v.fill(0.0)
            v[live] = w

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


def _zero_test(theta: Theta, t: np.ndarray, x: np.ndarray, y: np.ndarray,
               v: np.ndarray) -> None:
    """Set x = |t|, and v to 0.0 where the product at t vanishes exactly and
    1.0 elsewhere, with y as scratch; the four arrays do not overlap.

    A factor cos(2 pi t theta^-k) is 0 when 4t = theta^k times an odd
    integer.  Every base admits k = 0: 4|t| is an odd integer exactly when
    2|t| - rint(2|t|) is +-1/2.  The scaling and the subtraction are exact,
    and inf and nan give nan, so this is fmod(4|t|, 2) == 1 without fmod's
    cost.  An integer base b (_integer_base: theta's value, whatever its
    type) also admits each k with b^k <= 4|t|; for odd b, b^k times an odd
    integer is odd, so k = 0 finds them all.  For even b a whole 4|t| below
    2^62 is taken as an int64 z in x's memory, others as 0 or 2^62, and
    4t = b^k times an odd integer exactly when z mod 2 b^k == b^k for some
    b^k < 2^62; a marked z becomes -1, which no later power marks.  An
    irrational theta admits no k > 0, since 4t is rational.
    """
    import numpy as np
    base = _integer_base(theta)
    if base % 2:
        np.abs(t, out=x)
        np.multiply(x, 2, out=y)
        np.subtract(y, np.rint(y, out=v), out=y)
        np.not_equal(np.abs(y, out=y), 0.5, out=v)
        return
    np.abs(t, out=y)
    y *= 4
    np.fmin(y, 2.0 ** 62, out=y)                 # inf and nan too
    np.equal(np.rint(y, out=v), y, out=v)
    y *= v
    z, hit = x.view(np.int64), y.view(np.bool_)[:y.size]
    np.copyto(z, y, casting="unsafe")
    top, power = min(int(z.max()), 2 ** 62 - 1), 1
    while power <= top:
        np.equal(np.remainder(z, 2 * power, out=v.view(np.int64)), power,
                 out=hit)
        np.copyto(z, -1, where=hit)
        power *= base
    np.not_equal(z, -1, out=v)
    np.abs(t, out=x)


def _exact_zeros(theta: Theta, ts) -> np.ndarray:
    """Mask of the float64 t at which the product vanishes exactly, by
    _zero_test in blocks of FAST_BLOCK points and block-sized scratch."""
    import numpy as np
    flat = np.asarray(ts, dtype=np.float64).reshape(-1)
    zero = np.empty(flat.shape, dtype=bool)
    x, y, v = (np.empty(min(flat.size, FAST_BLOCK)) for _ in range(3))
    with np.errstate(invalid="ignore"):          # inf - inf is nan
        for start in range(0, flat.size, FAST_BLOCK):
            n = min(FAST_BLOCK, flat.size - start)
            _zero_test(theta, flat[start:start + n], x[:n], y[:n], v[:n])
            np.equal(v[:n], 0.0, out=zero[start:start + n])
    return zero.reshape(np.shape(ts))


def _rows(P: PisotNumber, r, first: int, last: int) -> list[SeriesItem]:
    """Float64 series items at t = r n, n = first..last, from
    empirical._sampled, each carrying FAST_ERROR and bracketing zero when
    its value is within FAST_ZERO of it."""
    # empirical imports this module, so its routine is imported here
    from .empirical import _sampled
    r_val, vals = _sampled(P, r, first, last, 0.0, FAST_ERROR)
    return [SeriesItem(n, r_val * n, v, FAST_ERROR, abs(v) <= FAST_ZERO)
            for n, v in zip(range(first, last + 1), vals.tolist())]


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


def coefficient_series(P: PisotNumber, r, N: int, tol: float = 1e-20,
                       fast: bool = False) -> Iterator[SeriesItem]:
    """Stream (n, t=r*n, transform value) for n = 1..N, ordered by n.

    r is read by pisot._as_multiplier.  Precise mode carries per-item
    certified bounds; fast mode gives the float64 rows of _rows, each item
    carrying FAST_ERROR, spot-checked, and refused before the batch is
    built (PrecisionExhaustedError) when its derived bound exceeds that.
    """
    if N < 0:
        raise ValueError(f"the index range 1..N is empty at N = {N}")
    if fast:
        yield from _rows(P, r, 1, N)
        return

    r_emb = embed(_as_multiplier(P, r), 1)
    for n in range(1, N + 1):
        with mp.workprec(P.precision_bits + 64):
            t = r_emb * n
        res = mu_hat(P, t, tol)
        yield SeriesItem(n, t, res.value, res.error_bound, res.contains_zero)
