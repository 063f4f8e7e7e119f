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

mu_hat_fast evaluates whole batches in float64.  Its error bound is derived
a priori from theta, the batch's largest |t| and its truncation depth (see
fast_error_bound); a batch whose bound exceeds the caller's tolerance is
refused, not evaluated.  A batch may be cut into segments, each planned and
refused as a batch of its own.  An admitted batch runs in blocks of
FAST_BLOCK points, each in block-sized scratch arrays, and the blocks of all
its segments are shared over one pool of at most one thread per core this
process may run on (numpy's ufuncs release the GIL); every value bit is that
of the plain expression.  Given a retention floor, a block stops the
product of each point once it is known to end below the floor, and returns
0.0 there.  _exact_zeros marks the t at which the product vanishes exactly,
with exact comparisons in block-sized scratch.
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
from .pisot import (FieldElement, PisotNumber, _nearest_int, _theta_value,
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
# derived bound exceeds it is refused (the bound reaches it at |t| ~ 2.6e5
# on the golden base and is about 4e-8 at |t| = 1e7)
FAST_ERROR = 1e-9
# default tolerance of mu_hat_fast: sampling reports resolve moduli to 1e-6
FAST_TOL = 1e-6
# log-defect of the cosine tail that the float64 path truncates
FAST_TAIL = 1e-12
# unit roundoff of float64
_U = 2.0 ** -53
# absolute error of one float64 factor, apart from its argument's error:
# 2 pi times the reduced argument (two roundings, |argument| <= pi), the
# cosine (numpy's float64 cosine, libm or SVML, is within 4 ulps; an ulp of
# a value of modulus <= 1 is at most 2u) and the running product (one
# rounding of a value of modulus <= 1)
_FACTOR_ERROR = (2 * math.pi * (1 + _U) + 8 + 1) * _U
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


def _truncation_depth(x0, q, tol, start: int = 0) -> int:
    """Least j >= start with x_j <= 1 and x_j^2 / (1 - q^-2) <= tol, where
    x_j = x0 / q^j and q > 1.

    Past such a j, |log cos x| <= x^2 on |x| <= 1 bounds the log-defect of
    the cut cosine product by the geometric tail sum, which is at most tol.
    x_j is stepped by division, so float64 inputs give a fixed depth.
    """
    tail_scale = 1 / (1 - q ** -2)
    x = x0
    for _ in range(start):
        x /= q
    j = start
    while x > 1 or x * x * tail_scale > tol:
        j += 1
        x /= q
    return j


def _mag_estimate(t) -> int:
    if isinstance(t, Fraction):
        if t == 0:
            return 0
        return max(0, t.numerator.bit_length() - t.denominator.bit_length() + 1)
    if not t:
        return 0
    return max(0, int(mp.mag(t)))


def _float_depth(x0: float, q: float, tol: float, start: int = 0) -> int | None:
    """_truncation_depth(x0, q, tol, start) taken in float64, or None when a
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
    x = x0
    for _ in range(start):
        x /= q
    j = start
    while True:
        mx = (4 * j + 8) * _U
        mv = (8 * j + 16 + 8 * s) * _U
        v = x * x * s
        if x * (1 - mx) > 1 or v * (1 - mv) > tol:
            j, x = j + 1, x / q
        elif x * (1 + mx) <= 1 and v * (1 + mv) <= tol:
            return j
        else:
            return None


def _depth(x0, q, tol, start: int = 0) -> int:
    """_truncation_depth(x0, q, tol, start) for mpf x0 and q: _float_depth
    decides it, and the mpf rule at the ambient precision settles what
    float64 cannot."""
    j = _float_depth(float(x0), float(q), tol, start)
    return _truncation_depth(x0, q, tol, start) if j is None else j


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
        K = _depth(x0, th, tol, start=1) - 1
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


def _fast_plan(theta: Theta, t_max: float) -> tuple[float, int, float]:
    """Float64 base, truncation depth K and a-priori error bound of a
    mu_hat_fast batch whose largest |t| is t_max (see fast_error_bound)."""
    th = float(_theta_value(theta))
    if not math.isfinite(t_max):
        return th, 0, math.inf
    K = _truncation_depth(2 * math.pi * t_max, th, FAST_TAIL, start=1) - 1
    with mp.workprec(128):
        exact = _theta_value(theta, 128)
        delta = float(abs(mp.mpf(th) - exact) / exact)
    # x_k = t / th^k after k divisions: each division and each of the k
    # powers of th's own rounding delta scale x_k by a factor in
    # [e^(-k rate), e^(k rate)]
    rate = (_U + delta) / (1 - _U - delta)
    argument = sum(t_max * th ** -k * math.expm1(k * rate)
                   for k in range(K + 1))
    bound = (2 * math.pi * argument + (K + 1) * _FACTOR_ERROR
             + math.expm1(FAST_TAIL))
    # the terms are float64 sums and powers, and a cosine rounded past
    # modulus 1 scales the sum by at most (1 + 8u)^(K+1): together far
    # less than a relative 2^-30
    return th, K, bound * (1 + 2.0 ** -30)


def fast_error_bound(theta: Theta, t_max: float) -> float:
    """Absolute error bound of mu_hat_fast on any batch with max |t| <= t_max.

    The value computed at a float64 t differs from the infinite product at
    the same t by at most the sum of
      - 2 pi sum_{k<=K} t_max theta^-k (e^(k rate) - 1): the argument
        x_k = t theta^-k is stepped by k float divisions by a rounded
        theta, so it carries a relative error below e^(k rate) - 1, with
        rate ~ u + |theta_float/theta - 1| and u = 2^-53; its reduction
        x - rint(x) is exact, and the cosine is 1-Lipschitz;
      - (K + 1) times the rounding of one factor (_FACTOR_ERROR).  Every
        factor has modulus at most 1, so the factors' absolute errors add
        up through the product;
      - expm1(FAST_TAIL) for the truncated tail, whose log-defect the depth
        rule keeps below FAST_TAIL.
    On the golden base it is about 4e-9 at t_max = 1e6 and 4e-8 at 1e7.
    """
    return _fast_plan(theta, abs(float(t_max)))[2]


def _checked_plan(theta: Theta, t_max: float, tol: float):
    """_fast_plan's base and depth for a batch whose largest |t| is t_max;
    raises PrecisionExhaustedError when its error bound exceeds tol."""
    th, K, bound = _fast_plan(theta, t_max)
    if not bound <= tol:
        raise PrecisionExhaustedError(
            f"float64 error bound {bound:.3e} at |t| <= {t_max:.6g} "
            f"exceeds the tolerance {tol:.3e}"
        )
    return th, K


def mu_hat_fast(theta: Theta, ts, tol: float = FAST_TOL,
                segments=None, floor: float = 0.0) -> np.ndarray:
    """Float64 bulk transform values, fixed evaluation order.

    segments, if given, are ascending indices into the flattened batch at
    which it is cut; each piece between cuts is a segment, planned as a
    call of its own.  Without them the batch is one segment.  A segment's
    truncation depth comes from its largest |t|, so all its entries share
    it.  Raises PrecisionExhaustedError, before evaluating, when a
    segment's derived error bound (fast_error_bound) exceeds tol: the
    plans are checked in segment order, so the first segment refused
    raises, with the message a call on it alone would give.

    Every segment runs in blocks of FAST_BLOCK points from its start, and
    the blocks of all segments, larger first, are shared over one pool of
    min(cores this process may run on, blocks) threads.  A block takes its
    K + 1 factors cos(2 pi (x - rint x)) in two block-sized scratch arrays
    and tracks an upper bound m of its largest argument by the same division
    that steps x.  Division by theta > 0 is monotone under rounding, so m
    bounds every x of the block from above; once m <= 1/2, rint x is 0 and
    x - 0 is x, so the factor is cos(2 pi x) and the reduction is skipped.
    Every value bit is that of the plain expression on its segment, whatever
    the block and thread count.

    floor > 0 lets a block stop the product of a point whose value is known
    to fall below floor: such a point comes back as 0.0, and every other
    point has the bits of the plain expression.  After each factor but the
    last, the block compares the modulus of each running product w_k with
    cut = floor (1 - 32 (K + 1) u), u = 2^-53, in its scratch and one
    block-sized bool buffer; once fewer than half of its points are at or
    above cut, it keeps x, w and their indices for those points only, and
    goes on with them.  A dropped point's plain value is below floor: each
    later factor is a cosine within 4 ulps, so of modulus at most 1 + 8u,
    and its product rounds once and monotonically, so each factor scales
    |w| by at most (1 + 8u)(1 + u) <= 1 + 10u.  The value then has modulus
    below cut (1 + 10u)^(K+1) <= cut (1 + 11 (K + 1) u), and cut, rounded
    at most three times, is at most floor (1 - 32 (K + 1) u)(1 + 3u), so
    the product stays below floor (1 - 18 (K + 1) u) while (K + 1) u is
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
        th, K = _checked_plan(theta, float(max(abs(seg.min()),
                                               abs(seg.max()))), tol)
        cut = floor * (1 - 32 * (K + 1) * _U)
        blocks += [(start, min(start + FAST_BLOCK, b), th, K, cut)
                   for start in range(a, b, FAST_BLOCK)]
    vals = np.empty(t.shape)
    out = vals.reshape(-1)
    two_pi = 2 * math.pi

    def run_block(block) -> None:
        start, stop, th, K, cut = block
        x = np.abs(flat[start:stop])
        y = np.empty_like(x)
        v = out[start:stop]
        v.fill(1.0)
        # w holds the running products of the points still evaluated, and
        # live their indices in the block once it has dropped any
        w, live = v, None
        above = np.empty(x.shape, dtype=bool) if cut else None
        m = float(x.max())
        for k in range(K + 1):
            if k:
                x /= th
                m /= th
            z = y[:x.size]
            if m > 0.5:
                np.rint(x, out=z)
                np.subtract(x, z, out=z)
                np.multiply(two_pi, z, out=z)
            else:
                np.multiply(two_pi, x, out=z)
            np.cos(z, out=z)
            w *= z
            if cut and k < K:
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
        if live is not None:
            v.fill(0.0)
            v[live] = w

    if not blocks:
        return vals
    # imported here, not at start-up: concurrent.futures loads logging, which
    # costs every command that evaluates no batch about 7 ms and 0.7 MB
    from concurrent.futures import ThreadPoolExecutor
    blocks.sort(key=lambda block: block[0] - block[1])
    workers = min(len(os.sched_getaffinity(0)), len(blocks))
    with ThreadPoolExecutor(workers) as pool:
        list(pool.map(run_block, blocks))
    return vals


def _exact_zeros(theta: Theta, ts: np.ndarray) -> np.ndarray:
    """Mask of the float64 t at which the product vanishes exactly.

    A factor cos(2 pi t theta^-k) is 0 when 4t = theta^k times an odd
    integer.  Every base admits k = 0: 4|t| is an odd integer exactly when
    rint(4|t|) == 4|t| and rint(2|t|) != 2|t|.  Both scalings are exact, and
    inf and nan pass neither test, so this is fmod(4|t|, 2) == 1 without
    fmod's cost.  An integer base b (a PisotNumber of degree 1) also admits
    each k with b^k <= 4|t|; for odd b, b^k times an odd integer is odd, so
    k = 0 finds them all.  For even b a whole 4|t| below 2^62 is taken as
    an int64 z, others as 0, and 4t = b^k times an odd integer exactly when
    z mod 2 b^k == b^k.  An irrational theta admits no k > 0, since 4t is
    rational.  Both routes run in blocks of FAST_BLOCK points, in
    block-sized scratch.
    """
    import numpy as np
    flat = np.asarray(ts, dtype=np.float64).reshape(-1)
    zero = np.empty(flat.shape, dtype=bool)
    size = min(flat.size, FAST_BLOCK)
    z, r = np.empty(size), np.empty(size)
    odd = np.empty(size, dtype=bool)
    integer = isinstance(theta, PisotNumber) and theta.m == 1
    base = theta.d[0] if integer and theta.d[0] % 2 == 0 else 0
    if base:
        small = np.empty(size, dtype=bool)
        zi = np.empty(size, dtype=np.int64)
    for start in range(0, flat.size, FAST_BLOCK):
        n = min(FAST_BLOCK, flat.size - start)
        x, y, half, mask = z[:n], r[:n], odd[:n], zero[start:start + n]
        np.abs(flat[start:start + n], out=x)
        x *= 2                                   # exact: a scaling by 2
        np.not_equal(np.rint(x, out=y), x, out=half)
        x *= 2
        np.equal(np.rint(x, out=y), x, out=mask)
        mask &= half
        if not base:
            continue
        whole = np.equal(y, x, out=half)
        whole &= np.less(x, 2.0 ** 62, out=small[:n])
        y.fill(0.0)
        np.copyto(y, x, where=whole)
        q = zi[:n]
        np.copyto(q, y, casting="unsafe")
        s = x.view(np.int64)                     # 4|t| is spent
        top, power = int(q.max()), base
        while power <= top:
            mask |= np.equal(np.remainder(q, 2 * power, out=s), power,
                             out=half)
            power *= base
    return zero.reshape(np.shape(ts))


def _fast_items(theta: Theta, r: float, ns) -> list[SeriesItem]:
    """Float64 series items at t = r*n for the integer array ns.

    Each item carries FAST_ERROR, which the batch's derived bound must not
    exceed, and brackets zero when its value is within FAST_ZERO of it.
    """
    import numpy as np
    ts = r * np.asarray(ns, dtype=np.float64)
    vals = mu_hat_fast(theta, ts, tol=FAST_ERROR)
    return [SeriesItem(int(n), float(t), float(v), FAST_ERROR,
                       abs(float(v)) <= FAST_ZERO)
            for n, t, v in zip(ns, ts, vals)]


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

    Precise mode carries per-item certified bounds; fast mode evaluates in
    float64 with fixed evaluation order, each item carrying FAST_ERROR, and
    raises PrecisionExhaustedError when the derived bound of the batch
    exceeds it.
    """
    if not isinstance(r, FieldElement):
        r = P.field(r)
    with mp.workprec(P.precision_bits + 64):
        r_emb = embed(r, 1)
        if not r_emb > 0:
            raise ValueError("r must be positive in the real embedding")

    if fast:
        import numpy as np
        yield from _fast_items(P, float(r_emb), np.arange(1, N + 1))
        return

    for n in range(1, N + 1):
        with mp.workprec(P.precision_bits + 64):
            t = r_emb * n
        res = mu_hat(P, t, tol)
        yield SeriesItem(n, t, res.value, res.error_bound, res.contains_zero)
