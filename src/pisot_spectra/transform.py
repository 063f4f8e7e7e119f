"""Infinite cosine-product transform values and nearest-integer digit traces.

mu_hat evaluates prod_{k>=0} cos(2 pi theta^-k t) with a certified truncation
bound derived from |log cos x| <= x^2 on |x| <= 1.  A precise big-float path
carries explicit error bounds; a float64 bulk path trades them for speed with
a documented heuristic error and is spot-validated against the precise path
by callers that use it.

digit_trace records the nearest integers K_j and remainders delta_j of
y theta^j; runs of small remainders force the integer recurrence
K_{j+m} = d_1 K_{j+m-1} + ... + d_m K_j, which check_recurrence verifies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Union

import mpmath as mp
import numpy as np

from .errors import (
    InvalidDeltaError,
    InvalidToleranceError,
    PrecisionExhaustedError,
)
from .pisot import (FieldElement, PisotNumber, _nearest_int, _theta_value,
                    _to_mpf, embed)

# below this modulus a cosine factor is treated as a potential exact zero
FACTOR_FLOOR = 1e-30
# documented heuristic accuracy of the float64 path for t <= 1e7
FAST_ERROR = 1e-9
# float64 values below this are reported as bracketing zero
FAST_ZERO = 1e-12

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


def mu_hat(theta: Theta, t, tol: float = 1e-20,
           precision_bits: int | None = None) -> MuHatResult:
    """Transform value at t with certified truncation error.

    Truncates after the minimal K with (2 pi theta^-(K+1) |t|)^2/(1-theta^-2)
    <= tol and 2 pi theta^-(K+1) |t| <= 1; each argument is reduced mod 1
    before the 2 pi multiplication.  Even in t by construction.
    """
    _check_tol(tol)
    pb = precision_bits or (theta.precision_bits
                            if isinstance(theta, PisotNumber) else 256)
    th = _theta_value(theta, pb + 64)
    work = pb + _mag_estimate(t) + 32
    with mp.workprec(work):
        at = abs(_to_mpf(t))
        if at == 0:
            return MuHatResult(mp.mpf(1), mp.mpf(0), 0, False)
        two_pi = 2 * mp.pi
        # factors k = 0..K; the tail starts at argument 2 pi |t| theta^-(K+1)
        K = _truncation_depth(two_pi * at, th, tol, start=1) - 1

        value = mp.mpf(1)
        floor_hits = 0
        floor_prod = mp.mpf(1)
        x = at
        for _ in range(K + 1):
            u = x - mp.floor(x)
            factor = mp.cos(two_pi * u)
            if abs(factor) < FACTOR_FLOOR:
                floor_hits += 1
                floor_prod *= abs(factor)
            else:
                value *= factor
            x /= th

        rounding = (K + 2) * mp.mpf(2) ** (-(pb + 20))
        if floor_hits:
            bracket = abs(value) * (floor_prod + rounding) * mp.exp(tol) + rounding
            return MuHatResult(mp.mpf(0), bracket, K, True)
        err = abs(value) * mp.expm1(tol + rounding) + mp.mpf(2) ** (-(pb + 10))
        return MuHatResult(value, err, K, False)


def mu_hat_fast(theta: Theta, ts) -> np.ndarray:
    """Float64 bulk transform values, fixed evaluation order.

    Heuristic accuracy ~FAST_ERROR for |t| <= 1e7; no certified bounds.
    The truncation depth comes from max |t| so every entry shares it.
    """
    th = float(_theta_value(theta))
    x = np.abs(np.asarray(ts, dtype=np.float64))
    if x.size == 0:
        return np.ones(0)
    t_max = float(x.max())
    K = _truncation_depth(2 * math.pi * t_max, th, 1e-12, start=1) - 1

    x = x.copy()
    vals = np.ones_like(x)
    two_pi = 2 * math.pi
    for _ in range(K + 1):
        vals *= np.cos(two_pi * (x - np.rint(x)))
        x /= th
    return vals


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

    Precise mode carries per-item certified bounds; fast mode uses float64
    with the documented FAST_ERROR heuristic and fixed evaluation order.
    """
    if not isinstance(r, FieldElement):
        r = P.field(r)
    with mp.workprec(P.precision_bits + 64):
        r_emb = embed(r, 1)
        if not r_emb > 0:
            raise ValueError("r must be positive in the real embedding")

    if fast:
        r_f = float(r_emb)
        ns = np.arange(1, N + 1, dtype=np.float64)
        ts = r_f * ns
        vals = mu_hat_fast(P, ts)
        for i in range(N):
            v = float(vals[i])
            yield SeriesItem(i + 1, float(ts[i]), v, FAST_ERROR, abs(v) <= FAST_ZERO)
        return

    for n in range(1, N + 1):
        with mp.workprec(P.precision_bits + 64):
            t = r_emb * n
        res = mu_hat(P, t, tol)
        yield SeriesItem(n, t, res.value, res.error_bound, res.contains_zero)
