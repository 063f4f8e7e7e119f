"""Sampling experiments on actual coefficient sequences.

The countable side of the dichotomy comes from sample_and_cluster: sorted
moduli |mu_hat(r n)| split at gaps collapse into a handful of clusters that
match the predicted catalogue when r lies in the number field; the values
retained there recur, since they converge along geometric index families
n ~ c theta^k.  interval_fill_test reports the range of the same moduli and
the largest hole between sorted neighbours.  The paper's interval side is a
statement about limits: at finite N the largest hole of any row is set by
its few largest sampled values.  It does not certify filling, and for the
golden base at N = 10^6 it does not separate generic rows from resonant ones.
The remaining operations measure the real-line limit set, equidistribution of
scaled sequences, translated (complex) coefficients, and the decay of the
transform for non-Pisot bases.

Every float64 value at t = r n, in a report or in a row of the float64
series (_rows), comes from _sampled: it reads r by pisot's
multiplier rule, checks the index range, refuses the batch from its largest
|t| before building any array, and evaluates it in one batch, at any N, as
the progression t_n = r n, whose points are exact (the float r times the
integer n, not their rounded product), exact zeros included (mu_hat_fast
returns them as 0.0).
mu_hat_fast admits the batch only where its derived error bound is within
FAST_ERROR, the bound every report and row carries, which lies far above
that bound up to the indices' limit of 2^37 (about 1e-13 at |t| = 1e6..1e11
on the golden base).  No Pisot number lies below the plastic number, whose
head is the longest, and its bound is at most 6.1e-13 up to t_max A = 2^100
and inf past it, so a larger FAST_ERROR would admit no more Pisot batches.
A precise spot check of SPOT_CHECK_SIZE points then tests the batch against
that derived bound, not against FAST_ERROR, so a fault in the float64
kernel is caught once it exceeds the bound the batch claims.  Each
reference is a 64-bit certified value at the same exact t, within 2^-74:
head factors by the float64 path's head rule, then mu_theta's moment
polynomial for the whole tail, under one descent plan per batch
(transform._descent_plan).  With eta > 0 every value of
modulus below a floor just under eta comes back as 0.0; every value at or
above eta keeps its bits, so each report keeps the same set (see _sampled).
A checked 0.0 need only lie within floor + bound, and the leading factors
of the certified kernel, under the same plan, usually show that without a
reference: on the golden base at r = 1, n = 5*10^5 .. 10^6 and eta 1e-3,
7 of the checked points take a reference and the rest are shown below
floor + bound.

numpy is imported inside the functions that use it, so importing this
module, and running the precise commands, leaves it unloaded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import mpmath as mp

from .errors import PrecisionExhaustedError
from .pisot import (PisotNumber, _as_field_element, _as_multiplier,
                    _theta_value, embed)
from .transform import (FAST_BLOCK, FAST_ERROR, Progression, SeriesItem,
                        _descent_plan, _leading_factors_below, _mag_estimate,
                        fast_error_bound, mu_hat, mu_hat_fast)

# size of the precise-mode subsample that checks each float64 batch
SPOT_CHECK_SIZE = 32
# precision of each spot-check reference: its certified bound is
# 2^-(SPOT_CHECK_BITS + 10), about 5.3e-23, far below 1e-3 of any batch's
# derived bound (5e-14 and up) that it is tested against
SPOT_CHECK_BITS = 64
# retention floor of a sampled batch as a share of eta: below 1/(1 + 16u),
# the largest factor by which a phase and its product raise a kept modulus
# (see _sampled)
FLOOR_SHARE = 1 - 2.0 ** -40
# most witnesses kept per cluster in reports
MAX_WITNESSES = 10


@dataclass(frozen=True)
class Cluster:
    """One gap-separated group of retained sample values."""

    center: float
    min: float
    max: float
    count: int
    witnesses: tuple


@dataclass(frozen=True)
class ClusterReport:
    """Clustered moduli of sampled values, with optional candidate matching.

    matches holds one row per cluster: (cluster index, candidate id,
    |center - predicted|), with id None when no candidate lies within the
    matching tolerance.  empty_retention flags the legal outcome that no
    sample reached the floor eta.
    """

    r: float
    N: int
    eta: float
    gap: float
    n_min: int
    seed: int
    clusters: tuple
    matches: tuple
    empty_retention: bool


@dataclass(frozen=True)
class IntervalEstimate:
    """Range statistics of retained values: [lower, upper], the largest gap
    between sorted neighbours, and that gap relative to the range width.
    empty_retention flags the legal outcome that no value was retained;
    every statistic is then 0.0."""

    lower: float
    upper: float
    count: int
    max_gap: float
    max_gap_rel: float
    empty_retention: bool


@dataclass(frozen=True)
class TranslatedReport:
    """Grid-hash clustering of complex translated coefficients, plus the
    angular-coverage statistic (occupied fraction of 64 direction bins at
    the modal radius band) that quantifies circle filling."""

    r: float
    gamma: float
    N: int
    eta: float
    seed: int
    cluster_count: int
    clusters: tuple
    coverage: float
    dominant_radius: float
    empty_retention: bool


@dataclass(frozen=True)
class BlockMaximum:
    """Largest |transform| over one dyadic index block [start, stop)."""

    k: int
    start: int
    stop: int
    value: float


def _sampled(P: PisotNumber, r, first: int, last: int, eta: float) -> tuple:
    """(r_val, values), values[i] the transform at r_val n, n = first + i,
    for n = first..last (see the module docstring).

    The batch is the Progression t_n = r_val n, each t exact: the float
    r_val times the integer n, with no array of points.  mu_hat_fast plans
    it from its largest |t| and refuses it when its derived bound exceeds
    FAST_ERROR, before any array is built; the spot check takes that bound
    at the same largest |t| (fast_error_bound) and tests the batch at
    SPOT_CHECK_SIZE indices.  They are evenly spaced, and the
    endpoints, and so the largest |t|, are among them; an
    interior index whose value is 0.0 stands for its stride (the indices
    nearer to it than to its neighbours), and gives way to the nonzero
    value there nearest to it, when one exists.  With eta > 0 most values
    are 0.0 (on the golden base at r = 1, n = 5*10^5 .. 10^6 and eta 1e-3,
    34 of 500,001 are kept), so this checks finished values where evenly
    spaced points would all be dropped ones.

    With eta > 0 the batch runs with the retention floor eta FLOOR_SHARE:
    every point is evaluated, and a value of modulus below the floor comes
    back as 0.0 (see mu_hat_fast); every other value has the bits it has
    without a floor.  Every caller
    keeps a value only where its modulus, or that of the value times a unit
    phase, is at least eta.  A float64 phase has modulus at most 1 + 12u
    (u = 2^-53; a cosine and a sine each within 4 ulps), the product rounds
    each part once and the modulus within an ulp, so the kept modulus is at
    most 1 + 16u times the value's, and a value below the floor is below
    eta: every caller keeps the set it keeps without a floor.

    Each checked value must lie within the batch's derived bound (the
    plan's, at its largest |t|) plus the reference's own certified bound;
    the reference is mu_hat at the exact t = Fraction(r_val) n under the
    batch's descent plan, at SPOT_CHECK_BITS bits: its head factors by the
    float64 path's head rule and one factor, the moment polynomial, for
    the tail, within 2^-(SPOT_CHECK_BITS + 10) with no truncation
    tolerance.  A checked 0.0 (an endpoint, an evenly spaced point whose
    stride keeps no value, or one that gave way) may have been dropped at
    the floor, so it need only lie within floor + bound, the exact sum of
    the two floats: the leading factors of mu_hat's kernel show that
    without a reference where they can (_leading_factors_below), and
    elsewhere its reference decides, with the floor added to the two
    bounds.  A proof passes that test too, since the reference lies within
    its bound of mu_hat; where |mu_hat(t)| exceeds floor + bound no
    partial product falls that far, so a kernel that drops a value above
    the floor by more than the bounds is still caught.  Every proof and
    every reference of the batch runs under one descent plan
    (transform._descent_plan), taken once at the largest |t|: it serves
    every smaller |t|, its head bound K and each factor's error growing
    with the magnitude.
    """
    import numpy as np
    r_val = float(embed(_as_multiplier(P, r), 1))
    if not 0 <= first <= last + 1:
        raise ValueError(f"the index range {first}..{last} is empty or "
                         "starts below 0")
    ns = Progression(0.0, r_val, first, last + 1)
    floor = eta * FLOOR_SHARE
    vals = mu_hat_fast(P, ns, floor=floor)
    if not ns.size:
        return r_val, vals
    bound = fast_error_bound(P, ns._t_max(ns.size))
    idx = np.unique(np.linspace(0, ns.size - 1,
                                SPOT_CHECK_SIZE).astype(np.int64))
    edges = (idx[:-1] + idx[1:] + 1) // 2
    gave_way = []
    for j in range(1, len(idx) - 1):
        if vals[idx[j]] == 0.0:
            nonzero = np.flatnonzero(vals[edges[j - 1]:edges[j]]) + edges[j - 1]
            if nonzero.size:
                gave_way.append(idx[j])
                idx[j] = nonzero[np.argmin(np.abs(nonzero - idx[j]))]
    exact = Fraction(r_val)
    # one descent plan at the largest |t| serves every checked point
    plan = _descent_plan(P, SPOT_CHECK_BITS, _mag_estimate(exact * last))
    # exact, so a proof implies the reference's exact test below
    limit = Fraction(floor) + Fraction(bound)
    for i in [*idx, *gave_way]:
        t = exact * (first + int(i))
        if vals[i] == 0.0 and _leading_factors_below(t, limit, plan):
            continue
        ref = mu_hat(P, t, plan=plan)
        # a 0.0 may have been dropped at the floor, which the test then adds
        slack = floor if vals[i] == 0.0 else 0.0
        # exact mpf sums, so no rounding enters the comparison
        deviation = abs(mp.fsub(ref.value, vals[i], exact=True))
        allowed = mp.fadd(mp.fadd(bound, ref.error_bound, exact=True), slack,
                          exact=True)
        if deviation > allowed:
            raise PrecisionExhaustedError(
                f"float64 spot check deviates by {float(deviation):.3e} at "
                f"t = {float(t):.9g}, over the derived bound {bound:.3e} plus "
                f"the reference's {float(ref.error_bound):.3e}"
                + (f" and the floor {slack:.3e}" if slack else "")
            )
    return r_val, vals


def _rows(P: PisotNumber, r, first: int, last: int) -> list[SeriesItem]:
    """Float64 series items at t = r n, n = first..last, from _sampled,
    each carrying FAST_ERROR and bracketing zero when its value is within
    that bound of it: the rows of eval --fast and sample --format csv."""
    r_val, vals = _sampled(P, r, first, last, 0.0)
    return [SeriesItem(n, r_val * n, v, FAST_ERROR, abs(v) <= FAST_ERROR)
            for n, v in zip(range(first, last + 1), vals.tolist())]


def _gap_split(sorted_vals: np.ndarray, gap: float):
    """Index groups of the sorted values, split where neighbours differ by
    more than gap."""
    import numpy as np
    cuts = [0, *(np.flatnonzero(np.diff(sorted_vals) > gap) + 1).tolist(),
            len(sorted_vals)]
    return list(zip(cuts[:-1], cuts[1:]))


def _sample_start(N: int, eta: float, gap: float, n_min: Optional[int]) -> int:
    """Check the sampling parameters; the first index, N/2 by default."""
    if not 0 < eta < 1:
        raise ValueError(f"eta must lie in (0, 1), got {eta}")
    if not 0 < gap < math.inf:
        raise ValueError(f"gap must be positive and finite, got {gap}")
    if n_min is None:
        n_min = N // 2
    if not 0 <= n_min < N:
        raise ValueError("need 0 <= n_min < N")
    return n_min


def sample_and_cluster(P: PisotNumber, r, N: int, eta: float,
                       gap: float = 1e-3, n_min: Optional[int] = None,
                       candidates: Optional[Sequence] = None,
                       match_tol: float = 1e-2, seed: int = 0) -> ClusterReport:
    """Cluster the retained moduli |mu_hat(r n)|, n_min <= n <= N.

    Only the tail n >= n_min (default N/2) enters, approximating limit
    points; values below eta are dropped; sorted values split at gaps
    larger than `gap`.  When a candidate list is given, each cluster is
    matched to the candidate of closest predicted value within match_tol,
    which must be positive and finite.
    """
    import numpy as np
    n_min = _sample_start(N, eta, gap, n_min)
    if not 0 < match_tol < math.inf:
        raise ValueError(
            f"match_tol must be positive and finite, got {match_tol}")
    r_val, vals = _sampled(P, r, n_min, N, eta)
    np.abs(vals, out=vals)

    keep = vals >= eta
    report = dict(r=r_val, N=N, eta=eta, gap=gap, n_min=n_min, seed=seed)
    if not keep.any():
        return ClusterReport(clusters=(), matches=(), empty_retention=True,
                             **report)
    kept_ns, kept_vals = np.flatnonzero(keep) + n_min, vals[keep]
    order = np.argsort(kept_vals, kind="stable")
    sorted_vals = kept_vals[order]
    sorted_ns = kept_ns[order]

    clusters = []
    for a, b in _gap_split(sorted_vals, gap):
        members = sorted_ns[a:b]
        witnesses = tuple(int(n) for n in np.sort(members)[:MAX_WITNESSES])
        clusters.append(Cluster(
            center=float(np.mean(sorted_vals[a:b])),
            min=float(sorted_vals[a]),
            max=float(sorted_vals[b - 1]),
            count=int(b - a),
            witnesses=witnesses,
        ))

    matches = []
    if candidates is not None:
        for i, cluster in enumerate(clusters):
            best_id, best_dist = None, None
            for cand in candidates:
                dist = abs(cluster.center - float(cand.predicted))
                if best_dist is None or dist < best_dist:
                    best_id, best_dist = cand.id, dist
            if best_dist is not None and best_dist <= match_tol:
                matches.append((i, best_id, best_dist))
            else:
                matches.append((i, None, best_dist))

    return ClusterReport(clusters=tuple(clusters), matches=tuple(matches),
                         empty_retention=False, **report)


def _range_stats(values: np.ndarray) -> IntervalEstimate:
    """Range statistics of a float64 array, which this sorts in place; the
    largest gap is taken block by block in FAST_BLOCK scratch."""
    import numpy as np
    values.sort()
    count = len(values)
    if count == 0:
        return IntervalEstimate(0.0, 0.0, 0, 0.0, 0.0, True)
    lower, upper = float(values[0]), float(values[-1])
    if count == 1:
        return IntervalEstimate(lower, upper, 1, 0.0, 0.0, False)
    scratch = np.empty(min(count - 1, FAST_BLOCK))
    tops = []
    for a in range(0, count - 1, FAST_BLOCK):
        b = min(a + FAST_BLOCK, count - 1)
        gaps = np.subtract(values[a + 1:b + 1], values[a:b], out=scratch[:b - a])
        tops.append(gaps.max())
    max_gap = float(np.max(tops))
    width = upper - lower
    rel = max_gap / width if width > 0 else 0.0
    return IntervalEstimate(lower, upper, count, max_gap, rel, False)


def interval_fill_test(P: PisotNumber, r, N: int,
                       eta: float = 0.0) -> IntervalEstimate:
    """Range and largest-gap statistics of |mu_hat(r n)| over n in [N/2, N].

    max_gap is the widest hole between neighbouring sorted values at or
    above eta.  With eta = 0 the bulk of the values sits near 0, so at
    finite N the hole is usually the one under the few largest values and
    reflects how far the sample is from filling the range, for resonant and
    generic r alike.  It shrinks with N only where the values densify.
    """
    import numpy as np
    if not 0 <= eta < math.inf:
        raise ValueError(f"eta must be nonnegative and finite, got {eta}")
    _, vals = _sampled(P, r, N // 2, N, eta)
    np.abs(vals, out=vals)
    # with eta = 0 every modulus is kept, so no filtered copy is made
    return _range_stats(vals[vals >= eta] if eta > 0 else vals)


def estimate_J(theta, T: float = 1e4,
               grid_step: Optional[float] = None) -> IntervalEstimate:
    """Signed-value range of the transform on the grid of
    np.arange(T/2, T, grid_step).

    That grid has n = ceil((T/2) / grid_step) points T/2 + i s, i < n,
    where s = (T/2 + grid_step) - T/2 is the step as numpy rounds it.  s can
    exceed grid_step, so the last point can lie a little above T: at
    T = 89023.7695376 and grid_step 3.506e-4 it is 89023.7695961.  The
    values are taken at the exact points T/2 + i s, the Progression of a =
    T/2 and b = s, not at numpy's rounded ones, and no grid is built.
    The grid step never exceeds 1/(4C) where C = 2 pi theta/(theta-1)
    bounds the derivative, so no swing between samples can be missed by
    more than a quarter period.  Values are float64, refused (raising
    PrecisionExhaustedError) where their derived bound exceeds FAST_ERROR,
    their head would pass 2^20 factors or an index reaches 2^37, and so is
    a grid step that vanishes against T/2, before anything is built.
    """
    if not (0 < T and math.isfinite(T)):
        raise ValueError(f"T must be positive and finite, got {T}")
    th = float(_theta_value(theta))
    c_bound = 2 * math.pi * th / (th - 1)
    cap = 1 / (4 * c_bound)
    if grid_step is None:
        grid_step = cap
    if not 0 < grid_step <= cap:
        raise ValueError(f"grid_step must lie in (0, {cap:.6g}]")
    # np.arange has n points and steps by (T/2 + grid_step) - T/2
    n = math.ceil((T - T / 2) / grid_step)
    step = (T / 2 + grid_step) - T / 2
    if not step:
        raise PrecisionExhaustedError(
            f"grid step {grid_step:.6g} vanishes against T/2 = {T / 2:.6g}: "
            "(T/2 + grid_step) - T/2 rounds to 0")
    vals = mu_hat_fast(theta, Progression(T / 2, step, 0, max(n, 0)))
    return _range_stats(vals)


def discrepancy(alpha, x: Sequence) -> float:
    """Star discrepancy of {alpha * x_i mod 1} for an increasing sequence x.

    Integer sequences take an exact big-integer route (alpha as an exact
    binary fraction, residues by modular arithmetic), immune to the
    catastrophic rounding of alpha*x mod 1 for huge x; other sequences
    reduce float(alpha) * float(x_i) mod 1.  Both run in plain Python,
    without numpy: each residue is one correctly rounded division or
    fmod, the bits that numpy gives too.
    """
    if isinstance(alpha, float) and not math.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha}")
    n = len(x)
    if n == 0:
        raise ValueError("x must be non-empty")
    xs = list(x)
    for a, b in zip(xs, xs[1:]):
        if b <= a:
            raise ValueError("x must be strictly increasing")
    if all(isinstance(v, int) for v in xs):
        frac = Fraction(alpha)
        p, q = frac.numerator, frac.denominator
        u = sorted(((p * v) % q) / q for v in xs)
    else:
        a = float(alpha)
        u = sorted((a * float(v)) % 1.0 for v in xs)
    return max(max(i / n - ui, ui - (i - 1) / n)
               for i, ui in enumerate(u, 1))


def _grid_clusters(points: np.ndarray, cell: float):
    """Union-find over occupied grid cells (8-neighbour adjacency)."""
    keys = {}
    for pt in points:
        key = (math.floor(pt.real / cell), math.floor(pt.imag / cell))
        entry = keys.get(key)
        if entry is None:
            keys[key] = [pt, 1]
        else:
            entry[0] += pt
            entry[1] += 1

    parent = {k: k for k in keys}

    def find(k):
        while parent[k] != k:
            parent[k] = parent[parent[k]]
            k = parent[k]
        return k

    for (a, b) in list(keys):
        for da in (-1, 0, 1):
            for db in (-1, 0, 1):
                other = (a + da, b + db)
                if other != (a, b) and other in keys:
                    ra, rb = find((a, b)), find(other)
                    if ra != rb:
                        parent[ra] = rb

    sums: dict = {}
    for k, (total, count) in keys.items():
        root = find(k)
        if root in sums:
            sums[root][0] += total
            sums[root][1] += count
        else:
            sums[root] = [total, count]
    out = [(total / count, count) for total, count in sums.values()]
    out.sort(key=lambda c: (-c[1], c[0].real, c[0].imag))
    return out


def translated_sample(P: PisotNumber, r, gamma, N: int, eta: float,
                      gap: float = 1e-3, n_min: Optional[int] = None,
                      seed: int = 0) -> TranslatedReport:
    """Cluster the complex translated values mu_hat(r n) e^(2 pi i gamma n).

    Clustering hashes points to a square grid of side `gap` and merges
    adjacent occupied cells; finitely many clusters point to the countable
    regime, while the angular-coverage statistic (fraction of 64 direction
    bins occupied within the modal radius band of 32) detects circle fill.
    """
    import numpy as np
    n_min = _sample_start(N, eta, gap, n_min)
    r_val, vals = _sampled(P, r, n_min, N, eta)
    g_val = float(embed(_as_field_element(P, gamma), 1))
    # a value of 0.0 (an exact zero, or one dropped at the floor) stays
    # below eta whatever its phase, so only the others get one
    live = np.flatnonzero(vals)
    points = vals[live] * np.exp(
        2j * np.pi * np.mod(g_val * (live + float(n_min)), 1.0))
    pts = points[np.abs(points) >= eta]
    base = dict(r=r_val, gamma=g_val, N=N, eta=eta, seed=seed)
    if not pts.size:
        return TranslatedReport(cluster_count=0, clusters=(), coverage=0.0,
                                dominant_radius=0.0, empty_retention=True,
                                **base)
    clusters = _grid_clusters(pts, gap)

    radii = np.abs(pts)
    hist, edges = np.histogram(radii, bins=32)
    modal = int(np.argmax(hist))
    lo, hi = edges[modal], edges[modal + 1]
    band = pts[(radii >= lo) & (radii <= hi)]
    angles = np.angle(band)
    bins = np.clip(((angles + np.pi) / (2 * np.pi) * 64).astype(int), 0, 63)
    coverage = len(np.unique(bins)) / 64

    stored = tuple(((c.real, c.imag), count) for c, count in clusters)
    return TranslatedReport(cluster_count=len(clusters), clusters=stored,
                            coverage=float(coverage),
                            dominant_radius=float((lo + hi) / 2),
                            empty_retention=False, **base)


def decay_check(theta, N: int) -> tuple:
    """Per-dyadic-block maxima of |mu_hat(n)| for n in [2^k, 2^(k+1)) up
    to N; a decreasing trend witnesses decay (non-Pisot bases), a positive
    floor witnesses non-vanishing (Pisot bases).  The trend need not be
    monotone: for theta = 3/2 the maximum over [2^14, 2^15) exceeds the one
    over [2^13, 2^14).  Values are float64, refused (raising
    PrecisionExhaustedError) where their derived bound exceeds FAST_ERROR,
    their head would pass 2^20 factors or an index reaches 2^37.

    All blocks are one mu_hat_fast batch, the Progression n = 1 .. 2^(k+1)
    - 1, with the block starts as its segments: each block keeps the depth
    and the refusal of a batch of its own, and the blocks share one pool."""
    import numpy as np
    if N < 2:
        raise ValueError("N must be at least 2")
    count = (N + 1).bit_length() - 1
    starts = [2 ** k - 1 for k in range(count)]
    vals = np.abs(mu_hat_fast(theta, Progression(0.0, 1.0, 1, 2 ** count),
                              segments=starts))
    return tuple(BlockMaximum(k=k, start=2**k, stop=2 ** (k + 1),
                              value=float(v))
                 for k, v in enumerate(np.maximum.reduceat(vals, starts)))
