"""Clustering, interval-fill, discrepancy, translated and decay experiments.

Numeric expectations were frozen from independent runs of the sampling
pipeline; reports are deterministic (fixed windows, fixed draws), so centers
and counts are asserted tightly.
"""
import math
import tracemalloc
from fractions import Fraction
from functools import lru_cache

import mpmath as mp
import numpy as np
import pytest

from pisot_spectra import (
    PrecisionExhaustedError,
    Progression,
    build_pisot,
    decay_check,
    discrepancy,
    enumerate_spectrum,
    estimate_J,
    fast_error_bound,
    interval_fill_test,
    mu_hat,
    mu_hat_fast,
    sample_and_cluster,
    translated_sample,
)
from pisot_spectra import empirical
from pisot_spectra.pisot import _theta_value
from pisot_spectra.transform import (_descent_error, _fixed_abs, _head,
                                     _mag_estimate)

GOLDEN = build_pisot((1, 1))
TERNARY = build_pisot((3,))
FLAT = build_pisot((2,))
TRIBONACCI = build_pisot((1, 1, 1))
QUARTIC = build_pisot((1, 0, 0, 1))

# derivative bound used by the perturbation tests: 2 pi theta / (theta - 1)
GOLDEN_DERIV_BOUND = 2 * math.pi * float(GOLDEN.theta) / (float(GOLDEN.theta) - 1)


@lru_cache(maxsize=None)
def _golden_window():
    # 4 candidates: ids 87, 62, 78, 12
    return enumerate_spectrum(GOLDEN, 1, 2, 2, 3, eta=1e-3)


@lru_cache(maxsize=None)
def _top_report():
    return sample_and_cluster(GOLDEN, 1, 10**6, 2e-3, gap=1e-3,
                              n_min=5 * 10**5, candidates=_golden_window(),
                              match_tol=1e-2)


def test_flat_binary_sampling_sets_empty_retention_flag():
    rep = sample_and_cluster(FLAT, 1, 10**3, 0.5)
    assert rep.empty_retention is True
    assert rep.clusters == ()
    assert rep.matches == ()


def test_golden_high_floor_sets_empty_retention_flag():
    # nothing on [1e4, 1e5] reaches 0.1; the observed ceiling is ~0.0425
    rep = sample_and_cluster(GOLDEN, 1, 10**5, 0.1, n_min=10**4)
    assert rep.empty_retention is True
    est = interval_fill_test(GOLDEN, 1, 10**5)
    assert 0.042 < est.upper < 0.043


def test_golden_window_candidate_ids_and_values():
    got = {c.id: float(c.predicted) for c in _golden_window()}
    assert got["87"] == 1.0
    assert got["62"] == pytest.approx(0.02206522473674145, rel=1e-12)
    assert got["78"] == pytest.approx(0.006613493035344122, rel=1e-12)
    assert got["12"] == pytest.approx(0.0039586286121028914, rel=1e-12)
    assert len(got) == 4


def test_golden_top_clusters_frozen():
    rep = _top_report()
    assert rep.empty_retention is False
    assert len(rep.clusters) == 2
    c0, c1 = rep.clusters
    # values at the exact t = n, each within 1.3e-18 of 128-bit mu_hat
    assert c0.center == pytest.approx(0.0028565677915257937, rel=1e-12)
    assert c0.min == pytest.approx(0.002118794380620445, rel=1e-12)
    assert c0.max == pytest.approx(0.0036976522082478214, rel=1e-12)
    assert c0.count == 8
    assert c0.witnesses == (514229, 635622, 658806, 673133, 673134,
                            673135, 673136, 832040)
    assert c1.center == pytest.approx(0.006613493035398382, rel=1e-12)
    assert c1.count == 1
    assert c1.witnesses == (930249,)


def test_golden_top_clusters_all_matched():
    rep = _top_report()
    (i0, id0, d0), (i1, id1, d1) = rep.matches
    assert (i0, id0) == (0, "12")
    assert d0 == pytest.approx(0.0011020608204952778, rel=1e-9)
    assert (i1, id1) == (1, "78")
    assert d1 < 1e-12


def test_cluster_without_nearby_candidate_reports_none():
    rep = sample_and_cluster(GOLDEN, 1, 10**6, 8e-3, gap=1e-3,
                             n_min=2 * 10**5, candidates=_golden_window(),
                             match_tol=1e-2)
    assert len(rep.clusters) == 1
    c = rep.clusters[0]
    assert c.center == pytest.approx(0.04249742340553574, rel=1e-12)
    assert c.witnesses == (416020,)
    idx, cand_id, dist = rep.matches[0]
    assert cand_id is None
    assert dist == pytest.approx(0.020432198668794293, rel=1e-9)
    assert dist > 1e-2


def test_ternary_clusters_reproduce_enumerated_values():
    window = enumerate_spectrum(TERNARY, 1, 11, 1, 2, eta=1e-3)
    assert len(window) == 101
    rep = sample_and_cluster(TERNARY, 1, 10**5, 0.02, gap=5e-3,
                             n_min=5 * 10**4, candidates=window,
                             match_tol=1e-2)
    assert len(rep.clusters) == 10
    matched = {m[1]: (rep.clusters[m[0]].center, m[2])
               for m in rep.matches if m[1] is not None}
    assert len(matched) == 7
    # three centers land exactly on catalogue values
    for cid, center in (("47", 0.17065796643026288),
                        ("49", 0.2655694472818733),
                        ("34", 0.37143735670880546)):
        got_center, got_dist = matched[cid]
        assert got_center == pytest.approx(center, rel=1e-12)
        assert got_dist < 1e-12
    assert matched["28"][0] == pytest.approx(0.13799133386330495, rel=1e-12)
    assert matched["28"][1] == pytest.approx(2.5623904510135853e-05, rel=1e-6)
    assert matched["1221"][0] == pytest.approx(0.21741319530458858, rel=1e-12)
    # unmatched rows are transients sitting just outside the tolerance
    unmatched = [(rep.clusters[m[0]].center, m[2])
                 for m in rep.matches if m[1] is None]
    assert sorted(c for c, _ in unmatched) == pytest.approx(
        [0.15279111717782, 0.2017307512334152, 0.23324846892316028],
        rel=1e-12)
    assert all(d > 1e-2 for _, d in unmatched)


def test_interval_fill_golden_r1_frozen():
    est = interval_fill_test(GOLDEN, 1, 10**6)
    assert est.count == 500001
    assert est.max_gap == pytest.approx(0.0029158408271505606, rel=1e-12)
    assert est.upper == pytest.approx(0.006613493035398382, rel=1e-12)
    assert est.max_gap_rel == pytest.approx(0.44089270398315566, rel=1e-12)
    # with a floor, exactly the nine top values survive
    floored = interval_fill_test(GOLDEN, 1, 10**6, eta=2e-3)
    assert floored.count == 9
    assert floored.lower == pytest.approx(0.002118794380620445, rel=1e-12)
    assert floored.max_gap == pytest.approx(est.max_gap, rel=1e-12)


def test_interval_fill_generic_draws_frozen():
    # two of the ten seeded draws, one sparse and one dense, at the exact
    # t = r n of the float r
    est_a = interval_fill_test(GOLDEN, 1.8252065092537433, 10**6)
    assert est_a.max_gap == pytest.approx(0.000161798183788233, rel=1e-12)
    assert est_a.upper == pytest.approx(0.001923682840503362, rel=1e-12)
    est_b = interval_fill_test(GOLDEN, 1.1242668842835302, 10**6)
    assert est_b.max_gap == pytest.approx(0.03411011449392009, rel=1e-12)
    assert est_b.max_gap <= 0.04


def test_interval_fill_flat_binary():
    # integer samples are exactly zero, so every statistic collapses to 0
    exact = interval_fill_test(FLAT, 1, 10**3)
    assert (exact.lower, exact.upper, exact.max_gap) == (0.0, 0.0, 0.0)
    # a generic multiplier fills an interval that densifies with N
    small = interval_fill_test(FLAT, 1.37, 10**5)
    large = interval_fill_test(FLAT, 1.37, 4 * 10**5)
    assert small.max_gap == pytest.approx(7.280219922395216e-08, rel=1e-9)
    assert large.max_gap == pytest.approx(1.8200276679680382e-08, rel=1e-9)
    assert large.max_gap < small.max_gap / 2


def test_interval_fill_rejects_negative_floor():
    with pytest.raises(ValueError):
        interval_fill_test(GOLDEN, 1, 100, eta=-0.1)


def test_fill_batch_peak_memory():
    # the values, 4 MB, the progression's tables, block-sized scratch and
    # the sort: 6.5 MB (7.1 MB when the call also imports the thread pool),
    # against 9.1 MB when the batch took a full-size t array and 16.0 MB
    # when the moduli, the kept values, their sorted copy and their
    # differences each took one too
    tracemalloc.start()
    try:
        interval_fill_test(GOLDEN, 1.37, 10**6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 7.5 * 10**6


def test_range_stats_equal_the_full_difference():
    # the largest gap taken block by block is np.diff's, on either side of
    # a block edge and for one or two values
    rng = np.random.default_rng(11)
    for size in (1, 2, 3, empirical.FAST_BLOCK, empirical.FAST_BLOCK + 1,
                 empirical.FAST_BLOCK + 2, 3 * empirical.FAST_BLOCK + 7):
        values = rng.standard_normal(size)
        expect = np.sort(values)
        gap = float(np.max(np.diff(expect))) if size > 1 else 0.0
        est = empirical._range_stats(values)
        assert np.array_equal(values, expect)       # sorted in place
        assert (est.lower, est.upper, est.count, est.max_gap) == (
            expect[0], expect[-1], size, gap)
    edge = np.arange(3 * empirical.FAST_BLOCK, dtype=np.float64)
    for i in (empirical.FAST_BLOCK - 1, empirical.FAST_BLOCK, edge.size - 2):
        wide = edge.copy()
        wide[i + 1:] += 0.5
        assert empirical._range_stats(wide).max_gap == 1.5


def test_limit_range_golden_frozen():
    est = estimate_J(GOLDEN, 1e4)
    assert est.lower == pytest.approx(-0.04245164029444006, rel=1e-12)
    assert est.upper == pytest.approx(0.042453910633125445, rel=1e-12)
    assert est.count == 328992
    assert est.lower < 0 < est.upper
    assert est.upper >= 0.04


def test_limit_range_flat_binary_shrinks_with_horizon():
    est4 = estimate_J(2.0, 1e4)
    est5 = estimate_J(2.0, 1e5)
    assert est4.upper == pytest.approx(1.590573764603057e-05, rel=1e-9)
    assert est5.upper == pytest.approx(1.5913347144235942e-06, rel=1e-9)
    assert max(abs(est5.lower), est5.upper) < max(abs(est4.lower), est4.upper) / 5


def test_limit_range_cubic_straddles_zero():
    est = estimate_J(build_pisot((1, 1, 1)), 1e4)
    assert est.lower == pytest.approx(-0.10196116080949982, rel=1e-12)
    assert est.upper == pytest.approx(0.10205513767488536, rel=1e-12)


def test_limit_range_rejects_coarse_grid():
    with pytest.raises(ValueError):
        estimate_J(GOLDEN, 1e4, grid_step=1.0)
    with pytest.raises(ValueError):
        estimate_J(1.0, 1e4)


def test_limit_range_refused_before_building_its_grid():
    # at T = 1e10 the golden grid holds 3.3e11 points (2.6 TB as
    # float64), past the indices' 2^37; the refusal comes first
    with pytest.raises(PrecisionExhaustedError):
        estimate_J(GOLDEN, 1e10)
    tracemalloc.start()
    try:
        with pytest.raises(PrecisionExhaustedError,
                           match=r"indices must lie below 2\^37, got "
                                 r"328991853836$"):
            estimate_J(GOLDEN, 1e10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_limit_range_past_the_old_range_within_its_bound():
    # estimate_J(GOLDEN, 3e5), jset --t-max 3e5, takes 9.9e6 points T/2 +
    # i s; its last 2^16, as a progression of their own, share its largest
    # t and so its plan, and each lies within the derived bound of 128-bit
    # mu_hat at its exact point
    T, th = 3e5, float(GOLDEN.theta)
    cap = 1 / (4 * 2 * math.pi * th / (th - 1))
    n, step = math.ceil((T - T / 2) / cap), (T / 2 + cap) - T / 2
    top = Progression(T / 2, step, n - 2**16, n)
    bound = fast_error_bound(GOLDEN, top._t_max(top.size))
    assert 2.6e5 < top._t_max(top.size) and bound < empirical.FAST_ERROR
    vals = mu_hat_fast(GOLDEN, top, tol=empirical.FAST_ERROR)
    for p in (0, 12345, 2**16 - 1):
        t = Fraction(T / 2) + Fraction(step) * (top.start + p)
        ref = mu_hat(GOLDEN, t, tol=1e-30, precision_bits=128)
        assert abs(float(ref.value) - vals[p]) <= bound


def test_sample_batch_peak_memory():
    # the values, 4 MB, the progression's tables and block-sized scratch:
    # 6.5 MB (7.1 MB when the call also imports the thread pool), against
    # 9.5 MB when the batch took a full-size t array, 12.5 MB when the
    # exact-zero test took 4|t| in one too and 21 MB when the argument array
    # took one too
    tracemalloc.start()
    try:
        empirical._sampled(GOLDEN, 1.0, 5 * 10**5, 10**6, 1e-3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 7.5 * 10**6


@pytest.mark.parametrize("P", [FLAT, TERNARY], ids=["binary", "ternary"])
def test_integer_base_batch_peak_memory(P):
    # the exact zeros of an integer base are residue classes of the index,
    # one strided store each in the output: 5.9 MB for base 2 and 5.7 MB
    # for base 3 (6.6 and 6.3 MB when the call also imports the thread
    # pool), as when a zero test took every power in block-sized scratch,
    # against 9.2 MB when the batch took a full-size t array and 25.5 MB in
    # full-size arrays
    tracemalloc.start()
    try:
        empirical._sampled(P, 1.0, 5 * 10**5, 10**6, 1e-3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 7.5 * 10**6


def test_discrepancy_exact_small_cases():
    assert discrepancy(0.0, [1, 2, 3]) == 1.0
    assert discrepancy(0.25, [1, 2, 3, 4]) == 0.25
    assert discrepancy(0.5, [1]) == 0.5


def test_discrepancy_golden_multiples_low():
    d = discrepancy(float(GOLDEN.theta), list(range(1, 10**4 + 1)))
    assert d == pytest.approx(0.0002567676940099517, rel=1e-12)
    assert d <= 1e-2


def test_discrepancy_lacunary_sequence_draws():
    lucas = [2, 1]
    while len(lucas) < 10**4 + 2:
        lucas.append(lucas[-1] + lucas[-2])
    xs = lucas[2:10**4 + 2]
    d0 = discrepancy(0.22933408950153078, xs)
    d8 = discrepancy(0.6222433339601738, xs)
    assert d0 == pytest.approx(0.009944044403340513, rel=1e-12)
    assert d8 == pytest.approx(0.010698649165561291, rel=1e-12)
    assert max(d0, d8) <= 0.1


def _numpy_discrepancy(u):
    u = np.sort(u)
    i = np.arange(1, len(u) + 1)
    return float(np.max(np.maximum(i / len(u) - u, u - (i - 1) / len(u))))


def test_discrepancy_has_numpys_bits():
    # both plain-Python routes reduce, divide and compare the same floats as
    # the numpy expressions they replaced
    rng = np.random.default_rng(90210)
    for alpha in (0.25, float(GOLDEN.theta), 0.6222433339601738, 1e-300):
        frac = Fraction(alpha)
        for n in (1, 7, 1000):
            xs = sorted({int(v) for v in rng.integers(1, 10**15, n)})
            u = np.array([(frac.numerator * v % frac.denominator)
                          / frac.denominator for v in xs])
            assert discrepancy(alpha, xs) == _numpy_discrepancy(u)
            # a non-integer sequence (here one float among ints, and all
            # floats of both signs) takes the float route
            for ys in ([0.5] + [x + 1 for x in xs],
                       sorted(set(rng.uniform(-1e6, 1e9, n).tolist()))):
                u = np.mod(alpha * np.asarray(ys, dtype=np.float64), 1.0)
                assert discrepancy(alpha, ys) == _numpy_discrepancy(u)


def test_discrepancy_rejects_bad_sequences():
    # a non-finite alpha is a ValueError on both routes, not an
    # OverflowError from the exact one or a NaN from the float one
    for alpha in (math.inf, -math.inf, math.nan):
        for xs in ([1, 2, 3], [0.5, 1.5]):
            with pytest.raises(ValueError, match="alpha"):
                discrepancy(alpha, xs)
    with pytest.raises(ValueError):
        discrepancy(0.3, [])
    with pytest.raises(ValueError):
        discrepancy(0.3, [1, 1, 2])
    with pytest.raises(ValueError):
        discrepancy(0.3, [2, 1])


def test_translated_resonant_gamma_few_clusters_low_coverage():
    gamma = float(GOLDEN.theta) / 2
    t1 = translated_sample(GOLDEN, 1, gamma, 10**5, 1e-4)
    t2 = translated_sample(GOLDEN, 1, gamma, 2 * 10**5, 1e-4)
    assert (t1.cluster_count, t2.cluster_count) == (3, 1)
    assert t1.coverage == pytest.approx(0.640625)
    assert t2.coverage == pytest.approx(0.296875)
    assert max(t1.coverage, t2.coverage) <= 0.7
    assert t1.dominant_radius == pytest.approx(0.0007626859751553511, rel=1e-9)


def test_translated_random_gamma_fills_circle():
    # two of the five seeded draws
    ta = translated_sample(GOLDEN, 1, 0.5044324023878307, 10**5, 1e-4)
    tb = translated_sample(GOLDEN, 1, 0.3412114396856428, 10**5, 1e-4)
    assert ta.coverage == pytest.approx(0.984375)
    assert tb.coverage == pytest.approx(0.9375)
    assert min(ta.coverage, tb.coverage) >= 0.9


def test_translated_zero_gamma_stays_on_real_axis():
    rep = translated_sample(GOLDEN, 1, 0, 10**6, 2e-3, n_min=5 * 10**5)
    assert rep.cluster_count == 3
    centers = sorted(rep.clusters, key=lambda c: -c[1])
    for (re, im), count in rep.clusters:
        assert im == 0.0
    got = sorted((re, count) for (re, im), count in rep.clusters)
    assert got[0][0] == pytest.approx(-0.00661349303540049, rel=1e-12)
    assert got[0][1] == 1
    assert got[1][0] == pytest.approx(-0.0029834581003625378, rel=1e-12)
    assert got[1][1] == 5
    assert got[2][0] == pytest.approx(0.002645083943682741, rel=1e-12)
    assert got[2][1] == 3


def test_translated_flat_binary_sets_empty_retention_flag():
    rep = translated_sample(FLAT, 1, 0.3, 10**3, 0.5)
    assert rep.empty_retention is True
    assert rep.cluster_count == 0


def test_matched_centers_stable_under_doubling():
    base = sample_and_cluster(GOLDEN, 1, 2 * 10**5, 2e-3,
                              candidates=_golden_window())
    doubled = sample_and_cluster(GOLDEN, 1, 4 * 10**5, 2e-3,
                                 candidates=_golden_window())
    by_id = lambda rep: {m[1]: rep.clusters[m[0]].center
                         for m in rep.matches if m[1] is not None}
    a, b = by_id(base), by_id(doubled)
    assert a["12"] == pytest.approx(0.002856567804046333, rel=1e-12)
    assert b["12"] == pytest.approx(0.0029202639829846947, rel=1e-12)
    common = set(a) & set(b)
    assert common == {"12"}
    for cid in common:
        assert abs(a[cid] - b[cid]) <= 1e-3 / 2   # gap/2


def test_perturbed_points_move_centers_within_derivative_bound():
    # r -> r + 1e-11 perturbs every sample point r*n by at most 1e-5
    eps = 1e-5
    pert = sample_and_cluster(GOLDEN, 1 + 1e-11, 10**6, 2e-3, gap=1e-3,
                              n_min=5 * 10**5)
    base = _top_report()
    assert len(pert.clusters) == len(base.clusters) == 2
    for pc, bc in zip(pert.clusters, base.clusters):
        assert abs(pc.center - bc.center) <= GOLDEN_DERIV_BOUND * eps
        assert abs(pc.center - bc.center) < 1e-9


def test_raw_value_shift_within_derivative_bound():
    # the points n and n + eps exactly, n = 5e5 .. 1e6; at n = 673137 the
    # shift is within 2e-18 of 128-bit mu_hat's
    eps = 1e-5
    ns, moved = (Progression(a, 1.0, 5 * 10**5, 10**6 + 1) for a in (0, eps))
    shift = np.max(np.abs(np.abs(mu_hat_fast(GOLDEN, ns))
                          - np.abs(mu_hat_fast(GOLDEN, moved))))
    assert float(shift) == pytest.approx(7.729151151785255e-08, rel=1e-6)
    assert float(shift) <= GOLDEN_DERIV_BOUND * eps


def test_decay_blocks_cover_full_dyadic_ranges_only():
    blocks = decay_check(GOLDEN, 10)
    assert [(b.k, b.start, b.stop) for b in blocks] == [
        (0, 1, 2), (1, 2, 4), (2, 4, 8)]
    assert blocks[0].value == pytest.approx(0.022065224736745846, rel=1e-12)
    assert blocks[1].value == pytest.approx(0.003958628612103909, rel=1e-12)
    assert blocks[2].value == pytest.approx(0.04359799974492029, rel=1e-12)


def test_decay_golden_blocks_stay_above_floor():
    blocks = decay_check(GOLDEN, 2**16)
    assert len(blocks) == 16
    last5 = [b.value for b in blocks[-5:]]
    assert last5 == pytest.approx([0.0066134986607464955,
                                   0.04249742281078211,
                                   0.006613492721851648,
                                   0.042497423438576425,
                                   0.006613493052815286], rel=1e-9)
    assert min(last5) >= 5e-3


def test_decay_non_pisot_trend_with_parity_wobble():
    blocks = decay_check(1.5, 2**16)
    last5 = [b.value for b in blocks[-5:]]
    assert last5 == pytest.approx([0.00043131499871217413,
                                   0.00021466559057888496,
                                   0.00011343089079653355,
                                   0.00011740786140540723,
                                   6.700121536999341e-05], rel=1e-9)
    # not strictly monotone (one rise), but down by >6x across the window
    assert last5[3] > last5[2]
    assert last5[-1] < last5[0] / 6


def test_decay_flat_binary_is_numerically_zero():
    blocks = decay_check(2.0, 2**16)
    assert all(b.value <= 1e-12 for b in blocks)


def _decay_blockwise(theta, N):
    # the reference: one batch per dyadic block, in order, each the
    # progression n = 2^k .. 2^(k+1) - 1 of its own
    blocks = []
    k = 0
    while 2 ** (k + 1) - 1 <= N:
        ns = Progression(0.0, 1.0, 2**k, 2 ** (k + 1))
        vals = np.abs(mu_hat_fast(theta, ns, tol=empirical.FAST_ERROR))
        blocks.append((k, 2**k, 2 ** (k + 1), float(np.max(vals))))
        k += 1
    return blocks


@pytest.mark.parametrize("theta", [1.5, GOLDEN, build_pisot((1, 0, 0, 1)),
                                   FLAT],
                         ids=["three_halves", "golden", "quartic", "binary"])
@pytest.mark.parametrize("N", [2, 3, 1000, 2**16 - 1, 2**16])
def test_decay_equals_one_batch_per_block(theta, N):
    blocks = decay_check(theta, N)
    assert [(b.k, b.start, b.stop, b.value) for b in blocks] == \
        _decay_blockwise(theta, N)
    assert len(blocks) == (N + 1).bit_length() - 1


def _refuse_from_block_12(monkeypatch, theta):
    # decay's tolerance set to the bound at |t| = 2^12: blocks k <= 11
    # (|t| < 2^12) are admitted, and block 12 is refused
    monkeypatch.setattr(empirical, "FAST_ERROR",
                        fast_error_bound(theta, 2**12))


@pytest.mark.parametrize("theta", [1.5, GOLDEN], ids=["three_halves",
                                                      "golden"])
def test_decay_refuses_before_building_its_batch(monkeypatch, theta):
    # the first block refused raises, with the message the block-by-block
    # loop gave, and no batch of 2^22 points is built first
    _refuse_from_block_12(monkeypatch, theta)
    with pytest.raises(PrecisionExhaustedError) as blockwise:
        _decay_blockwise(theta, 2**22)
    tracemalloc.start()
    try:
        with pytest.raises(PrecisionExhaustedError) as segmented:
            decay_check(theta, 2**22)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert str(segmented.value) == str(blockwise.value)
    assert "8191" in str(segmented.value)
    assert peak < 2**20


def test_decay_refuses_block_starts_past_the_int64_range(monkeypatch):
    # the starts of 70 blocks pass 2^63; the first block refused still
    # raises, not a segment check on wrapped int64 starts, and with every
    # block admitted the indices' 2^37 refuses the batch
    with pytest.raises(PrecisionExhaustedError, match="below 2\\^37"):
        decay_check(GOLDEN, 2**70)
    _refuse_from_block_12(monkeypatch, GOLDEN)
    with pytest.raises(PrecisionExhaustedError) as small:
        decay_check(GOLDEN, 2**22)
    with pytest.raises(PrecisionExhaustedError) as large:
        decay_check(GOLDEN, 2**70)
    assert str(large.value) == str(small.value)


def test_sampling_validation_errors():
    with pytest.raises(ValueError):
        sample_and_cluster(GOLDEN, 1, 100, 0.0)
    with pytest.raises(ValueError):
        sample_and_cluster(GOLDEN, 1, 100, 1.0)
    with pytest.raises(ValueError):
        sample_and_cluster(GOLDEN, 1, 100, 0.1, gap=0.0)
    with pytest.raises(ValueError):
        sample_and_cluster(GOLDEN, 1, 100, 0.1, n_min=100)
    with pytest.raises(ValueError):
        translated_sample(GOLDEN, 1, 0.5, 100, 0.0)
    # every sampled series reads r by the multiplier rule
    for r in (-1, 0, Fraction(-1, 2), -0.5):
        for call in (lambda: sample_and_cluster(GOLDEN, r, 100, 0.1),
                     lambda: interval_fill_test(GOLDEN, r, 100),
                     lambda: translated_sample(GOLDEN, r, 0.5, 100, 0.1)):
            with pytest.raises(ValueError, match="r must be positive"):
                call()
    with pytest.raises(ValueError):
        decay_check(2.0, 1)
    with pytest.raises(ValueError):
        decay_check(0.9, 100)


@pytest.mark.parametrize("match_tol", [math.nan, -1.0, 0.0, math.inf])
def test_match_tol_outside_its_range_is_refused(match_tol):
    # refused with or without candidates, before any sampling
    for candidates in (None, []):
        with pytest.raises(ValueError, match="match_tol"):
            sample_and_cluster(GOLDEN, 1, 100, 0.1, candidates=candidates,
                               match_tol=match_tol)


@pytest.mark.parametrize("call, what", [
    (lambda: enumerate_spectrum(GOLDEN, 1, 1, 0, 0, eta=math.nan), "eta"),
    (lambda: enumerate_spectrum(GOLDEN, 1, 1, 0, 0, eta=math.inf), "eta"),
    (lambda: interval_fill_test(GOLDEN, 1, 100, eta=math.nan), "eta"),
    (lambda: interval_fill_test(GOLDEN, 1, 100, eta=math.inf), "eta"),
    (lambda: sample_and_cluster(GOLDEN, 1, 100, 0.1, gap=math.inf), "gap"),
    (lambda: translated_sample(GOLDEN, 1, 0.5, 100, 0.1, gap=math.inf),
     "gap"),
    (lambda: estimate_J(math.inf), "theta"),
    (lambda: decay_check(math.inf, 100), "theta"),
])
def test_non_finite_parameters_are_refused(call, what):
    with pytest.raises(ValueError, match=what):
        call()


def test_sampled_series_reads_r_as_its_float():
    # the float of the multiplier rule is float() of a number and the real
    # embedding of a field element, bit for bit; its values are those at
    # the exact t = r_val n, within the plan's bound of mu_hat there
    half_theta = GOLDEN.field((0, Fraction(1, 2)))
    for r, expect in ((1, 1.0), (1.37, 1.37), (Fraction(1, 3), 1 / 3),
                      (half_theta, float(GOLDEN.theta) / 2)):
        r_val, vals = empirical._sampled(GOLDEN, r, 2, 5, 0.0)
        assert r_val == expect and np.array_equal(
            vals, mu_hat_fast(GOLDEN, Progression(0.0, r_val, 2, 6)))
        bound = fast_error_bound(GOLDEN, 5 * r_val)
        for n, v in zip(range(2, 6), vals):
            ref = mu_hat(GOLDEN, Fraction(r_val) * n, tol=1e-30,
                         precision_bits=128)
            assert abs(float(ref.value) - v) <= bound
        assert sample_and_cluster(GOLDEN, r, 100, 0.1).r == expect


def test_sampled_batch_takes_its_bound_from_its_plan(monkeypatch):
    # the spot check tests the batch against the plan's bound at its
    # largest |t|: a kernel that moves every value by half of it passes,
    # and one that moves every value by twice it is refused
    bound = fast_error_bound(GOLDEN, 10**4)
    real = empirical.mu_hat_fast
    for share in (0.5, 2.0):
        monkeypatch.setattr(empirical, "mu_hat_fast",
                            lambda theta, ts, tol, share=share, **kw:
                            real(theta, ts, tol=tol, **kw) + share * bound)
        if share < 1:
            empirical._sampled(GOLDEN, 1.0, 1, 10**4, 0.0)
        else:
            with pytest.raises(PrecisionExhaustedError, match="derived bound"):
                empirical._sampled(GOLDEN, 1.0, 1, 10**4, 0.0)


def test_sampled_batches_need_no_tolerance_past_fast_error():
    # no Pisot number lies below the plastic number, theta^3 = theta + 1,
    # whose head is the longest: its bound is finite up to t_max A = 2^100,
    # A = theta/(theta - 1), and at most 6.1e-13 there, within FAST_ERROR,
    # and inf past it.  So every tolerance from FAST_ERROR up gives a
    # sampled batch the same verdict, and eta does not enter it
    plastic = build_pisot((0, 1, 1))
    th = float(plastic.theta)
    A = th / (th - 1)
    edge = 2.0 ** 100 / A * (1 - 2.0 ** -40)
    assert fast_error_bound(plastic, edge) <= 6.1e-13 < empirical.FAST_ERROR
    assert fast_error_bound(plastic, 2.0 ** 100 / A * (1 + 2.0 ** -40)) == (
        math.inf)
    for eta in (0.0, 0.5):
        with pytest.raises(PrecisionExhaustedError, match=(
                "float64 error bound inf at \\|t\\| <= 2e\\+30 exceeds the "
                "tolerance 1.000e-09")):
            empirical._sampled(plastic, 10**30, 1, 2, eta)


@pytest.mark.parametrize("call, message", [
    (lambda: sample_and_cluster(GOLDEN, 1000, 2**38, 1e-6),
     "a progression's indices must lie below 2^37, got 274877906944"),
    (lambda: interval_fill_test(GOLDEN, 1000, 2**38),
     "a progression's indices must lie below 2^37, got 274877906944"),
    (lambda: empirical._rows(GOLDEN, 1, 1, 2**38),
     "a progression's indices must lie below 2^37, got 274877906944"),
], ids=["sample", "fill", "series"])
def test_refused_sampled_batch_builds_nothing(call, message):
    # refused, its indices past 2^37, before the values (1 TB here) are
    # built; the warm-up loads numpy and the pool
    sample_and_cluster(GOLDEN, 1, 1000, 1e-3)
    tracemalloc.start()
    try:
        with pytest.raises(PrecisionExhaustedError) as refused:
            call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert str(refused.value) == message
    assert peak < 2**20


def test_float64_rows_zero_exact_zeros_and_are_spot_checked(monkeypatch):
    # cos(2 pi t) vanishes at t = 1/4 and 3/4: 0.0 there, as on the
    # precise path
    items = empirical._rows(GOLDEN, Fraction(1, 4), 1, 3)
    assert [it.value for it in items[::2]] == [0.0, 0.0]
    assert [it.contains_zero for it in items] == [True, False, True]
    # the rows share the reports' spot check
    real = empirical.mu_hat_fast
    monkeypatch.setattr(empirical, "mu_hat_fast",
                        lambda theta, ts, tol, **kw: real(theta, ts, tol=tol,
                                                          **kw) + 1e-7)
    with pytest.raises(PrecisionExhaustedError, match="spot check"):
        empirical._rows(GOLDEN, 1, 1, 50)


def test_spot_check_catches_a_faulty_kernel(monkeypatch):
    # a kernel off by 1e-5, far past the derived bound, is caught
    real = empirical.mu_hat_fast
    monkeypatch.setattr(empirical, "mu_hat_fast",
                        lambda theta, ts, tol, **kw: real(theta, ts, tol=tol,
                                                          **kw) + 1e-5)
    with pytest.raises(PrecisionExhaustedError):
        empirical._sampled(GOLDEN, 1.0, 5000, 10000, 1e-5)

    def off_at_largest_t(theta, ts, tol, **kw):
        # the batch is a progression, whose last point has the largest t
        vals = real(theta, ts, tol=tol, **kw)
        vals[ts.size - 1] += 1e-5
        return vals
    monkeypatch.setattr(empirical, "mu_hat_fast", off_at_largest_t)
    with pytest.raises(PrecisionExhaustedError):
        empirical._sampled(GOLDEN, 1.0, 5000, 10000, 1e-5)


def _spot_check_log(monkeypatch):
    """(refs, proofs): the spot check's references as (t, plan, result) and
    its leading-factor proofs as (t, plan, shown).  A proof that fails is
    followed by a reference at the same t, so the checked points are the
    references and the points shown, each once."""
    refs, proofs = [], []
    real_ref = empirical.mu_hat
    real_proof = empirical._leading_factors_below

    def reference(theta, t, **kw):
        refs.append((t, kw.get("plan"), real_ref(theta, t, **kw)))
        return refs[-1][2]

    def proof(t, limit, plan):
        proofs.append((t, plan, real_proof(t, limit, plan)))
        return proofs[-1][2]
    monkeypatch.setattr(empirical, "mu_hat", reference)
    monkeypatch.setattr(empirical, "_leading_factors_below", proof)
    return refs, proofs


def _checked(refs, proofs):
    return [t for t, _, _ in refs] + [t for t, _, shown in proofs if shown]


def _even_positions(size):
    # the spot check's evenly spaced positions, endpoints included
    return np.unique(np.linspace(0, size - 1, empirical.SPOT_CHECK_SIZE)
                     .astype(np.int64))


def _evenly_spaced(r, lo, hi):
    return {Fraction(r) * (lo + int(i)) for i in _even_positions(hi - lo + 1)}


def test_precise_calls_do_not_jump_at_ten_thousand(monkeypatch):
    # the checked points, references and points shown below floor + bound
    # by the leading factors, hold all 32 evenly spaced points, both
    # endpoints and so the largest |t| among them, each once, with the same
    # split on either side of 10^4
    refs, proofs = _spot_check_log(monkeypatch)
    counts = []
    for N in (9998, 10002):
        refs.clear()
        proofs.clear()
        sample_and_cluster(GOLDEN, 1, N, 1e-3)
        checked = _checked(refs, proofs)
        even = _evenly_spaced(1.0, N // 2, N)
        assert len(even) == empirical.SPOT_CHECK_SIZE and even <= set(checked)
        assert len(set(checked)) == len(checked) and max(checked) == N
        counts.append((len(refs), len(proofs)))
    assert counts[0] == counts[1]


@pytest.mark.parametrize("above", ["far", "near"])
def test_spot_check_catches_a_value_dropped_above_the_floor(monkeypatch,
                                                            above):
    # a faulty kernel returns 0.0 for a checked value above floor + bound
    real = empirical.mu_hat_fast
    ts = Progression(0.0, 1.0, 5000, 10001)
    checked = np.unique(np.linspace(0, ts.size - 1,
                                    empirical.SPOT_CHECK_SIZE).astype(np.int64))
    vals = np.abs(real(GOLDEN, ts)[checked])
    i, value = checked[np.argmax(vals)], vals.max()
    bound = fast_error_bound(GOLDEN, 10000.0)
    eta = value / 2 if above == "far" else value - 4 * bound
    assert eta * empirical.FLOOR_SHARE + 2 * bound < value

    def drops_one(theta, ts, tol, **kw):
        assert kw["floor"] == eta * empirical.FLOOR_SHARE
        out = real(theta, ts, tol=tol, **kw)
        out[i] = 0.0
        return out
    empirical._sampled(GOLDEN, 1.0, 5000, 10000, eta)
    monkeypatch.setattr(empirical, "mu_hat_fast", drops_one)
    with pytest.raises(PrecisionExhaustedError, match="and the floor"):
        empirical._sampled(GOLDEN, 1.0, 5000, 10000, eta)


def test_spot_check_catches_a_fault_in_the_kept_values_only(monkeypatch):
    # rows' largest sample keeps 34 of its 500,001 values (every value of
    # modulus below the floor is 0.0), and every evenly spaced checked point
    # is 0.0; a kernel that moves only the kept values
    # by 10 times the derived bound is caught at the kept values checked
    real = empirical.mu_hat_fast
    fault = 10 * fast_error_bound(GOLDEN, 1e6)
    seen = {}

    def moves_kept(theta, ts, tol, **kw):
        vals = real(theta, ts, tol=tol, **kw)
        kept = vals != 0
        seen["kept"] = np.count_nonzero(kept)
        vals[kept] += np.copysign(fault, vals[kept])
        return vals
    monkeypatch.setattr(empirical, "mu_hat_fast", moves_kept)
    with pytest.raises(PrecisionExhaustedError, match="derived bound"):
        empirical._sampled(GOLDEN, 1.0, 5 * 10**5, 10**6, 1e-3)
    assert seen["kept"] == 34


def test_spot_check_prefers_kept_values_in_each_stride(monkeypatch):
    refs, proofs = _spot_check_log(monkeypatch)
    _, vals = empirical._sampled(GOLDEN, 1.0, 5 * 10**5, 10**6, 1e-3)
    ts = np.asarray([float(t) for t, _, _ in refs])
    # 7 references, each at a kept value in a stride whose evenly spaced
    # point is 0.0; the 32 evenly spaced points, both endpoints among them,
    # are all 0.0 and shown below floor + bound by the leading factors: 25
    # whose strides keep nothing and the 7 that gave way
    assert len(ts) == 7 and np.all(np.diff(ts) > 0)
    assert np.count_nonzero(vals[(ts - 5e5).astype(np.int64)]) == 7
    shown = [t for t, _, ok in proofs if ok]
    assert len(shown) == len(proofs) == empirical.SPOT_CHECK_SIZE
    assert set(shown) == _evenly_spaced(1.0, 5 * 10**5, 10**6)
    assert (min(shown), max(shown)) == (5 * 10**5, 10**6)


@pytest.mark.parametrize("N", [10**4, 10**6])
def test_spot_check_catches_a_fault_ten_times_the_derived_bound(monkeypatch,
                                                                 N):
    # eta = 1e-5 refuses batches past 1e-6; the fault is far below that
    real = empirical.mu_hat_fast
    fault = 10 * fast_error_bound(GOLDEN, float(N))
    assert fault < 1e-7

    def off_at_largest_t(theta, ts, tol, **kw):
        # the batch is a progression, whose last point has the largest t
        vals = real(theta, ts, tol=tol, **kw)
        vals[ts.size - 1] += fault
        return vals
    monkeypatch.setattr(empirical, "mu_hat_fast", off_at_largest_t)
    with pytest.raises(PrecisionExhaustedError, match="derived bound"):
        empirical._sampled(GOLDEN, 1.0, N // 2, N, 1e-5)


@pytest.mark.parametrize("P, r, lo, hi", [
    (GOLDEN, 1.0, 1000, 2000),
    (GOLDEN, 1.0, 5 * 10**5, 10**6),
    (GOLDEN, 0.7, 0, 40),
    (build_pisot((1, 1, 1)), 1.0, 5000, 10**4),
    (FLAT, 0.25, 1, 4000),
    (TERNARY, 1.0, 100, 300),
    (FLAT, 0.3, 1, 40),
])
def test_spot_check_references_are_sharp_against_their_threshold(
        monkeypatch, P, r, lo, hi):
    refs, proofs = _spot_check_log(monkeypatch)
    empirical._sampled(P, r, lo, hi, 1e-3)
    # every evenly spaced point is checked once, by a reference or a proof
    checked = _checked(refs, proofs)
    even = _evenly_spaced(r, lo, hi)
    assert len(even) == min(hi - lo + 1, empirical.SPOT_CHECK_SIZE)
    assert even <= set(checked) and len(set(checked)) == len(checked)
    bound = fast_error_bound(P, r * hi)
    for _, _, ref in refs:
        assert ref.error_bound <= 1e-3 * (bound + ref.error_bound)


# batches of several bases; on the binary base at r = 1/4 every value is an
# exact zero
SPOT_CHECK_BATCHES = [
    (GOLDEN, 1.0, 5 * 10**5, 10**6, 1e-3),
    (GOLDEN, 1.0, 5 * 10**4, 10**5, 1e-4),
    (TRIBONACCI, 1.0, 5000, 10**4, 1e-3),
    (QUARTIC, 1.0, 5000, 10**4, 1e-3),
    (TERNARY, 1.0, 100, 300, 1e-3),
    (FLAT, 0.25, 1, 4000, 1e-3),
    (FLAT, 0.3, 1, 4000, 1e-3),
]
SPOT_CHECK_IDS = ["golden_1e6", "golden_1e5", "tribonacci", "quartic",
                  "ternary", "binary_zeros", "binary"]


@pytest.mark.parametrize("P, r, lo, hi, eta", SPOT_CHECK_BATCHES,
                         ids=SPOT_CHECK_IDS)
def test_leading_factors_leave_the_verdicts_unchanged(monkeypatch, P, r, lo,
                                                      hi, eta):
    # the spot check as it runs, and with a reference at every checked
    # point, accept and refuse the same batches with the same message: a
    # proof passes where the reference would, and cannot hold where the
    # value exceeds floor + bound
    real, real_proof = empirical.mu_hat_fast, empirical._leading_factors_below
    ts = Progression(0.0, r, lo, hi + 1)
    bound = fast_error_bound(P, ts._t_max(ts.size))
    even = _even_positions(ts.size)
    vals = np.abs(real(P, ts)[even])
    i, value = even[np.argmax(vals)], vals.max()

    def moved(out):
        kept = out != 0
        out[kept] += np.copysign(10 * bound, out[kept])

    def zeroed(out):
        out[i] = 0.0

    # (eta, fault, refused), refused None where the outcome is not pinned
    cases = [(eta, None, None), (0.0, None, None),
             (eta, moved, None), (0.0, moved, value > 0)]
    if value > 4 * bound:
        # zeroed above floor + bound, and zeroed between the floor and
        # floor + bound, which both ways accept
        cases += [(value / 2, zeroed, True), (0.0, zeroed, True),
                  ((value - bound / 2) / empirical.FLOOR_SHARE, zeroed,
                   False)]
    for eta_c, fault, refused in cases:
        def faulty(theta, ts, tol, **kw):
            out = real(theta, ts, tol=tol, **kw)
            if fault is not None:
                fault(out)
            return out
        monkeypatch.setattr(empirical, "mu_hat_fast", faulty)
        verdicts = []
        for proof in (real_proof, lambda *a: False):
            monkeypatch.setattr(empirical, "_leading_factors_below", proof)
            try:
                empirical._sampled(P, r, lo, hi, eta_c)
                verdicts.append(None)
            except PrecisionExhaustedError as refused_with:
                verdicts.append(str(refused_with))
        assert verdicts[0] == verdicts[1]
        if fault is None or refused is not None:
            assert (verdicts[0] is not None) == bool(refused)


@pytest.mark.parametrize("P, r, lo, hi, eta", SPOT_CHECK_BATCHES,
                         ids=SPOT_CHECK_IDS)
def test_one_plan_covers_its_batch(monkeypatch, P, r, lo, hi, eta):
    # every proof and every reference of a batch runs under one descent
    # plan, taken once; at every checked t its K is at least t's head
    # length, the exact rule's and the kernel's integer walk's, and its
    # per-factor error e bounds _descent_error(theta, K, mag(t))
    refs, proofs = _spot_check_log(monkeypatch)
    empirical._sampled(P, r, lo, hi, eta)
    plans = [plan for _, plan, _ in refs + proofs]
    assert plans and all(plan is plans[0] for plan in plans)
    plan = plans[0]
    assert plan.pb == empirical.SPOT_CHECK_BITS
    th = _theta_value(P, empirical.SPOT_CHECK_BITS + 64)
    for t in _checked(refs, proofs):
        with mp.workprec(128):
            x, k_t = 2 * mp.pi * th / (th - 1) * mp.mpf(t.numerator) \
                / t.denominator, 0
            while x > 1:
                x, k_t = x / th, k_t + 1
        walk = _head(_fixed_abs(t, plan.W, 0), plan._replace(K=2**20))
        assert k_t <= len(walk) - 1 <= plan.K
        assert _descent_error(th, plan.K, _mag_estimate(t)) <= plan.e
