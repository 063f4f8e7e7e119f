"""Transform evaluation, digit traces, and the integer recurrence."""

import concurrent.futures
import functools
import io
import json
import math
import os
import random
import signal
import threading
from contextlib import redirect_stdout
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from mpmath.libmp.libelefun import (COS_SIN_CACHE_PREC, EXP_SERIES_U_CUTOFF,
                                    cos_sin_fixed, pi_fixed)
from hypothesis import given, settings
from hypothesis import strategies as st

from pisot_spectra import (
    AmbiguousRoundingError,
    DigitTrace,
    InvalidDeltaError,
    InvalidToleranceError,
    PrecisionExhaustedError,
    build_pisot,
    check_recurrence,
    coefficient_series,
    digit_trace,
    embed,
    fast_error_bound,
    mu_hat,
    mu_hat_fast,
    nearest_int_data,
)
from pisot_spectra import cli, empirical, spectrum, transform
from pisot_spectra.pisot import GUARD_BITS, PisotNumber, _theta_value, _to_mpf
from pisot_spectra.transform import (COS_FIXED_ERROR, FAST_BLOCK, FAST_ERROR,
                                     FAST_TOL, FACTOR_FLOOR, TAIL_DEGREE,
                                     TAIL_REACH, _TAIL_ERROR, _U,
                                     _cos_fixed, _depth, _even_moments,
                                     _exact_zeros, _float_depth,
                                     _kernel_plan, _leading_factors_below,
                                     _mag_estimate, _tail_coefficients,
                                     _truncation_depth)

GOLDEN = build_pisot((1, 1))
TRIBONACCI = build_pisot((1, 1, 1))
QUARTIC = build_pisot((1, 0, 0, 1))


def sinc_closed_form(t):
    # telescoping: prod_{k>=0} cos(2 pi t / 2^k) = sin(4 pi t) / (4 pi t)
    x = 4 * mp.pi * t
    return mp.sin(x) / x


def test_mu_hat_at_zero():
    res = mu_hat(GOLDEN, 0)
    assert res.value == 1
    assert res.error_bound == 0
    assert res.contains_zero is False


def test_mu_hat_theta2_point():
    res = mu_hat(2, 0.3)
    with mp.workprec(300):
        assert abs(res.value - mp.mpf("-0.15591488063143984")) < 1e-16
        # same binary argument on both sides
        assert abs(res.value - sinc_closed_form(mp.mpf(0.3))) <= res.error_bound + mp.mpf(10) ** -20


def test_mu_hat_sinc_oracle_grid():
    rng = random.Random(271828)
    with mp.workprec(300):
        for _ in range(100):
            t = mp.mpf(rng.uniform( 0.001, 100.0))
            res = mu_hat(2, t)
            if res.contains_zero:
                assert abs(sinc_closed_form(t)) <= res.error_bound + mp.mpf(10) ** -20
            else:
                assert abs(res.value - sinc_closed_form(t)) <= res.error_bound + mp.mpf(10) ** -20


def test_mu_hat_evenness_exact():
    for t in (0.37, 2.25, 118.0):
        a = mu_hat(GOLDEN, t)
        b = mu_hat(GOLDEN, -t)
        assert a.value == b.value
        assert a.error_bound == b.error_bound


def test_mu_hat_scale_identity():
    # one index shift: mu_hat(theta*t) = cos(2 pi theta t) * mu_hat(t)
    rng = random.Random(1618)
    with mp.workprec(320):
        th = GOLDEN.theta_at(320)
        for _ in range(20):
            t = mp.mpf(rng.uniform(0.01, 50.0))
            lhs = mu_hat(GOLDEN, th * t)
            rhs = mu_hat(GOLDEN, t)
            cosf = mp.cos(2 * mp.pi * th * t)
            combined = lhs.error_bound + abs(cosf) * rhs.error_bound + mp.mpf(10) ** -40
            assert abs(lhs.value - cosf * rhs.value) <= combined


def test_mu_hat_magnitude_cap():
    rng = random.Random(55)
    for _ in range(25):
        res = mu_hat(TRIBONACCI, rng.uniform(0, 500))
        assert abs(res.value) <= 1


def test_mu_hat_zero_bracket_at_quarter_powers():
    with mp.workprec(320):
        th = GOLDEN.theta_at(320)
        for n in range(1, 6):
            res = mu_hat(GOLDEN, th ** n / 4)
            assert res.contains_zero is True
            assert abs(res.value) <= res.error_bound


def test_mu_hat_tolerance_validation():
    for bad in (0, -1e-3, 0.5, 2):
        with pytest.raises(InvalidToleranceError):
            mu_hat(GOLDEN, 1.0, tol=bad)
    with pytest.raises(ValueError):
        mu_hat(0.9, 1.0)


def test_mu_hat_rational_theta_within_its_bound():
    # 4/3 has no finite binary expansion: taken at 53 bits instead of the
    # working precision it moves the value by about 5e-29, far outside the
    # certified bound of about 2e-39
    t = 10**5
    res = mu_hat(Fraction(4, 3), t, precision_bits=256)
    with mp.workprec(400):
        q = mp.mpf(3) / 4
        x, direct = mp.mpf(t), mp.mpf(1)
        while x > mp.mpf(2) ** -210:
            direct *= mp.cos(2 * mp.pi * x)
            x *= q
        assert abs(res.value - direct) <= res.error_bound


def test_cos_sin_fixed_within_the_kernels_constant():
    # mu_hat's bound takes COS_FIXED_ERROR units of 2^-W for each cosine
    # from mpmath's internal cos_sin_fixed; pin it against mp.cos at W + 64
    # bits, over the arguments the kernel passes: [0, 2 pi 2^W], with
    # points at and near each multiple of pi/2
    rng = random.Random(2718)
    worst = 0
    for W in [*range(96, 801, 8), 399, 400, 401, 1000, 1499, 1500, 1600]:
        half_pi = pi_fixed(W - 1)
        args = [rng.randrange(pi_fixed(W + 1)) for _ in range(12)]
        args += [max(0, q * half_pi + d) for q in range(5)
                 for d in (-2**20, -3, -1, 0, 1, 3, 2**20)]
        with mp.workprec(W + 64):
            for a in args:
                c = cos_sin_fixed(a, W, half_pi)[0]
                exact = mp.ldexp(mp.cos(mp.ldexp(a, -W)), W)
                worst = max(worst, abs(c - exact))
    assert worst <= COS_FIXED_ERROR


def test_cos_fixed_has_cos_sin_fixeds_bits(monkeypatch):
    # both kernels take their cosines from _cos_fixed, whose bound is
    # cos_sin_fixed's: it must return cos_sin_fixed's bits at every W, and
    # between the two mpmath cut-offs it must run its own series in the
    # even quadrants rather than hand them to cos_sin_fixed
    delegated = []

    def counting(a, W, half_pi):
        delegated.append(a)
        return cos_sin_fixed(a, W, half_pi)

    monkeypatch.setattr(transform, "cos_sin_fixed", counting)
    rng = random.Random(31415)
    series = 0
    for W in [*range(96, 1601, 8), 399, 400, 401, 1499, 1500]:
        half_pi = pi_fixed(W - 1)
        args = [rng.randrange(pi_fixed(W + 1)) for _ in range(12)]
        args += [1 << (W - e) for e in range(71)]
        args += [q * half_pi + d for q in range(5)
                 for d in (-2**20, -3, -1, 0, 1, 3, 2**20)]
        for a in args:
            delegated.clear()
            assert _cos_fixed(a, W, half_pi) == cos_sin_fixed(a, W, half_pi)[0]
            even = divmod(a, half_pi)[0] % 2 == 0
            if COS_SIN_CACHE_PREC < W < EXP_SERIES_U_CUTOFF and even:
                assert not delegated
                series += 1
            else:
                assert delegated == [a]
    assert series > 10000


def _mpf_depth(theta, t, tol, pb):
    # the depth rule of mu_hat before its kernel: _truncation_depth in mpf
    # at pb + mag(t) + 32 bits
    th = _theta_value(theta, pb + 64)
    with mp.workprec(pb + _mag_estimate(t) + 32):
        return _truncation_depth(2 * mp.pi * abs(_to_mpf(t)), th, tol)


def _phi_mpf_depths(P, w, tol):
    # the depth rules of the two-sided product before its kernel, mpf at
    # pb + 64 bits: the first j with pi C rho^j <= the ascending tail's cut,
    # C the sum of the conjugate moduli, stepped by one multiply; the tol
    # rule on |w|
    with mp.workprec(P.precision_bits + GUARD_BITS):
        emb = [embed(w, i) for i in range(2, P.m + 1)]
        j_pos = 0
        if emb:
            _, cut = spectrum._ascent_terms(P.rho, tol)
            x = mp.pi * mp.fsum(abs(v) for v in emb)
            while x > cut:
                j_pos, x = j_pos + 1, x * P.rho
        n_neg = _truncation_depth(mp.pi * abs(embed(w, 1, P.precision_bits)),
                                  P.theta_at(P.precision_bits + GUARD_BITS),
                                  tol)
    return j_pos, n_neg


@functools.cache
def _base_at(d, pb):
    return build_pisot(d, pb)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from((GOLDEN, TRIBONACCI, QUARTIC, 1.5, Fraction(4, 3))),
       st.floats(-3, 12), st.floats(-45, -2), st.sampled_from((64, 256)),
       st.lists(st.integers(-10**6, 10**6), min_size=4, max_size=4))
def test_mu_hat_depth_equals_the_mpf_rule(theta, log_t, log_tol, pb, z):
    t, tol = 10.0 ** log_t, 10.0 ** log_tol
    res = mu_hat(theta, t, tol, precision_bits=pb)
    assert res.truncation_index == _mpf_depth(theta, t, tol, pb)
    if isinstance(theta, PisotNumber) and any(z[:theta.m]):
        # the two-sided product's depths at the base's ring element z
        P = _base_at(theta.d, pb)
        w = P.field(tuple(z[:P.m]))
        with mp.workprec(pb + GUARD_BITS):
            plan = spectrum._phi_plan(P, w, tol)
        assert (plan.J, plan.n_neg) == _phi_mpf_depths(P, w, tol)


@pytest.mark.parametrize("t, tol, K", [(10**200, 1e-20, 1009),
                                       (Fraction(3, 2), 1e-260, 627)],
                         ids=["t_1e200", "tol_1e-260"])
def test_mu_hat_depth_outside_float64_range_is_the_mpf_rule(t, tol, K):
    # x0 >= 1e150 or tol < 1e-250 lies outside _float_depth's range: it
    # returns None, and _truncation_depth sets the depth alone
    pb = GOLDEN.precision_bits
    with mp.workprec(pb + _mag_estimate(t) + 32):
        x0 = float(2 * mp.pi * abs(_to_mpf(t)))
    assert _float_depth(x0, float(GOLDEN.theta), tol) is None
    res = mu_hat(GOLDEN, t, tol, precision_bits=pb)
    assert res.truncation_index == _mpf_depth(GOLDEN, t, tol, pb) == K


@pytest.mark.parametrize("theta", [GOLDEN, QUARTIC, build_pisot((2,)), 1.5])
def test_mu_hat_depth_equals_the_mpf_rule_near_its_threshold(theta):
    # t_j puts 2 pi t theta^-j exactly on sqrt(tol (1 - theta^-2)), where the
    # rule turns; float64 cannot decide there, and the mpf rule must
    tol, pb = 1e-20, 256
    undecided = 0
    for j in (1, 5, 30, 60):
        with mp.workprec(600):
            th = _theta_value(theta, 600)
            exact = mp.sqrt(tol * (1 - th ** -2)) * th ** j / (2 * mp.pi)
            near = [exact, exact * (1 + mp.mpf(2) ** -200),
                    exact * (1 - mp.mpf(2) ** -200)]
        near += [float(exact), math.nextafter(float(exact), 0),
                 math.nextafter(float(exact), math.inf)]
        for t in near:
            res = mu_hat(theta, t, tol, precision_bits=pb)
            assert res.truncation_index == _mpf_depth(theta, t, tol, pb)
            with mp.workprec(pb + 64):
                undecided += _float_depth(float(2 * mp.pi * abs(_to_mpf(t))),
                                          float(_theta_value(theta, pb + 64)),
                                          tol) is None
    assert undecided >= 4
    if not (isinstance(theta, PisotNumber) and theta.m > 1):
        return
    # the rule at the two-sided product's q = theta (x0 = pi |w|) and at
    # q = 1/rho, x_j put on the turn
    undecided = 0
    with mp.workprec(pb + GUARD_BITS):
        qs = [1 / theta.rho, theta.theta_at(pb + GUARD_BITS)]
    for q in qs:
        for j in (1, 6, 40):
            with mp.workprec(600):
                exact = mp.sqrt(tol * (1 - q ** -2)) * q ** j
            for x0 in (exact, exact * (1 + mp.mpf(2) ** -200),
                       exact * (1 - mp.mpf(2) ** -200)):
                with mp.workprec(pb + GUARD_BITS):
                    x0 = +x0
                    assert _depth(x0, q, tol) == _truncation_depth(x0, q, tol)
                    undecided += _float_depth(float(x0), float(q), tol) is None
    assert undecided >= 6


def test_phi_past_float_range_plans_by_the_walked_rule():
    # pi C = pi |w_2| near 3e320 overflows a float: the ascending side's J
    # is still the first j with pi C rho^j <= cut, and each command prints
    big = 10 ** 320
    w = GOLDEN.field((big, 0))
    with mp.workprec(GOLDEN.precision_bits + GUARD_BITS):
        plan = spectrum._phi_plan(GOLDEN, w, 1e-20)
    assert (plan.J, plan.n_neg) == _phi_mpf_depths(GOLDEN, w, 1e-20)
    for kind, argv in [("phi", ["phi", "--z", f"{big},0"]),
                       ("phi_lambda", ["phi", "--lam", "1/2", "--q",
                                       f"{big},0"]),
                       ("limit", ["limit", "--z", f"{big},0", "--A", "0",
                                  "--r", "1"])]:
        out = io.StringIO()
        with redirect_stdout(out):
            assert cli.main(argv + ["--poly", "1,1"]) == 0
        assert json.loads(out.getvalue())["kind"] == kind


def _textbook_product(theta, t, K, bits):
    # prod_{k<=K} cos(2 pi |t| theta^-k), every step at `bits` bits
    with mp.workprec(bits):
        th = _theta_value(theta, bits)
        x = abs(_to_mpf(t))
        out = mp.mpf(1)
        for _ in range(K + 1):
            out *= mp.cos(2 * mp.pi * x)
            x /= th
        return out


KERNEL_THETAS = {"golden": GOLDEN, "tribonacci": TRIBONACCI,
                 "quartic": QUARTIC, "binary": build_pisot((2,)),
                 "three_halves": 1.5}


@pytest.mark.parametrize("pb", [64, 256, 512])
@pytest.mark.parametrize("name", sorted(KERNEL_THETAS))
def test_mu_hat_kernel_within_its_derived_error(name, pb):
    theta = KERNEL_THETAS[name]
    rng = random.Random(f"{name}-{pb}")
    ts = [rng.uniform(1, 10) * 10.0 ** e for e in range(-3, 12, 2)]
    ts += [1e12, Fraction(rng.randrange(1, 10**9), rng.randrange(1, 10**4)),
           mp.mpf(rng.uniform(0, 100)) / 3]
    if isinstance(theta, PisotNumber):
        coeffs = (Fraction(1, 3), Fraction(2, 7), 0, 0)[:theta.m]
        ts.append(embed(theta.field(coeffs), 1))
    for t in ts:
        K, W, E = _kernel_plan(theta, t, 1e-20, pb)
        assert E < 2 ** (W - pb - 12)
        res = mu_hat(theta, t, precision_bits=pb)
        exact = _textbook_product(theta, t, K, 2 * W)
        with mp.workprec(2 * W):
            if res.contains_zero:       # binary t = 1e12 meets cos(pi/2)
                assert abs(exact) <= res.error_bound
            else:
                assert abs(res.value - exact) <= mp.ldexp(E, -W)


def test_mu_hat_floor_hits_bracket_the_textbook_product():
    # binary t = 3/4 and 5/2: the factors cos(3 pi / 2) and cos(5 pi / 2)
    # vanish; golden theta^3 / 4: cos(pi / 2) at k = 3
    binary = build_pisot((2,))
    with mp.workprec(320):
        quarter_cube = GOLDEN.theta_at(320) ** 3 / 4
    for t in (Fraction(3, 4), 0.75, Fraction(5, 2), quarter_cube):
        theta = GOLDEN if t is quarter_cube else binary
        K, W, E = _kernel_plan(theta, t, 1e-20, 256)
        res = mu_hat(theta, t)
        assert res.contains_zero and res.value == 0
        assert abs(_textbook_product(theta, t, K, 2 * W)) <= res.error_bound


def test_mu_hat_fast_matches_precise():
    ts = np.linspace(0.1, 2000.0, 400)
    vals = mu_hat_fast(GOLDEN, ts)
    for i in range(0, 400, 37):
        precise = mu_hat(GOLDEN, float(ts[i]))
        assert abs(float(precise.value) - vals[i]) < 1e-8


@settings(max_examples=120, deadline=None)
@given(st.sampled_from((GOLDEN, TRIBONACCI, QUARTIC)),
       st.lists(st.floats(-3, 12), min_size=1, max_size=4))
def test_mu_hat_fast_within_derived_bound_or_refused(P, exponents):
    ts = np.array([10.0 ** e for e in exponents])
    bound = fast_error_bound(P, ts.max())
    if bound > FAST_TOL:
        with pytest.raises(PrecisionExhaustedError):
            mu_hat_fast(P, ts)
        return
    vals = mu_hat_fast(P, ts)
    for t, v in zip(ts, vals):
        precise = mu_hat(P, float(t))
        assert abs(float(precise.value) - v) <= bound + precise.error_bound


def test_mu_hat_fast_refuses_exactly_past_its_tolerance():
    ts = np.arange(1.0, 4001.0)
    bound = fast_error_bound(GOLDEN, 4000)
    assert 1e-12 < bound < 1e-10
    assert np.array_equal(mu_hat_fast(GOLDEN, ts, tol=bound),
                          mu_hat_fast(GOLDEN, ts))
    with pytest.raises(PrecisionExhaustedError):
        mu_hat_fast(GOLDEN, ts, tol=bound * (1 - 1e-6))
    with pytest.raises(PrecisionExhaustedError):
        mu_hat_fast(GOLDEN, [math.inf])


def test_head_past_its_limit_refused(monkeypatch):
    # 1 + 2^-40 needs about 3e13 head factors at |t| = 1: the plan stops
    # after _HEAD_LIMIT divisions, and even tol = inf refuses the batch.
    # The alarm fails a plan that goes on dividing.
    def expired(*_):
        raise TimeoutError("the plan did not stop at its head limit")
    previous = signal.signal(signal.SIGALRM, expired)
    signal.alarm(30)
    try:
        assert fast_error_bound(1 + 2.0 ** -40, 1.0) == math.inf
        with pytest.raises(PrecisionExhaustedError, match="head"):
            mu_hat_fast(1 + 2.0 ** -40, [1.0], tol=math.inf)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    # a head of exactly the limit is planned, one factor more is not
    kc = transform._fast_plan(GOLDEN, 1e6)[1]
    monkeypatch.setattr(transform, "_HEAD_LIMIT", kc)
    assert fast_error_bound(GOLDEN, 1e6) < FAST_TOL
    monkeypatch.setattr(transform, "_HEAD_LIMIT", kc - 1)
    assert fast_error_bound(GOLDEN, 1e6) == math.inf
    with pytest.raises(PrecisionExhaustedError, match="head"):
        mu_hat_fast(GOLDEN, [1e6])


def _textbook_head(theta, ts):
    # the head length of the float64 path: the least k at which the batch's
    # largest |t|, divided k times by the float base, has 2 pi x A <=
    # TAIL_REACH, A = theta/(theta - 1), compared exactly at 128 bits
    th = float(_theta_value(theta))
    with mp.workprec(128):
        exact = _theta_value(theta, 128)
        reach = TAIL_REACH / (2 * mp.pi * exact / (exact - 1))
    x, kc = float(np.abs(ts).max()), 0
    while x > reach:
        x, kc = x / th, kc + 1
    return kc


def _textbook_tail(theta, x):
    # P((2 pi x)^2) = sum_n b_n v^n by Horner, v = z z with z = 2 pi x
    z = 2 * math.pi * x
    v = z * z
    b = _tail_coefficients(theta)
    p = b[-1] * v
    for c in b[-2:0:-1]:
        p = (p + c) * v
    return p + b[0]


def _textbook_fast(theta, ts):
    # prod_{k<k_c} cos(2 pi (x_k - rint x_k)), x_0 = |t|, x_{k+1} = x_k /
    # theta, times the tail polynomial at x_(k_c), with the head length of
    # the float64 path at the batch's largest |t|; 0.0 where the product
    # vanishes exactly
    x = np.abs(np.array(ts, dtype=np.float64))
    if x.size == 0:
        return np.ones(0)
    zero = _exact_zeros_int64(theta, x)
    th = float(_theta_value(theta))
    vals = np.ones_like(x)
    for _ in range(_textbook_head(theta, x)):
        vals = vals * np.cos(2 * math.pi * (x - np.rint(x)))
        x = x / th
    vals = vals * _textbook_tail(theta, x)
    vals[zero] = 0.0
    return vals


@pytest.mark.parametrize("theta", [GOLDEN, TRIBONACCI, QUARTIC,
                                   build_pisot((2,)), 1.5],
                         ids=["golden", "tribonacci", "quartic", "binary",
                              "three_halves"])
@pytest.mark.parametrize("size", [0, 1, 7, 10**5, FAST_BLOCK - 1, FAST_BLOCK,
                                  FAST_BLOCK + 1, 3 * FAST_BLOCK + 5])
def test_mu_hat_fast_bits_equal_textbook_product(theta, size):
    rng = np.random.default_rng(size)
    ts = rng.uniform(-1e5, 1e5, size)
    if size >= 7:
        ts[:3] = (0.0, -2.5, -ts[3])
    before = ts.copy()
    vals = mu_hat_fast(theta, ts)
    assert np.array_equal(ts, before)
    assert vals.dtype == np.float64 and vals.shape == ts.shape
    assert np.array_equal(vals, _textbook_fast(theta, ts))
    if size >= 7:
        assert vals[0] == 1.0 and vals[3] == vals[2]


@pytest.mark.parametrize("theta", [GOLDEN, QUARTIC, build_pisot((2,)), 1.5],
                         ids=["golden", "quartic", "binary", "three_halves"])
def test_mu_hat_fast_bits_equal_textbook_product_at_largest_t_one_half(theta):
    # every argument is at most 1/2 from k = 0 on, so no factor is reduced
    ts = np.array([0.5, 0.25, -0.5])
    assert np.array_equal(mu_hat_fast(theta, ts), _textbook_fast(theta, ts))


def _with_cores(monkeypatch, cores):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))


def _record_pools(monkeypatch):
    """Worker counts of the thread pools mu_hat_fast opens from now on."""
    pools = []

    class Recording(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Recording)
    return pools


@pytest.mark.parametrize("theta", [GOLDEN, QUARTIC], ids=["golden", "quartic"])
def test_mu_hat_fast_bits_equal_for_one_worker_and_several(monkeypatch, theta):
    ts = np.random.default_rng(3).uniform(-1e5, 1e5, 3 * FAST_BLOCK + 5)
    pools = _record_pools(monkeypatch)
    runs = []
    for cores in (1, 2, 3, 8):
        _with_cores(monkeypatch, cores)
        runs.append(mu_hat_fast(theta, ts))
    assert pools == [1, 2, 3, 4]
    for vals in runs:
        assert np.array_equal(vals, runs[0])
    assert np.array_equal(runs[0], _textbook_fast(theta, ts))


def test_mu_hat_fast_leaves_no_thread_behind(monkeypatch):
    _with_cores(monkeypatch, 4)
    pools = _record_pools(monkeypatch)
    before = threading.active_count()
    ts = np.linspace(1.0, 1e5, 4 * FAST_BLOCK)
    mu_hat_fast(GOLDEN, ts)
    assert pools == [4] and threading.active_count() == before

    # a refused batch raises before it opens a pool
    with pytest.raises(PrecisionExhaustedError):
        mu_hat_fast(GOLDEN, ts * 1e4)
    assert pools == [4] and threading.active_count() == before

    # a fault inside the workers reaches the caller after they are joined
    def fault(*args, **kwargs):
        raise FloatingPointError("injected")
    with monkeypatch.context() as m:
        m.setattr(np, "cos", fault)
        with pytest.raises(FloatingPointError, match="injected"):
            mu_hat_fast(GOLDEN, ts)
    assert pools == [4, 4] and threading.active_count() == before


def test_one_block_batches_start_at_most_one_worker(monkeypatch):
    _with_cores(monkeypatch, 4)
    pools = _record_pools(monkeypatch)
    before = threading.active_count()
    mu_hat_fast(GOLDEN, np.linspace(1.0, 1e5, FAST_BLOCK))
    assert pools == [1]
    # dyadic blocks [2^k, 2^(k+1)) up to k = 15: the last has FAST_BLOCK
    # points.  They are segments of one batch, so they share one pool
    blocks = empirical.decay_check(1.5, 2 * FAST_BLOCK - 1)
    assert blocks[-1].stop - blocks[-1].start == FAST_BLOCK
    assert pools == [1, 4]
    assert threading.active_count() == before


# segment starts: an empty segment (the cut at 3 twice), two one-point
# segments, and segments of FAST_BLOCK - 1, 2 FAST_BLOCK + 2001 and
# FAST_BLOCK + 1 points; each segment's |t| reaches its own power of ten
SEGMENT_STARTS = [0, 3, 3, 4, 5, 1000, 1000 + FAST_BLOCK - 1,
                  3000 + 3 * FAST_BLOCK, 3000 + 4 * FAST_BLOCK + 1]


def _segmented_batch(seed, size=3000 + 4 * FAST_BLOCK + 5):
    rng = np.random.default_rng(seed)
    cuts = [*SEGMENT_STARTS, size]
    scales = 10.0 ** rng.uniform(0, 5, len(cuts) - 1)
    return np.concatenate([rng.uniform(-1, 1, b - a) * scale
                           for a, b, scale in zip(cuts, cuts[1:], scales)])


@pytest.mark.parametrize("theta", [GOLDEN, QUARTIC, 1.5],
                         ids=["golden", "quartic", "three_halves"])
def test_segments_equal_separate_calls(monkeypatch, theta):
    ts = _segmented_batch(5)
    cuts = [*SEGMENT_STARTS, ts.size]
    depths = {_textbook_head(theta, ts[a:b]) for a, b in zip(cuts, cuts[1:])
              if b > a}
    assert len(depths) > 3
    separate = np.concatenate([mu_hat_fast(theta, ts[a:b])
                               for a, b in zip(cuts, cuts[1:])])
    blocks = sum(-(-(b - a) // FAST_BLOCK) for a, b in zip(cuts, cuts[1:]))
    pools = _record_pools(monkeypatch)
    for cores in (1, 2, 3, 8):
        _with_cores(monkeypatch, cores)
        vals = mu_hat_fast(theta, ts, segments=SEGMENT_STARTS)
        assert np.array_equal(vals, separate)
        # without the cut at 0 the first piece is the same segment
        assert np.array_equal(
            mu_hat_fast(theta, ts, segments=SEGMENT_STARTS[1:]), separate)
    assert pools == [min(cores, blocks) for cores in (1, 1, 2, 2, 3, 3, 8, 8)]
    # one segment is the plain call
    assert np.array_equal(mu_hat_fast(theta, ts, segments=[0]),
                          _textbook_fast(theta, ts))


def test_segments_of_an_empty_or_two_dimensional_batch():
    assert mu_hat_fast(GOLDEN, [], segments=[0, 0]).shape == (0,)
    ts = np.arange(1.0, 13.0).reshape(3, 4)
    vals = mu_hat_fast(GOLDEN, ts, segments=[4, 11])
    flat = ts.reshape(-1)
    assert vals.shape == (3, 4)
    assert np.array_equal(vals.reshape(-1), np.concatenate(
        [mu_hat_fast(GOLDEN, flat[:4]), mu_hat_fast(GOLDEN, flat[4:11]),
         mu_hat_fast(GOLDEN, flat[11:])]))
    for bad in ([5, 4], [-1], [13]):
        with pytest.raises(ValueError):
            mu_hat_fast(GOLDEN, ts, segments=bad)


@pytest.mark.parametrize("refused", [[0], [2], [4], [1, 3]])
def test_a_refused_segment_raises_before_any_pool_opens(monkeypatch,
                                                        refused):
    # five segments of 10 points; those listed in `refused` reach |t| = 1e9
    ts = np.linspace(1.0, 1e3, 50)
    for i in refused:
        ts[10 * i + 9] = 1e9 + i
    starts = [0, 10, 20, 30, 40]
    with pytest.raises(PrecisionExhaustedError) as alone:
        mu_hat_fast(GOLDEN, ts[10 * refused[0]:10 * refused[0] + 10])
    pools = _record_pools(monkeypatch)
    before = threading.active_count()
    with pytest.raises(PrecisionExhaustedError) as segmented:
        mu_hat_fast(GOLDEN, ts, segments=starts)
    assert str(segmented.value) == str(alone.value)
    assert pools == [] and threading.active_count() == before


def _check_floor(vals, full, floor):
    """The points mu_hat_fast dropped at floor, after checking that each
    came back as 0.0 with a plain value below floor, and that every other
    point has the plain value's bits."""
    dropped = (vals == 0) & (full != 0)
    assert np.array_equal(vals[~dropped], full[~dropped])
    assert (np.abs(full[dropped]) < floor).all()
    return dropped


def _cosines_to_first_below(theta, ts, floor):
    """Cosines of the head when each point stops right after its first
    running product below floor."""
    x, th = np.abs(ts), float(_theta_value(theta))
    w, alive, count = np.ones_like(x), np.ones(x.shape, dtype=bool), 0
    for _ in range(_textbook_head(theta, ts)):
        count += np.count_nonzero(alive)
        w = w * np.cos(2 * math.pi * (x - np.rint(x)))
        x = x / th
        alive &= np.abs(w) >= floor
    return count


def _count_cosines(monkeypatch):
    """Points of every np.cos call from now on."""
    sizes = []
    real = np.cos

    def counting(x, *args, **kwargs):
        sizes.append(np.size(x))
        return real(x, *args, **kwargs)
    monkeypatch.setattr(np, "cos", counting)
    return sizes


@pytest.mark.parametrize("theta", [GOLDEN, QUARTIC, 1.5, build_pisot((2,))],
                         ids=["golden", "quartic", "three_halves", "binary"])
@pytest.mark.parametrize("size", [FAST_BLOCK - 1, FAST_BLOCK + 1,
                                  3 * FAST_BLOCK + 5])
def test_floor_drops_only_values_below_it(monkeypatch, theta, size):
    rng = np.random.default_rng(size)
    ts = rng.uniform(-1e5, 1e5, size)
    ts[:3] = (0.0, -2.5, 1e-9)          # values 1, below 1, and 1 again
    full = mu_hat_fast(theta, ts)
    kc = _textbook_head(theta, ts)
    # floors at values of the batch itself: those points must stay
    placed = np.abs(full[rng.integers(3, size, 3)])
    for floor in (0.0, 1e-6, 1e-3, 1.0, *placed):
        sizes = _count_cosines(monkeypatch)
        vals = mu_hat_fast(theta, ts, floor=floor)
        monkeypatch.undo()
        dropped = _check_floor(vals, full, floor)
        if floor == 0.0:
            assert not dropped.any() and sum(sizes) == kc * size
        if floor == 1.0:
            # all but the first three fall below 1 at their first factor
            assert dropped[3:].all() and vals[0] == vals[2] == 1.0
        if floor == 1e-3:
            # most points drop early, so most of the factor work is saved:
            # the wait for fewer than half of a block's points to remain
            # costs at most a quarter more cosines than stopping each point
            # right after its first product below the floor
            assert dropped.mean() > 0.99
            assert sum(sizes) <= 1.25 * _cosines_to_first_below(theta, ts,
                                                                floor)


@pytest.mark.parametrize("t", [12345.678, 98765.4321, 3.7])
def test_floor_stops_a_product_at_its_first_factor_below(monkeypatch, t):
    # the running products of the plain expression at t, factor by factor,
    # the tail polynomial last
    th, kc = float(GOLDEN.theta), _textbook_head(GOLDEN, [t])
    x, w, running = np.array([t]), np.ones(1), []
    for _ in range(kc):
        w = w * np.cos(2 * math.pi * (x - np.rint(x)))
        running.append(abs(w[0]))
        x = x / th
    running.append(abs((w * _textbook_tail(GOLDEN, x))[0]))
    # a floor far from every running product, crossed before the last
    floor = next(10.0 ** -e for e in range(1, 20)
                 if all(abs(math.log10(p) + e) > 0.1 for p in running)
                 and min(running[:-1]) < 10.0 ** -e)
    first = next(k for k, p in enumerate(running) if p < floor)
    # all points of the batch share t, so they drop together, right after
    # the factor whose product is the first below the floor
    sizes = _count_cosines(monkeypatch)
    vals = mu_hat_fast(GOLDEN, np.full(100, t), floor=floor)
    assert not vals.any() and sizes == [100] * (first + 1)


@pytest.mark.parametrize("theta", [GOLDEN, QUARTIC, 1.5],
                         ids=["golden", "quartic", "three_halves"])
def test_floor_on_segments_for_any_core_count(monkeypatch, theta):
    ts = _segmented_batch(7)
    full = mu_hat_fast(theta, ts, segments=SEGMENT_STARTS)
    for floor in (1e-6, 1e-3):
        runs = []
        for cores in (1, 2, 3, 8):
            _with_cores(monkeypatch, cores)
            runs.append(mu_hat_fast(theta, ts, segments=SEGMENT_STARTS,
                                    floor=floor))
        for vals in runs:
            assert np.array_equal(vals, runs[0])
        assert _check_floor(runs[0], full, floor).any()


def test_floor_must_be_nonnegative():
    for floor in (-1e-3, math.nan):
        with pytest.raises(ValueError):
            mu_hat_fast(GOLDEN, [1.0, 2.0], floor=floor)


def _exact_zeros_int64(theta, ts):
    # the int64 test of every k, as the k = 0 test stood before it was
    # taken in one array by fmod
    z = 4 * np.abs(ts)
    whole = (z == np.rint(z)) & (z < 2.0 ** 62)
    zi = np.where(whole, z, 0).astype(np.int64)
    zero = whole & (zi % 2 == 1)
    if isinstance(theta, PisotNumber) and theta.m == 1 and zi.size:
        b = power = theta.d[0]
        while power <= zi.max():
            zero |= whole & (zi % power == 0) & ((zi // power) % 2 == 1)
            power *= b
    return zero


@pytest.mark.parametrize("d", [(1, 1), (2,), (3,), (4,)])
def test_exact_zeros_equal_the_int64_route(d):
    P = build_pisot(d)
    near = []
    for top in (2.0 ** 53, 2.0 ** 62):
        # 4|t| on either side of the top, in steps of the ulp just below it
        z = top + np.arange(-64, 65) * np.spacing(top / 2)
        near.append(z / 4)
        near.append(np.nextafter(z, 0) / 4)
    ts = np.concatenate([np.arange(-40, 41) / 8, [0.0, -0.0, 0.75, -0.75],
                         3.0 ** np.arange(30) / 4, -(2.0 ** np.arange(60)) / 4,
                         *near, *[-x for x in near], [np.inf, -np.inf, np.nan]])
    mask = _exact_zeros(P, ts)
    assert mask.dtype == bool
    assert np.array_equal(mask, _exact_zeros_int64(P, ts))
    assert mask.any() and not mask.all()


@pytest.mark.parametrize("d", [(2,), (3,), (4,)])
def test_integer_exact_zeros_over_several_blocks(d):
    # each block tests the powers up to its own largest 4|t|
    P = build_pisot(d)
    rng = np.random.default_rng(d[0])
    ts = rng.integers(0, 2 ** 20, 3 * FAST_BLOCK + 5) / 4
    # zeros at high powers, none at a block's first point, and 4|t| = 2^63
    ts[FAST_BLOCK + 1:FAST_BLOCK + 6] = ((2 ** 61 - 2 ** 9) / 4, -(3 ** 33) / 4,
                                         2 ** 61 / 4, 2 ** 60 / 4, 2.0 ** 61)
    ts[-129:] = (2.0 ** 62 + np.arange(-64, 65) * np.spacing(2.0 ** 61)) / 4
    mask = _exact_zeros(P, ts)
    assert np.array_equal(mask, _exact_zeros_int64(P, ts))
    assert mask.any() and not mask.all()


@pytest.mark.parametrize("b", [2, 3, 4])
def test_exact_zeros_take_an_integer_base_of_any_type(b):
    # theta given as a number has the zeros of the degree-1 base
    ts = np.concatenate([np.arange(-40, 41) / 8, 2.0 ** np.arange(40) / 4,
                         3.0 ** np.arange(30) / 4, (5 * 4.0 ** np.arange(20))])
    want = _exact_zeros(build_pisot((b,)), ts)
    for theta in (b, float(b), Fraction(b), mp.mpf(b), np.float64(b)):
        assert np.array_equal(_exact_zeros(theta, ts), want)
    # a base that is not an integer admits only k = 0
    for theta in (b + 0.5, Fraction(2 * b + 1, 2), mp.mpf(b) + 0.25):
        assert np.array_equal(_exact_zeros(theta, ts), _exact_zeros_fmod(ts))


def _exact_zeros_fmod(ts):
    # the reference: the k = 0 test by fmod
    with np.errstate(over="ignore", invalid="ignore"):
        return np.fmod(4 * np.abs(ts), 2) == 1


def _float_edges():
    # +-0, subnormals, +-inf, nan, and 4|t| in steps of one ulp around 2^52,
    # 2^53 and 2^54, on the ulps of either side of each power
    steps = [top + np.arange(-64, 65) * np.spacing(top / 2)
             for top in (2.0 ** 52, 2.0 ** 53, 2.0 ** 54)]
    steps += [top + np.arange(-64, 65) * np.spacing(top) for top in
              (2.0 ** 52, 2.0 ** 53, 2.0 ** 54)]
    tiny = np.array([5e-324, 2.5e-323, 2.2250738585072014e-308, 1e-310])
    edges = np.concatenate([*steps, tiny, [0.0, np.inf, np.nan]]) / 4
    return np.concatenate([edges, -edges])


@pytest.mark.parametrize("theta", [GOLDEN, QUARTIC, 1.5],
                         ids=["golden", "quartic", "three_halves"])
@pytest.mark.parametrize("size", [FAST_BLOCK - 1, FAST_BLOCK + 1,
                                  3 * FAST_BLOCK + 5])
def test_exact_zeros_equal_the_fmod_expression(theta, size):
    rng = np.random.default_rng(size)
    # random mantissas at random exponents over the whole range, and at the
    # exponents where 4|t| is an integer with a random last bit
    exps = np.where(rng.random(size) < 0.5, rng.integers(-1076, 1024, size),
                    rng.integers(-4, 60, size))
    ts = np.ldexp(rng.uniform(1, 2, size), exps) * rng.choice([-1, 1], size)
    edges = _float_edges()
    ts[:edges.size] = edges
    with np.errstate(over="ignore"):
        mask = _exact_zeros(theta, ts)
    assert mask.dtype == bool and mask.shape == ts.shape
    assert np.array_equal(mask, _exact_zeros_fmod(ts))
    assert 0 < mask.sum() < size
    # every point, or none, is a zero: a point left out of every block
    # shows in one of the two
    odd, even = (2 * np.arange(size) + 1) / 4, np.arange(size) / 2
    assert _exact_zeros(theta, odd).all() and not _exact_zeros(theta, even).any()
    # a batch of another shape keeps it
    square = np.arange(36.0).reshape(6, 6) / 4
    assert np.array_equal(_exact_zeros(theta, square),
                          _exact_zeros_fmod(square))


def test_derived_bound_grows_linearly_in_t():
    # the argument term dominates: about 4e-9 at 1e6 and 4e-8 at 1e7
    b6, b7 = fast_error_bound(GOLDEN, 1e6), fast_error_bound(GOLDEN, 1e7)
    assert 3e-9 < b6 < 5e-9 and 3e-8 < b7 < 5e-8
    assert fast_error_bound(GOLDEN, 2.5e5) < FAST_ERROR


def _cos_arguments():
    # the float64 path's reduced arguments lie in [-pi, pi]: uniform points,
    # runs of 128 consecutive doubles on each side of every multiple of
    # pi/4 there, and points 2^-e off each multiple
    rng = np.random.default_rng(2024)
    xs = [rng.uniform(-math.pi, math.pi, 6000)]
    for k in range(-4, 5):
        c = k * math.pi / 4
        run = [c]
        for step in (-math.inf, math.inf):
            x = c
            for _ in range(128):
                x = math.nextafter(x, step)
                run.append(x)
        xs.append(np.array(run))
        xs.append(c + np.ldexp(1.0, -np.arange(1, 53))
                  * np.array([-1.0, 1.0])[:, None])
    xs = np.concatenate([np.ravel(x) for x in xs])
    return xs[np.abs(xs) <= math.pi]


def _cos_reference(xs):
    # cos(x) at 90 bits as hi + lo, a pair of doubles
    with mp.workprec(90):
        cs = [mp.cos(mp.mpf(float(x))) for x in xs]
        hi = np.array([float(c) for c in cs])
        lo = np.array([float(c - h) for c, h in zip(cs, hi)])
    return hi, lo


def _worst_cos_ulps(got, hi, lo) -> float:
    # largest |got - cos(x)| in ulps of cos(x); got - hi is exact where the
    # two are within a factor 2
    return float(np.max(np.abs((got - hi) - lo) / np.spacing(np.abs(hi))))


def test_numpy_cosine_within_the_float_paths_premise():
    # _FACTOR_ERROR takes numpy's float64 cosine within 4 ulps; the float
    # path calls it on whole arrays, and so does this test
    xs = _cos_arguments()
    hi, lo = _cos_reference(xs)
    assert _worst_cos_ulps(np.cos(xs), hi, lo) <= 4
    # a cosine off by a relative 8u breaks the premise and is caught
    assert _worst_cos_ulps(np.cos(xs) * (1 + 8 * _U), hi, lo) > 4


TAIL_BASES = [GOLDEN, TRIBONACCI, QUARTIC, build_pisot((2,)),
              build_pisot((3,)), 1.5, 1.01]
TAIL_IDS = ["golden", "tribonacci", "quartic", "binary", "ternary",
            "three_halves", "one_point_01"]


@pytest.mark.parametrize("theta", TAIL_BASES, ids=TAIL_IDS)
def test_tail_polynomial_within_its_remainder(theta):
    # the moment polynomial at 128 bits against the cosine product on
    # [0, s_c/(2 pi A)]: within the series remainder, which is below
    # float64 resolution, and the rounded tail is within 1 + 8u of modulus 1
    N = TAIL_DEGREE
    remainder = mp.mpf(TAIL_REACH) ** (2 * N + 2) / math.factorial(2 * N + 2)
    assert remainder <= 2.0 ** -60
    assert _TAIL_ERROR <= 9 * _U
    m = _even_moments(theta)
    with mp.workprec(128):
        th = _theta_value(theta, 144)
        A = th / (th - 1)
        top = TAIL_REACH / (2 * mp.pi * A)
        # 300 cosines, or as many as keep the cut product's log-defect,
        # at most sum_{k>=K} x_k^2, below 2^-110 (3,138 at theta = 1.01)
        K = 300
        while (2 * mp.pi * top / th ** K) ** 2 / (1 - th ** -2) > 2.0 ** -110:
            K += 1
        assert m[1] == 1 / (1 - th ** -2)       # E X^2 = sum_k theta^-2k
        for i in range(9):
            s = top * i / 8
            ref = mp.fprod(mp.cos(2 * mp.pi * s / th ** k) for k in range(K))
            v = (2 * mp.pi * s) ** 2
            poly = mp.fsum((-1) ** n * m[n] * v ** n / math.factorial(2 * n)
                           for n in range(N + 1))
            assert abs(poly - ref) <= remainder + 2.0 ** -100
    b = _tail_coefficients(theta)
    assert b[0] == 1.0 and len(b) == N + 1
    with mp.workprec(128):
        assert all(c == float((-1) ** n * m[n] / math.factorial(2 * n))
                   for n, c in enumerate(b))


def _truncated_bound(theta, t_max):
    # fast_error_bound as it stood when the float64 path took K + 1 cosines,
    # K from the depth rule at log-defect 1e-12, and no tail polynomial
    th = float(_theta_value(theta))
    K = _truncation_depth(2 * math.pi * t_max, th, 1e-12)
    with mp.workprec(128):
        exact = _theta_value(theta, 128)
        delta = float(abs(mp.mpf(th) - exact) / exact)
    rate = (_U + delta) / (1 - _U - delta)
    argument = sum(t_max * th ** -k * math.expm1(k * rate)
                   for k in range(K + 1))
    factor = (2 * math.pi * (1 + _U) + 8 + 1) * _U
    return (2 * math.pi * argument + (K + 1) * factor
            + math.expm1(1e-12)) * (1 + 2.0 ** -30)


@pytest.mark.parametrize("theta", TAIL_BASES, ids=TAIL_IDS)
def test_tail_bound_at_most_the_truncated_products(theta):
    # the tail polynomial can only shrink the bound, so no batch admitted by
    # the truncated product is refused
    for t_max in [0.0, *(10.0 ** (e / 4) for e in range(-12, 49))]:
        assert fast_error_bound(theta, t_max) <= _truncated_bound(theta, t_max)


@pytest.mark.parametrize("theta", [GOLDEN, QUARTIC, build_pisot((2,)), 1.5],
                         ids=["golden", "quartic", "binary", "three_halves"])
def test_leading_factors_bound_the_value_from_above(theta):
    # a limit the leading factors certify is above the certified value, and
    # every limit at least 1 is certified; limits placed just above a value
    # are certified, and limits just below never are
    rng = np.random.default_rng(5)
    for t in [0.0, 0.25, *rng.uniform(-1e6, 1e6, 40)]:
        res = mu_hat(theta, float(t), tol=1e-12, precision_bits=64)
        low = float(abs(res.value) - res.error_bound)
        high = float(abs(res.value) + res.error_bound)
        assert _leading_factors_below(theta, float(t), high * 1.001 + 1e-9,
                                      1e-12, 64)
        assert low <= 0 or not _leading_factors_below(
            theta, float(t), low * 0.999, 1e-12, 64)
        for limit in (1.0, 2.0, 1e-3, 1e-6):
            if _leading_factors_below(theta, float(t), limit, 1e-12, 64):
                assert low <= limit
            else:
                assert limit < 1
    # a factor at an exact zero certifies any positive limit, but not 0:
    # each factor carries its error
    for limit, shown in ((1e-12, True), (0.0, False)):
        assert _leading_factors_below(build_pisot((2,)), 2.0 ** 9 / 4, limit,
                                      1e-12, 64) is shown


def test_mu_hat_fast_returns_exact_zeros_as_positive_zero():
    # theta = 2: mu_hat(t) = sin(4 pi t)/(4 pi t), 0 at every nonzero t in
    # Z/4, where the float64 cosine of pi/2 alone would leave about 1e-17
    binary = build_pisot((2,))
    vals = mu_hat_fast(binary, [1.0, 2.5])
    assert vals.tolist() == [0.0, 0.0] and not np.signbit(vals).any()
    ts = np.arange(-400, 401) / 8
    for theta in (GOLDEN, QUARTIC, binary, build_pisot((4,)), 1.5):
        zero = _exact_zeros(theta, ts)
        assert zero.any()
        for floor in (0.0, 1e-3):
            vals = mu_hat_fast(theta, ts, floor=floor)
            assert np.all(vals[zero] == 0) and not np.signbit(vals[zero]).any()
            if not floor:
                assert np.array_equal(vals == 0, zero)


@pytest.mark.parametrize("d", [(2,), (3,), (4,), (1, 1)])
def test_exact_zeros_are_the_precise_paths_zero_brackets(d):
    P = build_pisot(d)
    ts = np.arange(0, 257) / 8
    precise = [mu_hat(P, float(t)).contains_zero for t in ts]
    assert _exact_zeros(P, ts).tolist() == precise


def test_float64_series_refused_past_fast_error():
    with pytest.raises(PrecisionExhaustedError):
        list(coefficient_series(GOLDEN, 10**6, 2, fast=True))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from((GOLDEN, TRIBONACCI, QUARTIC)),
       st.floats(1e-3, 1e12), st.floats(-40, -2), st.booleans())
def test_truncation_depth_is_the_least_admissible(P, t, log_tol, as_float):
    with mp.workprec(P.precision_bits + 64):
        if as_float:
            q, x0, tol = float(P.theta), 2 * math.pi * t, 10.0 ** log_tol
        else:
            q = P.theta_at(P.precision_bits + 64)
            x0, tol = 2 * mp.pi * t, mp.mpf(10) ** log_tol

        def admissible(j):
            x = x0 / q ** j
            return x <= 1 and x * x / (1 - q ** -2) <= tol

        # x_(K+1) is the first admissible x_j, j >= 1
        K = _truncation_depth(x0, q, tol)
        assert K >= 0
        assert admissible(K + 1)
        if K > 0:
            assert not admissible(K)


def test_digit_trace_golden():
    trace = digit_trace(GOLDEN, 1, 10)
    assert trace.K == (2, 3, 4, 7, 11, 18, 29, 47, 76, 123)
    assert trace.exceed_set == (1, 2)
    with mp.workprec(256):
        assert abs(trace.delta[0] - (GOLDEN.theta - 2)) < 1e-60
        for dj in trace.delta:
            assert -mp.mpf(1) / 2 < dj <= mp.mpf(1) / 2
    # K_j stays below theta^{j+1} + 1
    for j, Kj in enumerate(trace.K, start=1):
        assert Kj <= float(GOLDEN.theta) ** (j + 1) + 1


def test_digit_trace_single_step():
    trace = digit_trace(GOLDEN, 1, 1)
    assert trace.K == (2,)
    assert abs(trace.delta[0] - mp.mpf("-0.3819660112501051518")) < 1e-15


def test_digit_trace_integer_theta():
    trace = digit_trace(build_pisot((3,)), 1, 5)
    assert trace.K == (3, 9, 27, 81, 243)
    assert all(dj == 0 for dj in trace.delta)
    assert trace.exceed_set == ()


def test_digit_trace_user_threshold():
    assert digit_trace(GOLDEN, 1, 10, delta=0.2).exceed_set == (1, 2, 3)
    assert digit_trace(GOLDEN, 1, 10, delta=0.25).exceed_set == (1, 2)
    with pytest.raises(InvalidDeltaError):
        digit_trace(GOLDEN, 1, 10, delta=0.4)
    with pytest.raises(InvalidDeltaError):
        digit_trace(GOLDEN, 1, 10, delta=0)


def test_digit_trace_domain_checks():
    with pytest.raises(ValueError):
        digit_trace(GOLDEN, 0.5, 5)
    with pytest.raises(ValueError):
        digit_trace(GOLDEN, float(GOLDEN.theta) + 0.01, 5)
    with pytest.raises(ValueError):
        digit_trace(GOLDEN, 1, 0)


def test_digit_trace_precision_precondition():
    P64 = build_pisot((1, 1), precision_bits=64)
    with pytest.raises(PrecisionExhaustedError):
        digit_trace(P64, 1, 200)


def test_digit_trace_matches_nearest_int_data():
    # y = z * theta^-s aligned into [1, theta) reproduces the z digits
    rng = random.Random(90210)
    checked = 0
    for _ in range(30):
        z = GOLDEN.ring((rng.randint(1, 30), rng.randint(1, 30)))
        with mp.workprec(400):
            z1 = embed(z, 1, 320)
            s = int(mp.floor(mp.log(z1) / mp.log(GOLDEN.theta_at(320))))
            y = z1 / GOLDEN.theta_at(320) ** s
            assert 1 <= y < GOLDEN.theta_at(320)
        trace = digit_trace(GOLDEN, y, 20)
        for j in range(max(1, s), 21):
            K, _ = nearest_int_data(z, j - s)
            assert trace.K[j - 1] == K
            checked += 1
    assert checked > 100


def test_check_recurrence_golden_lucas():
    trace = digit_trace(GOLDEN, 1, 30)
    assert check_recurrence(trace, GOLDEN, 0.3) == []
    assert check_recurrence(trace, GOLDEN, 0.1) == []
    # the qualifying run really does cover the Lucas recurrence
    for j in range(3, 29):
        assert trace.K[j + 1] == trace.K[j] + trace.K[j - 1]


def test_check_recurrence_integer_theta():
    P3 = build_pisot((3,))
    trace = digit_trace(P3, 1.1, 12)
    assert check_recurrence(trace, P3, 0.2) == []


def test_check_recurrence_delta_validation():
    trace = digit_trace(GOLDEN, 1, 10)
    with pytest.raises(InvalidDeltaError):
        check_recurrence(trace, GOLDEN, Fraction(1, 3))
    with pytest.raises(InvalidDeltaError):
        check_recurrence(trace, GOLDEN, 0.5)
    with pytest.raises(InvalidDeltaError):
        check_recurrence(trace, GOLDEN, 0)


def test_check_recurrence_detects_corruption():
    trace = digit_trace(GOLDEN, 1, 30)
    bad_K = list(trace.K)
    bad_K[10] += 1
    corrupted = DigitTrace(trace.y, trace.N, tuple(bad_K), trace.delta,
                           trace.exceed_set)
    violations = check_recurrence(corrupted, GOLDEN, 0.3)
    assert violations != []


def test_check_recurrence_randomized():
    rng = random.Random(31415)
    for _ in range(100):
        y = 1 + rng.random() * (float(GOLDEN.theta) - 1 - 1e-9)
        trace = digit_trace(GOLDEN, y, 40)
        assert check_recurrence(trace, GOLDEN, 0.3) == []
    for _ in range(50):
        y = 1 + rng.random() * (float(TRIBONACCI.theta) - 1 - 1e-9)
        trace = digit_trace(TRIBONACCI, y, 40)
        assert check_recurrence(trace, TRIBONACCI, 0.2) == []


def test_coefficient_series_sinc_zeros():
    P2 = build_pisot((2,))
    items = list(coefficient_series(P2, 1, 4))
    assert [it.n for it in items] == [1, 2, 3, 4]
    for it in items:
        assert it.contains_zero is True
        assert abs(it.value) <= it.error_bound


def test_coefficient_series_fast_path():
    items = list(coefficient_series(GOLDEN, 1, 500, fast=True))
    assert len(items) == 500
    for it in items[::61]:
        precise = mu_hat(GOLDEN, it.t)
        assert abs(float(precise.value) - it.value) < 1e-8
    # byte-reproducible: same invocation gives identical floats
    again = list(coefficient_series(GOLDEN, 1, 500, fast=True))
    assert all(a.value == b.value for a, b in zip(items, again))


def test_coefficient_series_rejects_nonpositive_r():
    for fast in (False, True):
        for r in (Fraction(-1, 2), 0, -0.5):
            with pytest.raises(ValueError, match="r must be positive"):
                list(coefficient_series(GOLDEN, r, 10, fast=fast))


def test_coefficient_series_reads_decimal_r():
    # a float r is read by the multiplier rule, exactly, on both paths
    precise = list(coefficient_series(GOLDEN, 1.37, 3))
    fast = list(coefficient_series(GOLDEN, 1.37, 3, fast=True))
    assert [it.t for it in fast] == [1.37 * n for n in (1, 2, 3)]
    assert [float(it.t) for it in precise] == [it.t for it in fast]
    for p, f in zip(precise, fast):
        assert abs(float(p.value) - f.value) <= f.error_bound


def test_lucas_subsequence_stays_positive():
    # n = <theta^k> keeps |mu_hat| bounded away from 0 while generic n decay
    lucas = [2, 1]
    while len(lucas) < 31:
        lucas.append(lucas[-1] + lucas[-2])
    lo = None
    for k in range(2, 31):
        res = mu_hat(GOLDEN, lucas[k])
        v = abs(res.value)
        lo = v if lo is None else min(lo, v)
    assert lo >= 2e-5


def test_window_maximum_recorded():
    vals = mu_hat_fast(GOLDEN, np.arange(500, 1001, dtype=np.float64))
    peak = float(np.max(np.abs(vals)))
    n_star = 500 + int(np.argmax(np.abs(vals)))
    assert peak >= 5e-3
    assert n_star == 682
    assert abs(peak - 6.61339209e-3) < 1e-9
