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
import tracemalloc
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
                                     _cos_fixed, _depth, _descent_plan,
                                     _float_depth,
                                     _kernel_plan, _leading_factors_below,
                                     _mag_estimate, _moment_polynomial,
                                     _moment_tail, _tail_coefficients,
                                     _tail_degree, _truncation_depth,
                                     _zero_classes)

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
    # C the sum of the conjugate moduli, stepped by one multiply; and the
    # descending head rule, the least k_c >= 0 with 2 pi A x <= 1 at
    # x = |w|/(2 theta^(k_c+1)), A = theta/(theta - 1)
    with mp.workprec(P.precision_bits + GUARD_BITS):
        emb = [embed(w, i) for i in range(2, P.m + 1)]
        j_pos = 0
        if emb:
            _, cut = spectrum._ascent_terms(P.rho, tol)
            x = mp.pi * mp.fsum(abs(v) for v in emb)
            while x > cut:
                j_pos, x = j_pos + 1, x * P.rho
        th = P.theta_at(P.precision_bits + GUARD_BITS)
        x, k_c = abs(embed(w, 1)) / (2 * th), 0
        while 2 * mp.pi * x * th / (th - 1) > 1:
            x, k_c = x / th, k_c + 1
    return j_pos, k_c


def _phi_depths(P, w, tol):
    # J and k_c of the two-sided product at w
    with mp.workprec(P.precision_bits + GUARD_BITS):
        plan = spectrum._phi_plan(P, w, tol)
        return plan.J, len(spectrum._phi_head(P, w, plan)) - 1


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
        assert _phi_depths(P, w, tol) == _phi_mpf_depths(P, w, tol)


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
    # the rule at q = theta from x0 = pi |w|, as the two-sided product's
    # descending side once took it, and at q = 1/rho, x_j put on the turn
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
    assert _phi_depths(GOLDEN, w, 1e-20) == _phi_mpf_depths(GOLDEN, w, 1e-20)
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


DESCENT_BASES = {"golden": GOLDEN, "tribonacci": TRIBONACCI,
                 "quartic": QUARTIC, "binary": build_pisot((2,)),
                 "ternary": build_pisot((3,))}


def _deep(theta, t):
    # the deep product: 192 bits, truncated at 1e-60
    return mu_hat(theta, t, 1e-60, precision_bits=192)


def _check_descent_plan(theta, plan):
    # the plan's own contract: E fits 2^(W - pb - 12), E = 2 (K e + E_d)
    # with E_d = R + (floor(a_1) + 2)(14 X + 5) the tail factor's error,
    # and X bounds x_k's error as mu_hat's derivation gives it, from theta
    # at 64 bits: one unit from x_0, one per shift, and sum_j x_j |R -
    # 2^W/theta| <= 2^mag theta/(theta - 1).  spectrum's _check_phi_plan
    # states the same for the two-sided product's descending side
    assert plan.E < 2 ** (plan.W - plan.pb - 12)
    moments, R, cap = _moment_polynomial(theta, theta.precision_bits, plan.W)
    assert (plan.moments, plan.cap) == (moments, cap)
    assert plan.tail_error == R + ((moments[1] >> plan.W) + 2) * (
        14 * plan.X + 5)
    assert plan.E == 2 * (plan.K * plan.e + plan.tail_error)
    with mp.workprec(64):
        th = _theta_value(theta, 64)
        S = mp.ldexp(th / (th - 1), plan.mag)
    assert plan.X >= 1 + plan.K + S
    assert plan.e >= COS_FIXED_ERROR + 4 + 7 * plan.X


@pytest.mark.parametrize("pb", [64, 128])
@pytest.mark.parametrize("name", sorted(DESCENT_BASES))
def test_descent_within_its_bound_of_the_deep_product(name, pb):
    # mu_hat under one descent plan, taken at a batch's largest |t| as the
    # spot check takes it, lies within 2^-(pb+10) of the deep product at
    # every t = r n of the batch, n up to 2^37; at t = 0 it is exactly 1,
    # and it brackets 0 at the exact zeros: at 4t odd on every base, and
    # at 4t = 2^k odd on the binary base
    theta = DESCENT_BASES[name]
    rng = random.Random(f"descent-{name}-{pb}")
    bound = mp.ldexp(1, -(pb + 10))
    for r in (1.0, float(theta.theta) / 7, 0.25):
        ns = [0, 1, 3, 2**37 - 1, *(rng.randrange(2**e) for e in
                                    (4, 10, 20, 30, 37))]
        ts = [Fraction(r) * n for n in ns]
        plan = _descent_plan(theta, pb, _mag_estimate(max(ts)))
        _check_descent_plan(theta, plan)
        for t in ts:
            res, deep = mu_hat(theta, t, plan=plan), _deep(theta, t)
            assert res.truncation_index <= plan.K
            if t == 0:
                assert res == transform.MuHatResult(1, bound, 0, False)
            elif deep.contains_zero:
                assert (4 * t).denominator == 1
                assert res.contains_zero and res.value == 0
                assert bound <= res.error_bound <= 2 * bound
            else:
                assert not res.contains_zero and res.error_bound == bound
                with mp.workprec(256):
                    assert (abs(res.value - deep.value)
                            <= bound + deep.error_bound)


@pytest.mark.parametrize("name", sorted(DESCENT_BASES))
def test_descent_plan_serves_every_t_below_its_mag(name):
    # a plan at mag serves every |t| < 2^mag, whatever its type: the
    # Fractions 2^mag - (n + 1)/7 lie within its bound of the deep product,
    # though their bit lengths read mag + 1 (_mag_estimate); |t| = 2^mag is
    # refused
    theta = DESCENT_BASES[name]
    bound = mp.ldexp(1, -74)
    for mag in (0, 1, 7, 20, 33):
        plan = _descent_plan(theta, 64, mag)
        for n in range(3):
            t = 2 ** mag - Fraction(n + 1, 7)
            if t <= 0:
                continue
            res, deep = mu_hat(theta, t, plan=plan), _deep(theta, t)
            assert res.truncation_index <= plan.K
            if deep.contains_zero:
                assert res.contains_zero and res.value == 0
                continue
            assert not res.contains_zero and res.error_bound == bound
            with mp.workprec(256):
                assert abs(res.value - deep.value) <= bound + deep.error_bound
        for t in (2 ** mag, Fraction(-(2 ** mag)), float(2 ** mag),
                  mp.mpf(2) ** mag):
            with pytest.raises(ValueError, match="cannot serve"):
                mu_hat(theta, t, plan=plan)


@pytest.mark.parametrize("pb", [64, 128])
@pytest.mark.parametrize("name", sorted(DESCENT_BASES))
def test_descent_tail_within_its_share(name, pb):
    # at t = x 2^-W with x + X <= cap the head is empty, and mu_hat under
    # the plan is its tail factor alone: within R + (floor(a_1) + 2) 5
    # units of the deep product, for x exact (z within 2 units of 2 pi x,
    # v within 5 of (2 pi x)^2).  The plans' W run over about 40 values
    # as mag runs to 40, and so over the tail's degrees
    theta = DESCENT_BASES[name]
    for mag in range(41):
        plan = _descent_plan(theta, pb, mag)
        _check_descent_plan(theta, plan)
        W = plan.W
        share = (_moment_polynomial(theta, theta.precision_bits, W)[1]
                 + ((plan.moments[1] >> W) + 2) * 5)
        for x in (0, (plan.cap - plan.X) // 3, plan.cap - plan.X):
            t = Fraction(x, 1 << W)
            res, deep = mu_hat(theta, t, plan=plan), _deep(theta, t)
            assert res.truncation_index == 0 and not res.contains_zero
            with mp.workprec(2 * W):
                assert (abs(res.value - deep.value)
                        <= mp.ldexp(share, -W) + deep.error_bound)
            if x == 0:
                assert res.value == 1


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
    ts = transform.Progression(0.1, (2000.0 - 0.1) / 399, 0, 400)
    vals = mu_hat_fast(GOLDEN, ts)
    for i in range(0, 400, 37):
        precise = mu_hat(GOLDEN, _exact_t(ts, i))
        assert abs(float(precise.value) - vals[i]) < 1e-8


@settings(max_examples=120, deadline=None)
@given(st.sampled_from((GOLDEN, TRIBONACCI, QUARTIC)),
       st.floats(-3, 12), st.floats(-3, 12), st.integers(0, 2 ** 38),
       st.integers(1, 4))
def test_mu_hat_fast_within_derived_bound_or_refused(P, log_a, log_b, start,
                                                     size):
    # up to four points a + b i from an index below 2^38: refused when an
    # index reaches 2^37 or the bound exceeds FAST_TOL
    ts = transform.Progression(10.0 ** log_a, 10.0 ** log_b, start,
                               start + size)
    bound = fast_error_bound(P, ts._t_max(size))
    if bound > FAST_TOL or ts.stop > 2 ** 37:
        with pytest.raises(PrecisionExhaustedError):
            mu_hat_fast(P, ts)
        return
    vals = mu_hat_fast(P, ts)
    for i, v in zip(range(ts.start, ts.stop), vals):
        precise = mu_hat(P, _exact_t(ts, i))
        assert abs(float(precise.value) - v) <= bound + precise.error_bound


def test_mu_hat_fast_refuses_exactly_past_its_tolerance():
    ts = transform.Progression(0.0, 1.0, 1, 4001)
    bound = fast_error_bound(GOLDEN, 4000)
    assert 1e-14 < bound < 1e-13
    assert np.array_equal(mu_hat_fast(GOLDEN, ts, tol=bound),
                          mu_hat_fast(GOLDEN, ts))
    with pytest.raises(PrecisionExhaustedError):
        mu_hat_fast(GOLDEN, ts, tol=bound * (1 - 1e-6))
    # the largest t, 2e308, passes the float range
    with pytest.raises(PrecisionExhaustedError, match="bound inf at"):
        mu_hat_fast(GOLDEN, transform.Progression(0.0, 1e308, 0, 3))


def test_mu_hat_fast_takes_a_progression_only():
    # arbitrary points are mu_hat's: no array, list or number is a batch
    for ts in (np.arange(1.0, 5.0), [1.0, 2.0], 3.0, np.empty(0)):
        with pytest.raises(TypeError, match="Progression.*mu_hat"):
            mu_hat_fast(GOLDEN, ts)


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
            mu_hat_fast(1 + 2.0 ** -40, transform.Progression(1.0, 1.0, 0, 1),
                        tol=math.inf)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    # a head of exactly the limit is planned, one factor more is not
    kc = transform._fast_plan(GOLDEN, 1e6)[0]
    monkeypatch.setattr(transform, "_HEAD_LIMIT", kc)
    assert fast_error_bound(GOLDEN, 1e6) < FAST_TOL
    monkeypatch.setattr(transform, "_HEAD_LIMIT", kc - 1)
    assert fast_error_bound(GOLDEN, 1e6) == math.inf
    with pytest.raises(PrecisionExhaustedError, match="head"):
        mu_hat_fast(GOLDEN, transform.Progression(1e6, 1.0, 0, 1))


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


@pytest.mark.parametrize("theta", [GOLDEN, TRIBONACCI, QUARTIC,
                                   build_pisot((2,)), 1.5],
                         ids=["golden", "tribonacci", "quartic", "binary",
                              "three_halves"])
@pytest.mark.parametrize("size", [0, 1, 7, 10**5, FAST_BLOCK - 1, FAST_BLOCK,
                                  FAST_BLOCK + 1, 3 * FAST_BLOCK + 5])
def test_mu_hat_fast_bits_equal_textbook_product(theta, size):
    # the plain call from t = 0, at a step that takes the last point to
    # |t| of 5e4 to 1e5
    rng = np.random.default_rng(size)
    ts = transform.Progression(0.0, rng.uniform(5e4, 1e5) / max(size, 1), 0,
                               size)
    vals = mu_hat_fast(theta, ts)
    assert vals.dtype == np.float64 and vals.shape == (size,)
    if size:
        assert np.array_equal(vals, _textbook_progression(theta, ts))
        assert vals[0] == 1.0


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
    ts = transform.Progression(0.3, 1.37, 0, 3 * FAST_BLOCK + 5)
    pools = _record_pools(monkeypatch)
    runs = []
    for cores in (1, 2, 3, 8):
        _with_cores(monkeypatch, cores)
        runs.append(mu_hat_fast(theta, ts))
    assert pools == [1, 2, 3, 4]
    for vals in runs:
        assert np.array_equal(vals, runs[0])
    assert np.array_equal(runs[0], _textbook_progression(theta, ts))


def test_mu_hat_fast_leaves_no_thread_behind(monkeypatch):
    _with_cores(monkeypatch, 4)
    pools = _record_pools(monkeypatch)
    before = threading.active_count()
    ts = transform.Progression(1.0, 1e5 / (4 * FAST_BLOCK), 0, 4 * FAST_BLOCK)
    mu_hat_fast(GOLDEN, ts)
    assert pools == [4] and threading.active_count() == before

    # a refused batch raises before it opens a pool
    with pytest.raises(PrecisionExhaustedError):
        mu_hat_fast(GOLDEN, ts, tol=1e-15)
    assert pools == [4] and threading.active_count() == before

    # a fault inside the workers reaches the caller after they are joined:
    # the head's einsum runs in the blocks only
    def fault(*args, **kwargs):
        raise FloatingPointError("injected")
    with monkeypatch.context() as m:
        m.setattr(np, "einsum", fault)
        with pytest.raises(FloatingPointError, match="injected"):
            mu_hat_fast(GOLDEN, ts)
    assert pools == [4, 4] and threading.active_count() == before


def test_one_block_batches_start_at_most_one_worker(monkeypatch):
    _with_cores(monkeypatch, 4)
    pools = _record_pools(monkeypatch)
    before = threading.active_count()
    mu_hat_fast(GOLDEN, transform.Progression(1.0, 3.0, 0, FAST_BLOCK))
    assert pools == [1]
    # dyadic blocks [2^k, 2^(k+1)) up to k = 15: the last has FAST_BLOCK
    # points.  They are segments of one batch, so they share one pool
    blocks = empirical.decay_check(1.5, 2 * FAST_BLOCK - 1)
    assert blocks[-1].stop - blocks[-1].start == FAST_BLOCK
    assert pools == [1, 4]
    assert threading.active_count() == before


# segment starts: an empty segment (the cut at 3 twice), two one-point
# segments, and segments of FAST_BLOCK - 1, 2 FAST_BLOCK + 2001 and
# FAST_BLOCK + 1 points; each segment's largest t sets its own depth
SEGMENT_STARTS = [0, 3, 3, 4, 5, 1000, 1000 + FAST_BLOCK - 1,
                  3000 + 3 * FAST_BLOCK, 3000 + 4 * FAST_BLOCK + 1]


def _segmented_batch(seed, size=3000 + 4 * FAST_BLOCK + 5):
    rng = np.random.default_rng(seed)
    return transform.Progression(rng.uniform(0, 1), rng.uniform(0.5, 3), 0,
                                 size)


def _piece(ts, a, b):
    # positions a .. b - 1 of ts as a progression of their own
    return transform.Progression(ts.a, ts.b, ts.start + a, ts.start + b)


@pytest.mark.parametrize("theta", [GOLDEN, QUARTIC, 1.5],
                         ids=["golden", "quartic", "three_halves"])
def test_segments_equal_separate_calls(monkeypatch, theta):
    ts = _segmented_batch(5)
    cuts = [*SEGMENT_STARTS, ts.size]
    depths = {transform._fast_plan(theta, ts._t_max(b))[0]
              for a, b in zip(cuts, cuts[1:]) if b > a}
    assert len(depths) > 3
    separate = np.concatenate([mu_hat_fast(theta, _piece(ts, a, b))
                               for a, b in zip(cuts, cuts[1:])])
    # blocks are cut at the multiples of FAST_BLOCK in i, from i = 0 here
    blocks = sum(-(-b // FAST_BLOCK) - a // FAST_BLOCK
                 for a, b in zip(cuts, cuts[1:]) if b > a)
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
                          _textbook_progression(theta, ts))


def test_segments_of_an_empty_batch_or_out_of_range():
    P = transform.Progression
    empty = P(0.0, 1.0, 5, 5)
    assert mu_hat_fast(GOLDEN, empty, segments=[0, 0]).shape == (0,)
    ts = P(0.0, 1.0, 1, 13)
    vals = mu_hat_fast(GOLDEN, ts, segments=[4, 11])
    assert np.array_equal(vals, np.concatenate(
        [mu_hat_fast(GOLDEN, _piece(ts, a, b))
         for a, b in ((0, 4), (4, 11), (11, 12))]))
    for bad in ([5, 4], [-1], [13]):
        with pytest.raises(ValueError):
            mu_hat_fast(GOLDEN, ts, segments=bad)


@pytest.mark.parametrize("refused", [[0, 1, 2, 3, 4], [2, 3, 4], [4],
                                     [1, 2, 3, 4]])
def test_a_refused_segment_raises_before_any_pool_opens(monkeypatch,
                                                        refused):
    # five segments whose largest t are 10, 1e2, 1e3, 1e4 and 5e4: a
    # tolerance just below the bound of the first segment refused refuses
    # it and every later one, and a call on it alone gives the message
    ts = transform.Progression(0.0, 1.0, 1, 50001)
    cuts = [0, 10, 100, 1000, 10000, ts.size]
    first = refused[0]
    tol = fast_error_bound(GOLDEN, cuts[first + 1]) * (1 - 1e-6)
    bounds = [fast_error_bound(GOLDEN, b) for b in cuts[1:]]
    assert [i for i, b in enumerate(bounds) if b > tol] == refused
    with pytest.raises(PrecisionExhaustedError) as alone:
        mu_hat_fast(GOLDEN, _piece(ts, cuts[first], cuts[first + 1]), tol=tol)
    pools = _record_pools(monkeypatch)
    before = threading.active_count()
    with pytest.raises(PrecisionExhaustedError) as segmented:
        mu_hat_fast(GOLDEN, ts, tol=tol, segments=cuts[:-1])
    assert str(segmented.value) == str(alone.value)
    assert pools == [] and threading.active_count() == before


# ---------------------------------------------------------------------------
# progressions: head factors by angle addition from small tables

ROW = transform._ROW
BINARY = build_pisot((2,))
PROGRESSION_BASES = [GOLDEN, TRIBONACCI, QUARTIC, BINARY, 1.5]
PROGRESSION_IDS = ["golden", "tribonacci", "quartic", "binary", "three_halves"]


def _exact_t(ts, i):
    return Fraction(ts.a) + Fraction(ts.b) * int(i)


def _progression_head(theta, ts, stop):
    # the textbook head length at the largest exact t of positions < stop,
    # rounded up to a float
    t = _exact_t(ts, ts.start + stop - 1)
    top = float(t)
    return _textbook_head(theta, [top if top >= t else
                                  math.nextafter(top, math.inf)])


def _unpacked_tables(theta, ts, depth):
    # (c, s, C, S, h0) from _progression_tables' stacked B[k] = (c, s) and
    # A[k, h] = (C, -S); the negation back is exact
    B, A, h0 = transform._progression_tables(theta, ts, depth)
    return B[:, 0], B[:, 1], A[..., 0], -A[..., 1], h0


def _textbook_progression(theta, ts, segments=()):
    # point by point in i = h ROW + j, h on the absolute index: the product
    # of C[k, h] c[k, j] - S[k, h] s[k, j] over k < k_c, from the tables of
    # _progression_tables, then the tail polynomial at fl(fl(b' i) + a'),
    # b' = fl(b g), a' = fl(a g), g = theta^-k_c rounded; 0.0 where
    # fl(fl(b i) + a) is a zero of the product and is a + b i exactly
    cuts = [0, *segments, ts.size]
    pieces = [(a, b) for a, b in zip(cuts, cuts[1:]) if b > a]
    depth = max(_progression_head(theta, ts, b) for _, b in pieces)
    c, s, C, S, h0 = _unpacked_tables(theta, ts, depth)
    out = np.empty(ts.size)
    for a, b in pieces:
        i = np.arange(ts.start + a, ts.start + b)
        h, j = i // ROW - h0, i % ROW
        kc = _progression_head(theta, ts, b)
        w = np.ones(i.size)
        for k in range(kc):
            w = w * (C[k, h] * c[k, j] - S[k, h] * s[k, j])
        with mp.workprec(128):
            g = float(_theta_value(theta, 128) ** -kc)
        x = (ts.b * g) * i.astype(np.float64) + ts.a * g
        w = w * _textbook_tail(theta, x)
        t = ts.b * i.astype(np.float64) + ts.a
        zero = _exact_zeros_int64(theta, t)
        for p in np.flatnonzero(zero):
            zero[p] = Fraction(float(t[p])) == _exact_t(ts, i[p])
        w[zero] = 0.0
        out[a:b] = w + 0.0
    return out


def _progressions(size):
    # points at r = 1.37 from a start off the rows, with an offset a, and
    # quarter points from 0, where the binary base has its exact zeros
    return [transform.Progression(0.0, 1.37, 12345, 12345 + size),
            transform.Progression(517.25, 0.0123, 777, 777 + size),
            transform.Progression(0.0, 0.25, 0, size)]


@pytest.mark.parametrize("theta", PROGRESSION_BASES, ids=PROGRESSION_IDS)
@pytest.mark.parametrize("size", [1, 7, ROW - 1, ROW + 1, FAST_BLOCK - 1,
                                  FAST_BLOCK + 1, 3 * FAST_BLOCK + 5])
def test_progression_bits_equal_textbook_angle_addition(theta, size):
    for ts in _progressions(size):
        vals = mu_hat_fast(theta, ts)
        assert vals.dtype == np.float64 and vals.shape == (size,)
        assert np.array_equal(vals, _textbook_progression(theta, ts))
        assert not np.signbit(vals[vals == 0]).any()
    # the quarter points hold every kind of zero of the binary base
    if theta is BINARY and size > 7:
        assert (vals == 0).sum() > size // 2


@pytest.mark.parametrize("theta", PROGRESSION_BASES, ids=PROGRESSION_IDS)
def test_progression_segments_equal_textbook_angle_addition(theta):
    # the dyadic blocks of decay, and SEGMENT_STARTS on points with an offset
    ts = transform.Progression(0.0, 1.0, 1, 2 ** 16)
    starts = [2 ** k - 1 for k in range(16)]
    vals = mu_hat_fast(theta, ts, segments=starts)
    assert np.array_equal(vals, _textbook_progression(theta, ts, starts))
    ts = transform.Progression(3.5, 0.731, 40000, 40000 + 3000 + 4 * FAST_BLOCK
                               + 5)
    vals = mu_hat_fast(theta, ts, segments=SEGMENT_STARTS)
    assert np.array_equal(vals,
                          _textbook_progression(theta, ts, SEGMENT_STARTS))


def _points_within_bound(theta, ts, count=24):
    # count points, the first and last among them, each within the plan's
    # bound of mu_hat at the exact t_i plus the reference's own bound
    vals = mu_hat_fast(theta, ts)
    bound = fast_error_bound(theta, ts._t_max(ts.size))
    for p in np.unique(np.linspace(0, ts.size - 1, count).astype(np.int64)):
        ref = mu_hat(theta, _exact_t(ts, ts.start + p), tol=1e-30,
                     precision_bits=128)
        assert abs(float(ref.value) - vals[p]) <= bound + ref.error_bound
    return vals


@pytest.mark.parametrize("theta", PROGRESSION_BASES, ids=PROGRESSION_IDS)
def test_progression_values_within_the_plans_bound_of_mu_hat(theta):
    # r = 1.37, whose products r n round in float64, over the rows of
    # sample and fill; a jset grid; and decay's integers
    for ts in (transform.Progression(0.0, 1.37, 5 * 10**4, 10**5 + 1),
               transform.Progression(0.0, 1.0, 1, 2 ** 16)):
        _points_within_bound(theta, ts)
    T, step = 1e4, (5e3 + 3.506e-4) - 5e3
    _points_within_bound(theta, transform.Progression(
        T / 2, step, 0, math.ceil((T / 2) / 3.506e-4)))


def test_progression_values_at_rows_scale_within_the_plans_bound():
    # sample's largest batch at r = 1.37: the points n = 5e5 .. 1e6
    _points_within_bound(GOLDEN, transform.Progression(0.0, 1.37, 5 * 10**5,
                                                      10**6 + 1), count=40)


@pytest.mark.parametrize("theta", [GOLDEN, QUARTIC, 1.5],
                         ids=["golden", "quartic", "three_halves"])
def test_progression_bits_do_not_depend_on_workers_or_range(monkeypatch,
                                                           theta):
    ts = transform.Progression(0.3, 1.37, 5000, 5000 + 3 * FAST_BLOCK + 5)
    pools = _record_pools(monkeypatch)
    runs = []
    for cores in (1, 2):
        _with_cores(monkeypatch, cores)
        runs.append(mu_hat_fast(theta, ts))
    assert pools == [1, 2] and np.array_equal(runs[0], runs[1])
    plan = transform._fast_plan(theta, ts._t_max(ts.size))[0]
    # a sub-range with the same plan gives the same bits at each index
    for d, e in ((1, 0), (ROW - 1, 0), (FAST_BLOCK + 3, 0), (517, 7),
                 (2 * FAST_BLOCK, ROW + 1)):
        sub = transform.Progression(ts.a, ts.b, ts.start + d, ts.stop - e)
        assert transform._fast_plan(theta, sub._t_max(sub.size))[0] == plan
        assert np.array_equal(mu_hat_fast(theta, sub),
                              runs[0][d:ts.size - e])


@pytest.mark.parametrize("theta", [GOLDEN, QUARTIC, 1.5],
                         ids=["golden", "quartic", "three_halves"])
def test_progression_tables_within_their_error(theta):
    # every table value within 9u of its modulus, plus terms of order u^2,
    # of the cosine or sine of the exact angle: 2 pi j b theta^-k, and
    # 2 pi (h ROW b theta^-k + a theta^-k), from theta at 200 bits
    ts = transform.Progression(0.3, 1.37, 10**5, 10**5 + 2 * FAST_BLOCK + 9)
    depth = transform._fast_plan(theta, ts._t_max(ts.size))[0]
    c, s, C, S, h0 = _unpacked_tables(theta, ts, depth)
    assert c.shape == s.shape == (depth, ROW)
    assert C.shape == S.shape == (depth, (ts.stop - 1) // ROW - h0 + 1)

    def check(table_cos, table_sin, turns):
        with mp.workprec(160):
            two_pi = 2 * mp.pi
            for got_c, got_s, r in zip(table_cos.tolist(), table_sin.tolist(),
                                       turns):
                # one call for both, with mp.cos's and mp.sin's values
                want_c, want_s = mp.cos_sin(two_pi * (r - mp.nint(r)))
                for got, want in ((got_c, want_c), (got_s, want_s)):
                    assert abs(got - want) <= 9 * _U * abs(want) + 2.0 ** -95
    with mp.workprec(200):
        th = _theta_value(theta, 200)
        for k in range(depth):
            q, off = mp.mpf(ts.b) / th ** k, mp.mpf(ts.a) / th ** k
            check(c[k], s[k], [j * q for j in range(ROW)])
            check(C[k], S[k], [(h0 + h) * ROW * q + off
                               for h in range(C.shape[1])])


def test_progression_takes_no_cosine_per_point(monkeypatch):
    # sample's largest batch takes its sines and cosines on the tables only:
    # k_c (ROW + rows) points each
    ts = transform.Progression(0.0, 1.0, 5 * 10**5, 10**6 + 1)
    kc = transform._fast_plan(GOLDEN, 1e6)[0]
    rows = 10**6 // ROW - 5 * 10**5 // ROW + 1
    counts = {}
    for name in ("cos", "sin"):
        real = getattr(np, name)

        def counting(x, *args, name=name, real=real, **kwargs):
            counts[name] = counts.get(name, 0) + np.size(x)
            return real(x, *args, **kwargs)
        monkeypatch.setattr(np, name, counting)
    mu_hat_fast(GOLDEN, ts)
    assert counts == {"cos": kc * (ROW + rows), "sin": kc * (ROW + rows)}
    # a cosine per point and factor would be 80 times as many here
    assert 80 * 2 * kc * (ROW + rows) < kc * ts.size


def test_progression_points_must_be_a_nonnegative_rising_range():
    P = transform.Progression
    ts = P(1, 2, 3, 10)
    assert (ts.a, ts.b, ts.size) == (1.0, 2.0, 7) and isinstance(ts.a, float)
    assert mu_hat_fast(GOLDEN, P(0.5, 1.0, 4, 4)).shape == (0,)
    for bad in ((-1.0, 1.0, 0, 3), (0.0, 0.0, 0, 3), (0.0, -1.0, 0, 3),
                (math.inf, 1.0, 0, 3), (0.0, math.nan, 0, 3),
                (0.0, 1.0, -1, 3), (0.0, 1.0, 5, 4), (0.0, 1.0, 0.5, 3)):
        with pytest.raises((ValueError, TypeError)):
            P(*bad)
    # indices past 2^37 are refused after the plan, which refuses first
    with pytest.raises(PrecisionExhaustedError, match="2\\^37"):
        mu_hat_fast(GOLDEN, P(0.0, 1.0, 2 ** 37 - 2, 2 ** 37 + 1))
    with pytest.raises(PrecisionExhaustedError, match="error bound"):
        mu_hat_fast(GOLDEN, P(0.0, 1.0, 2 ** 37 - 2, 2 ** 37 + 1), tol=1e-14)


@pytest.mark.parametrize("theta, ts, error, message", [
    (1.000000000001, (50.0, 1e-13, 0, 5 * 10 ** 14), PrecisionExhaustedError,
     "float64 head at \\|t\\| <= 100 needs more than 1048576 factors"),
    (1.5, (0.0, 1e-12, 0, 2 ** 37 + 5), PrecisionExhaustedError,
     "indices must lie below 2\\^37"),
], ids=["head_limit", "index_limit"])
def test_progression_refused_before_building_anything(theta, ts, error,
                                                      message):
    # about 1.5e10 block starts and a 4 PB output for the first, 4 M block
    # starts and a 1 TiB output for the second: refused before either
    mu_hat_fast(theta, transform.Progression(0.0, 1.0, 0, 1))
    tracemalloc.start()
    try:
        with pytest.raises(error, match=message):
            mu_hat_fast(theta, transform.Progression(*ts))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10 ** 6


@pytest.mark.parametrize("bad", [(10 ** 400, 1, 0, 1), (0, 10 ** 400, 0, 1),
                                 (0, Fraction(10 ** 400, 3), 0, 1)],
                         ids=["a_int", "b_int", "b_fraction"])
def test_progression_refuses_a_or_b_past_the_float_range(bad):
    # float() of such a number raises OverflowError; the progression gives
    # its own refusal instead
    with pytest.raises(ValueError, match="a progression needs finite a >= 0"):
        transform.Progression(*bad)


def _check_floor(vals, full, floor):
    """The points mu_hat_fast dropped at floor, after checking that vals is
    the plain values full with each value of modulus below floor, and only
    those, set to +0.0."""
    assert np.array_equal(vals, np.where(np.abs(full) < floor, 0.0, full))
    assert not np.signbit(vals[vals == 0]).any()
    return (vals == 0) & (full != 0)


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
    ts = transform.Progression(0.0, rng.uniform(5e4, 1e5) / size, 0, size)
    full = mu_hat_fast(theta, ts)               # value 1 at t = 0
    sizes = _count_cosines(monkeypatch)
    mu_hat_fast(theta, ts)
    monkeypatch.undo()
    # floors at values of the batch itself: those points must stay
    placed = np.abs(full[rng.integers(1, size, 3)])
    for floor in (0.0, 1e-6, 1e-3, 1.0, *placed):
        cosines = _count_cosines(monkeypatch)
        vals = mu_hat_fast(theta, ts, floor=floor)
        monkeypatch.undo()
        dropped = _check_floor(vals, full, floor)
        # every point takes all k_c head factors, whatever the floor
        assert cosines == sizes
        if floor == 0.0:
            assert not dropped.any()
        if floor == 1.0:
            # all but the first fall below 1 at their first factor
            assert dropped[1:].all() and vals[0] == 1.0
        if floor == 1e-3:
            assert dropped.mean() > 0.99


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
            mu_hat_fast(GOLDEN, transform.Progression(1.0, 1.0, 0, 2),
                        floor=floor)


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


def _class_mask(theta, ts):
    """Mask of the positions of ts whose index lies in a class of
    _zero_classes."""
    mask = np.zeros(ts.size, dtype=bool)
    for i0, period in _zero_classes(theta, ts):
        mask[(i0 - ts.start) % period::period] = True
    return mask


def _is_zero(base, t):
    # the Fraction oracle: 4t = base^k times an odd integer, k = 0 on every
    # base and any k on an even integer base (base 1: not an integer)
    q = 4 * Fraction(t)
    if q.denominator != 1 or not q:
        return False
    z, power = q.numerator, 1
    while power <= z:
        if z % power == 0 and z // power % 2:
            return True
        if base % 2:
            return False
        power *= base
    return False


@pytest.mark.parametrize("theta, base", [
    (BINARY, 2), (build_pisot((3,)), 3), (build_pisot((4,)), 4),
    (build_pisot((6,)), 6), (GOLDEN, 1), (1.5, 1), (2.0, 2), (Fraction(2), 2),
    (mp.mpf(2), 2)], ids=["binary", "ternary", "quaternary", "senary",
                          "golden", "three_halves", "two_float",
                          "two_fraction", "two_mpf"])
def test_zero_classes_match_a_fraction_oracle(theta, base):
    # every index of three blocks and more, from 0 and from an index off the
    # block grid, near each block edge and at either end: in a class exactly
    # when the oracle calls its exact t_i a zero; 4 t_i reaches 2^66 at
    # a = 2^40 and b = (2^52 + 1)/4, past the powers an int64 holds
    size = 3 * FAST_BLOCK + 5
    near = sorted({p for e in range(0, size + 1, FAST_BLOCK)
                   for p in range(max(e - 40, 0), min(e + 40, size))}
                  | set(range(400)) | set(range(size - 400, size)))
    for a in (0.0, 517.25, 2.0 ** 40):
        for b in (1.0, 0.25, 1.37, (2 ** 52 + 1) / 4):
            for start in (0, 2 * FAST_BLOCK - 7):
                ts = transform.Progression(a, b, start, start + size)
                mask = _class_mask(theta, ts)
                assert [bool(mask[p]) for p in near] == [
                    _is_zero(base, _exact_t(ts, start + p)) for p in near]
    # zeros at every power: t_i = i/4 on base 2 from i = 1, at odd i on
    # base 3, at i = 4^k times an odd integer on base 4
    ts = transform.Progression(0.0, 0.25, 1, 2 ** 20)
    assert _class_mask(theta, ts).all() == (base == 2)


@pytest.mark.parametrize("d", [(1, 1), (2,), (3,), (4,)])
def test_exact_zeros_equal_the_int64_route(d):
    # where every t_i is a float, the classes hold the zeros that the
    # textbook oracle's int64 route finds at fl(t_i) = t_i, 4|t| < 2^62
    P, found = build_pisot(d), []
    for ts in (transform.Progression(0.0, 0.25, 0, 4000),
               transform.Progression(0.0, 2.0 ** 40, 1, 4000),
               transform.Progression(517.25, 1.0, 0, 4000),
               transform.Progression(0.0, 0.125, 2 ** 37 - 4000, 2 ** 37)):
        t = ts.a + ts.b * np.arange(ts.start, ts.stop, dtype=np.float64)
        assert all(Fraction(float(x)) == _exact_t(ts, i)
                   for x, i in zip(t[::97], range(ts.start, ts.stop, 97)))
        mask = _class_mask(P, ts)
        assert np.array_equal(mask, _exact_zeros_int64(P, t))
        found.append(mask)
    assert np.concatenate(found).any() and not np.concatenate(found).all()


@pytest.mark.parametrize("d", [(2,), (3,), (4,)])
def test_integer_exact_zeros_over_several_blocks(d):
    # mu_hat_fast returns +0.0 exactly at the classes' indices, in every
    # block, anchored at the absolute index: from a start off the block grid
    # and at an odd offset, and with zeros at powers past 2^62
    P = build_pisot(d)
    for ts in (transform.Progression(0.0, 0.125, 12345,
                                     12345 + 3 * FAST_BLOCK + 5),
               transform.Progression(2.0 ** 40, (2 ** 52 + 1) / 4, 777,
                                     777 + 2 * FAST_BLOCK + 3)):
        vals, mask = mu_hat_fast(P, ts), _class_mask(P, ts)
        assert np.array_equal(vals == 0, mask)
        assert not np.signbit(vals[mask]).any()
        assert mask.any()
    assert not mask.all() or d == (2,)


@pytest.mark.parametrize("b", [2, 3, 4])
def test_exact_zeros_take_an_integer_base_of_any_type(b):
    # theta given as a number has the classes of the degree-1 base
    for ts in (transform.Progression(0.0, 0.125, 0, 3000),
               transform.Progression(517.25, 0.25, 0, 3000),
               transform.Progression(2.0 ** 40, (2 ** 52 + 1) / 4, 5, 3005)):
        want = _zero_classes(build_pisot((b,)), ts)
        for theta in (b, float(b), Fraction(b), mp.mpf(b), np.float64(b)):
            assert _zero_classes(theta, ts) == want
        # a base that is not an integer admits only k = 0
        for theta in (b + 0.5, Fraction(2 * b + 1, 2), mp.mpf(b) + 0.25):
            assert _zero_classes(theta, ts) == _zero_classes(GOLDEN, ts)


@pytest.mark.parametrize("theta", [GOLDEN, QUARTIC, 1.5],
                         ids=["golden", "quartic", "three_halves"])
@pytest.mark.parametrize("size", [FAST_BLOCK - 1, FAST_BLOCK + 1,
                                  3 * FAST_BLOCK + 5])
def test_exact_zeros_equal_the_fmod_expression(theta, size):
    # on a base with no k > 0 zero the classes are fmod(4 t, 2) == 1 at
    # exact float points, and mu_hat_fast returns +0.0 on each of them
    rng = np.random.default_rng(size)
    a = rng.integers(0, 2 ** 20) / 8
    b = (2 * rng.integers(0, 2 ** 10) + 1) / 8
    ts = transform.Progression(a, b, 3, 3 + size)
    t = a + b * np.arange(3, 3 + size, dtype=np.float64)
    mask = _class_mask(theta, ts)
    assert np.array_equal(mask, np.fmod(4 * t, 2) == 1)
    assert 0 < mask.sum() < size
    vals = mu_hat_fast(theta, ts)
    assert np.all(vals[mask] == 0) and not np.signbit(vals[mask]).any()
    # every point, or none, is a zero: a point left out of every block
    # shows in one of the two
    odd, even = (transform.Progression(0.25, 0.5, 0, size),
                 transform.Progression(0.0, 0.5, 0, size))
    assert _class_mask(theta, odd).all() and not _class_mask(theta, even).any()
    assert not mu_hat_fast(theta, odd).any()


# (base, t_max, the progression's own terms as first measured, to two
# digits): at most those, against a real deviation of at most 3.8e-19 on
# golden batches from t = 1e5 to 7.4e10
PROGRESSION_BOUNDS = [(GOLDEN, 1e3, 5.1e-14), (GOLDEN, 1e6, 8.5e-14),
                      (GOLDEN, 1e9, 1.2e-13), (GOLDEN, 1e11, 1.4e-13),
                      (TRIBONACCI, 1e6, 6.6e-14), (1.5, 1e6, 1.0e-13),
                      (1.5, 1e11, 1.7e-13)]


def test_derived_bound_within_the_progression_terms():
    # no term grows with t_max but the head's k_c factors: the bound stays
    # far below FAST_ERROR up to the indices' 2^37, and is exactly its
    # derived terms times the growth factor
    for theta, t_max, measured in PROGRESSION_BOUNDS:
        bound = fast_error_bound(theta, t_max)
        kc = transform._fast_plan(theta, t_max)[0]
        terms = (kc * transform._FACTOR_ERROR
                 + TAIL_REACH * 4 * _U / (1 - 4 * _U) + _TAIL_ERROR)
        assert terms < bound <= terms * (1 + 2.0 ** -29)
        assert float(f"{bound:.1e}") <= measured
    assert fast_error_bound(GOLDEN, 2.0 ** 37) < FAST_ERROR / 1000
    # the tables' angles are shown only up to t_max A = 2^100
    assert fast_error_bound(GOLDEN, 2.0 ** 98) < 1e-12
    assert fast_error_bound(GOLDEN, 2.0 ** 99) == math.inf


def test_bound_holds_a_head_whose_every_factor_errs_by_20u(monkeypatch):
    # at t = 0 every head factor is 1 and the tail is 1; a kernel whose
    # einsum returns each factor 20u too large gives (1 + 20u)^k_c, which
    # the bound holds only with its k_c _FACTOR_ERROR term
    ts = transform.Progression(0.0, 1.0, 0, 100)
    kc = transform._fast_plan(GOLDEN, 99.0)[0]
    assert kc > 0 and mu_hat_fast(GOLDEN, ts)[0] == 1.0
    real = np.einsum

    def off(*args, out, **kwargs):
        real(*args, out=out, **kwargs)
        out *= 1 + 20 * _U
    monkeypatch.setattr(np, "einsum", off)
    deviation = mu_hat_fast(GOLDEN, ts)[0] - 1.0
    bound = fast_error_bound(GOLDEN, 99.0)
    assert deviation <= bound
    assert deviation > bound - kc * transform._FACTOR_ERROR * (1 + 2.0 ** -29)


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


def _trig_reference(xs, fn):
    # fn(x) at 90 bits as hi + lo, a pair of doubles
    with mp.workprec(90):
        vs = [fn(mp.mpf(float(x))) for x in xs]
        hi = np.array([float(v) for v in vs])
        lo = np.array([float(v - h) for v, h in zip(vs, hi)])
    return hi, lo


def _worst_ulps(got, hi, lo) -> float:
    # largest |got - f(x)| in ulps of f(x); got - hi is exact where the two
    # are within a factor 2
    return float(np.max(np.abs((got - hi) - lo) / np.spacing(np.abs(hi))))


def test_numpy_cosine_within_the_float_paths_premise():
    # _FACTOR_ERROR takes numpy's float64 cosine and sine within 4 ulps, on
    # whole arrays: a progression's tables on angles 2 pi r, |r| <= 1/2.
    # The tables use no scalar trig.  This test calls both on whole arrays
    # too
    xs = _cos_arguments()
    for np_fn, mp_fn in ((np.cos, mp.cos), (np.sin, mp.sin)):
        hi, lo = _trig_reference(xs, mp_fn)
        assert _worst_ulps(np_fn(xs), hi, lo) <= 4
        # a value off by a relative 8u breaks the premise and is caught
        assert _worst_ulps(np_fn(xs) * (1 + 8 * _U), hi, lo) > 4


def _einsum_tables():
    # rows (C, -S) and ROW columns (c, s) in the shapes of a progression's
    # head, column j the partner of row j % 33.  Rows 0-10 pair with
    # columns whose fl(S s) is within two ulps of fl(C c), and rows 11-21
    # the other way round, so a multiply-add fused on C c, or on S s,
    # changes the result; rows 22-32 hold values near +-1, tiny values and
    # signed zeros
    rng = np.random.default_rng(29)
    rows, partner = 33, np.arange(ROW) % 33
    special = np.array([1.0, -1.0, 1 - 2.0 ** -53, -(1 - 2.0 ** -53),
                        1 - 2.0 ** -52, 0.0, -0.0, 5e-324, -5e-324,
                        2.0 ** -1022, 1e-300, -1e-300, 0.7071067811865476,
                        -0.7071067811865475])
    near = (1 + rng.integers(1, 2 ** 26, rows) * 2.0 ** -52) \
        * rng.choice([-1.0, 1.0], rows)
    C, S = near.copy(), near.copy()
    C[11:22] = S[:11] = rng.choice([-1.0, 1.0], 11)
    C[22:], S[22:] = rng.choice(special, 11), rng.choice(special, 11)
    free = (1 - rng.integers(1, 2 ** 26, ROW) * 2.0 ** -53) \
        * rng.choice([-1.0, 1.0], ROW)
    shift = rng.integers(-2, 3, ROW) * np.spacing(free)
    c, s = free.copy(), free.copy()
    first, second = partner < 11, (11 <= partner) & (partner < 22)
    s[first] = (C[partner] * c + shift)[first] / S[partner][first]
    c[second] = (S[partner] * s + shift)[second] / C[partner][second]
    last = partner >= 22
    c[last], s[last] = rng.choice(special, (2, last.sum()))
    return (np.stack([C, -S], axis=-1), np.stack([c, s]), first, second,
            partner)


def test_numpy_einsum_rounds_each_product_and_the_sum():
    # a progression's head factor is np.einsum("hk,kj->hj") of rows (C, -S)
    # and columns (c, s), which must be fl(fl(C c) - fl(S s)) on each
    # element, as the plain expression and _FACTOR_ERROR take it: a numpy
    # whose einsum fuses a product into the sum fails here, not in the
    # value bits.  einsum starts its sum at +0.0, so a zero may come out
    # +0.0 where the subtraction gives -0.0; the block's closing + 0.0 makes
    # every zero +0.0, so both are compared after adding +0.0
    A, B, first, second, partner = _einsum_tables()
    got = np.empty((A.shape[0], ROW))
    np.einsum("hk,kj->hj", A, B, out=got, optimize=False)
    C, S, c, s = A[:, 0], -A[:, 1], B[0], B[1]
    want = C[:, None] * c - S[:, None] * s
    assert np.array_equal((got + 0.0).view(np.int64),
                          (want + 0.0).view(np.int64))
    # each designed pair's fused result, exact by Fraction, is another
    # float: the first rows catch a fused C c, the next a fused S s
    for j in np.flatnonzero(first | second):
        h = partner[j]
        if first[j]:
            fused = Fraction(C[h]) * Fraction(c[j]) - Fraction(S[h] * s[j])
        else:
            fused = Fraction(C[h] * c[j]) - Fraction(S[h]) * Fraction(s[j])
        assert float(fused) != want[h, j]
    # the tables hold zeros of both signs and subnormal values
    tables = np.concatenate([A.ravel(), B.ravel()])
    zeros = np.signbit(tables[tables == 0])
    assert zeros.any() and not zeros.all()
    assert (np.abs(tables[tables != 0]) < 2.0 ** -1022).any()


TAIL_BASES = [GOLDEN, TRIBONACCI, QUARTIC, build_pisot((2,)),
              build_pisot((3,)), 1.5, 1.01]
TAIL_IDS = ["golden", "tribonacci", "quartic", "binary", "ternary",
            "three_halves", "one_point_01"]


def _mpf_moments(theta, N, bits):
    # m_0, m_2, ..., m_2N of mu_theta at bits, by the recurrence
    # m_2n (1 - theta^-2n) = sum_{k<n} C(2n, 2k) m_2k theta^-2k
    with mp.workprec(bits):
        q = 1 / _theta_value(theta, bits + 16) ** 2
        m, powers = [mp.mpf(1)], [mp.mpf(1)]
        for n in range(1, N + 1):
            powers.append(powers[-1] * q)
            m.append(mp.fsum(math.comb(2 * n, 2 * k) * m[k] * powers[k]
                             for k in range(n)) / (1 - powers[n]))
        return m


# float.hex of the ten float64 tail coefficients b_n, recorded from the
# 128-bit mpf moments that computed them before the integer moment routine
TAIL_COEFFICIENT_BITS = {
    "golden": ((1, 1), [
        "0x1.0000000000000p+0", "-0x1.9e3779b97f4a8p-1",
        "0x1.d6658d4d2a3dcp-3", "-0x1.0d1cd445e8cdap-5",
        "0x1.72613f7892a59p-9", "-0x1.541065fc4dbedp-13",
        "0x1.be149a8314223p-18", "-0x1.b6cec8f6e12d6p-23",
        "0x1.4faa04a63ce02p-28", "-0x1.9abb8b6b4518ep-34",
    ]),
    "tribonacci": ((1, 1, 1), [
        "0x1.0000000000000p+0", "-0x1.6b6dbf96ce2e0p-1",
        "0x1.48eea3daaa4adp-3", "-0x1.2068aa4016ef4p-6",
        "0x1.2a0d7499bf5c3p-10", "-0x1.95b6ef956d612p-15",
        "0x1.87078c8589d10p-20", "-0x1.18cebade72393p-25",
        "0x1.38179dd20f3b8p-31", "-0x1.145d06d958b6bp-37",
    ]),
    "quartic": ((1, 0, 0, 1), [
        "0x1.0000000000000p+0", "-0x1.0d691680663fcp+0",
        "0x1.c14369370d4dbp-2", "-0x1.96439f4198860p-4",
        "0x1.ccfa61b0ff205p-7", "-0x1.6696a24bf4a42p-10",
        "0x1.962e3057d4e6dp-14", "-0x1.5de68e497bf0bp-18",
        "0x1.d9dbfb807e076p-23", "-0x1.02d605d969644p-27",
    ]),
    "binary": ((2,), [
        "0x1.0000000000000p+0", "-0x1.5555555555555p-1",
        "0x1.1111111111111p-3", "-0x1.a01a01a01a01ap-7",
        "0x1.71de3a556c734p-11", "-0x1.ae64567f544e4p-16",
        "0x1.6124613a86d09p-21", "-0x1.ae7f3e733b81fp-27",
        "0x1.952c77030ad4ap-33", "-0x1.2f49b46814157p-39",
    ]),
    "ternary": ((3,), [
        "0x1.0000000000000p+0", "-0x1.2000000000000p-1",
        "0x1.2e66666666666p-4", "-0x1.23f4bf4bf4bf5p-8",
        "0x1.40287fb8af5e0p-13", "-0x1.c2b09d62364c6p-19",
        "0x1.b98a7061ae298p-25", "-0x1.3e8a3589b855ep-31",
        "0x1.60ab411ffd123p-38", "-0x1.351c382fef34fp-45",
    ]),
    "silver": ((2, 1), [
        "0x1.0000000000000p+0", "-0x1.3504f333f9de6p-1",
        "0x1.8a5a48894f33cp-4", "-0x1.d507ba1cb73b8p-8",
        "0x1.3fdef894668d8p-12", "-0x1.1a84b52b47f57p-17",
        "0x1.5d88251bd37d2p-23", "-0x1.3fc24735012fdp-29",
        "0x1.c21e81668b327p-36", "-0x1.f6895e0e14163p-43",
    ]),
    "three_halves": (1.5, [
        "0x1.0000000000000p+0", "-0x1.ccccccccccccdp-1",
        "0x1.3461ac812e795p-2", "-0x1.ad416e3a75b56p-5",
        "0x1.6d7960e8124aep-8", "-0x1.a3ac15b19097fp-12",
        "0x1.5ad5953c33dcap-16", "-0x1.b044c1aeeb6c0p-21",
        "0x1.a4b403cab283ap-26", "-0x1.489251bcf94a9p-31",
    ]),
}


@pytest.mark.parametrize("name", sorted(TAIL_COEFFICIENT_BITS))
def test_tail_coefficients_keep_their_bits(name):
    # the float64 path's coefficients, from the integer moment routine,
    # keep every bit they had
    base, want = TAIL_COEFFICIENT_BITS[name]
    theta = base if isinstance(base, float) else build_pisot(base)
    assert [c.hex() for c in _tail_coefficients(theta)] == want


def _exact_moment_polynomial(theta, N, v, bits):
    # sum_(n<=N) (-1)^n m_2n/(2n)! v^n at bits, v real
    m = _mpf_moments(theta, N, bits)
    with mp.workprec(bits):
        return mp.fsum((-1) ** n * m[n] * v ** n / math.factorial(2 * n)
                       for n in range(N + 1))


MOMENT_BASES = {"golden": (1, 1), "tribonacci": (1, 1, 1),
                "quartic": (1, 0, 0, 1), "silver": (2, 1), "ternary": (3,)}


@pytest.mark.parametrize("pb", [64, 256, 512])
@pytest.mark.parametrize("name", sorted(MOMENT_BASES))
def test_moment_tail_within_its_derived_error(name, pb):
    # at the W of a two-sided product's plan: the degree is the least N with
    # (2N + 2)! > 2^W; on v' = v 2^-W in [0, 1] the integer Horner sum is
    # within R - 1 (coefficients and steps) of the exact polynomial; and for
    # x <= cap it is within R of mu_hat(s), s = sqrt(v')/(2 pi), taken as a
    # deep cosine product
    P = build_pisot(MOMENT_BASES[name], pb)
    with mp.workprec(pb + GUARD_BITS):
        W = spectrum._phi_plan(P, P.field((1,) * P.m), 1e-20).descent.W
    a, R, cap = _moment_polynomial(P, pb, W)
    N = len(a) - 1
    assert math.factorial(2 * N) <= 2 ** W < math.factorial(2 * N + 2)
    assert N == _tail_degree(W) and R < 4 * N + 8
    bits = 2 * W + 64
    rng = random.Random(f"moment-{name}-{pb}")
    for v in [0, 1, 2 ** (W - 1), 2 ** W, *(rng.randrange(2 ** W)
                                            for _ in range(3))]:
        exact = _exact_moment_polynomial(P, N, mp.ldexp(v, -W), bits)
        with mp.workprec(bits):
            assert abs(mp.ldexp(_moment_tail(a, v, W), -W) - exact) <= (
                mp.ldexp(R - 1, -W))
    with mp.workprec(bits):
        th = P.theta_at(bits)
        assert cap <= mp.ldexp((th - 1) / (2 * mp.pi * th), W) < cap + 2
    two_pi = pi_fixed(W + 1)
    for x in [0, 1, cap, cap - 1, cap // 2, *(rng.randrange(cap)
                                                for _ in range(3))]:
        z = (x * two_pi) >> W
        v = (z * z) >> W
        with mp.workprec(bits):
            s = mp.sqrt(mp.ldexp(v, -W)) / (2 * mp.pi)
            # every later factor is within (2 pi s theta^-k)^2 of 1
            K = 0
            while 2 * mp.pi * s / th ** K > mp.ldexp(1, -(bits // 2 + 8)):
                K += 1
            ref = mp.fprod(mp.cos(2 * mp.pi * s / th ** k) for k in range(K))
            assert abs(mp.ldexp(_moment_tail(a, v, W), -W) - ref) <= (
                mp.ldexp(R, -W))


@pytest.mark.parametrize("theta", TAIL_BASES, ids=TAIL_IDS)
def test_tail_polynomial_within_its_remainder(theta):
    # the moment polynomial at 128 bits against the cosine product on
    # [0, s_c/(2 pi A)]: within the series remainder, which is below
    # float64 resolution, and the rounded tail is within 1 + 8u of modulus 1
    N = TAIL_DEGREE
    remainder = mp.mpf(TAIL_REACH) ** (2 * N + 2) / math.factorial(2 * N + 2)
    assert remainder <= 2.0 ** -60
    assert _TAIL_ERROR <= 9 * _U
    m = _mpf_moments(theta, N, 128)
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
    # every limit at least 1 is certified at t != 0; limits placed just
    # above a value are certified, and limits just below never are.  One
    # descent plan, at the largest |t|, serves every t
    rng = np.random.default_rng(5)
    ts = [0.0, 0.25, *rng.uniform(-1e6, 1e6, 40)]
    plan = _descent_plan(theta, 64, _mag_estimate(max(map(abs, ts))))
    for t in ts:
        res = mu_hat(theta, float(t), tol=1e-12, precision_bits=64)
        low = float(abs(res.value) - res.error_bound)
        high = float(abs(res.value) + res.error_bound)
        assert _leading_factors_below(float(t), high * 1.001 + 1e-9, plan)
        assert low <= 0 or not _leading_factors_below(float(t), low * 0.999,
                                                      plan)
        for limit in (1.0, 2.0, 1e-3, 1e-6):
            if _leading_factors_below(float(t), limit, plan):
                assert low <= limit
            else:
                assert limit < 1 or (t == 0 and limit == 1)
    # at t = 0 every factor is 1 and carries its error: the limit 1 is not
    # certified there, and 1 + 2^-20 is
    assert not _leading_factors_below(0.0, 1.0, plan)
    assert _leading_factors_below(0.0, Fraction(2**20 + 1, 2**20), plan)
    # a factor at an exact zero certifies any positive limit, but not 0:
    # each factor carries its error
    binary, t = build_pisot((2,)), 2.0 ** 9 / 4
    for limit, shown in ((1e-12, True), (0.0, False)):
        assert _leading_factors_below(t, limit, _descent_plan(
            binary, 64, _mag_estimate(t))) is shown


def test_mu_hat_fast_returns_exact_zeros_as_positive_zero():
    # theta = 2: mu_hat(t) = sin(4 pi t)/(4 pi t), 0 at every nonzero t in
    # Z/4, where the float64 cosine of pi/2 alone would leave about 1e-17
    binary = build_pisot((2,))
    vals = mu_hat_fast(binary, transform.Progression(1.0, 1.5, 0, 2))
    assert vals.tolist() == [0.0, 0.0] and not np.signbit(vals).any()
    ts = transform.Progression(0.0, 0.125, 0, 401)
    for theta in (GOLDEN, QUARTIC, binary, build_pisot((4,)), 1.5):
        zero = _class_mask(theta, ts)
        assert zero.any()
        for floor in (0.0, 1e-3):
            vals = mu_hat_fast(theta, ts, floor=floor)
            assert np.all(vals[zero] == 0) and not np.signbit(vals[zero]).any()
            if not floor:
                # every other 0.0 is a zero the certified path brackets: on
                # 1.5 the tables give cos(2 pi (3/8)/1.5) = 0 exactly, one
                # of the zeros the zero rule leaves to the product
                for i in np.flatnonzero((vals == 0) & ~zero):
                    assert mu_hat(theta, Fraction(int(i), 8)).contains_zero


@pytest.mark.parametrize("d", [(2,), (3,), (4,), (1, 1)])
def test_exact_zeros_are_the_precise_paths_zero_brackets(d):
    # the second progression's odd t_i are past fl's reach: 4 t_i is an
    # integer of 54 bits or more
    P = build_pisot(d)
    for ts in (transform.Progression(0.0, 0.125, 0, 257),
               transform.Progression(0.5, (2 ** 52 + 1) / 8, 2, 34)):
        precise = [mu_hat(P, _exact_t(ts, i)).contains_zero
                   for i in range(ts.start, ts.stop)]
        assert _class_mask(P, ts).tolist() == precise


def test_float64_series_refused_past_fast_error(monkeypatch):
    # the rows' tolerance, _sampled's FAST_ERROR, set below the bound at
    # |t| = 2e6
    monkeypatch.setattr(empirical, "FAST_ERROR", 1e-14)
    with pytest.raises(PrecisionExhaustedError, match="exceeds the tolerance"):
        empirical._rows(GOLDEN, 10**6, 1, 2)


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
    items = empirical._rows(GOLDEN, 1, 1, 500)
    assert len(items) == 500
    for it in items[::61]:
        precise = mu_hat(GOLDEN, it.t)
        assert abs(float(precise.value) - it.value) < 1e-8
    # byte-reproducible: same invocation gives identical floats
    again = empirical._rows(GOLDEN, 1, 1, 500)
    assert all(a.value == b.value for a, b in zip(items, again))


def test_coefficient_series_rejects_nonpositive_r():
    for r in (Fraction(-1, 2), 0, -0.5):
        with pytest.raises(ValueError, match="r must be positive"):
            list(coefficient_series(GOLDEN, r, 10))
        with pytest.raises(ValueError, match="r must be positive"):
            empirical._rows(GOLDEN, r, 1, 10)


def test_coefficient_series_reads_decimal_r():
    # a float r is read by the multiplier rule, exactly, on both paths
    precise = list(coefficient_series(GOLDEN, 1.37, 3))
    fast = empirical._rows(GOLDEN, 1.37, 1, 3)
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
    vals = mu_hat_fast(GOLDEN, transform.Progression(0.0, 1.0, 500, 1001))
    peak = float(np.max(np.abs(vals)))
    n_star = 500 + int(np.argmax(np.abs(vals)))
    assert peak >= 5e-3
    assert n_star == 682
    assert abs(peak - 6.61339209e-3) < 1e-9
