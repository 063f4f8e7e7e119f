"""Two-sided product values, the candidate catalogue, and sequence synthesis."""

import functools
import itertools
import math
import random
from fractions import Fraction
from unittest import mock

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pisot_spectra import (
    build_pisot,
    enumerate_spectrum,
    field_invert,
    limit_value,
    mu_hat,
    phi_biinfinite,
    phi_lambda,
    product_law_residual,
    ring_theta_pow,
    synthesize_sequence,
    tail_product,
)
from pisot_spectra import spectrum
from pisot_spectra.errors import (
    AmbiguousRoundingError,
    BudgetExceededError,
    InvalidToleranceError,
)
from pisot_spectra.pisot import GUARD_BITS, _coeff_bits, embed

GOLDEN = build_pisot((1, 1))
TRIBONACCI = build_pisot((1, 1, 1))
QUARTIC = build_pisot((1, 0, 0, 1))
BINARY = build_pisot((2,))
TERNARY = build_pisot((3,))

HALF = Fraction(1, 2)

# independently recorded two-sided product values for the golden base
PHI_1 = "0.006613493035344122"
PHI_2 = "0.0004868741426829068"
PHI_ROOT5 = "0.00008094696975888831"   # argument 2*theta - 1


def test_phi_zero_argument():
    value, err = phi_biinfinite(GOLDEN, 0)
    assert value == 1
    assert err == 0


def test_phi_golden_frozen_values():
    with mp.workprec(300):
        for z, want in [(1, PHI_1), (2, PHI_2), (GOLDEN.ring((-1, 2)), PHI_ROOT5)]:
            value, err = phi_biinfinite(GOLDEN, z)
            assert abs(value - mp.mpf(want)) <= err + mp.mpf(10) ** -17


def test_phi_shift_chain_exact_arguments():
    # 1, theta, theta^2 = 1 + theta, 1/theta = theta - 1 are one orbit
    with mp.workprec(300):
        base, err0 = phi_biinfinite(GOLDEN, 1)
        for coeffs in [(0, 1), (1, 1), (-1, 1)]:
            value, err = phi_biinfinite(GOLDEN, GOLDEN.ring(coeffs))
            assert abs(value - base) <= err + err0


def test_phi_dual_lattice_arguments():
    """Field elements whose trace sums are integers are admissible even
    outside the ring; (2 theta - 1)/5 is the canonical witness."""
    w = GOLDEN.field((Fraction(-1, 5), Fraction(2, 5)))
    with mp.workprec(300):
        value, err = phi_biinfinite(GOLDEN, w)
        assert abs(value - mp.mpf("0.04249742340542963")) <= err + mp.mpf(10) ** -16
        value2, err2 = phi_biinfinite(GOLDEN, w * 2)
        assert abs(value2 - mp.mpf("0.002759743907231750")) <= err2 + mp.mpf(10) ** -16


def test_phi_rejects_divergent_arguments():
    with pytest.raises(ValueError):
        phi_biinfinite(GOLDEN, Fraction(1, 3))
    # half-integers diverge at the pi normalization but not at 2 pi
    with pytest.raises(ValueError):
        phi_biinfinite(GOLDEN, Fraction(1, 2))
    with pytest.raises(ValueError):
        phi_biinfinite(GOLDEN, TRIBONACCI.ring(1))
    with pytest.raises(InvalidToleranceError):
        phi_biinfinite(GOLDEN, 1, tol=0)


def test_phi_half_integer_admissible_at_doubled_frequency():
    with mp.workprec(300):
        value, err = phi_lambda(GOLDEN, Fraction(1, 2), 1)
        base, err0 = phi_biinfinite(GOLDEN, 1)
        assert abs(value - base) <= err + err0


def test_phi_theta2_exactly_degenerate():
    P2 = build_pisot((2,))
    for z in (1, -3, 5, 12):
        assert phi_biinfinite(P2, z) == (0, 0)


def test_phi_theta3_frozen_values():
    P3 = build_pisot((3,))
    frozen = {
        1: "0.46627457895504917",
        2: "0.37143735670876564",
        4: "0.07654171272866836",
        5: "0.07101350492480405",
        7: "0.25205269747545446",
        8: "0.26556944728182266",
        10: "0.17065796643021200",
        11: "0.09887054271861259",
    }
    with mp.workprec(300):
        for z, want in frozen.items():
            value, err = phi_biinfinite(P3, z)
            assert abs(value - mp.mpf(want)) <= err + mp.mpf(10) ** -16


def test_phi_shift_and_symmetry_random():
    rng = random.Random(70301)
    with mp.workprec(300):
        for P, n_cases in [(GOLDEN, 25), (TRIBONACCI, 15), (QUARTIC, 6)]:
            th = P.theta_ring()
            for _ in range(n_cases):
                z = P.ring(tuple(rng.randint(-5, 5) for _ in range(P.m)))
                v0, e0 = phi_biinfinite(P, z)
                v1, e1 = phi_biinfinite(P, z * th)
                v2, e2 = phi_biinfinite(P, -z)
                assert abs(v0 - v1) <= e0 + e1
                assert abs(v0 - v2) <= e0 + e2
                # enumerate_spectrum walks {z, -z} classes on this
                assert (v2, e2) == (v0, e0)


def test_phi_silver_frozen_value_and_symmetries():
    # x^2 - 2x - 1: the digit vector (2, 1) is not a palindrome, so the
    # descending side needs theta^-1 = theta - 2 from a correct inversion
    silver = build_pisot((2, 1))
    want = "0.049143958076923798716"  # checked against an independent product
    with mp.workprec(300):
        z = silver.ring(1)
        v0, e0 = phi_biinfinite(silver, z)
        assert abs(v0 - mp.mpf(want)) <= e0 + mp.mpf(10) ** -24
        for w in (z * silver.theta_ring(), -z,
                  z * field_invert(silver.theta_ring())):
            v, e = phi_biinfinite(silver, w)
            assert abs(v - v0) <= e + e0


def test_phi_lambda_matches_doubled_argument():
    rng = random.Random(70302)
    with mp.workprec(300):
        for _ in range(12):
            lam = GOLDEN.ring(tuple(rng.randint(-3, 3) for _ in range(2)))
            q = GOLDEN.ring(tuple(rng.randint(-3, 3) for _ in range(2)))
            va, ea = phi_lambda(GOLDEN, lam, q)
            vb, eb = phi_biinfinite(GOLDEN, lam * q * 2)
            assert abs(va - vb) <= ea + eb


SILVER = build_pisot((2, 1))

# 60-digit values of phi_lambda(lam, q) at tol 1e-60, recorded from the
# two-sided product with its doubled frequency threaded through as a
# separate factor; each 2*lam*q is a field element with integer traces
PHI_LAMBDA_FROZEN = [
    (GOLDEN, Fraction(1, 3), (Fraction(-3, 10), Fraction(3, 5)),
     "0.0424974234054296298790338847269397092854299667791811346325366"),
    (GOLDEN, HALF, (Fraction(-2, 5), Fraction(4, 5)),
     "0.0027597439072317495356922094537241819923038992285754098468191"),
    (TRIBONACCI, HALF, (0, HALF, HALF),
     "0.00471348648168798954205458254971116632963424663326012345740184"),
    (SILVER, Fraction(1, 3), (Fraction(3, 2), 0),
     "0.0491439580769237987164476170216799822655090800725937871049558"),
    (SILVER, HALF, (HALF, HALF),
     "0.18577261461321156943924573451681653323019729233048854427309"),
]


def _rounding_of(digits: str):
    # half a unit in the last of the 60 significant digits a frozen string
    # was printed to (mp.nstr drops trailing zeros)
    want = mp.mpf(digits)
    return want, mp.mpf(10) ** (mp.floor(mp.log10(want)) - 59) / 2


@pytest.mark.parametrize("P, lam, q, want", PHI_LAMBDA_FROZEN,
                         ids=["golden-1/3", "golden-1/2", "tribonacci-1/2",
                              "silver-1/3", "silver-1/2"])
def test_phi_lambda_frozen_on_field_arguments(P, lam, q, want):
    # the strings pin the last digit of an earlier truncation; today's
    # bracket is held to enclose them, as 60-digit roundings
    with mp.workprec(P.precision_bits + GUARD_BITS):
        value, err = phi_lambda(P, lam, P.field(q), tol=1e-60)
        want, half = _rounding_of(want)
        assert abs(value - want) <= err + half
        assert err <= value * mp.mpf(10) ** -59


def _textbook_two_sided(P, w, j_pos, n_neg, bits):
    # prod |cos(pi u)| over the exact u = w theta^j, j = 0..j_pos-1 and
    # j = -1..-n_neg, each factor taken at bits plus the size of u
    theta, theta_inv = P.theta_ring(), field_invert(P.theta_ring())
    orbit, u = [], w
    for _ in range(j_pos):
        orbit.append(u)
        u = u * theta
    u = w
    for _ in range(n_neg):
        u = u * theta_inv
        orbit.append(u)
    out = mp.mpf(1)
    for u in orbit:
        with mp.workprec(bits + _coeff_bits(u) + 8):
            f = abs(mp.cos(mp.pi * embed(u, 1, bits)))
        with mp.workprec(bits):
            out *= f
    return out


def _conjugate_sums(P, w, start, bits):
    # pi |s_j|, s_j = sum_{i>=2} w_i theta_i^j, for j = start, start + 1, ...
    # (u = w theta^j is -s_j mod 1), by mpc powers at bits
    with mp.workprec(bits):
        roots = [P.root_at(i, bits) for i in range(2, P.m + 1)]
        terms = [embed(w, i, bits) * r ** start
                 for i, r in zip(range(2, P.m + 1), roots)]
        while True:
            yield mp.pi * abs(mp.re(mp.fsum(terms)))
            terms = [z * r for z, r in zip(terms, roots)]


def _ascent_deep(P, w, start, bits, cut):
    # prod |cos(pi s_j)| for j >= start until pi C rho^j <= cut
    with mp.workprec(bits):
        x = mp.pi * mp.fsum(abs(embed(w, i, bits)) for i in range(2, P.m + 1))
        x *= P.rho ** start
        out = mp.mpf(1)
        for y in _conjugate_sums(P, w, start, bits):
            if x <= cut:
                return out
            out *= mp.cos(y)
            x *= P.rho


def _textbook_tail(P, w, J, N, bits):
    # exp(-sum_(n<=N) c_n sum_(j>=J) (pi s_j)^(2n)), the j-sum taken term by
    # term until pi C rho^j <= 2^-(bits/2 - 8): what is left is below
    # 2^-(bits - 16) / (1 - rho^2)
    with mp.workprec(bits):
        c = [0] + [2 ** (2 * n - 1) * (2 ** (2 * n) - 1)
                   * abs(mp.bernoulli(2 * n)) / (n * mp.factorial(2 * n))
                   for n in range(1, N + 1)]
        x = mp.pi * mp.fsum(abs(embed(w, i, bits)) for i in range(2, P.m + 1))
        x *= P.rho ** J
        cut = mp.ldexp(1, -(bits // 2 - 8))
        total = mp.mpf(0)
        for y in _conjugate_sums(P, w, J, bits):
            if x <= cut or not N:
                return mp.exp(-total)
            total += mp.fsum(c[n] * y ** (2 * n) for n in range(1, N + 1))
            x *= P.rho


def test_log_cos_coefficients():
    assert [spectrum._log_cos_coefficient(n) for n in range(1, 6)] == [
        Fraction(1, 2), Fraction(1, 12), Fraction(1, 45), Fraction(17, 2520),
        Fraction(31, 14175)]


@pytest.mark.parametrize("tol", [1e-3, 1e-20, 1e-60])
def test_ascent_terms_take_the_fewest_terms_and_the_widest_cut(tol):
    for P in (GOLDEN, TRIBONACCI, QUARTIC):
        N, cut = spectrum._ascent_terms(P.rho, tol)
        with mp.workprec(64):
            def remainder(x, n):
                return spectrum._series_remainder(x, P.rho, n)
            wider, start = cut * 17 / 16, mp.mpf(spectrum.ASCENT_CUT)
            assert remainder(cut, N) <= tol
            assert N == 0 or remainder(start, N - 1) > tol
            assert wider > 0.5 or remainder(wider, N) > tol * (1 - 2 ** -30)


PHI_KERNEL_BASES = {"golden": (1, 1), "tribonacci": (1, 1, 1),
                    "quartic": (1, 0, 0, 1), "silver": (2, 1), "ternary": (3,)}


@pytest.mark.parametrize("pb", [64, 256, 512])
@pytest.mark.parametrize("name", sorted(PHI_KERNEL_BASES))
def test_phi_kernel_within_its_derived_error(name, pb):
    P = build_pisot(PHI_KERNEL_BASES[name], pb)
    rng = random.Random(f"phi-{name}-{pb}")
    args = [P.field(tuple(rng.randint(-9, 9) for _ in range(P.m)))
            for _ in range(3)]
    args += [P.field(tuple(rng.randint(-10**6, 10**6) for _ in range(P.m))),
             P.field(P.theta_ring().coeffs)]   # u = 1 at j = -1
    cases = [(w, 1e-20) for w in args if not w.is_zero()]
    # phi_lambda's field arguments 2 lam q
    cases += [(P.field(q) * lam * 2, 1e-60)
              for Q, lam, q, _ in PHI_LAMBDA_FROZEN if Q.d == P.d]
    for w, tol in cases:
        with mp.workprec(pb + GUARD_BITS):
            plan = spectrum._phi_plan(P, w, tol)
        W, E = plan.W, plan.E
        assert E < 2 ** (W - pb - 12)
        value, _ = phi_biinfinite(P, w, tol)
        # the kernel's J cosines, its tail of N series terms and its n_neg
        # descending cosines, each taken exactly
        exact = _textbook_two_sided(P, w, plan.J, plan.n_neg, 2 * W)
        with mp.workprec(2 * W):
            exact *= _textbook_tail(P, w, plan.J, plan.N, W + 64)
            # E for the kernel; the exact factors and the result round at
            # pb + GUARD_BITS bits
            assert abs(value - exact) <= (mp.ldexp(E, -W)
                                          + mp.ldexp(1, -(pb + 62)))


@pytest.mark.parametrize("pb", [64, 256, 512])
@pytest.mark.parametrize("name", ["golden", "quartic", "silver",
                                  "tribonacci"])
def test_phi_within_its_bound_of_the_deep_product(name, pb):
    # the textbook product with its ascending side taken until
    # pi C rho^j <= 2^-(pb+12), and the plan's descending side: phi's
    # bound holds it, and so does the ascending side's share of it, the
    # series remainder tol and the kernel's E
    P = build_pisot(PHI_KERNEL_BASES[name], pb)
    rng = random.Random(f"deep-{name}-{pb}")
    args = [P.field(tuple(rng.randint(-9, 9) for _ in range(P.m)))
            for _ in range(2)]
    args += [P.field(q) * lam * 2
             for Q, lam, q, _ in PHI_LAMBDA_FROZEN if Q.d == P.d]
    for tol in (1e-20, 1e-60):
        for w in args:
            if w.is_zero():
                continue
            with mp.workprec(pb + GUARD_BITS):
                plan = spectrum._phi_plan(P, w, tol)
            value, err = phi_biinfinite(P, w, tol)
            # the textbook's own rounding, up to ~6000 factors, stays
            # below 2^-(pb+62)
            bits = plan.W + 64
            exact = _textbook_two_sided(P, w, plan.J, plan.n_neg, bits)
            with mp.workprec(bits):
                exact *= _ascent_deep(P, w, plan.J, bits,
                                      mp.ldexp(1, -(pb + 12)))
                gap = abs(value - exact)
                slack = mp.ldexp(1, -(pb + 62))
                assert gap <= err + slack
                kernel = mp.ldexp(plan.E, -plan.W)
                assert gap <= value * mp.expm1(tol) + kernel + slack


def _rational_orbit_walk(P, w, j_pos, n_neg):
    # the rational u = w theta^j along the whole exact orbit, j = 0..j_pos-1
    # and then j = -1..-n_neg
    theta, theta_inv = P.theta_ring(), field_invert(P.theta_ring())
    out, u = [], w
    for j in range(j_pos):
        if u.is_rational():
            out.append((j, u.as_fraction()))
        u = u * theta
    u = w
    for j in range(-1, -n_neg - 1, -1):
        u = u * theta_inv
        if u.is_rational():
            out.append((j, u.as_fraction()))
    return out


# plus x^2 - 2x - 2, whose d_m = 2 enters every denominator below j = 0
RATIONAL_BASES = dict(PHI_KERNEL_BASES, d_m_2=(2, 2))


@pytest.mark.parametrize("name", sorted(RATIONAL_BASES))
def test_rational_elements_match_the_orbit_walk(name):
    P = build_pisot(RATIONAL_BASES[name])
    rng = random.Random(f"rational-{name}")
    theta = P.theta_ring().to_field()
    args = [P.field(tuple(Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3)))
                          for _ in range(P.m))) for _ in range(8)]
    args += [theta,                                       # u = 1 at j = -1
             P.field(Fraction(-5, 2)),                    # rational at j = 0
             field_invert(ring_theta_pow(P, 7)) * 5,      # u = 5 at j = 7
             ring_theta_pow(P, 12) * Fraction(1, 3),      # u = 1/3 at j = -12
             # |w_2| ~ 2^-139 on golden, below embed's noise at 53 bits
             ring_theta_pow(P, 200).to_field()]
    for w in args:
        if w.is_zero():
            continue
        moduli = (abs(embed(w, 1)), abs(embed(w, 2))) if P.m > 1 else None
        got = list(spectrum._rational_elements(P, w, 40, 210, moduli))
        assert got == _rational_orbit_walk(P, w, 40, 210)
        if P.m > 1:
            assert len(got) <= 1


def test_phi_lambda_divergence_raises():
    # 2 * (1/3) is not a trace-integral element of Q(theta) on tribonacci
    with pytest.raises(ValueError, match="diverges"):
        phi_lambda(TRIBONACCI, Fraction(1, 3), 1)
    with pytest.raises(ValueError, match="diverges"):
        product_law_residual(TRIBONACCI, Fraction(1, 3), 1, 1, 2)


def test_tail_identity_and_frozen_values():
    rng = random.Random(70303)
    with mp.workprec(300):
        for x, want in [(1, "0.02206522473674145"), (2, "0.0005422455285956051"),
                        (0.5, "0.08132338553788893"), (3, "0.003958628612102891"),
                        (1.5, "0.04985713585801390"), (1.3, "0.008221550304276338")]:
            value, err = tail_product(GOLDEN, x)
            assert abs(value - mp.mpf(want)) <= err + mp.mpf(10) ** -15
        for P in (GOLDEN, TRIBONACCI):
            for _ in range(30):
                x = rng.uniform(1e-3, 10.0)
                value, err = tail_product(P, x)
                res = mu_hat(P, x)
                assert abs(value - abs(res.value)) <= err + res.error_bound
        # field-element argument goes through the embedding route
        value, err = tail_product(GOLDEN, GOLDEN.field(Fraction(13, 10)))
        res = mu_hat(GOLDEN, Fraction(13, 10))
        assert abs(value - abs(res.value)) <= err + res.error_bound


def test_limit_value_trivial_cases():
    cand = limit_value(GOLDEN, [0], 0, 1)
    assert cand.predicted == 1
    assert cand.error_bound == 0
    with mp.workprec(300):
        cand = limit_value(GOLDEN, [0], 1, 1)
        assert abs(cand.predicted - mp.mpf("0.02206522473674145")) <= 1e-15


def test_limit_value_composes_factor_products():
    with mp.workprec(300):
        cand = limit_value(GOLDEN, [1, GOLDEN.ring((0, 1))], 1, 1)
        expected = mp.mpf(PHI_1) ** 2 * mp.mpf("0.02206522473674145")
        assert abs(cand.predicted - expected) <= cand.error_bound + mp.mpf(10) ** -18
        assert 0 <= cand.predicted <= 1


def test_limit_value_validation():
    with pytest.raises(ValueError):
        limit_value(GOLDEN, [], 0, 1)
    with pytest.raises(ValueError):
        limit_value(GOLDEN, [0], 0, 0)
    with pytest.raises(ValueError):
        limit_value(GOLDEN, [0], 0, -2)


def test_enumerate_height_zero_is_single_one():
    cands = enumerate_spectrum(GOLDEN, 1, 0, 0, 0, eta=1e-6)
    assert len(cands) == 1
    assert cands[0].predicted == 1


# window: golden, r=1, coefficients in [-1,1], lengths <= 2, |A| <= 2.
# frozen by the stage-2 oracle at floor 1e-6: seven distinct values.
WINDOW_R1 = [
    ("22", "1.0"),
    ("13", "0.02206522473674145"),
    ("18", "0.0066134930353441225"),
    ("4", "0.00054224552859560509"),
    ("9", "0.00014592821011974243"),
    ("207", "0.000043738290128545215"),
    ("0", "0.0000035861370268135265"),
]


def test_enumerate_window_frozen_contents():
    cands = enumerate_spectrum(GOLDEN, 1, 1, 1, 2, eta=1e-6)
    assert [c.id for c in cands] == [i for i, _ in WINDOW_R1]
    with mp.workprec(300):
        for cand, (_, want) in zip(cands, WINDOW_R1):
            assert abs(cand.predicted - mp.mpf(want)) <= cand.error_bound + mp.mpf(10) ** -15
        # the two named members: the base product and base*tail(2)
        values = [cand.predicted for cand in cands]
        assert any(abs(v - mp.mpf(PHI_1)) < 1e-12 for v in values)
        tail2 = tail_product(GOLDEN, 2)[0]
        assert any(abs(v - mp.mpf(PHI_1) * tail2) < 1e-12 for v in values)
    # descending and deduplicated beyond twice the tolerance
    for a, b in zip(cands, cands[1:]):
        assert a.predicted > b.predicted
        assert a.predicted - b.predicted > 2 * mp.mpf(1e-20)
    # a floor above every nontrivial value keeps only the trivial candidate
    top = enumerate_spectrum(GOLDEN, 1, 1, 1, 2, eta=0.05)
    assert [c.predicted for c in top] == [1]


def test_enumerate_candidate_invariants():
    cands = enumerate_spectrum(GOLDEN, HALF, 2, 1, 2, eta=1e-6)
    assert len(cands) == 15
    for cand in cands:
        assert 0 <= cand.predicted <= 1
        assert cand.error_bound >= 0
        assert cand.r == GOLDEN.field(HALF)
        assert len(cand.z_list) in (1, 2)
        assert abs(cand.A) <= 2


def test_enumerate_theta2_keeps_only_trivial():
    cands = enumerate_spectrum(build_pisot((2,)), 1, 1, 1, 2, eta=1e-6)
    assert [c.predicted for c in cands] == [1]


def test_enumerate_budget_cap():
    with pytest.raises(BudgetExceededError):
        enumerate_spectrum(GOLDEN, 1, 2, 2, 3, eta=1e-3, budget=1000)
    with pytest.raises(ValueError):
        enumerate_spectrum(GOLDEN, 1, 1, 1, 1, eta=0)


def test_enumerate_refuses_a_long_window_before_summing_it():
    # 9^20001 candidates: the refusal comes at the first list length whose
    # running count passes the budget, not after the whole sum
    with pytest.raises(BudgetExceededError, match="over the budget"):
        enumerate_spectrum(GOLDEN, 1, 1, 20000, 0)


def _full_walk(P, r, height, m_max, a_max, tol=1e-20):
    """Every candidate (id, A, vectors, value, error) of the window, built
    by the unpruned loop with a running id.  Each product runs as
    _compose_product runs it over the vectors' brackets and then the
    tail's: a list continues its prefix's running value, upper and lower
    products."""
    r_f = P.field(Fraction(r))
    vecs = list(itertools.product(range(-height, height + 1), repeat=P.m))
    out = []
    with mp.workprec(P.precision_bits + GUARD_BITS):
        def bracket(v, e):
            return v, v + e, max(mp.mpf(0), v - e)

        phi = [bracket(*phi_biinfinite(P, P.ring(vec), tol)) for vec in vecs]
        tail = {A: bracket(*tail_product(P, r_f * abs(A), tol))
                for A in range(-a_max, a_max + 1)}
        lists = [((), (mp.mpf(1),) * 3)]
        for M in range(m_max + 1):
            lists = [(combo + (vec,), (value * v, upper * v_up, lower * v_low))
                     for combo, (value, upper, lower) in lists
                     for vec, (v, v_up, v_low) in zip(vecs, phi)]
            for A in range(-a_max, a_max + 1):
                t, t_up, t_low = tail[A]
                for combo, (value, upper, lower) in lists:
                    value, upper, lower = value * t, upper * t_up, lower * t_low
                    out.append((str(len(out)), A, combo, value,
                                max(upper - value, value - lower)))
    return out


# the random windows below are small; keep their full walks for reuse
_small_full_walk = functools.lru_cache(maxsize=None)(_full_walk)


def _full_spectrum(P, full, eta, tol=1e-20):
    """A full walk merged at 2*tol (earliest id wins) and cut at eta."""
    with mp.workprec(P.precision_bits + GUARD_BITS):
        cands = sorted(full, key=lambda c: (c[3], int(c[0])))
        groups = [[cands[0]]]
        for c in cands[1:]:
            if c[3] - groups[-1][-1][3] > 2 * mp.mpf(tol):
                groups.append([c])
            else:
                groups[-1].append(c)
        kept = [min(g, key=lambda c: int(c[0])) for g in groups]
        kept = [c for c in kept if c[3] >= eta]
        return sorted(kept, key=lambda c: (-c[3], int(c[0])))


def _as_rows(cands):
    return [(c.id, c.A, tuple(z.coeffs for z in c.z_list), c.predicted,
             c.error_bound) for c in cands]


def _enumerate_counted(P, r, height, m_max, a_max, eta, tol=1e-20):
    """enumerate_spectrum's result, its number of composed candidates and
    its number of walks (one merge each)."""
    with mock.patch.object(spectrum, "_compose_product",
                           wraps=spectrum._compose_product) as compose, \
            mock.patch.object(spectrum, "_merge_groups",
                              wraps=spectrum._merge_groups) as merge:
        cands = enumerate_spectrum(P, r, height, m_max, a_max, tol=tol,
                                   eta=eta)
    return cands, compose.call_count, merge.call_count


# every window that the tests, the demos and the benchmark enumerate
USED_WINDOWS = [
    (GOLDEN, 1, 0, 0, 0, 1e-6),
    (GOLDEN, 1, 1, 1, 2, 1e-6),
    (GOLDEN, 1, 1, 1, 2, 0.05),
    (GOLDEN, 1, 1, 1, 1, 1e-3),
    (GOLDEN, HALF, 1, 1, 1, 1e-3),
    (GOLDEN, HALF, 2, 1, 2, 1e-6),
    (GOLDEN, 1, 2, 2, 1, 1e-3),
    (GOLDEN, 1, 2, 2, 3, 1e-3),
    (TRIBONACCI, 1, 1, 1, 2, 0.05),
    (BINARY, 1, 1, 1, 2, 1e-6),
    (TERNARY, 1, 11, 1, 2, 1e-3),
]


@pytest.mark.parametrize(
    "window", USED_WINDOWS,
    ids=[f"{P.d}-{r}-{h}-{mm}-{am}-{eta}" for P, r, h, mm, am, eta in USED_WINDOWS])
def test_enumerate_matches_full_walk_on_used_windows(window):
    P, r, height, m_max, a_max, eta = window
    got = enumerate_spectrum(P, r, height, m_max, a_max, eta=eta)
    full = _full_walk(P, r, height, m_max, a_max)
    assert _as_rows(got) == _full_spectrum(P, full, eta)


# lists of up to six vectors over one class (height 0: z = 0) and over two
# ({0} and {1, -1} of base 3), at an eta that keeps every list and at one
# that cuts the walk partway down
LONG_WINDOWS = [(GOLDEN, 1, 0, 5, 2, 1e-9), (TERNARY, 1, 1, 5, 1, 1e-9),
                (TERNARY, 1, 1, 5, 1, 0.05)]


@pytest.mark.parametrize(
    "window", LONG_WINDOWS,
    ids=[f"{P.d}-{h}-{mm}-{am}-{eta}" for P, _, h, mm, am, eta in LONG_WINDOWS])
def test_enumerate_matches_full_walk_on_long_lists(window):
    P, r, height, m_max, a_max, eta = window
    got, _, walks = _enumerate_counted(*window)
    assert _as_rows(got) == _full_spectrum(P, _full_walk(*window[:5]), eta)
    assert walks == 1
    if P is TERNARY and eta < 1e-3:
        # Phi(+-1)^k times a tail, each k under the id of its shortest list
        assert {len(c.z_list) for c in got} == set(range(1, m_max + 2))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from((GOLDEN, TRIBONACCI, BINARY)), st.sampled_from((1, HALF)),
       st.integers(0, 1), st.integers(0, 2), st.integers(0, 2),
       st.sampled_from((1e-20, 0.05)), st.integers(0, 10**6),
       st.sampled_from(("at", "above", "below")))
def test_enumerate_matches_full_walk_at_candidate_values(P, r, height, m_max,
                                                         a_max, tol, pick,
                                                         where):
    # m_max 2 lists three vectors, whose slot orders can round apart; at
    # tol 0.05 the merge bridges groups
    full = _small_full_walk(P, r, height, m_max, a_max, tol)
    values = sorted({c[3] for c in full if c[3] > 0})
    value = values[pick % len(values)]
    if where == "at":
        eta = value
    else:
        eta = math.nextafter(float(value), math.inf if where == "above" else 0)
    got, _, walks = _enumerate_counted(P, r, height, m_max, a_max, eta, tol)
    assert _as_rows(got) == _full_spectrum(P, full, eta, tol)
    if where == "at" and tol < 1e-3:
        # the walk at eta/2 settles it: no second, unpruned walk
        assert walks == 1


def test_enumerate_rewalks_when_a_wide_merge_crosses_the_cut():
    # at tol = 0.05 the values below 0.1 chain into one group that reaches
    # eta; its earliest id belongs to a candidate far below eta/2, which
    # only the unpruned walk sees
    window = (GOLDEN, 1, 1, 1, 2)
    full = _full_walk(*window, tol=0.05)
    got, _, walks = _enumerate_counted(*window, 0.01, tol=0.05)
    assert _as_rows(got) == _full_spectrum(GOLDEN, full, 0.01, tol=0.05)
    assert walks == 2


def _window_id(P, height, a_max, idx, A):
    """The window position of the vectors vecs[i], i in idx, and offset A."""
    n_vec = (2 * height + 1) ** P.m
    pos = sum((2 * a_max + 1) * n_vec ** k for k in range(1, len(idx)))
    pos += (A + a_max) * n_vec ** len(idx)
    digits = 0
    for i in idx:
        digits = digits * n_vec + i
    return pos + digits


def _lowest_mate(P, height, a_max, idx, A):
    """The lowest id of the candidates whose bits equal those of (idx, A):
    each vector the lower-indexed of +-z, A = -|A|, the first two slots
    ascending."""
    n_vec = (2 * height + 1) ** P.m
    idx = [min(i, n_vec - 1 - i) for i in idx]
    idx[:2] = sorted(idx[:2])
    return _window_id(P, height, a_max, idx, -abs(A))


@pytest.mark.parametrize(
    "window", USED_WINDOWS[1:8],
    ids=[f"{P.d}-{r}-{h}-{mm}-{am}-{eta}"
         for P, r, h, mm, am, eta in USED_WINDOWS[1:8]])
def test_enumerate_keeps_the_lowest_id_of_each_class(window):
    P, r, height, m_max, a_max, eta = window
    vecs = list(itertools.product(range(-height, height + 1), repeat=P.m))
    n_vec = len(vecs)
    for cand in enumerate_spectrum(P, r, height, m_max, a_max, eta=eta):
        idx = [vecs.index(z.coeffs) for z in cand.z_list]
        assert int(cand.id) == _window_id(P, height, a_max, idx, cand.A)
        # at tol 1e-20 every slot order of a multiset merges into one group
        lowest = sorted(min(i, n_vec - 1 - i) for i in idx)
        assert int(cand.id) == _window_id(P, height, a_max, lowest, -abs(cand.A))


def _ordered_leaves(P, r, height, m_max, a_max, thr, tol=1e-20):
    """(idx, A) of every candidate that a walk over ordered vector lists
    composes: each prefix's upper product times the tail's reaches thr."""
    r_f = P.field(Fraction(r))
    vecs = list(itertools.product(range(-height, height + 1), repeat=P.m))
    with mp.workprec(P.precision_bits + GUARD_BITS):
        ups = [v + e for v, e in (phi_biinfinite(P, P.ring(vec), tol)
                                  for vec in vecs)]
        leaves = []
        for A in range(-a_max, a_max + 1):
            v, e = tail_product(P, r_f * abs(A), tol)
            tail_up = v + e
            prefixes = [((), mp.mpf(1))]
            for _ in range(m_max + 1):
                prefixes = [(idx + (i,), up * ups[i])
                            for idx, up in prefixes for i in range(len(vecs))
                            if up * ups[i] * tail_up >= thr]
                leaves += [(idx, A) for idx, _ in prefixes]
    return leaves


def _rounded_apart_eta(P, height, tol=1e-20):
    """2 b, b the largest bound at A = 0 of an order of three vectors that
    exceeds the bound of the same vectors by descending upper bracket."""
    vecs = list(itertools.product(range(-height, height + 1), repeat=P.m))
    with mp.workprec(P.precision_bits + GUARD_BITS):
        ups = [v + e for v, e in (phi_biinfinite(P, P.ring(vec), tol)
                                  for vec in vecs)]
        v, e = tail_product(P, 0, tol)
        tail_up = v + e

        def bound(order):
            up = mp.mpf(1)
            for i in order:
                up *= ups[i]
            return up * tail_up

        best = 0
        for combo in itertools.combinations_with_replacement(
                range(len(vecs)), 3):
            top = max(bound(o) for o in itertools.permutations(combo))
            if bound(sorted(combo, key=lambda i: ups[i], reverse=True)) < top:
                best = max(best, top)
        assert best > 0
        return 2 * best


def test_enumerate_composes_every_candidate_of_the_ordered_walk():
    # thr = eta/2 is the bound of an order of three vectors whose order by
    # descending upper bracket rounds below it: the class walk must still
    # compose them
    window = (GOLDEN, 1, 1, 2, 1)
    height, a_max = window[2], window[4]
    eta = _rounded_apart_eta(GOLDEN, height)
    with mp.workprec(GOLDEN.precision_bits + GUARD_BITS):
        thr = eta / 2
    with mock.patch.object(spectrum, "SpectrumCandidate",
                           wraps=spectrum.SpectrumCandidate) as made:
        enumerate_spectrum(*window, eta=eta)
    composed = {int(c.kwargs["id"]) for c in made.call_args_list}
    leaves = _ordered_leaves(*window, thr)
    assert any(len(idx) == 3 for idx, _ in leaves)
    for idx, A in leaves:
        assert _lowest_mate(GOLDEN, height, a_max, idx, A) in composed


def test_enumerate_keeps_three_vector_orders_that_round_apart():
    # at a tol below the rounding, slot orders whose bits differ are values
    # of their own, each kept under its lowest id
    window, tol, eta = (GOLDEN, 1, 1, 2, 0), 1e-100, 1e-9
    full = _full_walk(*window, tol=tol)
    got, _, _ = _enumerate_counted(*window, eta, tol=tol)
    assert _as_rows(got) == _full_spectrum(GOLDEN, full, eta, tol=tol)
    values = {}
    for _, _, combo, value, _ in full:
        if len(combo) == 3 and value >= eta:
            key = tuple(sorted(max(z, tuple(-c for c in z)) for z in combo))
            values.setdefault(key, set()).add(value)
    assert any(len(v) > 1 for v in values.values())


# _compose_product calls of the benchmark's catalogue windows: one per
# slot order of each multiset whose bound reaches eta/2
CATALOGUE_COMPOSED = [((GOLDEN, 1, 2, 2, 1, 1e-3), 30),
                      ((GOLDEN, HALF, 2, 1, 2, 1e-6), 177),
                      ((TRIBONACCI, 1, 1, 1, 2, 0.05), 6)]


@pytest.mark.parametrize("window, count", CATALOGUE_COMPOSED,
                         ids=[str(i) for i in range(len(CATALOGUE_COMPOSED))])
def test_enumerate_composes_the_catalogue_windows_pinned_counts(window, count):
    _, composed, _ = _enumerate_counted(*window)
    assert composed == count


@pytest.mark.parametrize("pb", [64, 256])
def test_merge_key_orders_as_the_values(pb):
    prec = pb + GUARD_BITS
    rng = random.Random(f"merge-{pb}")
    with mp.workprec(prec):
        tiny = mp.ldexp(1, -(pb + 64))
        ulp = mp.ldexp(1, -(prec - 1))
        values = [mp.mpf(0), mp.mpf(0), mp.mpf(1), mp.mpf(1), mp.mpf("0.5"),
                  mp.mpf("0.75"), mp.mpf("0.625"), mp.mpf(3) / 4, mp.mpf(1) / 3,
                  mp.mpf(1) / 3 * (1 + ulp), mp.ldexp(3, -12), mp.ldexp(1, -10),
                  tiny, tiny * (1 + ulp), tiny * (1 - ulp / 2), tiny / 3,
                  tiny * 2, tiny * 3 / 2, mp.ldexp(1, -(pb + 65))]
        values += [mp.ldexp(rng.getrandbits(prec), -prec - rng.randrange(80))
                   for _ in range(20)]
    cands = [spectrum.SpectrumCandidate((), 0, None, v, mp.mpf(0), id=str(i))
             for i, v in enumerate(rng.sample(values, len(values)))]
    with mp.workprec(prec):
        for a, b in itertools.product(cands, repeat=2):
            want = (a.predicted, int(a.id)) < (b.predicted, int(b.id))
            assert (spectrum._merge_key(a, prec)
                    < spectrum._merge_key(b, prec)) == want


def test_synthesize_lucas_example():
    assert synthesize_sequence(GOLDEN, [1], 0, HALF, 10) == 123


def test_synthesize_constant_when_z_vanishes():
    for P in (GOLDEN, TRIBONACCI):
        for k in (1, 3, 7):
            assert synthesize_sequence(P, [0], 5, HALF, k) == 5


def test_synthesize_gap_trend():
    # frozen by the stage-2 oracle: gaps 1.24e-5, 2.64e-7, 5.63e-9
    with mp.workprec(300):
        predicted = phi_biinfinite(GOLDEN, 1)[0]
        gaps = []
        for k in (10, 14, 18):
            n_k = synthesize_sequence(GOLDEN, [1], 0, HALF, k)
            value = abs(mu_hat(GOLDEN, 0.5 * n_k).value)
            gaps.append(abs(value - predicted))
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[0] <= 1e-3
        assert gaps[2] <= 1e-8


def test_synthesize_ambiguous_near_half_integer():
    # theta^187 / 2 sits within 2^-130 of a half-odd integer (the odd
    # trace term), inside the 2^-128 ambiguity margin at 256 bits
    with pytest.raises(AmbiguousRoundingError):
        synthesize_sequence(GOLDEN, [1], 0, 1, 187)


def test_synthesize_validation():
    with pytest.raises(ValueError):
        synthesize_sequence(GOLDEN, [1], 0, HALF, 0)
    with pytest.raises(ValueError):
        synthesize_sequence(GOLDEN, [], 0, HALF, 1)
    with pytest.raises(ValueError):
        synthesize_sequence(GOLDEN, [1], 0, 0, 1)


# realization ks frozen by the stage-2 oracle for the r=1/2 window below:
# smallest k <= 25 with | |mu_hat(n_k/2)| - predicted | <= 1e-3, per id
REALIZATION_KS = {
    "62": 1, "37": 1, "12": 1, "53": 8, "28": 4, "50": 4, "3": 3,
    "51": 2, "1453": 2, "25": 1, "0": 3, "26": 5, "828": 3, "1378": 2,
}


def test_realization_at_recorded_k():
    cands = enumerate_spectrum(GOLDEN, HALF, 2, 1, 2, eta=1e-6)
    by_id = {c.id: c for c in cands}
    assert set(REALIZATION_KS) <= set(by_id)
    with mp.workprec(300):
        for cid, k in REALIZATION_KS.items():
            cand = by_id[cid]
            n_k = synthesize_sequence(GOLDEN, list(cand.z_list), cand.A, HALF, k)
            value = abs(mu_hat(GOLDEN, 0.5 * n_k).value)
            assert abs(value - cand.predicted) <= 1e-3


def test_product_law_zero_second_part():
    assert product_law_residual(GOLDEN, 1, 1, 0, 5) == 0


def test_product_law_frozen_bounds():
    # stage-2 oracle: worst n=40 residual over {1,theta,1+theta}^3 was
    # 1.708e-12; every triple had residual(40) < residual(10)
    r40 = product_law_residual(GOLDEN, 1, 1, 1, 40)
    r10 = product_law_residual(GOLDEN, 1, 1, 1, 10)
    assert r40 <= 5e-12
    assert r40 < r10
    theta = GOLDEN.ring((0, 1))
    one_plus = GOLDEN.ring((1, 1))
    assert product_law_residual(GOLDEN, theta, one_plus, 1, 40) <= 5e-12


def test_product_law_validation():
    with pytest.raises(ValueError):
        product_law_residual(GOLDEN, 1, 1, 1, 0)


# 60-digit residuals at tol 1e-60 on field arguments (see PHI_LAMBDA_FROZEN)
RESIDUAL_FROZEN = [
    (GOLDEN, Fraction(1, 3), (Fraction(-3, 10), Fraction(3, 5)),
     (Fraction(3, 2), 0), 5,
     "0.0000303469312535604570638289379972904938153677396589507891396618"),
    (TRIBONACCI, HALF, (0, HALF, HALF), (HALF, 0, HALF), 4,
     "0.000335450539149659632471033022198465028364912486453819776056318"),
    (SILVER, Fraction(1, 3), (Fraction(3, 2), 0),
     (Fraction(3, 4), Fraction(3, 4)), 3,
     "0.00749427066671388569962553170122205688809241230429826087339984"),
]


@pytest.mark.parametrize("P, lam, a, b, n, want", RESIDUAL_FROZEN,
                         ids=["golden", "tribonacci", "silver"])
def test_product_law_frozen_on_field_arguments(P, lam, a, b, n, want):
    # the strings pin an earlier truncation's last digit (see
    # PHI_LAMBDA_FROZEN); today's residual is held to enclose them, in the
    # bracket propagated from its three phi values
    a, b = P.field(a), P.field(b)
    with mp.workprec(P.precision_bits + GUARD_BITS):
        got = product_law_residual(P, lam, a, b, n, tol=1e-60)
        (vj, ej), (vl, el), (vr, er) = (
            phi_lambda(P, lam, q, tol=1e-60)
            for q in (a + b * ring_theta_pow(P, n), a, b))
        assert got == abs(vj - vl * vr)
        want, half = _rounding_of(want)
        assert abs(got - want) <= ej + el * vr + er * vl + el * er + half
