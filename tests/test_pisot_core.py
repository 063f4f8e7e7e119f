"""Certification, exact ring/field arithmetic, and nearest-integer machinery."""

import math
import random
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pisot_spectra import (
    AmbiguousRoundingError,
    FieldElement,
    MinimalPolynomial,
    NoDominantRealRootError,
    NotPisotError,
    NotSquarefreeError,
    PisotNumber,
    PrecisionExhaustedError,
    RingElement,
    build_pisot,
    dist_decay,
    embed,
    field_invert,
    nearest_int_data,
    ring_theta_pow,
)
from pisot_spectra import pisot
from pisot_spectra.pisot import (
    GUARD_BITS,
    _div_by_theta_scaled,
    _mul_by_theta,
    _nearest_int,
    _newton_refine,
    _root_estimates,
    _theta_columns,
)

GOLDEN = build_pisot((1, 1))
TRIBONACCI = build_pisot((1, 1, 1))
QUARTIC = build_pisot((1, 0, 0, 1))
BASES = (GOLDEN, TRIBONACCI, QUARTIC)


def test_golden_certificate():
    with mp.workprec(128):
        assert abs(GOLDEN.theta - mp.mpf("1.6180339887498948482")) < 1e-18
        assert len(GOLDEN.conjugates) == 1
        assert abs(GOLDEN.conjugates[0] - mp.mpf("-0.6180339887498948482")) < 1e-18
        assert abs(GOLDEN.rho - mp.mpf("0.6180339887498948482")) < 1e-18
    assert GOLDEN.delta_max == Fraction(1, 3)
    assert GOLDEN.precision_bits == 256


def test_tribonacci_certificate():
    with mp.workprec(128):
        assert abs(TRIBONACCI.theta - mp.mpf("1.8392867552141611")) < 1e-15
        # the two complex conjugates share modulus theta^(-1/2)
        assert abs(TRIBONACCI.rho - mp.mpf("0.7373527057603277")) < 1e-15
        assert abs(TRIBONACCI.rho - 1 / mp.sqrt(TRIBONACCI.theta)) < 1e-30
    assert TRIBONACCI.delta_max == Fraction(1, 4)


def test_quartic_certificate():
    with mp.workprec(128):
        assert abs(QUARTIC.theta - mp.mpf("1.3802775690976141")) < 1e-15
        assert abs(QUARTIC.rho - mp.mpf("0.9404356826994166")) < 1e-15
    assert len(QUARTIC.conjugates) == 3
    assert QUARTIC.delta_max == Fraction(1, 3)


@pytest.mark.parametrize("n", range(3, 11))
def test_integer_theta(n):
    P = build_pisot((n,))
    assert P.theta == n
    assert P.conjugates == ()
    assert P.rho == 0
    assert P.delta_max == Fraction(1, 1 + n)


def test_certification_residuals():
    for P in (GOLDEN, TRIBONACCI, QUARTIC):
        cap = mp.mpf(2) ** (-(P.precision_bits - 16))
        with mp.workprec(P.precision_bits + 64):
            assert abs(P.poly(P.theta)) <= cap
            for c in P.conjugates:
                assert abs(P.poly(c)) <= cap


def _np_roots_route(d, pb):
    # the former route: float64 companion-matrix estimates (np.roots),
    # Newton-refined at pb + GUARD_BITS bits
    import numpy as np
    poly, work = MinimalPolynomial(tuple(d)), pb + GUARD_BITS
    with mp.workprec(work):
        return [_newton_refine(poly, mp.mpc(complex(r)), work)
                for r in np.roots([1.0] + [-float(c) for c in d])]


# the bases of the golden files; the fixed-point Newton iteration takes
# both routes' estimates to the same refined roots, bit for bit
GOLDEN_FILE_BASES = [(1, 1), (1, 1, 1), (1, 0, 0, 1), (2,), (2, 1)]


@pytest.mark.parametrize("pb", [64, 256, 512])
@pytest.mark.parametrize("d", GOLDEN_FILE_BASES)
def test_refined_roots_match_the_np_roots_route(d, pb):
    P = build_pisot(d, pb)
    roots = [P.theta, *P.conjugates]
    if len(d) == 1:
        assert roots == [d[0]]
        return
    reference = _np_roots_route(d, pb)
    with mp.workprec(pb + GUARD_BITS + 64):
        pairs = [(r, min(reference, key=lambda q: abs(q - r))) for r in roots]
        assert len({id(q) for _, q in pairs}) == len(d)
        assert all(r == q for r, q in pairs)


@pytest.mark.parametrize("pb", [64, 256])
@pytest.mark.parametrize("d", [(1, 1), (1, 1, 1), (1, 0, 0, 1), (2, 1),
                               (3, -1), (1, 1, 1, 1, 1, 1, 1), (100, 1)])
def test_newton_refine_matches_polyroots_at_twice_the_precision(d, pb):
    # the certified roots (refined at pb + GUARD_BITS bits) and root_at's
    # refinements in buckets above pb; rounding to work + 32 bits is the
    # only error that shows at this size
    P = build_pisot(d, pb)
    refined = [(pb + GUARD_BITS, [P.theta, *P.conjugates])]
    for prec in (pb + 100, 2 * pb + 64):
        bucket = ((prec + 63) // 64) * 64
        refined.append((bucket + GUARD_BITS,
                        [P.root_at(i, prec) for i in range(1, P.m + 1)]))
    for work, roots in refined:
        with mp.workprec(2 * work):
            reference = mp.polyroots([mp.mpf(c) for c in P.poly.monic_desc()],
                                     maxsteps=200, extraprec=2 * work)
            assert len(reference) == len(d)
            for q in reference:
                r = min(roots, key=lambda r: abs(r - q))
                assert abs(r - q) <= mp.mpf(2) ** -(work + 30) * max(1, abs(q))


@pytest.mark.parametrize("d", [(1, 1), (1, 1, 1), (1, 0, 0, 1), (2, 1),
                               (3, -1), (1, 1, 1, 1, 1, 1, 1), (100, 1)])
def test_root_estimates_settle_near_every_root(d):
    import numpy as np
    z = _root_estimates(MinimalPolynomial(d))
    reference = np.roots([1.0] + [-float(c) for c in d])
    scale = 1 + max(abs(c) for c in d)
    assert max(min(abs(a - b) for b in reference) for a in z) < 1e-12 * scale


def test_no_real_root_rejected():
    # x^2 - x + 1 has only complex roots
    with pytest.raises(NoDominantRealRootError):
        build_pisot((1, -1))
    # the subclass must still be catchable as NotPisot
    with pytest.raises(NotPisotError):
        build_pisot((1, -1))


def test_salem_rejected():
    # x^4 - x^3 - x^2 - x + 1 is reciprocal: two roots sit on the unit circle
    with pytest.raises(NotPisotError):
        build_pisot((1, 1, 1, -1))


def test_repeated_root_rejected():
    # x^2 - 2x + 1 = (x-1)^2
    with pytest.raises(NotSquarefreeError):
        build_pisot((2, -1))


def test_zero_constant_term_rejected():
    # x * (x^2 - x - 1) would smuggle a reducible polynomial past the root checks
    with pytest.raises(NotPisotError):
        build_pisot((1, 1, 0))


def test_reducible_squarefree_rejected():
    # x^2 - x - 2 = (x-2)(x+1): squarefree but the root -1 is not inside the disk
    with pytest.raises(NotPisotError):
        build_pisot((1, 2))


def test_low_precision_rejected():
    with pytest.raises(ValueError):
        build_pisot((1, 1), precision_bits=32)


def test_build_pisot_certifies_each_base_once():
    # the digits are read as a tuple of ints, so a list names the same base
    P = build_pisot((1, 1))
    assert build_pisot([1, 1]) is P
    assert build_pisot((1, 1)) is P
    assert build_pisot((1, 1), precision_bits=256) is P


@pytest.mark.parametrize("d", [(1.5, 1.9), ("1", "1"), (Fraction(3, 2), 1),
                               (1.0, 1.0)],
                         ids=["floats", "strings", "fraction", "integral-floats"])
def test_build_pisot_refuses_digits_that_are_not_integers(d):
    # (1.0, 1.0) equals the cached key (1, 1): the digits are read first
    P = build_pisot((1, 1))
    with pytest.raises(ValueError, match="coefficients must be integers"):
        build_pisot(d)
    import numpy as np
    assert build_pisot(np.array([1, 1], dtype=np.int64)) is P


def test_build_pisot_keys_on_precision():
    low, high = build_pisot((1, 1, 1), 256), build_pisot((1, 1, 1), 512)
    assert low is not high
    assert (low.precision_bits, high.precision_bits) == (256, 512)
    assert build_pisot((1, 1, 1), 512) is high
    # each instance keeps its own roots, at least at its own precision
    assert high.root_at(1, 64) is high.root_at(1, 512)
    assert low.root_at(1, 64) is low.root_at(1, 256)
    assert high.root_at(1, 512) is not low.root_at(1, 256)


@pytest.mark.parametrize("d, error", [((1, 1, 1, -1), NotPisotError),
                                      ((2, -1), NotSquarefreeError),
                                      ((1, -1), NoDominantRealRootError)])
def test_build_pisot_refuses_on_every_call(d, error):
    for _ in range(2):
        with pytest.raises(error):
            build_pisot(d)


def test_ring_basics():
    assert ring_theta_pow(GOLDEN, 0).coeffs == (1, 0)
    assert ring_theta_pow(GOLDEN, 2).coeffs == (1, 1)
    assert ring_theta_pow(GOLDEN, 10).coeffs == (34, 55)
    theta = GOLDEN.theta_ring()
    assert theta * (theta - 1) == 1
    assert (GOLDEN.ring((2, 3)) + GOLDEN.ring((-1, 4))).coeffs == (1, 7)
    with pytest.raises(ValueError):
        ring_theta_pow(GOLDEN, -1)


def test_ring_scalar_and_promotion():
    z = GOLDEN.ring((2, 3))
    assert (z * 2).coeffs == (4, 6)
    assert (2 * z).coeffs == (4, 6)
    assert (z + 1).coeffs == (3, 3)
    half = z * Fraction(1, 2)
    assert isinstance(half, FieldElement)
    assert half.coeffs == (Fraction(1), Fraction(3, 2))
    assert (half + half) == z
    q = GOLDEN.field((Fraction(1, 2), Fraction(-1, 3)))
    assert (q / q) == 1


def test_cross_pisot_arithmetic_rejected():
    with pytest.raises(ValueError):
        GOLDEN.ring((1, 0)) + TRIBONACCI.ring((1, 0, 0))


def test_immutability():
    z = GOLDEN.ring((1, 2))
    with pytest.raises(AttributeError):
        z.coeffs = (0, 0)
    with pytest.raises(Exception):
        GOLDEN.rho = 0


def test_equality_and_hash():
    assert GOLDEN == build_pisot((1, 1), precision_bits=320)
    assert GOLDEN != TRIBONACCI
    assert GOLDEN.ring((1, 2)) == GOLDEN.ring((1, 2))
    assert hash(GOLDEN.ring((1, 2))) == hash(GOLDEN.ring((1, 2)))
    assert GOLDEN.ring(5) == 5
    assert GOLDEN.field(Fraction(3, 2)) == Fraction(3, 2)


def test_embed_examples():
    with mp.workprec(300):
        x = GOLDEN.ring((0, 1))
        assert abs(embed(x, 1) - GOLDEN.theta) < 1e-70
        assert abs(embed(x, 2) - GOLDEN.conjugates[0]) < 1e-70
        one = TRIBONACCI.ring((1, 0, 0))
        for i in (1, 2, 3):
            assert abs(embed(one, i) - 1) < 1e-70
    with pytest.raises(ValueError):
        embed(x, 3)


@settings(max_examples=150, deadline=None)
@given(
    st.tuples(st.integers(-100, 100), st.integers(-100, 100)),
    st.tuples(st.integers(-100, 100), st.integers(-100, 100)),
)
def test_embed_is_ring_homomorphism(ac, bc):
    a, b = GOLDEN.ring(ac), GOLDEN.ring(bc)
    with mp.workprec(GOLDEN.precision_bits + 64):
        tol = mp.mpf(2) ** (-(GOLDEN.precision_bits - 24))
        for i in (1, 2):
            lhs = embed(a * b, i)
            rhs = embed(a, i) * embed(b, i)
            assert abs(lhs - rhs) <= tol


def test_nearest_int_examples():
    with mp.workprec(300):
        K, delta = nearest_int_data(GOLDEN.ring(1), 4)
        assert K == 7
        assert abs(delta - mp.mpf("-0.14589803375031545539")) < 1e-18

        K0, d0 = nearest_int_data(GOLDEN.ring(1), 0)
        assert (K0, d0) == (1, 0)

        K10, d10 = nearest_int_data(GOLDEN.ring(1), 10)
        assert K10 == 123
        assert abs(abs(d10) - GOLDEN.theta ** -10) < 1e-40
        assert abs(abs(d10) - mp.mpf("0.008130618755782972")) < 1e-15


def test_nearest_int_delta_convention():
    # delta lands in (-1/2, 1/2]: theta^1 = 1.618 rounds to K=2, delta<0
    K, delta = nearest_int_data(GOLDEN.ring(1), 1)
    assert K == 2
    assert -mp.mpf(1) / 2 < delta <= mp.mpf(1) / 2
    assert delta < 0


def test_nearest_int_rational_shortcut():
    P2 = build_pisot((2,))
    K, delta = nearest_int_data(P2.ring(3), 4)
    assert (K, delta) == (48, 0)
    K, delta = nearest_int_data(GOLDEN.ring(7), 0)
    assert (K, delta) == (7, 0)


def test_nearest_int_precision_precondition():
    P = build_pisot((1, 1), precision_bits=64)
    with pytest.raises(PrecisionExhaustedError):
        nearest_int_data(P.ring(1), 95)


def test_nearest_int_ambiguous_half():
    # Continued-fraction convergents p/q of sqrt(5) make q*theta = (q + p)/2
    # up to ~1/(8q), within 2^-128 of a half-odd integer for large q,
    # which must trip the ambiguity guard rather than round silently.
    p_prev, p = 2, 9
    q_prev, q = 1, 4
    for _ in range(64):
        p_prev, p = p, 4 * p + p_prev
        q_prev, q = q, 4 * q + q_prev
    assert (p + q) % 2 == 1
    with pytest.raises(AmbiguousRoundingError):
        nearest_int_data(GOLDEN.ring((0, q)), 0)


def test_trace_route_crosscheck():
    # delta must equal minus the conjugate trace whenever that trace is small
    rng = random.Random(4021)
    margin = mp.mpf(2) ** -128
    for P in (GOLDEN, TRIBONACCI):
        for _ in range(60):
            z = P.ring(tuple(rng.randint(-50, 50) for _ in range(P.m)))
            j = rng.randint(0, 60)
            with mp.workprec(P.precision_bits + 64):
                trace = sum(
                    embed(z, i) * P.conjugates[i - 2] ** j for i in range(2, P.m + 1)
                )
                if abs(trace) >= mp.mpf(1) / 2 - margin:
                    continue
                _, delta = nearest_int_data(z, j)
                assert abs(delta - (-mp.re(trace))) <= margin


def test_dist_decay_golden_unit():
    with mp.workprec(300):
        dists, c_z = dist_decay(GOLDEN.ring(1), 30)
        # conjugate embedding of the constant 1 is 1, and the bound
        # ||theta^j|| = rho^j makes any smaller constant unsound
        assert abs(c_z - 1) < 1e-70
        for j in range(2, 31):
            # ||theta^j|| is exactly theta^-j once the conjugate term is < 1/2
            assert abs(dists[j] - GOLDEN.theta ** -j) < mp.mpf(2) ** -200


def test_dist_decay_zero():
    dists, c_z = dist_decay(GOLDEN.ring(0), 10)
    assert c_z == 0
    assert all(d == 0 for d in dists)


def test_dist_decay_shift():
    # z = 1 + theta = theta^2, so its distance list is the unit list shifted
    base, _ = dist_decay(GOLDEN.ring(1), 12)
    shifted, _ = dist_decay(GOLDEN.ring((1, 1)), 10)
    for j in range(11):
        assert abs(shifted[j] - base[j + 2]) < mp.mpf(2) ** -200


def test_dist_decay_bound():
    rng = random.Random(977)
    for P in (GOLDEN, TRIBONACCI, QUARTIC):
        for _ in range(25):
            z = P.ring(tuple(rng.randint(-20, 20) for _ in range(P.m)))
            with mp.workprec(300):
                dists, c_z = dist_decay(z, 40)
                for j, dist in enumerate(dists):
                    cap = c_z * P.rho ** j
                    if cap < mp.mpf(1) / 2:
                        assert dist <= cap * (1 + mp.mpf(2) ** -100)


def test_field_invert_examples():
    assert field_invert(GOLDEN.theta_ring()).coeffs == (-1, 1)
    assert field_invert(GOLDEN.field(Fraction(1, 2))) == 2
    assert field_invert(TRIBONACCI.theta_ring()).coeffs == (-1, -1, 1)
    with pytest.raises(ZeroDivisionError):
        field_invert(GOLDEN.field(0))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(BASES), st.floats(-1e12, 1e12))
def test_nearest_int_splits_into_integer_and_remainder(P, t):
    pb = P.precision_bits
    with mp.workprec(pb + GUARD_BITS):
        half = mp.mpf(1) / 2
        x = t * P.theta_at(pb + GUARD_BITS)
        K, delta = _nearest_int(x, pb, "x")
        assert isinstance(K, int)
        assert -half < delta <= half
        assert K + delta == x
        # an exact half-integer rounds down, leaving delta = +1/2
        h = mp.floor(x) + half
        assert _nearest_int(h, pb, "h", exact=True) == (int(mp.floor(x)), half)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(BASES), st.floats(-1e12, 1e12),
       st.floats(-1, 1, exclude_min=True, exclude_max=True))
def test_nearest_int_rejects_values_near_half_integers(P, t, offset):
    pb = P.precision_bits
    with mp.workprec(pb + GUARD_BITS):
        margin = mp.mpf(2) ** (-(pb // 2))
        h = mp.floor(t * P.theta_at(pb + GUARD_BITS)) + mp.mpf(1) / 2
        with pytest.raises(AmbiguousRoundingError):
            _nearest_int(h + offset * margin, pb, "x")
        K, _ = _nearest_int(h + offset * margin, pb, "x", exact=True)
        assert K in (int(h - mp.mpf(1) / 2), int(h + mp.mpf(1) / 2))
        for outside in (h - 2 * margin, h + 2 * margin):
            K, delta = _nearest_int(outside, pb, "x")
            assert K + delta == outside


# digit vectors that are not palindromes: x^2 - 2x - 1, x^2 - 3x + 1, x^3 - x - 1
NON_PALINDROMIC = (build_pisot((2, 1)), build_pisot((3, -1)), build_pisot((0, 1, 1)))


def test_theta_inverse_field():
    for P in (GOLDEN, TRIBONACCI, QUARTIC, build_pisot((3,))) + NON_PALINDROMIC:
        inv = field_invert(P.theta_ring())
        assert inv * P.theta_ring() == 1


@settings(max_examples=120, deadline=None)
@given(
    st.sampled_from((TRIBONACCI,) + NON_PALINDROMIC),
    st.lists(
        st.fractions(
            min_value=-5, max_value=5, max_denominator=7
        ),
        min_size=3,
        max_size=3,
    )
)
def test_field_invert_roundtrip(P, coeffs):
    r = P.field(tuple(coeffs[:P.m]))
    if r.is_zero():
        with pytest.raises(ZeroDivisionError):
            field_invert(r)
    else:
        assert field_invert(r) * r == 1


def _newton_power_sums(d, count):
    """Sums p_k of the k-th powers of the roots of x^m - d_1 x^(m-1) - ...
    - d_m, k < count: Newton's identities up to the degree, then the
    recurrence the roots share."""
    m = len(d)
    # elementary symmetric functions: e_i = (-1)^(i+1) d_i
    e = [d[i - 1] if i % 2 == 1 else -d[i - 1] for i in range(1, m + 1)]
    p = [m]
    for k in range(1, count):
        if k <= m:
            acc = (-1) ** (k - 1) * k * e[k - 1]
            for i in range(1, k):
                acc += (-1) ** (i - 1) * e[i - 1] * p[k - i]
        else:
            acc = sum(d[i] * p[k - 1 - i] for i in range(m))
        p.append(acc)
    return p


def _trace(coeffs, d):
    return sum(col[i] for i, col in enumerate(_theta_columns(coeffs, d)))


@pytest.mark.parametrize("d", [(1, 1), (1, 1, 1), (1, 0, 0, 1), (2, 1),
                               (3, -1), (0, 1, 1), (2,), (3,)])
def test_theta_columns_give_newton_traces(d):
    m = len(d)
    p = _newton_power_sums(d, 3 * m + 2)
    power = [1] + [0] * (m - 1)
    for k in range(3 * m + 2):
        assert _trace(power, d) == p[k]
        power = _mul_by_theta(power, d)
    # the trace is linear: Tr(x theta^j) = sum_k x_k p_(k+j), j < m
    rng = random.Random(hash(d))
    for _ in range(5):
        x = [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(m)]
        for j, col in enumerate(_theta_columns(x, d)):
            assert _trace(col, d) == sum(x[k] * p[k + j] for k in range(m))


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from((GOLDEN, TRIBONACCI, QUARTIC, build_pisot((2, 1)),
                     build_pisot((3, 2)))),
    st.lists(st.fractions(min_value=-50, max_value=50, max_denominator=9),
             min_size=4, max_size=4),
)
def test_div_by_theta_inverts_mul_by_theta(P, coeffs):
    # the step down returns d_m c / theta; x^2 - 3x - 2 has d_m = 2
    c, dm = coeffs[:P.m], P.d[-1]
    scaled = [dm * x for x in c]
    assert _div_by_theta_scaled(_mul_by_theta(c, P.d), P.d) == scaled
    assert _mul_by_theta(_div_by_theta_scaled(c, P.d), P.d) == scaled
    v = P.field(tuple(c))
    assert (P.field(tuple(_div_by_theta_scaled(c, P.d)))
            == v * field_invert(P.theta_ring()) * dm)
    ints = [x.numerator for x in c]
    assert all(isinstance(x, int) for x in _div_by_theta_scaled(ints, P.d))


OPERAND_KINDS = ("int", "fraction", "ring", "field")
SMALL = st.integers(-20, 20)
SMALL_Q = st.fractions(min_value=-20, max_value=20, max_denominator=9)


def _draw_operand(data, P, kind):
    if kind == "int":
        return data.draw(SMALL)
    if kind == "fraction":
        return data.draw(SMALL_Q)
    if kind == "ring":
        return P.ring(tuple(data.draw(SMALL) for _ in range(P.m)))
    return P.field(tuple(data.draw(SMALL_Q) for _ in range(P.m)))


def _vector(P, x):
    """Coefficients of x over Fraction; a scalar sits in the constant slot."""
    if isinstance(x, (RingElement, FieldElement)):
        return tuple(Fraction(c) for c in x.coeffs)
    return (Fraction(x),) + (Fraction(0),) * (P.m - 1)


def _real(x):
    if isinstance(x, (RingElement, FieldElement)):
        return embed(x, 1, 300)
    x = Fraction(x)
    return mp.mpf(x.numerator) / x.denominator


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(BASES), st.sampled_from(OPERAND_KINDS),
       st.sampled_from(OPERAND_KINDS), st.data())
def test_element_arithmetic_promotion_and_embedding(P, ka, kb, data):
    if ka in ("int", "fraction") and kb in ("int", "fraction"):
        kb = "ring"
    a, b = _draw_operand(data, P, ka), _draw_operand(data, P, kb)
    # a result stays in Z[theta] only when neither operand is a Fraction or
    # a field element
    ring_result = {ka, kb} <= {"int", "ring"}
    ops = {"+": lambda x, y: x + y, "-": lambda x, y: x - y,
           "*": lambda x, y: x * y, "/": lambda x, y: x / y}
    with mp.workprec(300 + GUARD_BITS):
        ea, eb = _real(a), _real(b)
        for name, op in ops.items():
            if name == "/" and "field" not in (ka, kb):
                with pytest.raises(TypeError):
                    op(a, b)
                continue
            if name == "/" and all(c == 0 for c in _vector(P, b)):
                with pytest.raises(ZeroDivisionError):
                    op(a, b)
                continue
            out = op(a, b)
            if ring_result and name != "/":
                assert type(out) is RingElement
                assert all(type(c) is int for c in out.coeffs)
                as_field = out.to_field()
                assert as_field == out and out == as_field
                assert hash(as_field) == hash(out)
            else:
                assert type(out) is FieldElement
                assert all(type(c) is Fraction for c in out.coeffs)
            lhs, rhs = embed(out, 1, 300), op(ea, eb)
            scale = (1 + abs(ea)) * (1 + abs(eb)) * (1 + abs(rhs))
            if name == "/":
                scale *= 1 + 1 / abs(eb)
            assert abs(lhs - rhs) <= mp.mpf(2) ** -250 * scale
    equal = _vector(P, a) == _vector(P, b)
    assert (a == b) is equal and (b == a) is equal
    if equal and not isinstance(a, (int, Fraction)) and not isinstance(
            b, (int, Fraction)):
        assert hash(a) == hash(b)
    for x in (a, b):
        if isinstance(x, (RingElement, FieldElement)):
            assert x.__add__(0.5) is NotImplemented
            assert x.__mul__(0.5) is NotImplemented
            with pytest.raises(TypeError):
                x - 0.5
            other = GOLDEN if P is not GOLDEN else TRIBONACCI
            for y in (other.ring(1), other.field(Fraction(1, 2))):
                for op in (ops["+"], ops["-"], ops["*"]):
                    with pytest.raises(ValueError):
                        op(x, y)


def test_minimal_polynomial_helpers():
    poly = MinimalPolynomial((1, 1))
    assert poly.monic_desc() == [1, -1, -1]
    assert poly(GOLDEN.theta) == GOLDEN.poly(GOLDEN.theta)
    assert poly.is_squarefree()
    assert not MinimalPolynomial((2, -1)).is_squarefree()
    with pytest.raises(ValueError):
        MinimalPolynomial(())
    with pytest.raises(ValueError):
        MinimalPolynomial((1, 1.5))


@pytest.mark.parametrize("d", [(1, 1, 1), (1, 0, 0, 1)],
                         ids=["tribonacci", "quartic"])
@pytest.mark.parametrize("estimates", ["unsettled", "two_equal"])
def test_root_fallback_certifies_the_same_base(monkeypatch, d, estimates):
    # when the Durand-Kerner estimates do not settle, or two refined roots
    # meet, build_pisot takes every root from mp.polyroots instead; the
    # base is certified afresh, past the per-process cache, and the spoiled
    # certificate is not kept for later calls
    normal = build_pisot(d)
    monkeypatch.setattr(pisot, "_certify", pisot._certify.__wrapped__)
    real_estimates, real_polyroots = pisot._root_estimates, mp.polyroots
    calls = []

    def spoiled(poly):
        z = real_estimates(poly)
        return None if estimates == "unsettled" else [z[0], *z[:-1]]

    def counted(*args, **kwargs):
        calls.append(args)
        return real_polyroots(*args, **kwargs)
    monkeypatch.setattr(pisot, "_root_estimates", spoiled)
    monkeypatch.setattr(mp, "polyroots", counted)
    P = build_pisot(d)
    assert len(calls) == 1
    cap = mp.mpf(2) ** -(P.precision_bits - 16)
    assert abs(P.theta - normal.theta) <= cap
    assert abs(P.rho - normal.rho) <= cap
    assert len(P.conjugates) == len(normal.conjugates) == len(d) - 1
    for a, b in zip(P.conjugates, normal.conjugates):
        assert abs(a - b) <= cap
