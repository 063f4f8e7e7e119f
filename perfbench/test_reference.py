"""The reference evaluator against closed forms and exact zeros."""

import random
from fractions import Fraction

import mpmath as mp
import pytest

import reference as ref

FIELD_BASES = ((1, 1), (1, 1, 1), (1, 0, 0, 1))


def test_binary_base_is_the_sinc_closed_form():
    base = ref.Base((2,))
    rng = random.Random(4181)
    for _ in range(200):
        t = Fraction(rng.randint(1, 10 ** 8), 10 ** 6)  # t in (0, 100]
        with mp.workprec(300):
            x = 4 * mp.pi * mp.mpf(t.numerator) / t.denominator
            closed = mp.sin(x) / x
            assert abs(ref.mu_hat(base, t) - closed) <= mp.mpf(2) ** -240


@pytest.mark.parametrize("d", ((2,), (3,)))
def test_integer_bases_give_exact_zeros_at_quarter_powers(d):
    base = ref.Base(d)
    for n in range(0, 30):
        assert ref.mu_hat(base, Fraction(d[0] ** n, 4)) == 0


@pytest.mark.parametrize("d", FIELD_BASES)
def test_quarter_theta_powers_are_zeros(d):
    base = ref.Base(d)
    for n in (1, 2, 5, 10, 20, 40):
        with mp.workprec(600):
            t = base.value(ref.theta_power(d, n), 600) / 4
        assert abs(ref.mu_hat(base, t)) <= mp.mpf(2) ** -(256 + 48)
        if n <= 5:  # off the zero the value is far above that level
            with mp.workprec(600):
                assert abs(ref.mu_hat(base, t + mp.mpf(1) / 1000)) > 1e-40


@pytest.mark.parametrize("d", FIELD_BASES)
def test_theta_power_satisfies_the_polynomial(d):
    base = ref.Base(d)
    for n in (0, 1, len(d), 17):
        with mp.workprec(400):
            direct = base.theta ** n
            assert abs(base.value(ref.theta_power(d, n), 400) - direct) \
                <= mp.mpf(2) ** -300 * direct


@pytest.mark.parametrize("d", FIELD_BASES)
def test_phi_is_invariant_under_theta_and_sign(d):
    base = ref.Base(d)
    rng = random.Random(len(d))
    for _ in range(3):
        z = tuple(rng.randint(-3, 3) for _ in d)
        if not any(z):
            continue
        v0 = ref.phi(base, z, bits=100)
        v1 = ref.phi(base, ref.ring_scale(d, z, 1), bits=100)
        v2 = ref.phi(base, tuple(-c for c in z), bits=100)
        with mp.workprec(200):
            assert abs(v0 - v1) <= v0 * mp.mpf(2) ** -90
            assert abs(v0 - v2) <= v0 * mp.mpf(2) ** -90


def test_phi_of_one_on_the_golden_base():
    # theta^j = L_j - (-1/theta)^j with L_j the Lucas numbers, so the
    # factor at j >= 1 equals the one at -j, and the j = 0 factor is 1:
    # Phi(1) = prod_{k >= 1} cos(pi theta^-k)^2
    base = ref.Base((1, 1))
    with mp.workprec(200):
        th = base.theta
        direct = abs(mp.cospi(1))
        k = 1
        while mp.pi * th ** -k > mp.mpf(2) ** -70:
            direct *= mp.cospi(th ** -k) ** 2
            k += 1
        assert abs(ref.phi(base, (1, 0), bits=128) - direct) <= mp.mpf(2) ** -120
