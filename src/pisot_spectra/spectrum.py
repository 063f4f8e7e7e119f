"""Two-sided cosine products along theta orbits and the predicted limit set.

phi_biinfinite evaluates prod_{j in Z} |cos(pi w theta^j)| (phi_lambda: at
w = 2 lam q).  For j >= 0, w theta^j approaches integers at the rate rho^j
of a Pisot base when its traces are integers; for j < 0 the argument
shrinks like theta^j, and those factors are mu_hat(|w|/(2 theta)).  The
factors come from transform's fixed-point integer kernel: for j >= 0 at
the conjugate power sums, each term a fixed-point complex int stepped by
one multiply by theta_i, and for j < 0 from mu_hat's own loop at
t = |w|/2, under a descent plan from the fit that mu_hat's descent plans
take (transform._fit_descent).  The ascending side is explicit only until
its arguments fall below a cut; past it, log cos's Taylor series sums
every factor in closed form, from the kernel's terms at the cut and
constants 1/(1 - prod theta_i^k_i) cached per base (for these products,
see Erdos, Amer. J. Math. 61, 1939, and Salem, Algebraic Numbers and
Fourier Analysis, 1963, ch. II).  The descending side is explicit only
until the float64 path's head rule, 2 pi x theta/(theta - 1) <= 1; past
it, one factor is mu_hat's Taylor polynomial in (2 pi x)^2 from the even
moments of mu_theta (transform._moment_polynomial; Jessen and Wintner,
Trans. AMS 38, 1935), within one unit of 2^-W.  The kernel's error E is derived
(see _biinfinite_product) and W fitted so that it stays within
2^-(pb+12).  A rational orbit element keeps its exact factor; for m > 1
there is at most one, and the plan's moduli say at which offset
(_rational_offsets).  The only truncation left is the ascending series,
whose remainder is at most tol.

limit_value multiplies such products with a one-sided tail to predict the
accumulation values of coefficient sequences; enumerate_spectrum walks a
finite window of integer data to list those predictions, with one product
per theta-orbit of the window's vectors, as Phi(z theta) = Phi(z); and
synthesize_sequence builds the explicit integer indices n_k whose sampled
values approach a chosen prediction.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import (chain, combinations_with_replacement, islice,
                       product as iter_product, repeat)
from typing import NamedTuple, Optional, Sequence, Union

import mpmath as mp
from mpmath.libmp.libelefun import pi_fixed

from .errors import BudgetExceededError, PrecisionExhaustedError
from .pisot import (
    GUARD_BITS,
    FieldElement,
    PisotNumber,
    RingElement,
    _as_field_element,
    _as_multiplier,
    embed,
    field_invert,
    ring_theta_pow,
    _coeff_bits,
    _div_by_theta_scaled,
    _evaluate,
    _mul_by_theta,
    _nearest_int,
    _pow_coeffs,
    _reduce_product,
    _theta_columns,
    _to_mpf,
)
from .transform import (COS_FIXED_ERROR, _DescentPlan, _check_tol,
                        _cos_fixed, _descent_x_error, _fit_descent,
                        _fixed_abs, _fixed_product, _head, _kernel_cosines,
                        _mag_estimate, _tail_factor, mu_hat)

DEFAULT_BUDGET = 10**6
# the ascending tail takes as many series terms as its remainder needs at
# pi C rho^J = ASCENT_CUT, and with those the explicit product stops as
# early as they allow (see _ascent_terms and _biinfinite_product)
ASCENT_CUT = 2.0 ** -10

ElementLike = Union[RingElement, FieldElement, int, Fraction]


@dataclass(frozen=True)
class SpectrumCandidate:
    """One predicted limit value together with the data that produces it.

    z_list are the ring elements whose two-sided products are multiplied,
    A is the additive integer offset, r the sampling multiplier; predicted
    lies in [0,1] and is certified within error_bound.  id is the position
    in the deterministic enumeration order, when the candidate came from
    enumerate_spectrum.
    """

    z_list: tuple
    A: int
    r: FieldElement
    predicted: mp.mpf
    error_bound: mp.mpf
    id: Optional[str] = None


def _check_admissible(P: PisotNumber, w: FieldElement) -> None:
    # the product over j >= 0 only settles when w theta^j stays near
    # integers; that holds exactly when the traces of w theta^j, j < m, are
    # integers (the shared recurrence propagates integrality)
    if all(c.denominator == 1 for c in w.coeffs):
        return
    for col in _theta_columns(w.coeffs, P.d):
        trace = sum(v[i] for i, v in enumerate(_theta_columns(col, P.d)))
        if trace.denominator != 1:
            raise ValueError(
                "two-sided product diverges: trace sums of the argument are "
                "not integers at this normalization"
            )


def _exact_cos_factor(c: Fraction):
    """|cos(pi c)| for exact rational c: None marks an exact zero, 1 means
    skip (factor exactly one), otherwise an mpf factor.

    The cosine is taken at the distance of c to the nearest integer, so c
    and -c give the same bits.
    """
    frac = c % 1
    if frac == Fraction(1, 2):
        return None
    if frac == 0:
        return 1
    return abs(mp.cospi(_to_mpf(min(frac, 1 - frac))))


class _PhiPlan(NamedTuple):
    """The two-sided product's plan at w (see _biinfinite_product)."""

    J: int          # explicit ascending factors j = 0..J-1
    N: int          # series terms of the ascending tail j >= J
    moduli: list    # upper bounds on |w_1|, ..., |w_m| (_moduli)
    # the kernel's W, E and the descending side's K, X, cap, moments and
    # step: at most K head factors, j = -1..-K (transform._fit_descent)
    descent: _DescentPlan


@functools.cache
def _log_cos_coefficient(n: int) -> Fraction:
    """c_n of -log cos x = sum_(n>=1) c_n x^(2n), all positive:
    2^(2n-1) (2^(2n) - 1) |B_2n| / (n (2n)!)."""
    p, q = mp.bernfrac(2 * n)
    return Fraction(2 ** (2 * n - 1) * (2 ** (2 * n) - 1) * abs(p),
                    q * n * math.factorial(2 * n))


def _series_remainder(x, rho, N: int):
    """Bound on sum_(j>=J) sum_(n>N) c_n (pi s_j)^(2n) when
    pi |s_j| <= x rho^(j-J) and x < 1: c_n decreases, so the inner sum is
    at most c_(N+1) y^(2N+2)/(1 - y^2) at y = pi |s_j| <= x, and the sum
    over j is geometric in rho^(2N+2)."""
    c = _log_cos_coefficient(N + 1)
    return (mp.mpf(c.numerator) / c.denominator * x ** (2 * N + 2)
            / ((1 - rho ** (2 * N + 2)) * (1 - x * x)))


@functools.lru_cache(maxsize=64)
def _ascent_terms(rho, tol):
    """(N, cut) of the ascending tail: the fewest series terms N whose
    remainder at x = ASCENT_CUT is at most tol, and the largest cut <= 1/2
    of the form ASCENT_CUT (17/16)^k at which it still is.  Taken at 64
    bits, with the remainder raised by 2^-32 for their rounding; cached per
    base's rho and tol.  The k-th cut is stepped from the first by k
    multiplies, and the remainder grows with x by far more than its
    rounding from one cut to the next, so the largest k is found by
    doubling and then bisection."""
    with mp.workprec(64):
        def remainder(x, N):
            return _series_remainder(x, rho, N) * (1 + mp.mpf(2) ** -32)
        cuts, step, half = [mp.mpf(ASCENT_CUT)], mp.mpf(17) / 16, mp.mpf(0.5)
        N = 0
        while remainder(cuts[0], N) > tol:
            N += 1

        def passes(k):
            while len(cuts) <= k:
                cuts.append(cuts[-1] * step)
            return cuts[k] <= half and remainder(cuts[k], N) <= tol

        lo, hi = 0, 1                    # cut lo passes, cut hi + 1 not yet
        while passes(hi):
            lo, hi = hi, 2 * hi
        hi -= 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            lo, hi = (mid, hi) if passes(mid) else (lo, mid - 1)
    return N, cuts[lo]


def _ascent_cut(P: PisotNumber, big_c, tol):
    """(J, N, x_J) of the ascending side: N and cut from _ascent_terms, and
    the first J with x_J = pi C rho^J <= cut."""
    N, cut = _ascent_terms(P.rho, tol)
    x, rho = mp.pi * big_c, P.rho
    J = 0
    if x > cut:
        # a 64-bit estimate two steps short, then one multiply per step
        with mp.workprec(64):
            J = max(0, int(mp.log(x / cut) / -mp.log(rho)) - 2)
        x *= rho ** J
        if x <= cut:  # the estimate overshot: walk from the start
            J, x = 0, mp.pi * big_c
        while x > cut:
            J, x = J + 1, x * rho
    return J, N, x


def _moduli(P: PisotNumber, w: FieldElement) -> list:
    """Upper bounds on |w_i|, i = 1..m, from w at 64 + GUARD_BITS bits over
    its coefficients' size: Horner's noise there is below
    8 m^2 ceil(theta)^(m-1) 2^-(64+GUARD_BITS), which each modulus is
    raised by, after a relative 2^-60 for its own rounding."""
    work = 64 + _coeff_bits(w) + GUARD_BITS
    with mp.workprec(64):
        slack = mp.ldexp(8 * P.m ** 2 * math.ceil(P.theta) ** (P.m - 1),
                         -(64 + GUARD_BITS))
        return [abs(_evaluate(w, i, work)) * (1 + mp.ldexp(1, -60)) + slack
                for i in range(1, P.m + 1)]


def _phi_plan(P: PisotNumber, w: FieldElement, tol) -> _PhiPlan:
    """The plan of the two-sided product at w (see _biinfinite_product),
    from the moduli of w at 64 bits: J, N, and the descent that
    transform._fit_descent fits from K and X, charged K head factors (none
    for m = 1, whose head is exact) and the ascending side's error.  Runs
    at the caller's pb + GUARD_BITS bits."""
    pb = P.precision_bits
    moduli = _moduli(P, w)
    w1, big_c = moduli[0], mp.fsum(moduli[1:])
    # ascending side: |cos| defects shrink like rho^j
    J, N, x_J = _ascent_cut(P, big_c, tol) if P.m > 1 else (0, 0, 0)
    th = P.theta_at(pb + GUARD_BITS)
    mag = _mag_estimate(w1)
    # descending side: K, the head rule's count at a 64-bit estimate of
    # y = 2 pi A x_1 = pi |w| A/theta, with 2^-10 to spare: y theta^-K <=
    # theta^-(2^-10) < 1 - 2^-12, and no exact walk passes it (see
    # _biinfinite_product); X bounds x_k's error for k <= K + 1
    with mp.workprec(64):
        y = mp.pi * w1 / (th - 1)
        K = max(0, int(mp.log(y) / mp.log(th) + mp.ldexp(1, -10)) + 1)
    X = _descent_x_error(th, K + 1, mag, x0_error=2)
    # error of sum_i Re z_(i,j) up to j = J: under 2 units from the start
    # of each term, and per step 2 for its two floors and |w_i| for the
    # rounded theta_i
    arg = (P.m - 1) * (2 + 2 * J) + (int(big_c) + 1) * J
    tail = 0
    if N:
        with mp.workprec(64):
            # the tail's E_t, with eps = (4 A' + 1) units of 2^-(pb+12)
            eps = mp.ldexp(4 * arg + 1, -(pb + 12))
            tail = int(_kappa(P) * (4 * arg + 1) * mp.tan(x_J + eps)) + 6
    # the head is exact for m = 1
    other = J * (COS_FIXED_ERROR + 4 + 4 * arg) + tail
    return _PhiPlan(J, N, moduli, _fit_descent(P, pb, mag, K, X,
                                               K if P.m > 1 else 0, other))


def _rational_offsets(P: PisotNumber, moduli):
    """The offsets j at which w theta^j can be rational, for m > 1, or None
    when an embedding of w is too small to tell; moduli are the plan's
    bounds on |w_1|, |w_2|, ....

    A rational u = w theta^j equals each of its embeddings, so
    |w| theta^j = |w_2| |theta_2|^j, which fixes j at
    j* = log(|w_2| / |w|) / log(theta / |theta_2|); the integers within 1
    of j* are returned.  A modulus below m^2 theta^(m-1) 2^-64 is not
    trusted: that is 2^53 times Horner's noise in an embedding at 53 bits,
    far above the noise in the plan's (_moduli).
    """
    w1, w2 = moduli[:2]
    with mp.workprec(64):
        if min(w1, w2) < P.m ** 2 * P.theta ** (P.m - 1) * mp.mpf(2) ** -64:
            return None
        j_star = float(mp.log(w2 / w1)
                       / mp.log(P.theta / abs(P.conjugates[0])))
    return range(math.ceil(j_star - 1), math.floor(j_star + 1) + 1)


def _rational_elements(P: PisotNumber, w: FieldElement, j_pos: int,
                       k_c: int, moduli):
    """(j, u) for each rational u = w theta^j, j = 0..j_pos-1 and then
    j = -1..-k_c: all of them for m = 1, at most one otherwise.

    The orbit lives on integer numerators over one common denominator; a
    step down multiplies the denominator by d_m.  For m > 1 only the
    offsets of _rational_offsets are tested, each by binary powering of
    theta or of d_m / theta; the orbit is walked step by step for m = 1,
    or when those offsets cannot be told.
    """
    d = P.d
    den = math.lcm(*(c.denominator for c in w.coeffs))
    start = [int(c * den) for c in w.coeffs]
    offsets = _rational_offsets(P, moduli) if P.m > 1 else None
    if offsets is not None:
        up = P.theta_ring().coeffs
        down = _div_by_theta_scaled([1] + [0] * (P.m - 1), d)  # d_m / theta
        for j in offsets:
            if not -k_c <= j < j_pos:
                continue
            num = _reduce_product(start, _pow_coeffs(up if j >= 0 else down,
                                                     abs(j), d), d)
            if not any(num[1:]):
                yield j, Fraction(num[0], den * d[-1] ** max(0, -j))
        return
    num = start
    for j in range(j_pos):
        if not any(num[1:]):
            yield j, Fraction(num[0], den)
        num = _mul_by_theta(num, d)
    num = start
    for j in range(-1, -k_c - 1, -1):
        num = _div_by_theta_scaled(num, d)
        den *= d[-1]
        if not any(num[1:]):
            yield j, Fraction(num[0], den)


def _floor_fixed(x, W: int) -> int:
    return int(mp.floor(mp.ldexp(x, W)))


def _kappa(P: PisotNumber) -> int:
    """An integer above 1/(1 - rho^2), which bounds every
    |1/(1 - prod theta_i^k_i)| of the ascending tail."""
    with mp.workprec(64):
        return int(1 / (1 - P.rho ** 2)) + 1


@functools.lru_cache(maxsize=64)
def _tail_groups(P: PisotNumber, pb: int, N: int, Wk: int) -> tuple:
    """For n = 1..N, c_n and one (k, M, K) per multiset of 2n conjugate
    indices: k its counts, M its multinomial and K = 1/(1 - prod
    theta_i^k_i) in units of 2^-Wk, each component rounded to nearest.
    Cached per base and Wk; pb is part of the key because bases compare by
    their digits alone."""
    m1 = P.m - 1
    groups = []
    with mp.workprec(Wk + 32 + 2 * _kappa(P).bit_length() + N.bit_length()):
        pows = []
        for i in range(2, P.m + 1):
            r = P.root_at(i, mp.mp.prec)
            pows.append([mp.mpc(1)])
            for _ in range(2 * N):
                pows[-1].append(pows[-1][-1] * r)
        for n in range(1, N + 1):
            group = []
            for combo in combinations_with_replacement(range(m1), 2 * n):
                k = tuple(combo.count(i) for i in range(m1))
                M = math.factorial(2 * n)
                for e in k:
                    M //= math.factorial(e)
                K = 1 / (1 - mp.fprod(row[e] for row, e in zip(pows, k)))
                group.append((k, M, int(mp.nint(mp.ldexp(K.real, Wk))),
                              int(mp.nint(mp.ldexp(K.imag, Wk)))))
            groups.append((_log_cos_coefficient(n), tuple(group)))
    return tuple(groups)


def _ascent_tail(P: PisotNumber, terms, W: int, N: int) -> int:
    """exp(-T) in units of 2^-W, T = sum_(n<=N) c_n sum_(j>=J) (pi s_j)^(2n)
    in closed form, from the fixed-point terms w_i theta_i^J at W bits (see
    _biinfinite_product).  The sums run at Wt = W + G bits, G the bit
    length of their rounding R', with constants at Wk >= Wt bits, the same
    Wk for every W of one 64-bit bucket."""
    kappa, m1 = _kappa(P), P.m - 1
    rounding = sum(_log_cos_coefficient(n) * m1 ** (2 * n)
                   * (kappa * (4 * n - 2) + 3) + 1 for n in range(1, N + 1))
    Wt = W + math.ceil(rounding).bit_length()
    Wk = Wt - W + ((W >> 6) + 1 << 6)
    groups = _tail_groups(P, P.precision_bits, N, Wk)
    pi_t = pi_fixed(Wt)
    # pows[i][e] = (pi w_i theta_i^J)^e at Wt bits, e = 1..2N
    pows = []
    for x, y in terms:
        a, b = (x * pi_t) >> W, (y * pi_t) >> W
        row = [None, (a, b)]
        for _ in range(2 * N - 1):
            u, v = row[-1]
            row.append(((u * a - v * b) >> Wt, (u * b + v * a) >> Wt))
        pows.append(row)
    T = 0
    for c, group in groups:
        S = 0
        for k, M, Kr, Ki in group:
            # u + iv = prod_i pows[i][k_i], and S takes M Re((u + iv) K)
            u = v = None
            for row, e in zip(pows, k):
                if e:
                    a, b = row[e]
                    u, v = (a, b) if u is None else (
                        (u * a - v * b) >> Wt, (u * b + v * a) >> Wt)
            S += M * ((u * Kr - v * Ki) >> Wk)
        T += S * c.numerator // c.denominator
    with mp.workprec(W + 16):
        return int(mp.floor(mp.ldexp(mp.exp(mp.ldexp(-T, -Wt)), W)))


def _ascending_cosines(P: PisotNumber, w: FieldElement, plan: _PhiPlan,
                       tiny: int):
    """cos(pi s_j) in units of 2^-W, j = 0..J-1, at the conjugate power sum
    s_j = sum_{i>=2} w_i theta_i^j, and then, when N > 0, the tail factor of
    j >= J (_ascent_tail).  Each term is a fixed-point complex int stepped by
    one complex multiply by theta_i; a sum whose imaginary part exceeds
    tiny units raises."""
    W = plan.descent.W
    work = W + _coeff_bits(w) + GUARD_BITS  # embed's at W bits
    with mp.workprec(work):
        terms = [(_floor_fixed(z.real, W), _floor_fixed(z.imag, W))
                 for z in (embed(w, i, W) for i in range(2, P.m + 1))]
        steps = [(int(mp.nint(mp.ldexp(r.real, W))),
                  int(mp.nint(mp.ldexp(r.imag, W))))
                 for r in (P.root_at(i, work) for i in range(2, P.m + 1))]
    pi_w, half_pi = pi_fixed(W), pi_fixed(W - 1)
    mask = (1 << W) - 1
    for _ in range(plan.J):
        if abs(sum(y for _, y in terms)) > tiny:
            raise PrecisionExhaustedError(
                "conjugate power sum has a non-real residue"
            )
        s = sum(x for x, _ in terms)
        yield _cos_fixed(((s & mask) * pi_w) >> W, W, half_pi)
        terms = [((x * a - y * b) >> W, (x * b + y * a) >> W)
                 for (x, y), (a, b) in zip(terms, steps)]
    if plan.N:
        yield _ascent_tail(P, terms, W, plan.N)


def _phi_head(P: PisotNumber, w: FieldElement, plan: _PhiPlan) -> list:
    """[x_1, ..., x_(k_c+1)]: the kernel's descent at t = |w|/2, from
    x_0 = floor(|w| 2^(W-1)) by embed(w, 1, W), over the descending head's
    k_c factors to x_(k_c+1), where the tail starts (see
    _biinfinite_product)."""
    d = plan.descent
    x0 = _fixed_abs(embed(w, 1, d.W), d.W - 1, 0)
    return _head((x0 * d.step) >> d.W, d)


def _biinfinite_product(P: PisotNumber, w: FieldElement, tol):
    """Shared core: (value, error_bound) of prod_{j in Z} |cos(pi w theta^j)|.

    The factors are those of u = w theta^j for j = 0..J-1 and
    j = -1..-k_c, times one tail factor for all j >= J and one for all
    j <= -(k_c + 1).  J is the first j with pi C rho^j <= cut,
    C = sum_(i>=2) |w_i|, where N and cut come from _ascent_terms; k_c is
    the descending head rule's (below).  The plan takes C and |w_1| from
    64-bit moduli raised to upper bounds (_moduli), and w is embedded once
    per root, at W bits.  The orbit's rational elements among j = 0..J-1
    and j = -1..-k_c are found exactly first (_rational_elements): a
    rational u takes its factor from _exact_cos_factor, and an exact
    half-integer gives (0, 0).  No u with j >= J is rational: it would have
    |s_j| = (m - 1)|u| < 1/2 and m u = u + s_j an integer, so u = 0.  A
    rational u with j <= -(k_c + 1) lies in the descending tail, where
    |u| = 2 x_k <= 1/(pi A) < 1/2, A = theta/(theta - 1) > 1: it is no
    half-integer, and the tail polynomial takes it with the rest.  Every
    other factor comes from a fixed-point integer kernel with W fractional
    bits.  w's sign is fixed first, as the larger coefficient vector of w
    and -w, so Phi(-w) has the bits of Phi(w).
      - 0 <= j < J: u is congruent mod 1 to -s_j, the conjugate power sum
        sum_{i>=2} w_i theta_i^j, since u + s_j is the integer trace of u.
        Each w_i theta_i^j is a fixed-point complex int, started at
        embed(w, i, W) and stepped by one multiply by theta_i, rounded
        from the root that embed took; the factor is |cos(pi s_j)|,
        s_j = sum_i Re.
      - j >= J: log cos x = -sum_n c_n x^(2n) with every c_n > 0, so these
        factors are exp(-T - R), T = sum_(n<=N) c_n S_2n and
        S_2n = sum_(j>=J) (pi s_j)^(2n).  With a_i = pi w_i theta_i^J,
        S_2n = Re sum_k M_k prod_i a_i^k_i / (1 - prod_i theta_i^k_i)
        over the multisets k of 2n conjugate indices, M_k their
        multinomial.  The a_i are the kernel's terms at step J, times pi;
        the constants 1/(1 - prod theta_i^k_i) come from _tail_groups.
        The tail factor is exp(-T) (_ascent_tail), and the remainder
        0 <= R <= tol (see _series_remainder).
      - j < 0: u is w theta^-k, k = -j, so the factors are mu_hat's at
        t = |w|/2 and k >= 1, whose product is mu_hat(x_1), under the
        plan's descent (a transform._DescentPlan).  x_k steps from
        x_0 = floor(|w| 2^(W-1)) by mu_hat's kernel (_phi_head), and k_c
        is the least k >= 0 with x_(k+1) + X <= cap, X the bound on x_k's
        error for k <= K + 1 and cap = floor(2^W/(2 pi A)) - 1, from theta
        at W + 16 bits: one integer comparison per step, so the true
        x_(k_c+1) has 2 pi A x <= 1, the float64 path's head rule.  The
        factors k = 1..k_c are cosines from the kernel (_kernel_cosines);
        for m = 1 each is rational and exact.  The rest, mu_hat(x_(k_c+1)),
        is one factor (_tail_factor): P(v) = sum_(n<=N') (-1)^n a_n v^n,
        a_n = m_2n/(2n)!, by Horner at W bits at v = (z z) >> W,
        z = (x two_pi) >> W.
    One running product of W + 1 significant bits takes them all.

    The kernel's absolute error, in units u = 2^-W:
      - s_j, j <= J, is off by at most A' = (m - 1)(2 + 2 J) + C J: each
        term starts under 2 units off, and a step adds 2 for its floors and
        |w_i theta_i^j| <= |w_i| for the rounded theta_i, while an earlier
        error is scaled by at most |theta_i| + 2^-W <= 1;
      - an ascending factor by COS_FIXED_ERROR, 3 for its fixed-point
        argument, pi A' < 4 A' and one unit for the product's shift;
      - the ascending tail factor by E_t = kappa (4 A' + 1) tan(x_J +
        (4 A' + 1) u) + 6, kappa >= 1/(1 - rho^2) >= |1/(1 - prod
        theta_i^k_i)| (_kappa):
          - the a_i together are off by eps <= (pi A' + 1) u: pi times the
            terms' errors, and under 3 units of 2^-(W+G) each for the
            product by pi.  |T| over the multisets grows by at most
            kappa (f(b + eps) - f(b)) <= kappa eps tan(b + eps), with
            f = -log cos and b = sum_i |a_i| <= x_J;
          - rounding, at W + G bits: a product of e factors of modulus
            at most 1 is off by 2(e - 1) units of 2^-(W+G), a constant by
            under 1, the real part of their product by 1, and c_n S_2n by
            1 more.  Over the (m - 1)^(2n) weighted multisets that is
            R' = sum_(n<=N) (c_n (m - 1)^(2n) (kappa (4n - 2) + 3) + 1)
            < 2^G units of 2^-(W+G), under one unit u;
          - exp(-T) at W + 16 bits and its floor: 2 units; the slope of
            exp is at most 1 + u: one more; the product's shift: one;
      - a descending head factor as in mu_hat, with x_0 under 2 units
        off (one for its floor, one for the embedding of w): x_k, k <= K +
        1, is off by at most X (_descent_x_error), so the factor by at
        most e = COS_FIXED_ERROR + 4 + 7 X;
      - the descending tail factor by E_d = R + a_1^+ (2 e_z + 1), a_1^+ =
        floor(a_1) + 2 >= a_1 = m_2/2:
          - R = 1 + sum_n c_n + N' (_moment_polynomial): the series
            remainder, at most 1/(2N' + 2)! < u, since both floors make
            v <= (2 pi x)^2 <= A^-2; each coefficient's rounding; and one
            unit per Horner step;
          - z is within e_z = 7 X + 2 units of 2 pi x_true, for X, for
            two_pi's floor and its own, and v within 2 e_z + 1 of
            (2 pi x_true)^2, as z, 2 pi x_true <= 1.  mu_hat(s) =
            g(2 pi s), g(z) = E cos(z X), |g'(z)| <= z E X^2, so mu_hat
            moves by at most m_2/2 = a_1 per unit of v: a_1 (2 e_z + 1) is
            the argument's share, under 2 pi A times x's error, as
            m_2 = theta^2/(theta^2 - 1) < A;
      - the cosines' excess over 1 at most doubles the sum over the
        factors.
    So E = 2 (J (COS_FIXED_ERROR + 4 + 4 A') + E_t + K e + E_d), with
    K e = 0 for m = 1, whose head is exact, and W = pb + 12 plus the bit
    length of E: the kernel is within 2^-(pb+12).  E_d's degree
    N' = _tail_degree(W) and coefficients depend on W, so W is raised until
    E fits (transform._fit_descent).  K >= k_c is the head rule's count at
    a 64-bit estimate of 2 pi A x_1 from |w_1|'s bound, with 2^-10 of the
    count to spare, so
    that 2 pi A x_(K+1) < 1 - 2^-12; the exact walk stops at or before it,
    since X 2 pi A 2^-W is far below 2^-12.  The exact factors and the
    result round at pb + GUARD_BITS bits, so the bound's 2^-(pb+10) term
    covers all three.  A factor below 2^-(pb/2) raises.  The only
    truncation left is the ascending series remainder, so the bound takes
    tol once, not twice as when the descending side was cut by tol too;
    tol governs that series alone.
    """
    _check_tol(tol)
    if w.is_zero():
        return mp.mpf(1), mp.mpf(0)
    _check_admissible(P, w)
    w = max(w, -w, key=lambda v: v.coeffs)
    pb = P.precision_bits

    with mp.workprec(pb + GUARD_BITS):
        plan = _phi_plan(P, w, tol)
        J, descent = plan.J, plan.descent
        W = descent.W
        xs = _phi_head(P, w, plan)
        k_c = len(xs) - 1
        exact = {}
        for j, u in _rational_elements(P, w, J, k_c, plan.moduli):
            exact[j] = _exact_cos_factor(u)
            if exact[j] is None:
                return mp.mpf(0), mp.mpf(0)

        tiny = 1 << (W - pb // 2)
        # offset J stands for the whole tail j >= J, and -(k_c + 1) for
        # j <= -(k_c + 1); neither is among the exact factors
        n_pos = J + (plan.N > 0)
        offsets = chain(range(n_pos), range(-1, -k_c - 2, -1))
        # for m = 1 every u is exact
        head = (_kernel_cosines(descent.step, xs[0], W, k_c)
                if P.m > 1 else repeat(0, k_c))
        cosines = chain(_ascending_cosines(P, w, plan, tiny), head,
                        [_tail_factor(xs[-1], descent)])

        def numeric():
            for j, c in zip(offsets, cosines):
                if j in exact:
                    continue
                if -tiny < c < tiny:
                    raise PrecisionExhaustedError(
                        f"factor at orbit offset {j} cannot be certified "
                        f"nonzero at {pb} bits"
                    )
                yield c

        value, _ = _fixed_product(numeric(), W)
        value = abs(value)
        n_numeric = n_pos + k_c + 1 - len(exact)
        for f in exact.values():
            if f != 1:
                value *= f
                n_numeric += 1

        # the ascending series' remainder is a log-defect <= tol; numeric
        # factors add rounding noise well below the certification level
        rounding = mp.mpf(n_numeric * n_numeric + 64) * mp.mpf(2) ** (-(pb - 8))
        err = (value * mp.expm1(mp.mpf(tol) + rounding)
               + mp.mpf(2) ** (-(pb + 10)))
        return +value, +err


def phi_biinfinite(P: PisotNumber, z: ElementLike, tol: float = 1e-20):
    """(value, error_bound) of prod_{j in Z} |cos(pi z theta^j)|.

    z is a ring element (or any field element whose trace sums are integers);
    an exact zero factor yields (0, 0).
    """
    return _biinfinite_product(P, _as_field_element(P, z), tol)


def phi_lambda(P: PisotNumber, lam: ElementLike, q: ElementLike,
               tol: float = 1e-20):
    """(value, error_bound) of prod_{j in Z} |cos(2 pi lam q theta^j)|.

    The doubled-frequency variant: it is phi_biinfinite of 2*lam*q, which
    must have integer trace sums.
    """
    w = _as_field_element(P, lam) * _as_field_element(P, q) * 2
    return _biinfinite_product(P, w, tol)


def tail_product(P: PisotNumber, x, tol: float = 1e-20):
    """(value, error_bound) of prod_{j>=0} |cos(2 pi x theta^-j)|.

    The one-sided product is the modulus of the transform value at x, so
    this defers to mu_hat; x may be real, a Fraction, or an element of the
    number field (embedded first).
    """
    if isinstance(x, (RingElement, FieldElement)):
        x = embed(_as_field_element(P, x), 1)
    res = mu_hat(P, x, tol)
    with mp.workprec(P.precision_bits + GUARD_BITS):
        # abs() at ambient precision would round the result to 53 bits
        return abs(res.value), res.error_bound


def _compose_product(parts):
    """Certified product of nonnegative bracketed values [(v, e), ...]."""
    value = upper = lower = mp.mpf(1)
    for v, e in parts:
        value *= v
        upper *= v + e
        lower *= max(mp.mpf(0), v - e)
    return value, max(upper - value, value - lower)


def _slot_orders(combo):
    """The distinct orders of the multiset combo in ascending lexicographic
    order, less those whose first slot exceeds their second."""
    s = sorted(combo)
    while True:
        if len(s) < 2 or s[0] <= s[1]:
            yield tuple(s)
        # the next permutation: raise the last ascent, reverse the rest
        i = len(s) - 2
        while i >= 0 and s[i] >= s[i + 1]:
            i -= 1
        if i < 0:
            return
        j = len(s) - 1
        while s[j] <= s[i]:
            j -= 1
        s[i], s[j] = s[j], s[i]
        s[i + 1:] = reversed(s[i + 1:])


def _ring_list(P: PisotNumber, z_list: Sequence[ElementLike]) -> tuple:
    """z_list as a nonempty tuple of ring elements."""
    if len(z_list) < 1:
        raise ValueError("z_list must contain at least one element")
    return tuple(z if isinstance(z, RingElement) else P.ring(z) for z in z_list)


def limit_value(P: PisotNumber, z_list: Sequence[ElementLike], A: int,
                r: ElementLike, tol: float = 1e-20) -> SpectrumCandidate:
    """Predicted accumulation value for the index family built from z_list,
    offset A and multiplier r: the product of the two-sided values of the
    z_i times the one-sided tail at r*A, with error bounds composed
    multiplicatively."""
    zs = _ring_list(P, z_list)
    r_f = _as_multiplier(P, r)
    with mp.workprec(P.precision_bits + GUARD_BITS):
        parts = [phi_biinfinite(P, z, tol) for z in zs]
        parts.append(tail_product(P, r_f * A, tol))
        predicted, err = _compose_product(parts)
    return SpectrumCandidate(zs, A, r_f, predicted, err)


def _merge_key(cand, prec: int) -> tuple:
    """A key of integers that sorts candidates as (predicted, id) does, for
    nonnegative values of at most prec bits: zero first, then the exponent
    of the leading bit, then the mantissa aligned to prec bits."""
    _, man, exp, bc = cand.predicted._mpf_
    if not man:
        return 0, 0, int(cand.id)
    return 1, ((exp + bc) << prec) + (man << (prec - bc)), int(cand.id)


def _merge_groups(candidates: list, tol) -> list:
    """Single-linkage groups of candidates whose values lie within 2*tol,
    each sorted by (value, id), in ascending order of value."""
    groups = []
    gap = 2 * mp.mpf(tol)
    prec = mp.mp.prec
    for cand in sorted(candidates, key=lambda c: _merge_key(c, prec)):
        if groups and cand.predicted - groups[-1][-1].predicted <= gap:
            groups[-1].append(cand)
        else:
            groups.append([cand])
    return groups


def _first_ids(n_vec: int, m_max: int, a_max: int, budget: int) -> list:
    """first[M], the id of the first candidate with M + 1 vectors, for each
    length enumerate_spectrum's walk composes; BudgetExceededError as soon
    as the factors that walk composes unpruned pass the budget.

    Per |A| the unpruned walk composes {0} alone and, for k vectors of the
    n = n_vec // 2 nonzero classes, each slot order whose first slot is at
    most its second: n lists for k = 1 and n^(k-1) (n + 1)/2 for k >= 2,
    k + 1 factors each with the tail's.  Counting factors, not lists,
    keeps long lists of one class within the budget too.  With no nonzero
    class no list is longer than one.
    """
    n = n_vec // 2
    first, size = [0], 0
    for k in range(1, m_max + 2 if n else 2):
        first.append(first[-1] + (2 * a_max + 1) * n_vec ** k)
        lists = n + 1 if k == 1 else n ** (k - 1) * (n + 1) // 2
        size += (a_max + 1) * (k + 1) * lists
        if size > budget:
            raise BudgetExceededError(
                f"the window's walk composes at least {size} factors, over "
                f"the budget of {budget}"
            )
    return first


def _orbit_phi(P: PisotNumber, rings: list, tol) -> list:
    """Phi's (value, error) at each class c of an enumeration window, rings[c]
    its c-th vector, taken once per part of the links z ~ z theta with
    z theta a window vector: Phi(z theta) = Phi(-z) = Phi(z) exactly, so
    the part's lowest class lends its bracket to every member."""
    cls = {}
    for c, z in enumerate(rings):
        cls[z.coeffs] = cls[tuple(-a for a in z.coeffs)] = c
    part = list(range(len(rings)))  # a linked lower class, or c itself

    def lowest(c):
        while part[c] != c:
            c = part[c]
        return c

    for c, z in enumerate(rings):
        mate = cls.get(tuple(_mul_by_theta(z.coeffs, P.d)))
        if mate is not None:
            a, b = sorted((lowest(c), lowest(mate)))
            part[b] = a
    phi = []
    for c, z in enumerate(rings):
        low = lowest(c)
        phi.append(phi[low] if low < c else phi_biinfinite(P, z, tol))
    return phi


def enumerate_spectrum(P: PisotNumber, r: ElementLike, height: int,
                       m_max: int, a_max: int, tol: float = 1e-20,
                       eta: float = 0.05,
                       budget: int = DEFAULT_BUDGET) -> list:
    """All distinct predicted limit values >= eta from the finite window:
    z_i coefficient vectors in [-height, height]^m, list lengths up to
    m_max + 1, offsets |A| <= a_max.

    A candidate's id is its position in the lexicographic order over
    (length, offset, vectors), each coordinate running -height..height, so
    -z sits at n_vec - 1 minus z's index among the n_vec vectors: the
    lists of M + 1 vectors start at first[M], the count of the shorter
    ones.  One table of those sums is built before any value is taken, and
    the window is refused as soon as the factors its unpruned walk would
    compose pass the budget (_first_ids).  Its
    value and error come from _compose_product over Phi(z_1), ...,
    Phi(z_k), |mu_hat(r A)|.  Three changes keep those bits: z -> -z
    (Phi(-z) = Phi(z) bit for bit, see _biinfinite_product), A -> -A (the
    tail is taken at |A|), and swapping the first two slots (each product
    starts at 1, 1 v = v exactly, and mpf multiplication commutes).
    Candidates with the same bits fall in one merge group, which keeps
    their lowest id: A = -|A|, each vector the lower-indexed of +-z, and
    the first two slots ascending.  So the window is walked once per |A|,
    over multisets of the classes {z, -z}, class c = 0..n_vec // 2 standing
    for the c-th vector, and only part of it is built: every nonempty
    multiset is a leaf for its own length, and one of at most m_max
    vectors is extended by one more.  The zero vector joins no other:
    Phi(0) = (1, 0), so a slot order holding it next to other vectors has
    the bits of the same order without it, under a lower id; {0} is a
    leaf of its own and is not extended.  At a leaf each distinct slot order
    of the multiset whose first slot is at most its second is composed
    once, under that lowest id: with three or more vectors the orders can
    round apart, so each is kept.

    Every factor Phi(z) and |mu_hat(r A)| is at most 1, so no candidate's
    value exceeds the upper product of any part of its vectors times the
    tail's upper bracket.  A multiset is built in descending order of upper
    bracket (v + e, sorted once), so a prefix's upper product is the
    largest over as many of its vectors, in any order.  The walk extends a
    prefix only while that product times the tail's reaches
    low = thr (1 - 4 (m_max + 3) 2^-p), thr = eta/2 at p working bits.
    Each product compared, a bound or a value, rounds m_max + 2 times at
    most, by a relative 2^-p each; so no order of a dropped multiset
    reaches thr, in value or in the bound by which a walk over ordered
    lists would keep it: the leaves stand for every candidate such a walk
    keeps.  A parent scans its children from its own last class on, by
    descending upper bracket, and stops at the first below low: by
    monotone rounding no later child reaches it.  The walk order does not
    reach the output, which the merge sorts.

    Values within 2*tol of each other are merged single-linkage, keeping the
    earliest id, and the result is sorted by descending value; the merge
    sorts on an exact integer key read off each value's mpf (_merge_key).
    A dropped candidate lies below thr, so it can join a group only through
    a member within 2*tol of thr.  When every group that reaches eta stays
    clear of that, the groups reaching eta are those of the full walk;
    otherwise (only for a large tol) the window is walked again with
    nothing dropped.  Both walks share the tails and the Phi of the
    classes, taken once per call: one Phi per part of the links
    z ~ z theta, z theta a window vector, at the part's lowest class, whose
    bracket certifies every member since Phi(z theta) = Phi(z) exactly
    (_orbit_phi).
    """
    if not 0 < eta < math.inf:
        raise ValueError(f"eta must be positive and finite, got {eta}")
    if height < 0 or m_max < 0 or a_max < 0:
        raise ValueError("height, m_max and a_max must be nonnegative")
    r_f = _as_multiplier(P, r)

    n_vec = (2 * height + 1) ** P.m
    first = _first_ids(n_vec, m_max, a_max, budget)

    # class c stands for the c-th vector of the window and its negation
    rings = [P.ring(vec) for vec in islice(
        iter_product(range(-height, height + 1), repeat=P.m), n_vec // 2 + 1)]

    def walk(low):
        found = []
        for a, tail in enumerate(tails):  # a = |A|
            tail_upper = tail[0] + tail[1]
            if tail_upper < low:  # the empty prefix's bound
                continue
            # (multiset as positions in order, ascending, and its upper
            # product)
            stack = [((), mp.mpf(1))]
            while stack:
                combo, upper = stack.pop()
                if combo:  # a leaf of M + 1 vectors, at A = -a
                    M = len(combo) - 1
                    offset = first[M] + (a_max - a) * n_vec ** (M + 1)
                    for slots in _slot_orders(order[p] for p in combo):
                        digits = 0
                        for c in slots:
                            digits = digits * n_vec + c
                        predicted, err = _compose_product(
                            [phi[c] for c in slots] + [tail])
                        found.append(SpectrumCandidate(
                            tuple(rings[c] for c in slots), -a, r_f,
                            predicted, err, id=str(offset + digits)))
                if len(combo) > m_max or combo == (zero,):
                    continue
                for p in range(combo[-1] if combo else 0, len(order)):
                    if combo and p == zero:
                        continue
                    up = upper * upper_of[order[p]]
                    if up * tail_upper < low:
                        break
                    stack.append((combo + (p,), up))
        return found

    with mp.workprec(P.precision_bits + GUARD_BITS):
        thr = mp.mpf(eta) / 2
        low = thr * (1 - mp.ldexp(m_max + 3, 2 - mp.mp.prec))
        tails = [tail_product(P, r_f * a, tol) for a in range(a_max + 1)]
        if all(v + e < low for v, e in tails):  # no prefix is extended
            return []
        phi = _orbit_phi(P, rings, tol)
        upper_of = [v + e for v, e in phi]
        order = sorted(range(len(rings)), key=upper_of.__getitem__,
                       reverse=True)
        zero = order.index(len(rings) - 1)  # the zero vector's position
        gap = 2 * mp.mpf(tol)
        groups = _merge_groups(walk(low), tol)
        # same comparison as the merge: a member this close to thr may be
        # linked to a dropped candidate with an earlier id
        if any(g[-1].predicted >= eta and g[0].predicted - thr <= gap
               for g in groups):
            groups = _merge_groups(walk(0), tol)
        kept = [min(g, key=lambda c: int(c.id)) for g in groups]
        kept = [c for c in kept if c.predicted >= eta]
        kept.sort(key=lambda c: (-c.predicted, int(c.id)))
    return kept


def _round_field(w: FieldElement) -> int:
    """Nearest integer to the real embedding of w, remainder in (-1/2, 1/2].

    A rational w rounds exactly.  Otherwise the embedding is rounded at the
    certified precision, rejected when within 2^-(precision_bits/2) of a
    half-integer, and cross-checked against a higher-precision re-embedding.
    """
    P = w.P
    pb = P.precision_bits
    if w.is_rational():
        return math.ceil(w.as_fraction() - Fraction(1, 2))
    w1 = embed(w, 1, pb + 64)
    if -pb + max(0, mp.mag(w1)) >= -2:
        raise PrecisionExhaustedError(
            f"rounding a value of magnitude 2^{mp.mag(w1)} is not reliable "
            f"at {pb} bits"
        )
    with mp.workprec(pb + _coeff_bits(w) + GUARD_BITS):
        K, _ = _nearest_int(w1, pb, "value")
        w2 = embed(w, 1, pb + 192)
        if _nearest_int(w2, pb, "value", exact=True)[0] != K:
            raise PrecisionExhaustedError(
                "rounding changed under a higher-precision re-embedding"
            )
    return K


def synthesize_sequence(P: PisotNumber, z_list: Sequence[ElementLike],
                        A: int, r: ElementLike, k: int) -> int:
    """The k-th integer index n_k whose sampled value approaches the
    prediction of limit_value(P, z_list, A, r): the nearest integer to
    (2r)^-1 * sum_i z_i theta^((M+1-i)k), plus A.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    zs = _ring_list(P, z_list)
    r_f = _as_multiplier(P, r)
    s = sum(z * ring_theta_pow(P, (len(zs) - i) * k)
            for i, z in enumerate(zs))
    w = field_invert(r_f * 2) * s
    return _round_field(w) + A


def product_law_residual(P: PisotNumber, lam: ElementLike, a: ElementLike,
                         b: ElementLike, n: int, tol: float = 1e-20):
    """|phi_lambda(a + b theta^n) - phi_lambda(a) phi_lambda(b)|: how far the
    doubled-frequency product is from multiplicative on theta-power splits."""
    if n < 1:
        raise ValueError("n must be >= 1")
    q = _as_field_element(P, a) + _as_field_element(P, b) * ring_theta_pow(P, n)
    with mp.workprec(P.precision_bits + GUARD_BITS):
        joint, _ = phi_lambda(P, lam, q, tol)
        left, _ = phi_lambda(P, lam, a, tol)
        right, _ = phi_lambda(P, lam, b, tol)
        return abs(joint - left * right)
