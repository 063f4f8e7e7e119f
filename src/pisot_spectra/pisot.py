"""Certified Pisot numbers and exact arithmetic in Z[theta] and Q(theta).

A Pisot number theta > 1 is the dominant root of a monic integer polynomial

    x^m - d_1 x^{m-1} - ... - d_m

whose remaining roots theta_2, ..., theta_m all lie strictly inside the unit
disk.  Elements of Z[theta] are stored as integer coefficient vectors in the
power basis (1, theta, ..., theta^{m-1}) and reduced through the defining
recurrence theta^m = d_1 theta^{m-1} + ... + d_m, so ring arithmetic is exact
with unbounded integers.  Q(theta) uses the same basis over Fraction.

The numerical layer (root certification, embeddings, nearest-integer data)
runs on mpmath big floats; Newton refinement of the roots runs on
fixed-point Python ints and hands back mpmath values.  Operations that round state their working
precision and raise rather than silently degrade: a value too close to a
half-integer raises AmbiguousRoundingError, an unsatisfiable precision
precondition raises PrecisionExhaustedError.
"""

from __future__ import annotations

import cmath
import functools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence, Union

import mpmath as mp

from .errors import (
    AmbiguousRoundingError,
    NoDominantRealRootError,
    NotPisotError,
    NotSquarefreeError,
    PrecisionExhaustedError,
)

# |theta_i| must stay below 1 by at least this margin for certification.
UNIT_DISK_MARGIN_BITS = 20
# Extra guard bits for root refinement and embeddings.
GUARD_BITS = 64

Coeffs = Sequence[int]


# -- integer polynomial utilities (descending coefficient lists) -----------


def _trim(coeffs: list) -> list:
    i = 0
    while i < len(coeffs) and coeffs[i] == 0:
        i += 1
    return coeffs[i:]


def _primitive(coeffs: list) -> list:
    g = 0
    for c in coeffs:
        g = math.gcd(g, abs(c))
    g = g or 1
    return [c // g for c in coeffs]


def _poly_derivative(coeffs: list) -> list:
    n = len(coeffs) - 1
    return [c * (n - i) for i, c in enumerate(coeffs[:-1])]


def _int_poly_gcd_degree(f: list, g: list) -> int:
    """Degree of gcd(f, g) via a primitive pseudo-remainder sequence.

    Exact over the integers, no fraction blowup: each remainder is divided
    by its content before the next step.
    """
    f = _primitive(_trim(list(f)))
    g = _primitive(_trim(list(g)))
    if len(f) < len(g):
        f, g = g, f
    while g:
        if len(g) == 1:
            return 0
        dg = len(g) - 1
        r = list(f)
        while r and len(r) - 1 >= dg:
            lead = r[0]
            r = [g[0] * c for c in r]
            for i in range(dg + 1):
                r[i] -= lead * g[i]
            r = _trim(r)
        f, g = g, _primitive(r)
    return len(f) - 1


@dataclass(frozen=True)
class MinimalPolynomial:
    """Monic integer polynomial x^m - d_1 x^{m-1} - ... - d_m."""

    d: tuple[int, ...]

    def __post_init__(self):
        if len(self.d) == 0:
            raise ValueError("need at least one coefficient")
        if any(not isinstance(c, int) for c in self.d):
            raise ValueError("coefficients must be integers")
        if self.d[-1] == 0:
            raise NotPisotError(
                "constant term is zero, so 0 is a root; a scaling ratio > 1 "
                "with all conjugates inside the unit disk needs d_m != 0"
            )

    @property
    def degree(self) -> int:
        return len(self.d)

    def monic_desc(self) -> list[int]:
        """Coefficients [1, -d_1, ..., -d_m], highest degree first."""
        return [1] + [-c for c in self.d]

    def __call__(self, x):
        acc = x * 0 + 1
        for c in self.monic_desc()[1:]:
            acc = acc * x + c
        return acc

    def is_squarefree(self) -> bool:
        f = self.monic_desc()
        return _int_poly_gcd_degree(f, _poly_derivative(f)) == 0


def _root_estimates(poly: MinimalPolynomial):
    """All complex roots of poly to about float64 accuracy, or None.

    Durand-Kerner (Weierstrass) iteration in Python complex arithmetic,
    started on a circle of radius 1 + max |d_i|, which holds every root.
    Returns None when the steps have not settled within 200 sweeps or two
    iterates meet.
    """
    desc = poly.monic_desc()
    m = poly.degree
    radius = 1 + max(abs(c) for c in poly.d)
    z = [radius * cmath.exp(1j * (2 * math.pi * k / m + 0.4))
         for k in range(m)]
    for _ in range(200):
        worst = 0.0
        for i in range(m):
            value, den = 1, 1
            for c in desc[1:]:
                value = value * z[i] + c
            for j in range(m):
                if j != i:
                    den *= z[i] - z[j]
            if den == 0:
                return None
            step = value / den
            z[i] -= step
            worst = max(worst, abs(step))
        if worst <= 2.0 ** -50 * radius:
            return z
    return z if worst <= 2.0 ** -20 * radius else None


def _newton_refine(poly: MinimalPolynomial, x0, prec: int):
    """Polish a simple root estimate to `prec` bits (quadratic convergence).

    Newton runs on fixed-point complex ints with F = prec + 48 fractional
    bits: one Horner pass gives f and f', each product floored back to F
    bits, and the step f/f' is one floor division.  It stops once
    |step| <= 2^-(prec+8) max(1, |x|).  An imaginary part within
    2^-(prec/2) of zero is snapped to zero, and the root comes back as an
    mpc rounded to prec + 32 bits.
    """
    F = prec + 48
    with mp.workprec(prec + 32):
        x0 = mp.mpc(x0)
        xr, xi = int(mp.ldexp(x0.real, F)), int(mp.ldexp(x0.imag, F))
    one = 1 << F
    coeffs = [c << F for c in poly.monic_desc()[1:]]
    for _ in range(prec.bit_length() * 8 + 40):
        fr, fi, dr, di = one, 0, 0, 0
        for c in coeffs:  # f' <- f' x + f, then f <- f x + c
            dr, di = (((dr * xr - di * xi) >> F) + fr,
                      ((dr * xi + di * xr) >> F) + fi)
            fr, fi = ((fr * xr - fi * xi) >> F) + c, (fr * xi + fi * xr) >> F
        den = dr * dr + di * di
        if den == 0:
            raise PrecisionExhaustedError(
                "derivative vanished during refinement")
        sr = ((fr * dr + fi * di) << F) // den
        si = ((fi * dr - fr * di) << F) // den
        xr, xi = xr - sr, xi - si
        # |step| <= 2^-(prec+8) max(1, |x|), squared and in units of 2^-2F
        if ((sr * sr + si * si) << (2 * prec + 16)
                <= max(one * one, xr * xr + xi * xi)):
            break
    if abs(xi) <= 1 << (F - prec // 2):
        xi = 0
    with mp.workprec(prec + 32):
        return mp.mpc(mp.ldexp(xr, -F), mp.ldexp(xi, -F))


@dataclass(frozen=True, eq=False)
class PisotNumber:
    """A certified Pisot number with its conjugate embeddings.

    theta is real > 1; `conjugates` holds theta_2..theta_m; rho is the largest
    conjugate modulus (0 when m = 1) and governs how fast ||z theta^j|| decays;
    delta_max is the exact rational threshold 1/(1 + sum |d_i|) below which
    the nearest-integer recurrence is guaranteed.
    """

    poly: MinimalPolynomial
    theta: mp.mpf
    conjugates: tuple
    rho: mp.mpf
    delta_max: Fraction
    precision_bits: int
    _root_cache: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def m(self) -> int:
        return self.poly.degree

    @property
    def d(self) -> tuple[int, ...]:
        return self.poly.d

    def ring(self, coeffs: Union[int, Coeffs]) -> "RingElement":
        if isinstance(coeffs, int):
            coeffs = (coeffs,) + (0,) * (self.m - 1)
        return RingElement(self, tuple(coeffs))

    def field(self, coeffs) -> "FieldElement":
        if isinstance(coeffs, (int, Fraction)):
            coeffs = (coeffs,) + (0,) * (self.m - 1)
        return FieldElement(self, tuple(coeffs))

    def theta_ring(self) -> "RingElement":
        """theta itself as a ring element."""
        if self.m == 1:
            return self.ring(self.d[0])
        return self.ring((0, 1) + (0,) * (self.m - 2))

    def root_at(self, which: int, prec: int):
        """The `which`-th root (1 = theta, an mpf; theta_2..theta_m are mpc)
        refined to at least `prec` bits, cached per root and 64-bit bucket.

        build_pisot returns one instance per (digits, precision) in a
        process, so a root refined once is kept for every later call."""
        bucket = max(self.precision_bits, ((prec + 63) // 64) * 64)
        cached = self._root_cache.get((which, bucket))
        if cached is None:
            if self.m == 1:
                cached = mp.mpf(self.d[0])
            else:
                root = self.theta if which == 1 else self.conjugates[which - 2]
                cached = _newton_refine(self.poly, root, bucket + GUARD_BITS)
                if which == 1:
                    cached = mp.re(cached)
            self._root_cache[(which, bucket)] = cached
        return cached

    def theta_at(self, prec: int) -> mp.mpf:
        """theta refined to at least `prec` bits (see root_at)."""
        return self.root_at(1, prec)

    def log2_theta(self) -> float:
        return float(mp.log(self.theta) / mp.log(2))

    def __eq__(self, other):
        return isinstance(other, PisotNumber) and self.d == other.d

    def __hash__(self):
        return hash(self.d)

    def __repr__(self):
        return f"PisotNumber(d={self.d}, theta~{mp.nstr(self.theta, 12)})"


def _to_mpf(x):
    """x as an mpf at the ambient precision; mpmath cannot take a Fraction."""
    if isinstance(x, Fraction):
        return mp.mpf(x.numerator) / x.denominator
    return mp.mpf(x)


def _theta_value(theta, prec: int | None = None):
    """The base of a PisotNumber, refined to `prec` bits when given, or a
    plain number converted at `prec` bits (default: the ambient precision)
    and checked to exceed 1.
    """
    if isinstance(theta, PisotNumber):
        return theta.theta if prec is None else theta.theta_at(prec)
    with mp.workprec(prec or mp.mp.prec):
        th = _to_mpf(theta)
    if not 1 < th < mp.inf:
        raise ValueError(f"theta must be finite and exceed 1, got {theta}")
    return th


def _delta_max(poly: MinimalPolynomial) -> Fraction:
    return Fraction(1, 1 + sum(abs(c) for c in poly.d))


def build_pisot(d: Coeffs, precision_bits: int = 256) -> PisotNumber:
    """Certify the dominant root of x^m - d_1 x^{m-1} - ... - d_m as Pisot.

    Each (digits, precision) is certified once per process: later calls
    return the same PisotNumber, whose root_at cache then keeps its refined
    roots across calls.  A refused base raises again on every call.

    Root estimates come from Durand-Kerner iteration in float64 complex
    arithmetic (_root_estimates) and are Newton-refined to
    precision_bits + 64 bits on fixed-point complex ints (_newton_refine).
    When that iteration does not settle, or two refined roots coincide,
    mp.polyroots at the working precision takes over.  Certification requires a real dominant root > 1, every other
    root of modulus <= 1 - 2^-20, squarefree input, and polynomial
    residuals below 2^-(precision_bits-16).

    Reducibility is not tested directly: a squarefree reducible polynomial
    with nonzero constant term always has a second factor whose root product
    is a nonzero integer, hence a root of modulus >= 1 outside the dominant
    one, and such inputs are rejected here as not Pisot anyway.
    """
    if precision_bits < 64:
        raise ValueError("precision_bits must be at least 64")
    # read before the cache, where 1.0 would meet the key of 1
    try:
        d = tuple(operator.index(c) for c in d)
    except TypeError:
        raise ValueError("coefficients must be integers") from None
    return _certify(d, precision_bits)


@functools.lru_cache(maxsize=64)
def _certify(d: tuple, precision_bits: int) -> PisotNumber:
    """build_pisot's certification of the digits d; lru_cache caches no
    exception."""
    poly = MinimalPolynomial(d)
    if not poly.is_squarefree():
        raise NotSquarefreeError(f"{poly.d} has a repeated root")
    m = poly.degree
    work = precision_bits + GUARD_BITS

    if m == 1:
        n = poly.d[0]
        if n <= 1:
            raise NoDominantRealRootError(f"x - {n} has no real root exceeding 1")
        with mp.workprec(work):
            return PisotNumber(poly, mp.mpf(n), (), mp.mpf(0), _delta_max(poly),
                               precision_bits)

    with mp.workprec(work):
        estimates = _root_estimates(poly)
        refined = [_newton_refine(poly, mp.mpc(r), work)
                   for r in estimates or ()]
        sep = mp.mpf(2) ** (-(precision_bits // 2))
        collided = estimates is None or any(
            abs(refined[i] - refined[j]) < sep
            for i in range(len(refined))
            for j in range(i + 1, len(refined))
        )
        if collided:
            # the float estimates did not settle, or funneled into one
            # root; use the arbitrary-precision solver instead
            refined = [
                mp.mpc(r)
                for r in mp.polyroots([mp.mpf(c) for c in poly.monic_desc()],
                                      maxsteps=200, extraprec=work)
            ]

        real_gt1 = [r for r in refined if mp.im(r) == 0 and mp.re(r) > 1]
        if not real_gt1:
            raise NoDominantRealRootError(
                f"{poly.d}: no real root exceeding 1, nothing to certify"
            )
        theta_c = max(real_gt1, key=lambda r: mp.re(r))
        others = list(refined)
        others.remove(theta_c)

        margin = 1 - mp.mpf(2) ** -UNIT_DISK_MARGIN_BITS
        for r in others:
            if abs(r) > margin:
                raise NotPisotError(
                    f"{poly.d}: non-dominant root of modulus {mp.nstr(abs(r), 10)} "
                    f"is not inside the unit disk by margin 2^-{UNIT_DISK_MARGIN_BITS} "
                    "(Salem or borderline case; reducible inputs also land here)"
                )

        resid_cap = mp.mpf(2) ** (-(precision_bits - 16))
        for r in [theta_c] + others:
            if abs(poly(r)) > resid_cap:
                raise PrecisionExhaustedError(
                    f"root residual {mp.nstr(abs(poly(r)), 6)} exceeds the "
                    f"certification cap 2^-({precision_bits}-16)"
                )

        theta = mp.re(theta_c)
        conjugates = tuple(sorted(others, key=lambda r: (mp.re(r), mp.im(r))))
        rho = max(abs(r) for r in conjugates)
        return PisotNumber(poly, theta, conjugates, rho, _delta_max(poly),
                           precision_bits)


# -- exact arithmetic -------------------------------------------------------


def _mul_by_theta(coeffs: list, d: tuple) -> list:
    """One exact reduction step: multiply a power-basis vector by theta."""
    m = len(d)
    top = coeffs[m - 1]
    return [top * d[m - 1]] + [coeffs[i - 1] + top * d[m - 1 - i] for i in range(1, m)]


def _div_by_theta_scaled(coeffs: list, d: tuple) -> list:
    """d_m times a power-basis vector divided by theta: the inverse step of
    _mul_by_theta up to the factor d_m, so an integer vector stays integer.

    theta^-1 = (theta^(m-1) - d_1 theta^(m-2) - ... - d_(m-1)) / d_m, so the
    result is d_m times the shifted vector plus c_0 times that numerator.
    """
    m = len(d)
    top = coeffs[0]
    return [d[m - 1] * coeffs[i + 1] - top * d[m - 2 - i]
            for i in range(m - 1)] + [top]


def _theta_columns(coeffs: list, d: tuple) -> list:
    """x theta^i, i = 0..m-1: the columns of multiplication by x in the
    power basis.  Their diagonal entries sum to the trace of x."""
    cols = [list(coeffs)]
    for _ in range(len(d) - 1):
        cols.append(_mul_by_theta(cols[-1], d))
    return cols


def _reduce_product(a, b, d):
    """Schoolbook product in the power basis, reduced top-down."""
    m = len(d)
    prod = [0] * (2 * m - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            prod[i + j] += ai * bj
    for k in range(2 * m - 2, m - 1, -1):
        c = prod[k]
        if c == 0:
            continue
        prod[k] = 0
        for i in range(1, m + 1):
            prod[k - i] += d[i - 1] * c
    return prod[:m]


def _pow_coeffs(base, k: int, d: tuple) -> list:
    """base^k in the power basis, k >= 0, by binary powering."""
    out = [1] + [0] * (len(d) - 1)
    while k:
        if k & 1:
            out = _reduce_product(out, base, d)
        k >>= 1
        if k:
            base = _reduce_product(base, base, d)
    return out


class _Element:
    """Shared storage and arithmetic of RingElement and FieldElement.

    Promotion rule: a result stays in Z[theta] only when both operands are
    ring elements or ints; a Fraction or a field element operand makes it a
    field element.  Other operands (floats included) are NotImplemented.
    """

    __slots__ = ("P", "coeffs")
    _coeff = None  # coefficient type of the subclass: int or Fraction

    def __init__(self, P: PisotNumber, coeffs: tuple):
        if len(coeffs) != P.m:
            raise ValueError(f"need exactly {P.m} coefficients, got {len(coeffs)}")
        object.__setattr__(self, "P", P)
        object.__setattr__(self, "coeffs", tuple(map(self._coeff, coeffs)))

    def __setattr__(self, *_):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def _operand(self, other):
        """(result class, coefficients of other), or None if other is not an
        element of this base or a rational scalar."""
        if isinstance(other, _Element):
            if other.P != self.P:
                raise ValueError("elements live over different Pisot numbers")
            coeffs = other.coeffs
        elif isinstance(other, (int, Fraction)):
            coeffs = (other,) + (0,) * (self.P.m - 1)
        else:
            return None
        in_ring = isinstance(self, RingElement) and isinstance(other, (RingElement, int))
        return (RingElement if in_ring else FieldElement), coeffs

    def __add__(self, other):
        op = self._operand(other)
        if op is None:
            return NotImplemented
        cls, b = op
        return cls(self.P, tuple(x + y for x, y in zip(self.coeffs, b)))

    __radd__ = __add__

    def __neg__(self):
        return type(self)(self.P, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        op = self._operand(other)
        if op is None:
            return NotImplemented
        cls, b = op
        return cls(self.P, tuple(x - y for x, y in zip(self.coeffs, b)))

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        op = self._operand(other)
        if op is None:
            return NotImplemented
        cls, b = op
        if isinstance(other, (int, Fraction)):
            return cls(self.P, tuple(c * other for c in self.coeffs))
        return cls(self.P, tuple(_reduce_product(self.coeffs, b, self.P.d)))

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.coeffs[0] == other
        return (
            isinstance(other, _Element)
            and self.P == other.P
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        # int and Fraction hash alike, so equal ring and field values agree
        return hash((self.P.d, self.coeffs))


class RingElement(_Element):
    """Exact element a_0 + a_1 theta + ... + a_{m-1} theta^{m-1} of Z[theta]."""

    __slots__ = ()
    _coeff = int

    def one_norm(self) -> int:
        return sum(abs(c) for c in self.coeffs)

    def to_field(self) -> "FieldElement":
        return FieldElement(self.P, self.coeffs)

    def __repr__(self):
        return f"RingElement{self.coeffs}"


class FieldElement(_Element):
    """Element of Q(theta): rational coefficients in the theta-power basis."""

    __slots__ = ()
    _coeff = Fraction

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("element is irrational")
        return self.coeffs[0]

    def __truediv__(self, other):
        op = self._operand(other)
        if op is None:
            return NotImplemented
        return self * field_invert(FieldElement(self.P, op[1]))

    def __rtruediv__(self, other):
        op = self._operand(other)
        if op is None:
            return NotImplemented
        return FieldElement(self.P, op[1]) * field_invert(self)

    def __repr__(self):
        return f"FieldElement{tuple(str(c) for c in self.coeffs)}"


# -- operations -------------------------------------------------------------


def ring_theta_pow(P: PisotNumber, j: int) -> RingElement:
    """theta^j reduced mod the minimal polynomial, j >= 0."""
    if j < 0:
        raise ValueError("negative powers live in Q(theta); use field arithmetic")
    return RingElement(P, tuple(_pow_coeffs(P.theta_ring().coeffs, j, P.d)))


def _coeff_bits(x) -> int:
    vals = [1]
    for c in x.coeffs:
        if isinstance(c, Fraction):
            vals.append(abs(c.numerator))
            vals.append(c.denominator)
        else:
            vals.append(abs(c))
    return max(v.bit_length() for v in vals)


def embed(x, which: int, prec: int | None = None):
    """Evaluate x at the `which`-th root (1 = the real embedding theta).

    Returns mpf for which=1 and mpc otherwise.  Working precision is the
    requested precision plus guard bits covering the coefficient sizes, and
    the root is root_at's at that precision.
    """
    P = x.P
    if not 1 <= which <= P.m:
        raise ValueError(f"embedding index must be in 1..{P.m}")
    return _evaluate(x, which, (prec or P.precision_bits) + _coeff_bits(x)
                     + GUARD_BITS)


def _evaluate(x, which: int, work: int):
    """x at the `which`-th root by Horner's rule at work bits, with root_at's
    root at that precision."""
    with mp.workprec(work):
        root = x.P.root_at(which, work)
        acc = mp.mpf(0) if which == 1 else mp.mpc(0)
        for c in reversed(x.coeffs):
            acc = acc * root + _to_mpf(c)
        return acc


def _as_field_element(P: PisotNumber, x) -> FieldElement:
    if isinstance(x, (RingElement, FieldElement)):
        if x.P != P:
            raise ValueError("element belongs to a different Pisot base")
        return FieldElement(P, x.coeffs)
    return P.field(Fraction(x))


def _as_multiplier(P: PisotNumber, r) -> FieldElement:
    """The sampling multiplier r as a field element, checked positive."""
    r_f = _as_field_element(P, r)
    if embed(r_f, 1) <= 0:
        raise ValueError("r must be positive")
    return r_f


def _nearest_int(x, pb: int, what: str, exact: bool = False):
    """Nearest integer K = ceil(x - 1/2) and remainder delta = x - K in
    (-1/2, 1/2], at the ambient precision.

    Unless x is exact, a remainder within 2^-(pb//2) of +-1/2 could round
    either way and raises AmbiguousRoundingError naming `what`.
    """
    half = mp.mpf(1) / 2
    K = int(mp.ceil(x - half))
    delta = x - K
    margin = mp.mpf(2) ** (-(pb // 2))
    if not exact and min(abs(delta - half), abs(delta + half)) < margin:
        raise AmbiguousRoundingError(
            f"{what} lies within 2^-{pb // 2} of a half-integer"
        )
    return K, delta


def nearest_int_data(x: RingElement, j: int):
    """Nearest integer K and remainder delta of x * theta^j, delta in (-1/2, 1/2].

    Two independent routes are cross-checked: (i) direct high-precision
    embedding of the exact ring product x * theta^j; (ii) the conjugate
    trace: x theta^j + sum_{i>=2} embed(x, i) theta_i^j is a rational
    integer, so delta = -sum_{i>=2} embed(x, i) theta_i^j whenever that sum
    has modulus below 1/2.  Disagreement beyond 2^-(precision_bits/2) raises
    PrecisionExhaustedError; a remainder within that margin of +-1/2 raises
    AmbiguousRoundingError.  (x theta^j with x in Z[theta] and j >= 0 is
    never an exact half-integer: rational elements of Z[theta] are rational
    integers, handled exactly below.)
    """
    if j < 0:
        raise ValueError("j must be >= 0")
    P = x.P
    pb = P.precision_bits
    if -pb + j * P.log2_theta() + math.log2(max(1, x.one_norm())) >= -2:
        raise PrecisionExhaustedError(
            f"rounding x*theta^{j} with |coeffs|={x.one_norm()} is not "
            f"reliable at {pb} bits"
        )
    w = x * ring_theta_pow(P, j)
    if w.is_rational():
        return w.coeffs[0], mp.mpf(0)

    margin = mp.mpf(2) ** (-(pb // 2))
    w1 = embed(w, 1, pb + int(j * P.log2_theta()) + 8)
    with mp.workprec(pb + GUARD_BITS):
        K, delta = _nearest_int(w1, pb, f"x*theta^{j}")
        trace = mp.mpc(0)
        for i in range(2, P.m + 1):
            trace += embed(x, i) * P.conjugates[i - 2] ** j
        if abs(mp.im(trace)) > margin:
            raise PrecisionExhaustedError("conjugate trace has a non-real residue")
        tr = mp.re(trace)
        if abs(tr) < mp.mpf(1) / 2 and abs(-tr - delta) > margin:
            raise PrecisionExhaustedError(
                f"direct and trace-route remainders for x*theta^{j} disagree "
                f"beyond 2^-{pb // 2}"
            )
    return K, delta


def field_invert(r) -> FieldElement:
    """Exact inverse in Q(theta): the solution x of r * x = 1.

    The columns r theta^j, j = 0..m-1, come from _theta_columns, and
    Gauss-Jordan elimination over Fraction solves for the coordinates of 1.
    A singular system means r is a zero divisor.
    """
    if isinstance(r, RingElement):
        r = r.to_field()
    if r.is_zero():
        raise ZeroDivisionError("cannot invert 0 in Q(theta)")
    P = r.P
    m = P.m
    cols = _theta_columns(r.coeffs, P.d)
    # augmented rows [r theta^0 .. r theta^(m-1) | e_0]
    rows = [[cols[j][i] for j in range(m)] + [Fraction(int(i == 0))] for i in range(m)]
    for c in range(m):
        pivot = next((i for i in range(c, m) if rows[i][c] != 0), None)
        if pivot is None:
            raise ZeroDivisionError(
                "element shares a factor with the defining polynomial (zero divisor)"
            )
        rows[c], rows[pivot] = rows[pivot], rows[c]
        p = rows[c][c]
        rows[c] = [x / p for x in rows[c]]
        for i in range(m):
            f = rows[i][c]
            if i != c and f != 0:
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    out = FieldElement(P, tuple(row[m] for row in rows))
    if out * r != 1:
        raise ArithmeticError("inverse failed its exact verification")
    return out


def dist_decay(z: RingElement, j_max: int):
    """Distances ||z theta^j|| to the nearest integer for j = 0..j_max, plus
    the certified constant C_z = sum_{i>=2} |embed(z, i)| bounding them by
    C_z rho^j."""
    P = z.P
    with mp.workprec(P.precision_bits + GUARD_BITS):
        c_z = mp.mpf(0)
        for i in range(2, P.m + 1):
            c_z += abs(embed(z, i))
    dists = [abs(nearest_int_data(z, j)[1]) for j in range(j_max + 1)]
    return dists, c_z
