"""Reference evaluator for the benchmark's output checks.

It shares no code with `pisot_spectra`.  Roots come from `mp.polyroots`,
and the transform and the two-sided product are direct mpmath products
with their own truncation rule: a product stops once the next cosine
argument is below 2^-(bits/2 + 4), so every omitted factor differs from 1
by less than 2^-(bits + 8) and the whole omitted tail, a geometric series,
by less than 2^-bits relative.  Arguments are formed without reduction
mod 1, at a working precision that covers their magnitude.

    base = Base((1, 1))                 # x^2 - x - 1
    mu_hat(base, Fraction(5, 2))        # prod_{k>=0} cos(2 pi t theta^-k)
    phi(base, (1, 0))                   # prod_{j in Z} |cos(pi z theta^j)|
"""

from __future__ import annotations

from fractions import Fraction

import mpmath as mp

# precision of the cached roots; enough for |t| up to 2^300 at 256 bits
ROOT_BITS = 1200
DEFAULT_BITS = 256


def _mpf(x):
    """Exact rationals and mpf values as mpf at the current precision."""
    if isinstance(x, Fraction):
        return mp.mpf(x.numerator) / x.denominator
    return mp.mpf(x)


class Base:
    """Roots of x^m - d_1 x^(m-1) - ... - d_m: theta (the real root of
    largest modulus) and the other roots, at ROOT_BITS bits."""

    def __init__(self, d):
        self.d = tuple(int(c) for c in d)
        self.m = len(self.d)
        with mp.workprec(ROOT_BITS + 64):
            coeffs = [1] + [-c for c in self.d]
            if self.m == 1:
                roots = [mp.mpc(self.d[0])]
            else:
                roots = mp.polyroots(coeffs, maxsteps=400,
                                     extraprec=ROOT_BITS)
            roots = [mp.mpc(r) for r in roots]
            real = [r for r in roots if abs(mp.im(r)) < mp.mpf(2) ** -600]
            top = max(real, key=lambda r: mp.re(r))
            self.theta = +mp.re(top)
            self.others = tuple(r for r in roots if r is not top)
            self.rho = max((abs(r) for r in self.others), default=mp.mpf(0))

    def value(self, coeffs, bits: int = ROOT_BITS):
        """Real value of sum_i c_i theta^i (power-basis coordinates)."""
        with mp.workprec(bits + 64):
            acc = mp.mpf(0)
            for c in reversed(tuple(coeffs)):
                acc = acc * self.theta + _mpf(c)
            return acc

    def conjugate_mass(self, coeffs):
        """sum over the other roots of |sum_i c_i theta_j^i|."""
        with mp.workprec(128):
            total = mp.mpf(0)
            for root in self.others:
                acc = mp.mpc(0)
                for c in reversed(tuple(coeffs)):
                    acc = acc * root + _mpf(c)
                total += abs(acc)
            return total


def mu_hat(base: Base, t, bits: int = DEFAULT_BITS):
    """prod_{k>=0} cos(2 pi t theta^-k) within 2^-bits relative error plus
    2^-(bits+48) absolute.  A rational t theta^-k that is an odd multiple
    of 1/4 is an exact zero factor and gives exactly 0."""
    if isinstance(t, (int, str)):
        t = Fraction(t)
    if t == 0:
        return mp.mpf(1)
    exact = t if isinstance(t, Fraction) else None
    if exact is not None:
        mag = exact.numerator.bit_length() - exact.denominator.bit_length()
    else:
        mag = int(mp.mag(t))
    work = bits + max(0, mag) + 64
    stop = mp.mpf(2) ** -(bits // 2 + 4)
    with mp.workprec(work):
        th = +base.theta
        arg = 2 * mp.pi * _mpf(t)
        value = mp.mpf(1)
        while abs(arg) >= stop:
            if exact is not None:
                if (4 * exact).denominator == 1 and (4 * exact).numerator % 2:
                    return mp.mpf(0)
                exact = exact / base.d[0] if base.m == 1 else None
            value *= mp.cos(arg)
            arg /= th
        return +value


def phi(base: Base, coeffs, bits: int = DEFAULT_BITS):
    """prod_{j in Z} |cos(pi w theta^j)| for w = sum_i c_i theta^i.

    w must make w theta^j tend to integers (w in Z[theta], or a field
    element with integral traces).  The ascending side stops once
    pi C rho^j, with C the conjugate mass of w, is below the cut: C rho^j
    bounds the distance of w theta^j to the nearest integer.
    """
    stop = mp.mpf(2) ** -(bits // 2 + 4)
    with mp.workprec(128):
        mass = base.conjugate_mass(coeffs)
        steps = 0
        if mass > 0:
            while mp.pi * mass * base.rho ** steps >= stop:
                steps += 1
        w_abs = abs(base.value(coeffs, 128))
    if w_abs == 0:
        return mp.mpf(1)
    grow = int(steps * float(mp.log(base.theta, 2)))
    work = bits + max(0, int(mp.mag(w_abs))) + grow + 64
    with mp.workprec(work):
        th = +base.theta
        w = base.value(coeffs, work)
        value = mp.mpf(1)
        x = w
        for _ in range(steps):
            value *= abs(mp.cospi(x))
            x *= th
        x = w / th
        while mp.pi * abs(x) >= stop:
            value *= abs(mp.cospi(x))
            x /= th
        return +value


def theta_power(d, n: int) -> tuple:
    """Integer power-basis coordinates of theta^n, n >= 0, reducing with
    theta^m = d_1 theta^(m-1) + ... + d_m."""
    m = len(d)
    coeffs = [1] + [0] * (m - 1)
    for _ in range(n):
        top = coeffs[-1]
        coeffs = [0] + coeffs[:-1]
        for i in range(m):
            coeffs[m - 1 - i] += d[i] * top
    return tuple(coeffs)


def ring_scale(d, b, power: int) -> tuple:
    """Coordinates of b * theta^power."""
    m = len(d)
    out = [0] * m
    for i, bi in enumerate(b):
        if bi:
            for j, c in enumerate(theta_power(d, i + power)):
                out[j] += bi * c
    return tuple(out)


def nearest_digits(base: Base, y, count: int, bits: int = DEFAULT_BITS):
    """(K_j, delta_j) with K_j the nearest integer to y theta^j, j = 1..count."""
    grow = int(count * float(mp.log(base.theta, 2)))
    with mp.workprec(bits + grow + 64):
        x = _mpf(y)
        out = []
        for _ in range(count):
            x *= base.theta
            k = int(mp.nint(x))
            out.append((k, x - k))
        return out
