"""Exact arithmetic in the cyclotomic field Q(zeta_2h).

Elements are rational coefficient vectors of length phi(2h) modulo the
minimal polynomial Phi_2h(x), with q mapped to the class of x, so
q = zeta_2h = e^{i pi / h} and q^2 is a primitive h-th root of unity.
Since Phi_2h(x) divides both x^{2h} - 1 and Phi_h(x^2), the relations
q^{2h} = 1 and Phi_h(q^2) = 0 hold exactly by construction; the latter is
what makes vanishing at a root of unity a statement about integer
exponents rather than about numerically small values.

Also home to the exact integer coefficients of the cyclotomic polynomials
themselves, obtained by repeated exact division of x^n - 1.
"""

import functools
from fractions import Fraction

from mpmath import mp, mpc, mpf


@functools.cache
def cyclotomic_coeffs(d):
    """Coefficients of Phi_d, ascending degree, exact integers."""
    if d < 1:
        raise ValueError("cyclotomic index must be >= 1, got %d" % d)
    poly = [-1] + [0] * (d - 1) + [1]  # x^d - 1
    for e in range(1, d):
        if d % e == 0:
            poly = _exact_div(poly, cyclotomic_coeffs(e))
    return tuple(poly)


def _exact_div(num, den):
    """Divide integer polynomials exactly (remainder must vanish)."""
    num = list(num)
    dn, dd = len(num) - 1, len(den) - 1
    out = [0] * (dn - dd + 1)
    for i in range(dn - dd, -1, -1):
        c = num[i + dd] // den[dd]
        out[i] = c
        for j, dj in enumerate(den):
            num[i + j] -= c * dj
    if any(num):
        raise ArithmeticError("non-exact cyclotomic division")
    return out


class CycloField:
    """Q(zeta_2h) with dense exact-rational coordinates."""

    def __init__(self, h):
        if h < 2:
            raise ValueError("field order parameter h must be >= 2, got %d" % h)
        self.h = h
        self.n = 2 * h
        self.minpoly = cyclotomic_coeffs(self.n)
        self.degree = len(self.minpoly) - 1
        # reduction rows: x^k mod Phi_2h for k = degree .. top, which covers
        # both a product (up to x^{2 degree - 2}) and a power (below x^{2h})
        top = max(2 * self.degree - 2, self.n - 1)
        rows = []
        row = [-c for c in self.minpoly[:-1]]  # x^degree (minpoly is monic)
        rows.append(tuple(row))
        for _ in range(top - self.degree):
            shifted = [0] + row[:-1]
            lead = row[-1]
            row = [s + lead * r for s, r in zip(shifted, rows[0])]
            rows.append(tuple(row))
        self._red = rows
        self.zero = CycloNumber(self, (Fraction(0),) * self.degree)
        self.one = self.from_rational(1)
        self.q = self.element_from_power(1)

    def from_rational(self, r):
        c = [Fraction(0)] * self.degree
        c[0] = Fraction(r)
        return CycloNumber(self, tuple(c))

    def element_from_power(self, k):
        """The class of x^k; exponents reduce mod 2h since x^{2h} = 1."""
        k %= self.n
        if k < self.degree:
            c = [Fraction(0)] * self.degree
            c[k] = Fraction(1)
            return CycloNumber(self, tuple(c))
        return CycloNumber(self, tuple(Fraction(v)
                                       for v in self._red[k - self.degree]))

    def q_power(self, P):
        return self.element_from_power(P)

    def _reduce(self, conv):
        out = list(conv[:self.degree]) + [Fraction(0)] * (self.degree - len(conv))
        for k in range(self.degree, len(conv)):
            ck = conv[k]
            if ck:
                for j, rj in enumerate(self._red[k - self.degree]):
                    if rj:
                        out[j] += ck * rj
        return tuple(out[:self.degree])


class CycloNumber:
    """An element of Q(zeta_2h).  Elements of two CycloField objects of one
    h are of one field: they compare equal where their coefficients are,
    and mix in arithmetic.  Arithmetic between fields of different h
    raises ValueError."""
    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        self.field = field
        self.coeffs = tuple(coeffs)

    def is_zero(self):
        return not any(self.coeffs)

    def __eq__(self, other):
        return (isinstance(other, CycloNumber)
                and self.field.h == other.field.h
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash(self.coeffs)

    def _coeffs_of(self, other):
        """other's coefficients, where it is of this field."""
        if other.field is not self.field and other.field.h != self.field.h:
            raise ValueError("elements of Q(zeta_%d) and Q(zeta_%d) do not mix"
                             % (self.field.n, other.field.n))
        return other.coeffs

    def __add__(self, other):
        return CycloNumber(self.field, tuple(
            a + b for a, b in zip(self.coeffs, self._coeffs_of(other))))

    def __sub__(self, other):
        return CycloNumber(self.field, tuple(
            a - b for a, b in zip(self.coeffs, self._coeffs_of(other))))

    def __neg__(self):
        return CycloNumber(self.field, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            o = Fraction(other)
            return CycloNumber(self.field, tuple(a * o for a in self.coeffs))
        deg, other = self.field.degree, self._coeffs_of(other)
        conv = [Fraction(0)] * (2 * deg - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other):
                    if b:
                        conv[i + j] += a * b
        return CycloNumber(self.field, self.field._reduce(conv))

    __rmul__ = __mul__

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero field element")
        # extended Euclid in Q[x] against the minimal polynomial
        r0 = [Fraction(c) for c in self.field.minpoly]
        r1 = list(self.coeffs)
        s0, s1 = [Fraction(0)], [Fraction(1)]
        while any(r1):
            q, r = _poly_divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1))
        const = r0[0]  # gcd with an irreducible minpoly is a nonzero constant
        inv = [c / const for c in s0]
        inv += [Fraction(0)] * (self.field.degree - len(inv))
        return CycloNumber(self.field, self.field._reduce(inv))

    def __truediv__(self, other):
        return self * other.inverse()

    def __pow__(self, n):
        n = int(n)
        base = self if n >= 0 else self.inverse()
        n = abs(n)
        out = None
        while n:
            if n & 1:
                out = base if out is None else out * base
            n >>= 1
            if n:
                base = base * base
        return self.field.one if out is None else out

    def conjugate(self):
        """Image under complex conjugation, x^k -> x^{-k}."""
        f = self.field
        conv = [Fraction(0)] * f.n
        for k, c in enumerate(self.coeffs):
            conv[-k % f.n] += c
        return CycloNumber(f, f._reduce(conv))

    def embed(self, prec=256):
        """Numeric value at zeta_2h = e^{i pi / h}, binary precision prec;
        a real mpf, exactly, where the element is fixed by conjugation."""
        with mp.workprec(prec):
            zeta = mp.e ** (mpc(0, mp.pi / self.field.h))
            acc = mpc(0)
            for c in reversed(self.coeffs):
                acc = acc * zeta + mpf(c.numerator) / mpf(c.denominator)
            return acc.real if self == self.conjugate() else acc

    def __repr__(self):
        return "CycloNumber(h=%d, %s)" % (self.field.h, list(self.coeffs))


def _poly_trim(p):
    while len(p) > 1 and p[-1] == 0:
        p.pop()
    return p


def _poly_divmod(a, b):
    a = [Fraction(c) for c in a]
    b = _poly_trim([Fraction(c) for c in b])
    q = [Fraction(0)] * max(1, len(a) - len(b) + 1)
    for i in range(len(a) - len(b), -1, -1):
        c = a[i + len(b) - 1] / b[-1]
        q[i] = c
        if c:
            for j, bj in enumerate(b):
                a[i + j] -= c * bj
    return _poly_trim(q), _poly_trim(a)


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return _poly_trim(out)


def _poly_sub(a, b):
    out = [Fraction(0)] * max(len(a), len(b))
    for i, ai in enumerate(a):
        out[i] += ai
    for i, bi in enumerate(b):
        out[i] -= bi
    return _poly_trim(out)
