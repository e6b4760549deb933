"""Exact arithmetic in the cyclotomic field Q(zeta_2h).

Elements are rational coefficient vectors of length phi(2h) modulo the
minimal polynomial Phi_2h(x), with q mapped to the class of x, so
q = zeta_2h = e^{i pi / h} and q^2 is a primitive h-th root of unity.
Since Phi_2h(x) divides both x^{2h} - 1 and Phi_h(x^2), the relations
q^{2h} = 1 and Phi_h(q^2) = 0 hold exactly by construction; the latter is
what makes vanishing at a root of unity a statement about integer
exponents rather than about numerically small values.

A coefficient is a Python int until a division makes it rational (a
Fraction): the classes of x^k, and so every sum and product of them, stay
in Z[x], free of any common denominator.  The inverse is one
fraction-free solve: scaled to integer coefficients by their common
denominator D, an element's multiplication matrix M on the power basis
(column j is D * self * x^j) is solved for M c = e_0 by Bareiss
elimination, in which every division is exact, and the inverse is D * c.

Also home to the exact integer coefficients of the cyclotomic polynomials
themselves, obtained by repeated exact division of x^n - 1.
"""

import functools
import math
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
        self.zero = CycloNumber(self, (0,) * self.degree)
        self.one = self.from_rational(1)
        self.q = self.element_from_power(1)

    def from_rational(self, r):
        c = [0] * self.degree
        c[0] = r if type(r) is int else Fraction(r)
        return CycloNumber(self, tuple(c))

    def element_from_power(self, k):
        """The class of x^k; exponents reduce mod 2h since x^{2h} = 1."""
        k %= self.n
        if k < self.degree:
            c = [0] * self.degree
            c[k] = 1
            return CycloNumber(self, tuple(c))
        return CycloNumber(self, self._red[k - self.degree])

    def q_power(self, P):
        return self.element_from_power(P)

    def _reduce(self, conv):
        out = list(conv[:self.degree]) + [0] * (self.degree - len(conv))
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
            return CycloNumber(self.field,
                               tuple(a * other for a in self.coeffs))
        deg, other = self.field.degree, self._coeffs_of(other)
        conv = [0] * (2 * deg - 1)
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
        f, n = self.field, self.field.degree
        D = math.lcm(*(c.denominator for c in self.coeffs))
        # the columns D * self * x^j of the multiplication matrix, each
        # the last times x, reduced by x^degree = _red[0]
        cols = [[int(c * D) for c in self.coeffs]]
        for _ in range(n - 1):
            last = cols[-1]
            cols.append([last[-1] * r + s
                         for r, s in zip(f._red[0], [0] + last[:-1])])
        # Bareiss elimination on [M | e_0]: each division is exact
        m = [list(row) + [int(i == 0)] for i, row in enumerate(zip(*cols))]
        prev = 1
        for k in range(n):
            # M is invertible, self being nonzero in a field
            p = next(i for i in range(k, n) if m[i][k])
            m[k], m[p] = m[p], m[k]
            pivot, pk = m[k], m[k][k]
            for i in range(k + 1, n):
                row, a = m[i], m[i][k]
                m[i] = [(pk * x - a * y) // prev for x, y in zip(row, pivot)]
            prev = pk
        # back substitution for y = det * c, an integer vector
        det, y = prev, [0] * n
        for i in range(n - 1, -1, -1):
            row = m[i]
            t = det * row[n] - sum(row[j] * y[j] for j in range(i + 1, n))
            y[i] = t // row[i]
        return CycloNumber(f, tuple(_rational(D * v, det) for v in y))

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
        conv = [0] * f.n
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


def _rational(num, den):
    """num / den, an int where den divides num."""
    q, r = divmod(num, den)
    return Fraction(num, den) if r else q
