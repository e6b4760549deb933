"""Reference values for the benchmark, computed without the package.

Nothing here calls the compiler or the projection code.  The quantum 6j
symbol is summed straight from the q-Racah formula with quantum integers
[n] = sin(n theta) / sin(theta), q = e^{i theta}, at a working precision
chosen by the caller.  The angle is carried as an exact rational multiple
of pi (a Fraction), so theta is formed by mpmath inside that working
precision, and sin(n theta) is set to exactly zero when n theta / pi is
an integer.  That zero is the fusion truncation at a root of unity: a
term whose numerator factorial contains [h] vanishes, and where more
such zeros divide than multiply the symbol has a pole (see sixj).  The
prefactor is the principal square root of the whole radicand, the
product of the four triangle coefficients.

The sum is plain mpmath arithmetic, term by term, at the working
precision plus GUARD bits; [n] comes from its three-term recurrence.

The classical symbol (q = 1) is the exact-rational Racah sum.
"""

from fractions import Fraction
from math import factorial

from mpmath import mp, mpf

TRIADS = ((0, 1, 2), (0, 4, 5), (1, 3, 5), (2, 3, 4))
GUARD = 32


def admissible(ta, tb, tc, level=None):
    """Triangle rule on twice-spins, plus sum <= 2 * level at a level."""
    s = ta + tb + tc
    if s % 2 or not abs(ta - tb) <= tc <= ta + tb:
        return False
    return level is None or s <= 2 * level


def sixj_admissible(tj, level=None):
    return all(admissible(tj[i], tj[j], tj[k], level) for i, j, k in TRIADS)


def racah_bounds(tj):
    """Triad half-sums a_i, opposite-pair half-sums b_y and the z range."""
    a = [(tj[i] + tj[j] + tj[k]) // 2 for i, j, k in TRIADS]
    b = [(tj[0] + tj[1] + tj[3] + tj[4]) // 2,
         (tj[0] + tj[2] + tj[3] + tj[5]) // 2,
         (tj[1] + tj[2] + tj[4] + tj[5]) // 2]
    return a, b, max(a), min(b)


def max_qint_index(tj):
    """Largest n for which the 6j at tj needs [n]."""
    a, b, _, z_max = racah_bounds(tj)
    return max(z_max + 1, max(a) + 1, max(b))


class Pole(ArithmeticError):
    """The 6j symbol has a pole at this root of unity."""


class QTable:
    """[n] and [n]! at q = e^{i pi t} for n <= n_max, as mpmath numbers
    at `bits` + GUARD bits.

    [n] runs the recurrence [n+1] = 2 cos(theta) [n] - [n-1] from [0] = 0
    and [1] = 1, with cos(theta) = cospi(t) formed at that precision.
    With t = m/h in lowest terms, [n] is exactly zero when h divides n;
    fact[n] is the product of the non-zero [m] for m <= n, and
    zeros(n) = n // h counts the vanishing factors it leaves out.
    """

    def __init__(self, t, n_max, bits):
        t = Fraction(t)
        if t.denominator == 1:
            raise ValueError("oracle: q = +-1 is not a generic point")
        self.h = t.denominator
        self.bits = bits
        self.prec = bits + GUARD
        with mp.workprec(self.prec):
            c2 = 2 * mp.cospi(mpf(t.numerator) / t.denominator)
            qint = [mpf(0), mpf(1)]
            for n in range(2, n_max + 1):
                qint.append(mpf(0) if n % self.h == 0
                            else c2 * qint[-1] - qint[-2])
            fact = [mpf(1)]
            for n in range(1, n_max + 1):
                fact.append(fact[-1] * qint[n] if qint[n] else fact[-1])
        self.qint = qint
        self.fact = fact

    def zeros(self, n):
        return n // self.h


class SixJValue:
    """value = S * sqrt(R); abs_sum = sum_z |T_z| * |sqrt(R)|."""

    __slots__ = ("value", "abs_sum", "bits")

    def __init__(self, value, abs_sum, bits):
        self.value = value
        self.abs_sum = abs_sum
        self.bits = bits


def sixj(tj, table):
    """q-Racah sum for twice-spins tj with quantum integers from table.

    The order of a factor is its number of vanishing [m]: numerator
    zeros minus denominator zeros.  Terms of higher order than the
    lowest vanish (the fusion truncation at an admissible level, where
    the radicand has order 0).  A negative total order, radicand order
    halved plus the lowest term order, is a pole and raises Pole.  Any
    other case with vanishing factors (0/0 in a surviving term, or a
    symbol that vanishes identically) raises ValueError; the benchmark
    asks for none of them.
    """
    a, b, z_min, z_max = racah_bounds(tj)
    f, zeros = table.fact, table.zeros
    with mp.workprec(table.prec):
        rad, order = mpf(1), 0
        for i, j, k in TRIADS:
            s = (tj[i] + tj[j] + tj[k]) // 2
            for n in (s - tj[k], s - tj[j], s - tj[i]):
                rad *= f[n]
                order += zeros(n)
            rad /= f[s + 1]
            order -= zeros(s + 1)
        terms = []
        for z in range(z_min, z_max + 1):
            den = [z - ai for ai in a] + [by - z for by in b]
            terms.append((zeros(z + 1) - sum(map(zeros, den)), z, den))
        low = min(t[0] for t in terms)
        if order + 2 * low < 0:
            raise Pole("oracle: pole of %s at h = %d" % (tj, table.h))
        if order or low or any(zeros(z + 1) for o, z, _ in terms if o == 0):
            raise ValueError("oracle: no finite non-zero value of %s at "
                             "h = %d" % (tj, table.h))
        total = abs_total = mpf(0)
        for o, z, den in terms:
            if o:
                continue
            d = f[den[0]]
            for x in den[1:]:
                d *= f[x]
            term = f[z + 1] / d
            total += -term if z % 2 else term
            abs_total += abs(term)
        root = mp.sqrt(rad)   # principal root: imaginary if rad < 0
        return SixJValue(total * root, abs_total * abs(root), table.bits)


def sixj_at(tj, t, bits):
    """One 6j at q = e^{i pi t}; builds its own quantum-integer table."""
    return sixj(tj, QTable(t, max_qint_index(tj), bits))


def classical_sixj(tj):
    """Exact (S, R) with the classical 6j equal to S * sqrt(R)."""
    a, b, z_min, z_max = racah_bounds(tj)
    rad = Fraction(1)
    for i, j, k in TRIADS:
        ta, tb, tc = tj[i], tj[j], tj[k]
        s = (ta + tb + tc) // 2
        rad *= Fraction(factorial(s - tc) * factorial(s - tb)
                        * factorial(s - ta), factorial(s + 1))
    total = 0
    for z in range(z_min, z_max + 1):
        den = 1
        for ai in a:
            den *= factorial(z - ai)
        for by in b:
            den *= factorial(by - z)
        term = Fraction(factorial(z + 1), den)
        total += -term if z % 2 else term
    return Fraction(total), rad


def rel_error(got, ref):
    """Error of a number against a SixJValue, as an mpf: relative to
    |value|, or to abs_sum when the value is zero to the oracle's
    precision.  An exact zero matches only an exact zero."""
    if ref.abs_sum == 0:
        return mpf(0) if got == 0 else mpf("inf")
    with mp.workprec(ref.bits):
        scale = abs(ref.value)
        if scale <= ref.abs_sum * mpf(2) ** (32 - ref.bits):
            scale = ref.abs_sum
        return abs(got - ref.value) / scale


def self_check(truth, bits=512, level=500, tol=5e-5):
    """Largest relative deviation of the oracle from a published column
    {j: value} of symmetric 6j symbols at `level`; raises if above tol."""
    table = QTable(Fraction(1, level + 2), 4 * max(truth) + 2, bits)
    worst = 0.0
    for j, ref in truth.items():
        v = sixj((2 * j,) * 6, table).value
        dev = float(abs(v - ref) / abs(ref))
        if dev > tol:
            raise AssertionError("oracle self-check: j=%d gives %s, "
                                 "published %s" % (j, v, ref))
        worst = max(worst, dev)
    return worst
