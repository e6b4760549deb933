"""Field projections of cyclotomic monomials and DCR evaluation.

Every target arithmetic (complex double, extended binary precision, the
exact field Q(zeta_2h), the classical q -> 1 limit) is one ring
homomorphism on the quantum-integer basis s_n = q^n - q^{-n}.  A monomial
folds, by integer work alone (qfactor.fold), into

    sigma * q^{P'} * prod_n s_n^{F_n},   sum_n F_n = 0,

so each arithmetic may scale s_n freely: a context holds sin(n theta) on
the unit circle q = e^{i theta} (real), q^n - q^{-n} off it, x^n - x^{-n}
in Q(zeta_2h), and n at q = 1.  At a root of unity e^{i pi a/h} exactly
the s_n with h | n vanish, and the vanishing order of a row is the sum
of F_n over those n (its monomial's exponent e_h): a positive order
projects to an exact zero, a negative one raises PoleError, and at order
zero each vanishing s_n takes its limit (-1)^{an/h} n.  The classical
limit is the case a = 0, h = 1.  lattice_order decides when a numeric q
is such a root.

Every scalar context of a numeric q, double or extended, builds its
table by one rule (_extended_ring): fixed point, S_n ~ s_n 2^W with W the
bits plus guard bits, from one recurrence S_{n+1} = c S_n - S_{n-1}
(_recurrence).  On the unit circle the S_n are integers ~ sin(n theta)
2^W, c = 2 cos(theta), from the unit x = q/|q|, or x = e^{i pi a/h} at a
root of unity, where a vanishing entry is its limit (-1)^{an/h} n 2^W
exactly; off it they are Gaussian integers ~ (q^n - q^-n) 2^W, c = q +
1/q.  No fixed-point entry is rounded, every one is within 2^-bits of
its s_n, relative, and the lattice test on a unit-circle table compares
integers, exactly.  Double takes that table at 53 + 64 bits and rounds each entry
(each part of a complex one) once to the nearest double, so every entry
is its s_n correctly rounded, a limit exactly n, and a part past double
range +-inf.  SweepEvaluator keeps a rule of its own (_circle_tables)
for a whole grid at once, since one integer recurrence per point costs
more than a whole sweep: sin(n theta), n = mB + k, is Im(e^{i mB theta}
e^{i k theta}), a product of two block rotations, each of an exact block
angle by Veltkamp's split of theta, limits included.  Each entry is
within 13u of sin(n theta) for the double theta, absolute (measured:
2.3u at worst), not correctly rounded.  Off the circle the sweep reads
its table as the kernel does, log|s_n| and arg s_n, from _off_circle:
v = n log q, taken with Re v > 0, and s_n = +-e^v (1 - e^{-2v}), the
bracket an expm1, so no q^n is formed, none overflows and q^n - q^-n
does not cancel near the circle.

A row's image multiplies the entries that share an exponent f and
raises each group once, prod_f (prod_{F_n = f} s_n)^f.  A DCR carries
its rows from when it is built (compiler.DCR): evaluate and
SweepEvaluator read them alone, orders included, and never a monomial.

Evaluating a DCR walks the ratio chain once by each term's running
vanishing order, which decides the live terms (order zero), where the
sum stops and whether it has a pole, and returns the amplitude as a pair
(a, r) meaning a * sqrt(r); for a 6j every row has P' = 0, so on the
unit circle a, r and root are real.

make_context is the one place an arithmetic is decided: it gives each
context one ring, and project_monomial, evaluate and amplitude_to_complex
ask that ring and read no tag.  A ring has bits, the precision of its
outputs in extended precision and else None; sides(row), a row's
numerator and denominator, sigma and q^P' applied; mul, add, quotient
and quotients; and bound_terms(nums), which bounds the terms of a chain,
the running products of its rows' numerators, where the arithmetic has
a range.  Every ring nests the sum, S = R_0 (l_0 + R_1 (l_1 + ...)) over
the rows R_i and live flags l_i, as one fraction, from a row's two
sides, a product, a sum and one quotient per output.  Its instances:
for every extended-precision q, on the unit circle or off it and
whatever a row's P', one fixed-point ring of integer (or Gaussian
integer) pairs with 64 guard bits, so a, root and r are each rounded
once and the rounding error of a does not grow with the condition
number of the sum (up to about 2^50): a is within a few units of 2^-bits
sum_z |root T_z| of its exact value, the error of its table entries;
Q(zeta_2h), where a and root share one inverse of their denominator and
r has its own; the integers at q = 1, with one Fraction per output; and
double, each row its image, rounded as it is formed, over one.  In
double a row's numerator (image times q^P'), a term of the sum (root
left off) and an output past double range raise ProjectionRangeError, as
they did when double multiplied its terms out one by one, and so does a
row that reads an entry past range.
"""

import cmath
import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from mpmath import mp, mpc, mpf
from mpmath.libmp import normalize, to_fixed

from .cyclofield import CycloField, CycloNumber
from .qfactor import fold

# unit roundoff of a q given as a Python or numpy double
_U_DOUBLE = 2.0 ** -53
_OVERFLOWED = ("evaluation overflowed double precision; use an "
               "extended-precision tag")


class PoleError(ArithmeticError):
    """A negative exponent at the vanishing cyclotomic index."""


class ProjectionRangeError(ArithmeticError):
    """Projection left the representable range of the target arithmetic."""


@dataclass(frozen=True)
class ComplexDouble:
    pass


@dataclass(frozen=True)
class ComplexExtended:
    bits: int

    def __post_init__(self):
        if self.bits < 53:
            raise ValueError("extended precision needs >= 53 bits, got %d" % self.bits)


@dataclass(frozen=True)
class RootOfUnityExact:
    h: int

    def __post_init__(self):
        if self.h < 3:
            raise ValueError("root-of-unity order h must be >= 3, got %d" % self.h)


@dataclass(frozen=True)
class Classical:
    pass


@dataclass(frozen=True)
class AmplitudeValue:
    """Amplitude a * sqrt(r); exact regimes satisfy A^2 = a^2 * r exactly.

    a already contains the integer half of the prefactor (a = root * S),
    so the branch of sqrt(r) is not free: the full prefactor root*sqrt(r)
    must be the principal square root of root^2 * r.  The root field
    carries the projected integer half alone so the branch can be fixed
    without squaring (root can over- or underflow when squared).
    """
    a: object
    r: object
    root: object


@dataclass(frozen=True, eq=False)
class ProjectionContext:
    """Immutable bundle: field tag, q, the output arithmetic's one, the
    vanishing index and the ring that decides the arithmetic; the ring
    holds the table s[n], n = 1..d_max, the vanishing entries already
    replaced by their limits."""
    tag: object
    q: object
    one: object
    d_max: int
    vanishing_index: int = None
    ring: object = None


def unit_circle_q(h, tag):
    """q = e^{i pi / h} in the tag's arithmetic."""
    if isinstance(tag, ComplexDouble):
        return cmath.exp(1j * math.pi / h)
    if isinstance(tag, ComplexExtended):
        with mp.workprec(tag.bits):
            return mp.expjpi(mpf(1) / h)
    raise ValueError("unit_circle_q applies to numeric tags only")


def lattice_order(sines, u, scale=None):
    """Order h of the root of unity e^{i pi a/h} that q = e^{i theta} is,
    to the roundoff u of the precision q was given in, or 0.

    sines[..., n - 1] = sin(n theta) for n = 1..n_max; leading axes of a
    float array (the sweep's) are independent points.  Given a scale W,
    sines is one point's fixed-point table (every scalar context's),
    integers S_n ~ sin(n theta) 2^W.  The test is |sin(n theta)| <= 64 n
    u, the roundoff of forming sin(n theta) from a rounded q, and h is the
    first n that passes.  On a fixed-point table it is |S_n| <= 64 n u
    2^W, decided exactly on integers for any binary u, so it holds below
    double range too."""
    if scale is not None:
        mu, eu = mp.convert(u).man_exp  # u = mu 2^eu, exactly
        shift = eu + scale + 6  # 64 n u 2^W = n mu 2^shift
        for n, v in enumerate(sines, 1):
            if (abs(v) <= (n * mu) << shift if shift >= 0
                    else abs(v) << -shift <= n * mu):
                return n
        return 0
    sines = np.asarray(sines)
    bound = 64 * np.arange(1, sines.shape[-1] + 1) * u
    hit = (sines <= bound) & (sines >= -bound)
    return np.where(hit.any(axis=-1), hit.argmax(axis=-1) + 1, 0)


def _on_circle(q, u):
    return abs(abs(q) - 1) <= 4 * u


def _take_limits(s, a, h, one):
    """Replace each vanishing s_n, h | n, at e^{i pi a/h} by its limit."""
    for n in range(h, len(s), h):
        s[n] = one * (-n if (a * n // h) % 2 else n)
    return s


def _recurrence(c, s1, d_max, scale, s0):
    """[s0, S_1, ..., S_{d_max}], S_n ~ s_n 2^scale, from S_0 = 0, S_1 =
    s1 and S_{n+1} = c S_n 2^-scale - S_{n-1}, one big-int product each,
    rounded to a unit: the recurrence of s_n = q^n - q^-n, up to a common
    factor, for c ~ (q + 1/q) 2^scale.  A rounding error made at step k
    reaches entry n multiplied by s_{n-k}/s_1.

    On the unit circle q = e^{i theta} the entries are ints, S_n ~ sin(n
    theta) 2^scale from c = 2 cos(theta) 2^scale, and that factor is
    sin((n - k) theta)/sin(theta), so _extended_ring takes scale = bits +
    2 log2(d_max) + 10 + max(0, -log2|sin theta|): every entry is then
    within 2^-bits of sin(n theta), relative, and no entry is rounded.

    Off it the entries are _Gaussian, each product rounded to nearest in
    its real part and down in its imaginary part.  With M_n = max(|q|^n,
    |q|^-n), s_j/s_1 is a sum of j powers of q of modulus at most M_n, so
    each rounding error, and the errors of c and S_1, reach entry n
    within n^2 M_n units in all, up to a small factor; and |s_n| >= M_n
    (1 - m^2), m = min(|q|, 1/|q|) < 1, so relative to s_n that is at
    most -log2(1 - m^2) bits more: the bits the subtraction q^n - q^-n
    cancels where q^{2n} is near 1.  _extended_ring takes scale = bits +
    2 log2(d_max) + 10 + max(0, -log2(1 - m^2)), and every entry is then
    within 2^-bits of s_n, relative.  Its steps run on the two int parts,
    one _Gaussian made per entry."""
    half = 1 << (scale - 1)
    s = [s0]
    if type(c) is int:
        prev, cur = 0, s1
        for _ in range(d_max):
            s.append(cur)
            prev, cur = cur, ((c * cur + half) >> scale) - prev
        return s
    cr, ci = c.real, c.imag
    prev_r, prev_i, cur_r, cur_i = 0, 0, s1.real, s1.imag
    for _ in range(d_max):
        s.append(_Gaussian(cur_r, cur_i))
        prev_r, prev_i, cur_r, cur_i = cur_r, cur_i, \
            ((cr * cur_r - ci * cur_i + half) >> scale) - prev_r, \
            ((cr * cur_i + ci * cur_r) >> scale) - prev_i
    return s


def _sines(x, d_max, scale):
    """_recurrence's table of the unit x = e^{i theta} given at scale bits:
    c = 2 Re x and S_1 = Im x at scale, and s[0] the value (x 2^scale,
    -scale)."""
    g = _fixed(x, scale + 1)
    return _recurrence(g.real, g.imag >> 1, d_max, scale, (g >> 1, -scale))


class _Gaussian:
    """A Gaussian integer real + i imag, the mantissa of a fixed-point
    complex value.  It has the operations _FixedPoint applies to an int
    mantissa, with an int on either side, and an int has its real, imag
    and bit_length too."""
    __slots__ = ("real", "imag")

    def __init__(self, real, imag):
        self.real, self.imag = real, imag

    def __mul__(self, y):
        return _Gaussian(self.real * y.real - self.imag * y.imag,
                         self.real * y.imag + self.imag * y.real)

    def __add__(self, y):
        return _Gaussian(self.real + y.real, self.imag + y.imag)

    __rmul__, __radd__ = __mul__, __add__

    def __lshift__(self, k):
        return _Gaussian(self.real << k, self.imag << k)

    def __rshift__(self, k):
        return _Gaussian(self.real >> k, self.imag >> k)

    def bit_length(self):
        return max(self.real.bit_length(), self.imag.bit_length())


def _fixed(z, scale):
    """An mpc z times 2^scale, each part rounded down to an integer."""
    return _Gaussian(to_fixed(z.real._mpf_, scale),
                     to_fixed(z.imag._mpf_, scale))


def _rounded(S, unit):
    """S / unit in double, S an int and unit an int 2^W: rounded once, to
    nearest, by an int division (which rounds correctly where float(S)
    would overflow first), and +-inf past double range."""
    try:
        return S / unit
    except OverflowError:
        return math.inf if S > 0 else -math.inf


def _circle_tables(theta, d_max):
    """(s, h) in double at the points e^{i theta}, theta a 1-d array, the
    sweep's tables: s[:, n - 1] = sin(n theta), n <= d_max, and h each
    point's lattice_order.  At a root of unity e^{i pi a/h} the entries
    are formed again from the exact angle, each vanishing one at its
    limit.

    Elsewhere each entry is a rotation of two block factors: n = mB + k,
    B = ceil(sqrt(d_max + 1)), m < M = d_max // B + 1 and k < B, and s_n
    = Im(e^{i mB theta} e^{i k theta}), one (M, 2) @ (2, B) product a
    point.  Veltkamp's split theta = hi + lo (Dekker, 1971) leaves hi 53 -
    b bits, b = d_max.bit_length(), so every block angle j hi, j <= d_max,
    is exact, and |j lo| < 2^(2b - 51).  A factor is e^{i j hi} e^{i j
    lo}: each exp of an exact angle (j lo to within u |j lo|, a small
    fraction of u) is within u of its parts, u = 2^-53, and a complex
    product adds at most sqrt(5) u (Brent, Percival and Zimmermann,
    2007), so a factor is within 2 sqrt(2) u + sqrt(5) u, about 5.1u, of
    e^{i j theta}.  s_n, two products and a sum over two such factors,
    is then within about 2 * 5.1u + 2u = 12.2u, under 13u with the
    second-order terms, of sin(n theta), absolute, for the double theta.

    Measured against mpmath at d_max 101, 619 and 2500, on 16 angles each
    (12 seeded in (-pi, pi), four within 1e-3 of 0 and of +-pi), the
    median entry is off by 0.2-0.3u and the worst by 1.8-2.3u; np.sin of
    a rounded n theta, the rule this replaces, was off by a median of
    5-160u and a worst of 260-4060u there.  The table costs 2(M + B),
    about 4 sqrt(d_max), complex exps a point, against d_max sines.  Its
    entries are exact for the double theta, not for the q it came from,
    and not correctly rounded, unlike a scalar context's (make_context).
    """
    B = math.isqrt(d_max) + 1
    M = d_max // B + 1
    split = theta * (2.0 ** d_max.bit_length() + 1)
    hi = split - (split - theta)
    j = np.concatenate([np.arange(M) * B, np.arange(B)])
    e = np.exp(np.multiply.outer(1j * hi, j)) \
        * np.exp(np.multiply.outer(1j * (theta - hi), j))
    # Im(x y) = Re x Im y + Im x Re y, x = e^{i mB theta} and y = e^{i k
    # theta}, on views of e's (re, im) pairs
    e = e.view(float).reshape(len(theta), M + B, 2)
    s = np.matmul(e[:, :M], e[:, M:, ::-1].transpose(0, 2, 1))
    s = s.reshape(len(theta), M * B)[:, 1:d_max + 1]
    n = np.arange(1, d_max + 1)
    h = lattice_order(s, _U_DOUBLE)
    pts = np.nonzero(h)[0]
    if len(pts):
        hp = h[pts, None]
        k = np.rint(hp * theta[pts, None] / np.pi).astype(np.int64) \
            * n % (2 * hp)  # a n mod 2h
        s[pts] = np.where(n % hp == 0, np.where(k == hp, -n, n),
                          np.sin(np.pi * k / hp))
    return s, h


def _extended_ring(q, d_max, u, bits):
    """(q, h, ring) at bits: the fixed-point ring of a table at scale W
    (_recurrence), and h or None.  Off the circle the table is q's, s[0]
    is the value q at scale W + max(0, -log2|q|), so that it keeps W bits
    where |q| < 1, and q is kept.  On the circle it is _sines', of x =
    q/|q| formed once at W bits, or of x = e^{i pi a/h} at a root of
    unity, whose vanishing entries take their limits (-1)^{an/h} n 2^W
    exactly; the q returned is x rounded to bits."""
    # |q| is 1 to roundoff on the circle, so q.imag bounds sin(theta); an
    # exact 0 (q = +-1) is the lattice point h = 1, whose entries all vanish
    guard = bits + 2 * d_max.bit_length() + 10
    W = guard + (max(0, -mp.mag(q.imag)) if q.imag else 0)
    with mp.workprec(W):
        r = abs(q)
        if not _on_circle(r, u):
            W = guard + max(0, -mp.mag(1 - min(r, 1 / r) ** 2))
            with mp.workprec(W + 10):
                c, s1 = _fixed(q + 1 / q, W), _fixed(q - 1 / q, W)
            k = W + max(0, -mp.mag(q))
            s = _recurrence(c, s1, d_max, W, (_fixed(q, k), -k))
            return q, None, _FixedPoint(s, W, bits)
        x = q / r
    s = _sines(x, d_max, W)
    h = lattice_order(s[1:], u, W)
    if h:
        # a double angle serves: it only rounds h theta/pi
        a = round(h * cmath.phase(complex(x)) / math.pi)
        with mp.workprec(W):
            x = mp.expjpi(mpf(a) / h)
        s = _take_limits(_sines(x, d_max, W), a, h, 1 << W)
    with mp.workprec(bits):
        return +x, h or None, _FixedPoint(s, W, bits)


def make_context(tag, d_max, q=None):
    d_max = max(d_max, 2)
    if isinstance(tag, (ComplexDouble, ComplexExtended)):
        if q is None or q == 0 or not mp.isfinite(q):
            raise ValueError("q must be nonzero and finite, got %s" % (q,))
        # double rounds each entry once from a table 64 bits wider than
        # its own: correctly, unless it lies within 2^-117 of a tie,
        # relative
        double = isinstance(tag, ComplexDouble)
        bits = 53 + 64 if double else tag.bits
        if double:
            q = complex(q)
        u = _U_DOUBLE if isinstance(q, (int, float, complex)) \
            else mpf(2) ** -bits
        with mp.workprec(bits):
            q = mpc(q)
        q, h, ring = _extended_ring(q, d_max, u, bits)
        if not double:
            return ProjectionContext(tag, q, mpf(1), d_max, h, ring)
        # off the circle an entry's two int parts are rounded apart
        unit = 1 << ring.scale
        q, s = complex(q), [None] + [
            _rounded(S, unit) if type(S) is int
            else complex(_rounded(S.real, unit), _rounded(S.imag, unit))
            for S in ring.s[1:]]
        ring = _Float64(s, 1.0, functools.partial(pow, q), _finite)
        return ProjectionContext(tag, q, 1.0, d_max, h, ring)
    if q is not None:
        raise ValueError("q applies to numeric tags only, not %r" % (tag,))
    if isinstance(tag, RootOfUnityExact):
        fld, h = CycloField(tag.h), tag.h
        s = [None] + [fld.element_from_power(n) - fld.element_from_power(-n)
                      for n in range(1, d_max + 1)]
        ring = _Values(_take_limits(s, 1, h, fld.one), fld.one, fld.q_power)
        return ProjectionContext(tag, fld.q, fld.one, d_max,
                                 h if h <= d_max else None, ring)
    if isinstance(tag, Classical):
        # q = 1 is e^{i pi 0/1}: every s_n takes its limit n, q^P' is 1, and
        # a row's order there, the sum of its F_n, is 0: none vanishes
        s = _take_limits([None] * (d_max + 1), 0, 1, 1)
        return ProjectionContext(tag, Fraction(1), Fraction(1), d_max, None,
                                 _Values(s, 1, lambda P: 1, Fraction))
    raise ValueError("unknown field tag %r" % (tag,))


def root_of_unity_context(h, tag, d_max):
    """Numeric context at q = e^{i pi / h} covering indices up to d_max."""
    return make_context(tag, d_max, q=unit_circle_q(h, tag))


def project_monomial(m, ctx):
    if m.max_index() > ctx.d_max:
        raise ValueError("monomial index %d exceeds context d_max %d"
                         % (m.max_index(), ctx.d_max))
    return _project(fold(m), ctx)


def _order(row, h):
    """Vanishing order of a row at a root of unity of order h: the sum of
    F_n over the multiples n of h."""
    return sum(f for f, g in row[2] for n in g if n % h == 0)


def _vanishes(row, h):
    """Whether a row's image is an exact zero, its order at the vanishing
    index h positive; PoleError where that order is negative."""
    order = _order(row, h) if h is not None else 0
    if order < 0:
        raise PoleError("inadmissible: pole at Phi_%d" % h)
    return order > 0


def _project(row, ctx):
    """Image of the monomial whose row is given: zero or a pole where the
    row's order at the vanishing index is positive or negative, else the
    row's projection in its context's ring."""
    if _vanishes(row, ctx.vanishing_index):
        return ctx.one * 0
    return ctx.ring.quotient(*ctx.ring.sides(row))


class _Ring:
    """The one place an arithmetic is decided.  A context's ring gives
    bits, the precision of an extended-precision output (None for every
    other arithmetic), and bound_terms.  Beside these, _project reads a
    ring's sides and quotient, and evaluate's nested chain its one, zero,
    sides, mul, add and quotients."""
    bits = None

    def bound_terms(self, nums):
        """Given the numerators of a chain's rows, in order: raise
        where a running product leaves the ring's range.  Only double's
        range is bounded (_Float64)."""


class _FixedPoint(_Ring):
    """The ring of every extended-precision q: a fixed-point table s,
    s_n = S_n 2^-scale, S_n an int on the unit circle and a _Gaussian off
    it, and s[0] the value q, a pair with a scale of its own.  Its values
    are pairs (man, exp), man 2^exp, man an int or a _Gaussian.  A row's
    sides are _row_sides', sigma on the numerator; where P' != 0 they take
    s[0], cut to wide bits, to the power |P'|, as a group of one entry
    would be, on the numerator, or on the denominator where P' < 0, so no
    fixed-point 1/q is kept.  Every product and sum is cut to wide = bits
    + 64 bits, and a quotient is rounded once, to bits, each part of a
    complex one apart: a row's image is within 0.5 ulp plus a few 2^-62
    ulp of the exact product of its entries.  An output is an mpf where
    its mantissas are ints and an mpc where one is a _Gaussian: off the
    circle, or once a row's q^P' has joined it."""
    one, zero = (1, 0), (0, 0)

    def __init__(self, s, scale, bits):
        self.s, self.scale, self.bits, self.wide = s, scale, bits, bits + 64

    def sides(self, row):
        sigma, P, groups = row
        sides = self._row_sides(groups, sigma)
        if P:
            sides[P < 0] = self.mul(sides[P < 0],
                                    self._power(self._cut(*self.s[0]), abs(P)))
        return sides

    def _row_sides(self, groups, sigma=1):
        """The numerator and denominator of sigma prod_f (prod_{F_n = f}
        s_n)^f, each a pair (man, exp) meaning man 2^exp, man a signed
        integer (a _Gaussian off the circle) of at most `wide` bits.

        The sides are formed on the integers S_n themselves, each factor
        adding -scale to the exponent, and every product is cut to its top
        wide bits once it grows past them: each entry of a group, each
        squaring and multiply that raises the group to |f| (_power), and
        the group's product into its side.  A cut changes its value by
        under 2^(1 - wide), relative (sqrt 2 times that for a _Gaussian,
        each part cut alone, and so below), and the power that follows it
        multiplies that by |f| (a group entry) or by at most 2(|f| - 1) in
        all (the squarings), so a side is within T 2^(2 - wide) of the
        exact product of its entries, relative, T = sum (len(g) + 2)|f|
        over its groups."""
        s, scale, wide = self.s, self.scale, self.wide
        sides = [(sigma, 0), (1, 0)]
        for f, g in groups:
            man, exp = 1, -scale * len(g)
            for n in g:
                man *= s[n]
                cut = man.bit_length() - wide
                if cut > 0:
                    man >>= cut
                    exp += cut
            sides[f < 0] = self.mul(sides[f < 0],
                                    self._power((man, exp), abs(f)))
        return sides

    def _power(self, x, k):
        """x^k, k >= 1, by left-to-right squaring, each product cut to
        wide bits."""
        out = x
        for bit in bin(k)[3:]:
            out = self.mul(out, out)
            if bit == "1":
                out = self.mul(out, x)
        return out

    def _cut(self, man, exp):
        """man 2^exp with man cut to its top `wide` bits."""
        cut = man.bit_length() - self.wide
        return (man >> cut, exp + cut) if cut > 0 else (man, exp)

    def mul(self, x, y):
        return self._cut(x[0] * y[0], x[1] + y[1])

    def add(self, x, y):
        (xm, xe), (ym, ye) = (x, y) if x[1] >= y[1] else (y, x)
        return self._cut((xm << (xe - ye)) + ym, ye)

    def quotient(self, num, den):
        """num / den rounded once, to nearest: the integer quotient is
        formed to at least bits + 64 bits, its last bit set where the
        division leaves a remainder, so no exact half-way case is
        invented.  A complex den is made real first, num conj(den) over
        |den|^2, exactly, and each part of a complex quotient is rounded
        so.  A zero denominator raises ZeroDivisionError."""
        (nm, ne), (dm, de) = num, den
        if type(nm) is not int or type(dm) is not int:
            nm, dm = nm * _Gaussian(dm.real, -dm.imag), \
                dm.real ** 2 + dm.imag ** 2
            re, im = (self.quotient((p, ne), (dm, de))
                      for p in (nm.real, nm.imag))
            return mp.make_mpc((re._mpf_, im._mpf_))
        sign = int((nm < 0) != (dm < 0))
        nm, dm = abs(nm), abs(dm)
        shift = max(0, self.wide + dm.bit_length() - nm.bit_length())
        man, rem = divmod(nm << shift, dm)
        if rem:
            man |= 1
        return mp.make_mpf(normalize(sign, man, ne - de - shift,
                                     man.bit_length(), self.bits, "n"))

    def quotients(self, nums, den):
        return [self.quotient(num, den) for num in nums]


class _Values(_Ring):
    """The ring of the arithmetic's own values: Q(zeta_2h), the integers
    at q = 1, or double.  A row's sides are the products of its entries
    of positive and of negative exponent; sigma and q^P' go on the
    numerator, and quotient is an output's one division.  quotients
    divides several numerators by one denominator: in Q(zeta_2h) each is
    a product by its one inverse, which is exact; elsewhere each is its
    own division, so a rounded quotient is rounded once.  _Float64, the
    double ring, makes each row its image over one and checks each
    numerator, output and term against double range."""
    mul, add = staticmethod(operator.mul), staticmethod(operator.add)

    def __init__(self, s, one, q_power, quotient=operator.truediv):
        self.s, self.one, self.zero = s, one, one * 0
        self.q_power, self.quotient = q_power, quotient

    def sides(self, row):
        sigma, P, groups = row
        num, den = _factors(groups, self.s, self.one)
        if P:
            num = num * self.q_power(P)
        return (-num if sigma < 0 else num), den

    def quotients(self, nums, den):
        if isinstance(den, CycloNumber):
            inverse = den.inverse()
            return [num * inverse for num in nums]
        return [self.quotient(num, den) for num in nums]


class _Float64(_Values):
    """The double ring: each row is its image over one, its two products
    divided once (deferring that division saves nothing in double), so
    every denominator is one and a quotient is its numerator.  A row's
    numerator (image, then q^P' and sigma), an output, and every running
    product of a chain's numerators, a term of the sum (root left off),
    must be nonzero finite doubles; one past double range, or one that
    reads an entry past it (+-inf), raises ProjectionRangeError.  Where a
    term passes range the nested sum may still be finite, but near k = 4j
    such sums cancel terms past 2^1024 and are wrong by orders of
    magnitude, so a term past range is refused, as it was when double
    multiplied its terms out."""

    def bound_terms(self, nums):
        if np.log2(np.abs(nums)).cumsum().max() >= 1024:
            raise ProjectionRangeError(_OVERFLOWED)

    def sides(self, row):
        sigma, P, groups = row
        try:
            num, den = _factors(groups, self.s, self.one)
            num = num / den
            if P:
                num = num * self.q_power(P)
        except (OverflowError, ZeroDivisionError):
            # x ** int raises instead of returning inf, and an underflowed
            # denominator divides by zero
            num = math.inf
        if not 0 < abs(num) < math.inf:
            raise ProjectionRangeError("projection left double precision "
                                       "range; use an extended-precision tag")
        return (-num if sigma < 0 else num), 1.0


def _finite(num, den):
    """num, a double quotient over one, where it is finite."""
    if not cmath.isfinite(num):
        raise ProjectionRangeError(_OVERFLOWED)
    return num


def _factors(groups, s, one):
    """The products of a row's powers (prod_{F_n = f} s_n)^|f| of f > 0
    and of f < 0 apart, one where there are none: one power per
    exponent."""
    num, den = [], []
    for f, g in groups:
        g = _product([s[n] for n in g])
        (num if f > 0 else den).append(g if abs(f) == 1 else g ** abs(f))
    return _product(num, one), _product(den, one)


def _product(factors, one=None):
    return functools.reduce(operator.mul, factors) if factors else one


def evaluate(dcr, ctx):
    """Projected sum, returned as AmplitudeValue(a = Pi(root) * sum,
    r = Pi(rad)).

    One walk over the ratio chain (_walk) decides, from each term's
    running vanishing order, which terms are live (order zero), which
    vanish, where the sum stops and whether it has a pole (PoleError);
    root and rad are decided by their own orders.  The vanishing s_n of
    the live terms' rows take their limits.

    Every arithmetic nests the sum, in the context's ring, as one fraction
    A / B, S = R_0 A / B: from the last term walked inward, each ratio's
    sides N_i / D_i take B <- D_i B and A <- N_i A, plus B where l_{i-1}
    is set.  a = root R_0 A / B and root share one denominator, and a,
    root and r are one quotient each; in Q(zeta_2h) a and root are
    products by one inverse of theirs.  In extended precision, on and off
    the circle and whatever the rows' P', a is then within 0.5 ulp (each
    part of a complex a) plus kappa W 2^-(bits + 62), relative, of the
    value its own table entries give, kappa = sum_z |T_z| / |sum_z T_z|
    and W the weight of the cuts (_row_sides' T of every row walked,
    three per ratio and four for a): the error left is the table's, each
    entry within 2^-bits of its s_n.  In double each row is its image
    over one, so B is one and A is a Horner sum, each product and sum
    rounded: a is within about 2m u sum_z |T_z| of the sum of its rows'
    images, m the terms walked, to first order.  Every row is formed
    first, base, ratios, root and rad in that order, and then bound_terms
    is given the walked rows' numerators, so a row past double range is
    reported before a term past it."""
    if ctx.d_max < dcr.d_max:
        raise ValueError("context covers d <= %d but DCR needs %d"
                         % (ctx.d_max, dcr.d_max))
    rows, h, ring = dcr.rows, ctx.vanishing_index, ctx.ring
    live = _walk(rows[:-2], h)
    sides, mul, add = ring.sides, ring.mul, ring.add
    walked = [sides(row) for row in rows[:len(live)]]
    A, B = (ring.one if live[-1] else ring.zero), ring.one
    for i in range(len(live) - 1, 0, -1):
        N, D = walked[i]
        B, A = mul(D, B), mul(N, A)
        if live[i - 1]:
            A = add(A, B)
    root = None if _vanishes(rows[-2], h) else sides(rows[-2])
    r = _project(rows[-1], ctx)
    ring.bound_terms([N for N, _ in walked])
    if root is None:
        return AmplitudeValue(a=ctx.one * 0, r=r, root=ctx.one * 0)
    # one denominator: Q(zeta_2h) inverts it once, far faster than root's
    # own
    (rn, rd), (bn, bd) = root, walked[0]
    root, a = ring.quotients((mul(mul(rn, bd), B), mul(mul(rn, bn), A)),
                             mul(mul(rd, bd), B))
    return AmplitudeValue(a=a, r=r, root=root)


def _walk(rows, h):
    """Live flags of the terms walked in a ratio chain, rows = (base,
    ratio 1, ...): term i, base times ratios 1..i, has as running order
    the sum of those rows' orders at the vanishing index h.  It is live
    at order zero, vanishes at a positive one and is a pole (PoleError)
    at a negative one.  The walk stops once the running order is
    positive and no later ratio has negative order, since every later
    term then vanishes; the base is always walked."""
    if h is None:
        return [True] * len(rows)
    orders = [_order(row, h) for row in rows]
    # past the last ratio of negative order a running order only grows
    last_neg = max((i for i, o in enumerate(orders) if o < 0), default=0)
    live, order = [], 0
    for i, o in enumerate(orders):
        order += o
        if order < 0:
            raise PoleError("inadmissible: pole at Phi_%d" % h)
        if i and order > 0 and i >= last_neg:
            break  # this term and every later one vanish
        live.append(order == 0)
    return live


def _branch_sqrt(r, root, sqrt_fn):
    # sign of sqrt(r) such that root * sqrt(r) is the principal square
    # root of root^2 * r (right half plane, upper on the imaginary axis)
    w = sqrt_fn(r)
    c = root * w
    if c.real < 0 or (c.real == 0 and c.imag < 0):
        return -w
    return w


def amplitude_to_complex(v, ctx, bits=256):
    """Numeric a * sqrt(r), the branch fixed by the root field."""
    a, r = v.a, v.r
    if isinstance(a, CycloNumber):
        with mp.workprec(bits):
            return a.embed(bits) * _branch_sqrt(r.embed(bits),
                                                v.root.embed(bits), mp.sqrt)
    with mp.workprec(ctx.ring.bits or mp.prec):
        return a * _branch_sqrt(r, v.root,
                                mp.sqrt if ctx.ring.bits else cmath.sqrt)


def classical_project(dcr):
    """Exact rational amplitude (a, r) at q = 1, where s_n = n."""
    return evaluate(dcr, make_context(Classical(), dcr.d_max))


def _off_circle(q, n):
    """(log|s_n|, arg s_n in half turns), rows the points q off the unit
    circle and columns the indices n, with no q^n formed: v = n log q,
    negated where |q| < 1 so that Re v > 0, gives s_n = e^v (1 - e^{-2v}),
    times -1 where |q| < 1, and the bracket is -expm1(-2v), so an s_n
    keeps its digits where q^n is past double range or q^n - q^-n cancels
    near the circle.  A real q takes log|q| and adds a half turn at odd n
    where q < 0, so each phase is a whole number of half turns."""
    lq = np.log(q)
    real = q.imag == 0
    lq.imag[real] = 0
    inside = lq.real < 0
    v = np.multiply.outer(np.where(inside, -lq, lq), n)
    b = -np.expm1(-2 * v)
    half = (v.imag + np.angle(b)) / np.pi + inside[:, None]
    half[real & (q.real < 0)] += n % 2
    return v.real + np.log(np.abs(b)), half


def _turn(t):
    """e^{i pi t}, exact where 2t is an integer."""
    t2 = 2 * t
    k = np.rint(t2)
    inexact = k != t2
    # a NaN k, which an inexact entry's exp replaces, indexes as 0
    np.copyto(k, 0, where=inexact)
    k = k.astype(np.int64)
    out = np.array([1, 1j, -1, -1j])[np.remainder(k, 4, out=k)]
    if inexact.any():
        out[inexact] = np.exp(1j * np.pi * t[inexact])
    return out


class SweepEvaluator:
    """Log-domain double-precision projection of one DCR across many q.

    The DCR's rows (base, ratios, root, rad), made once when it was
    built, fill an integer matrix F and a vector P', so the log of row m at
    a point is (log s @ F.T)[m] + P'_m log q.  Every point's table comes
    in the one form the kernel reads, log|s_n| and arg s_n in half turns:
    from _circle_tables on the unit circle and from _off_circle, which
    forms no q^n, off it.  Magnitudes and phases are carried apart; on
    the unit circle and on the real axis every s_n is real, a 6j row's
    phase is a whole number of half turns, and the signs of the terms and
    of the prefactor branch come out exact.  Roots of unity take the
    limits and vanishing orders of the scalar rule; a grid with no root
    of unity inside d_max skips the orders, every term live, and one where
    every row has P' = 0 and every point lies on the circle skips the q^P'
    terms.  The base and the largest term are factored out before exp.
    """

    def __init__(self, dcr):
        self._F = F = np.zeros((len(dcr.rows), max(dcr.d_max, 2)))
        for i, (_, _, groups) in enumerate(dcr.rows):
            for f, g in groups:
                for n in g:
                    F[i, n - 1] = f
        self._P = np.array([P for _, P, _ in dcr.rows], dtype=float)
        self._neg = np.array([s < 0 for s, _, _ in dcr.rows], dtype=float)
        self._nratios = len(dcr.rows) - 3

    def amplitudes(self, qs):
        """Amplitude a * sqrt(r) for each q, as a complex array; the
        prefactor branch matches evaluate() (root * sqrt(rad) in the
        right half plane).  At every point, on the unit circle or off
        it, NaN marks a pole and nothing else, and inf a value past double
        range."""
        qs = np.asarray(qs, dtype=complex)
        R, F = self._nratios, self._F
        n = np.arange(1, F.shape[1] + 1)
        theta = np.angle(qs)
        on = _on_circle(qs, _U_DOUBLE)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            # every point's table as log|s_n| and arg s_n in half turns: on
            # the circle s_n is real, a half turn where it is negative, and
            # the table's buffer takes log|s_n|, then the phases
            s, h = _circle_tables(theta, F.shape[1])
            h = np.where(on, h, 0)
            half = s < 0
            logs = np.log(np.abs(s, out=s), out=s) @ F.T
            np.copyto(s, half)
            turns = s @ F.T
            del s, half
            off = np.nonzero(~on)[0]
            if len(off):
                s, half = _off_circle(qs[off], n)
                logs[off], turns[off] = s @ F.T, half @ F.T
            if len(off) or self._P.any():
                logs += np.outer(np.where(on, 0.0, np.log(np.abs(qs))),
                                 self._P)
                turns += np.outer(theta / np.pi, self._P)
            turns += self._neg
            zeros = np.zeros((len(qs), 1))
            cum_l = np.hstack([zeros, logs[:, 1:1 + R].cumsum(axis=1)])
            cum_t = np.hstack([zeros, turns[:, 1:1 + R].cumsum(axis=1)])
            pole = None
            if h.any():
                live, pole = self._orders(h, n)
                cum_l = np.where(live, cum_l, -np.inf)
            top = cum_l.max(axis=1)
            top = np.where(np.isfinite(top), top, 0.0)
            terms = _turn(cum_t)
            terms *= np.exp(cum_l - top[:, None])
            total = terms.sum(axis=1)
            # principal square root of root^2 * rad: half its phase, taken
            # in (-1, 1] half turns
            t = 2 * turns[:, R + 1] + turns[:, R + 2]
            w = _turn(t / 2 - np.ceil((t - 1) / 2)) * _turn(turns[:, 0]) * total
            mag = np.exp(logs[:, 0] + top + logs[:, R + 1] + 0.5 * logs[:, R + 2])
            out = np.empty(len(qs), dtype=complex)
            out.real = np.where(w.real == 0, 0.0, mag * w.real)
            out.imag = np.where(w.imag == 0, 0.0, mag * w.imag)
        if pole is not None:
            out[pole] = complex(math.nan, math.nan)
        return out

    def _orders(self, h, n):
        """(live, pole) where some point is a root of unity inside d_max,
        h its order and 0 at every other point: term j, base times ratios
        1..j, has as running order the base's plus those of ratios 1..j;
        it is live at order zero, vanishes at a positive one and is a pole
        at a negative one, and all vanish when the root or rad does.  A
        point of h = 0 has every order zero: every term live, no pole."""
        R = self._nratios
        order = np.zeros((len(h), len(self._F)))
        pts = np.nonzero(h)[0]
        order[pts] = (n % h[pts, None] == 0) @ self._F.T
        term_order = order[:, :1 + R].cumsum(axis=1)
        pole = (term_order < 0).any(axis=1) \
            | (order[:, R + 1:] < 0).any(axis=1)
        live = (term_order == 0) \
            & (order[:, R + 1:] <= 0).all(axis=1, keepdims=True)
        return live, pole
