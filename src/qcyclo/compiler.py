"""Compilation of finite q-hypergeometric series into the deferred
cyclotomic representation (DCR).

A series is described by affine factorial arguments with slopes in
{-1, 0, +1}, an optional (-1)^z alternation, an integer quadratic phase,
and a monomial radicand sitting under an overall square root.  Compilation
produces the parameter-independent tuple

    DCR = (rows, z_min, z_max, d_max)

where rows holds, over the quantum-integer basis s_n = q^n - q^{-n}
(qfactor.fold), the summand at z_min (base), each exact term-to-term
ratio R_{z_min+i}, and the split root^2 * rad of the prefactor radicand,
rad's cyclotomic exponents square-free and root's q-power zero over
that basis.  The rows are the DCR: projections read them alone, and
base, ratios, root and rad are monomials derived from them
(qfactor.unfold) only when they are read.  Each ratio is a product of
quantum integers [n] = s_n/s_1, and the base a quotient of quantum
factorials [n]! = prod_{k=2..n} s_k / s_1^(n-1), so the compiler counts
both straight into their rows and builds no Phi_d monomial for them;
only the two halves of the radicand's split are folded.  No field
arithmetic and no polynomial expansion happens anywhere in this module.

Convention: the (-1)^z of an alternating series is absorbed into the sign
of the base term as (-1)^{z_min}, after which each ratio carries one
factor of -1.  Spins enter in the twice-spin integer convention (a spin
value j corresponds to tj = 2j), which keeps every intermediate integral.
"""

import json
from dataclasses import dataclass

from . import qfactor
from .monomial import (IDENTITY, CycloMonomial, _check64, _json_int, div, mul,
                       sqrt_split)


class AdmissibilityError(ValueError):
    """Input labels violate a triangle or level constraint."""


@dataclass(frozen=True)
class AffineForm:
    """c0 + c1*z with slope c1 restricted to {-1, 0, +1}."""
    c0: int
    c1: int

    def __post_init__(self):
        if self.c1 not in (-1, 0, 1):
            raise ValueError("slope must be -1, 0 or +1, got %d" % self.c1)

    def at(self, z):
        return self.c0 + self.c1 * z


@dataclass(frozen=True)
class PhasePoly:
    """Integer phase f(z) = f0 + f1*z + f2*z^2 contributing q^{f(z)}."""
    f0: int = 0
    f1: int = 0
    f2: int = 0

    def at(self, z):
        return self.f0 + self.f1 * z + self.f2 * z * z


@dataclass(frozen=True)
class SeriesDescriptor:
    num_args: tuple
    den_args: tuple
    phase: PhasePoly = PhasePoly()
    alternating: bool = False
    prefactor_radicand: CycloMonomial = IDENTITY

    def __post_init__(self):
        object.__setattr__(self, "num_args", tuple(self.num_args))
        object.__setattr__(self, "den_args", tuple(self.den_args))


@dataclass(frozen=True)
class SixJLabels:
    """Six twice-spins (tj = 2j); no fractional spins ever appear."""
    tj1: int
    tj2: int
    tj3: int
    tj4: int
    tj5: int
    tj6: int

    def __post_init__(self):
        for name in ("tj1", "tj2", "tj3", "tj4", "tj5", "tj6"):
            v = getattr(self, name)
            if v < 0:
                raise ValueError("%s must be a non-negative twice-spin, got %d" % (name, v))

    def as_tuple(self):
        return (self.tj1, self.tj2, self.tj3, self.tj4, self.tj5, self.tj6)


# the four coupled triads, as index triples into (tj1..tj6)
TRIADS = ((0, 1, 2), (0, 4, 5), (1, 3, 5), (2, 3, 4))


@dataclass(frozen=True)
class SixJDescriptor:
    a: tuple
    b: tuple
    labels: SixJLabels


@dataclass(frozen=True)
class DCR:
    """Compiled series: `rows` holds each of (base, *ratios, root, rad)
    as its row over the quantum-integer basis, as qfactor.fold gives it,
    and every projection reads them.  The monomials are views derived
    from the rows (qfactor.unfold) on each access.  A row determines its
    monomial, so equal rows mean equal monomials."""
    rows: tuple
    z_min: int
    z_max: int
    d_max: int

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(self.rows))
        if not 0 <= len(self.rows) - 3 == self.z_max - self.z_min:
            raise ValueError("DCR has %d ratios for z_min %d to z_max %d"
                             % (len(self.rows) - 3, self.z_min, self.z_max))
        if _max_index(self.rows) > self.d_max:
            raise ValueError("DCR index above d_max %d" % self.d_max)

    base = property(lambda self: qfactor.unfold(self.rows[0]))
    ratios = property(lambda self: tuple(map(qfactor.unfold, self.rows[1:-2])))
    root = property(lambda self: qfactor.unfold(self.rows[-2]))
    rad = property(lambda self: qfactor.unfold(self.rows[-1]))

    def num_terms(self):
        return self.z_max - self.z_min + 1


def _max_index(rows):
    # the largest n of a row is the largest cyclotomic index of its monomial
    return max((g[-1] for _, _, groups in rows for _, g in groups), default=1)


def triangle_admissible(ta, tb, tc, level=None):
    """Triangle inequalities + even twice-spin sum (+ sum <= 2k at a level)."""
    s = ta + tb + tc
    if s % 2 != 0:
        return False
    if not (abs(ta - tb) <= tc <= ta + tb):
        return False
    if level is not None and s > 2 * level:
        return False
    return True


def sixj_descriptor(labels):
    """Linear combinations a_i (triad half-sums) and b_y (opposite-pair sums).

    All arithmetic runs on twice-spins and halves exactly; an inadmissible
    triad is reported by its label positions.
    """
    tj = labels.as_tuple()
    for idx in TRIADS:
        ta, tb, tc = (tj[i] for i in idx)
        if not triangle_admissible(ta, tb, tc):
            raise AdmissibilityError(
                "triad (j%d, j%d, j%d) inadmissible: twice-spins (%d, %d, %d)"
                % (idx[0] + 1, idx[1] + 1, idx[2] + 1, ta, tb, tc))
    a = tuple((tj[i] + tj[j] + tj[k]) // 2 for i, j, k in TRIADS)
    b = ((tj[0] + tj[1] + tj[3] + tj[4]) // 2,
         (tj[0] + tj[2] + tj[3] + tj[5]) // 2,
         (tj[1] + tj[2] + tj[4] + tj[5]) // 2)
    return SixJDescriptor(a=a, b=b, labels=labels)


def _triangle_radicand(ta, tb, tc):
    # Delta^2 contents of one triad: (a+b-c)! (a-b+c)! (-a+b+c)! / (a+b+c+1)!
    m = qfactor.qfact_monomial((ta + tb - tc) // 2)
    m = mul(m, qfactor.qfact_monomial((ta - tb + tc) // 2))
    m = mul(m, qfactor.qfact_monomial((-ta + tb + tc) // 2))
    return div(m, qfactor.qfact_monomial((ta + tb + tc) // 2 + 1))


def series_from_sixj(desc):
    """Racah single-sum shape of the 6j: numerator [z+1]!, denominator
    [z-a_i]! and [b_y-z]!, alternating, with the four triangle radicands
    composed into one monomial under the overall square root."""
    tj = desc.labels.as_tuple()
    pre = IDENTITY
    for i, j, k in TRIADS:
        pre = mul(pre, _triangle_radicand(tj[i], tj[j], tj[k]))
    return SeriesDescriptor(
        num_args=(AffineForm(1, +1),),
        den_args=tuple(AffineForm(-ai, +1) for ai in desc.a)
        + tuple(AffineForm(by, -1) for by in desc.b),
        phase=PhasePoly(),
        alternating=True,
        prefactor_radicand=pre)


def bounds(desc):
    """Summation range forced by factorial non-negativity.

    Returns (z_min, z_max), or None when some slope-0 argument is
    negative for every z (empty sum).  A series with no slope -1
    argument (or none with slope +1) has no finite range and is
    rejected outright.
    """
    lo, hi = [], []
    for arg in desc.num_args + desc.den_args:
        if arg.c1 == 1:
            lo.append(-arg.c0)
        elif arg.c1 == -1:
            hi.append(arg.c0)
        elif arg.c0 < 0:
            return None
    if not hi:
        raise ValueError("series unbounded above: no slope -1 factorial argument")
    if not lo:
        raise ValueError("series unbounded below: no slope +1 factorial argument")
    z_min, z_max = max(lo), min(hi)
    if z_min > z_max:
        return None
    return z_min, z_max


def _ratio(desc, z):
    """The exact term ratio R_z = T_{z+1}/T_z as its row over s_n, built
    directly, with no Phi_d monomial; for the 6j R_z is -[z+2] prod_y
    [b_y-z] / prod_i [z+1-a_i].

    Each slope +1 argument steps its factorial up by one quantum integer,
    each slope -1 argument steps down; numerator and denominator roles
    flip the direction.  A step by [n]^e = (s_n / s_1)^e adds e at s_n
    and -e at s_1, and [n] folds to P' = 0, so the row's P' is the phase
    step and its sign the series' sign."""
    step = _check64(desc.phase.at(z + 1) - desc.phase.at(z), "q-power P'")
    F = {1: 0}
    for args, way in ((desc.num_args, 1), (desc.den_args, -1)):
        for arg in args:
            if not arg.c1:
                continue
            n = arg.c0 + z + 1 if arg.c1 == 1 else arg.c0 - z
            if n <= 0:
                raise RuntimeError(
                    "ratio step at z=%d hit a non-positive quantum integer "
                    "[%d]; summation bounds are inconsistent" % (z, n))
            e = way * arg.c1
            F[n] = F.get(n, 0) + e
            F[1] -= e
    return qfactor.grouped(-1 if desc.alternating else 1, step, F)


def _base(desc, z):
    """The summand T_z as its row over s_n, counted from its factorial
    arguments at z, with no Phi_d monomial.

    [n]! = prod_{k=2..n} s_k / s_1^(n-1), so F[k], k >= 2, is the number
    of numerator arguments >= k less the number of denominator ones (one
    difference-array pass up to the largest argument), and F[1] is minus
    their sum.  [n] folds to P' = 0, so the row's P' is the phase at z
    and its sign (-1)^z where the series alternates."""
    P = _check64(desc.phase.at(z), "q-power P'")
    at_z = [(arg.at(z), way) for side, way in ((desc.num_args, 1),
                                               (desc.den_args, -1))
            for arg in side]
    steps = [0] * (max(n for n, _ in at_z) + 2)
    for n, way in at_z:
        if n >= 2:
            steps[2] += way
            steps[n + 1] -= way
    F, f = {}, 0
    for k in range(2, len(steps) - 1):
        f += steps[k]
        F[k] = f
    F[1] = -sum(F.values())
    return qfactor.grouped((-1) ** (z % 2) if desc.alternating else 1, P, F)


def compile_series(desc):
    """Assemble the DCR's rows: base summand at z_min, one exact ratio per
    step, and the square-root split of the prefactor radicand.  The base
    and the ratios are counted straight into rows; only the two halves of
    the split are folded."""
    rng = bounds(desc)
    if rng is None:
        raise ValueError("empty summation range: series is identically zero")
    z_min, z_max = rng

    split = sqrt_split(desc.prefactor_radicand)
    # move the q-power that root keeps over the quantum-integer basis into
    # rad (root^2 * rad is unchanged): root then projects to a real number
    # on the unit circle, and so does rad when the radicand is a product
    # of quantum integers
    _, shift, root_groups = qfactor.fold(split.root)
    sigma, P, rad_groups = qfactor.fold(split.rad)
    rows = (_base(desc, z_min),
            *(_ratio(desc, z) for z in range(z_min, z_max)),
            (1, 0, root_groups),
            (sigma, _check64(P + 2 * shift, "q-power P'"), rad_groups))
    return DCR(rows, z_min, z_max, _max_index(rows))


def compile_sixj(labels):
    return compile_series(series_from_sixj(sixj_descriptor(labels)))


def dcr_to_json(dcr):
    """Deterministic JSON text (byte-identical across runs for equal DCRs)."""
    obj = {"z_min": dcr.z_min, "z_max": dcr.z_max, "d_max": dcr.d_max,
           "base": dcr.base.to_json_dict(),
           "ratios": [r.to_json_dict() for r in dcr.ratios],
           "root": dcr.root.to_json_dict(),
           "rad": dcr.rad.to_json_dict()}
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def dcr_from_json(text):
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError("DCR JSON parse error at offset %d: %s" % (exc.pos, exc.msg))
    if not isinstance(obj, dict):
        raise ValueError("DCR JSON is not an object")
    missing = [k for k in ("z_min", "z_max", "d_max", "base", "ratios", "root", "rad")
               if k not in obj]
    if missing:
        raise ValueError("DCR JSON missing keys: %s" % ", ".join(missing))
    for key in ("z_min", "z_max", "d_max"):
        if not _json_int(obj[key]):
            raise ValueError("DCR JSON field %s must be an integer" % key)
    if not isinstance(obj["ratios"], list):
        raise ValueError("DCR JSON field ratios must be a list")
    # the only place, besides the compiler, where monomials become rows
    monos = (obj["base"], *obj["ratios"], obj["root"], obj["rad"])
    rows = tuple(qfactor.fold(CycloMonomial.from_json_dict(m)) for m in monos)
    return DCR(rows, obj["z_min"], obj["z_max"], obj["d_max"])
