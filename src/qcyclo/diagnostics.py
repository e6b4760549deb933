"""Eager log-sum-exp baseline and conditioning diagnostics.

The baseline evaluates the 6j the pre-compilation way: precomputed
logarithmic quantum-integer tables, cumulative log-factorials, and a
signed log-sum-exp over z where each summand is formed by the single
floating-point subtraction log T_z = log N_z - log D_z.  One walker,
_term_logs, forms those term logs for the double and mpmath baselines
and for the diagnostics alike.  The exact grouping of its log-domain
operations is fixed: at the catastrophic-cancellation edge the output
is a roundoff realization, so the grouping is part of the baseline's
definition.

Diagnostics quantify the cancellation: kappa = sum|T_z| / |S| (decimal
digits lost), delta_loss = log10(max|T_z| / |S|), and the dynamic-range
amplification gamma of a representation:

    gamma = max_z (log10|N_z| + log10|D_z|)

with N_z, D_z the unreduced numerator/denominator of the z-th summand.
For the eager representation these are the raw quantum-factorial
products of the series part (the triangle prefactor is an overall factor
and drops out of the max); for the DCR they are the positive- and
negative-exponent parts of the cumulative reduced Phi_d monomials, the
base times ratios 1..z, each Phi_d(q^2) weighted by its log10 modulus:
the paper's definition.  Evaluation itself reads the DCR's rows over
s_n = q^n - q^-n, not these monomials.  T_z here includes the overall
prefactor, so |S| is the full amplitude.

identity_checks reads its 6j amplitudes and quantum integers from a
statesum.SixJTable, the amplitude table the state sum uses.
"""

import math
from dataclasses import dataclass

from mpmath import mp, mpf

from . import compiler, projection
from .compiler import compile_sixj, sixj_descriptor
from .monomial import CycloMonomial
from .statesum import SixJTable


def _log_tables(h, n_max, log_sin, zero):
    """log [n] = log sin(n pi/h) - log sin(pi/h) and log [n]! for
    n = 0..n_max, with log [0] = log [0]! = 0 ([0]! = 1).  This is the
    one range guard of the eager path: it refuses h < 3 and any [n]
    that vanishes at h.  The eager 6j sum needs n_max = z_max + 1, which
    can reach h for labels that are admissible at the level; the
    compiled engines take the vanishing factors' limits and evaluate
    them."""
    if h < 3:
        raise ValueError("root order h must be >= 3, got %d" % h)
    if n_max >= h:
        raise ValueError("the eager sum needs [%d]!, which vanishes at h=%d "
                         "(z_max + 1 >= h); the labels may still be "
                         "admissible: evaluate them with a dcr-* engine"
                         % (n_max, h))
    ls1 = log_sin(1)
    logq, lfact = [zero], [zero]
    for n in range(1, n_max + 1):
        logq.append(log_sin(n) - ls1)
        lfact.append(lfact[-1] + logq[-1])
    return logq, lfact


def _log_sin_double(h):
    return lambda n: math.log(math.sin(n * math.pi / h))


def _log_sin_mp(h):
    return lambda n: mp.log(mp.sinpi(mpf(n) / h))


def _term_logs(labels, h, log_sin, zero):
    """Yield (z, log T_z, log N_z + log D_z) over the 6j sum at
    q = e^{i pi/h}, in ascending z.

    The operation order is the baseline's definition: the triangle
    prefactor log is folded into each term, the denominator logs are
    accumulated (a-arguments then b-arguments) and subtracted once.
    """
    desc = sixj_descriptor(labels)
    z_min, z_max = max(desc.a), min(desc.b)
    _, lf = _log_tables(h, z_max + 1, log_sin, zero)
    tj = labels.as_tuple()
    lpre = zero
    for i, j, k in compiler.TRIADS:
        ta, tb, tc = tj[i], tj[j], tj[k]
        lpre += (lf[(ta + tb - tc) // 2] + lf[(ta - tb + tc) // 2]
                 + lf[(-ta + tb + tc) // 2] - lf[(ta + tb + tc) // 2 + 1]) / 2
    for z in range(z_min, z_max + 1):
        lden = zero
        for ai in desc.a:
            lden += lf[z - ai]
        for by in desc.b:
            lden += lf[by - z]
        yield z, lpre + lf[z + 1] - lden, lf[z + 1] + lden


def lse_eval_sixj(labels, h, precision="double"):
    """Signed log-sum-exp evaluation of the 6j at q = e^{i pi/h}.

    precision is "double" or an integer bit count.  Terms come from
    _term_logs; the double path then runs the max-shifted signed
    accumulation in ascending z, the mpmath path sums exp(log T_z)
    directly.  Labels whose sum reaches a vanishing [n] at h raise
    ValueError in both.
    """
    if precision == "double":
        terms = [(z, lt) for z, lt, _ in
                 _term_logs(labels, h, _log_sin_double(h), 0.0)]
        m = max(lt for _, lt in terms)
        acc = 0.0
        for z, lt in terms:
            acc += (-1.0 if z % 2 else 1.0) * math.exp(lt - m)
        return math.exp(m) * acc
    with mp.workprec(int(precision)):
        return _mp_terms(labels, h)[0]


def _mp_terms(labels, h):
    """The mpmath baseline at the working precision: the signed sum of
    exp(log T_z) in ascending z, and per term (|T_z|, log N_z + log D_z)."""
    value, terms = mpf(0), []
    for z, lt, lnd in _term_logs(labels, h, _log_sin_mp(h), mpf(0)):
        t = mp.exp(lt)
        value += -t if z % 2 else t
        terms.append((t, lnd))
    return value, terms


@dataclass(frozen=True)
class Diagnostics:
    kappa: float
    delta_loss: float
    gamma_eager: float
    gamma_dcr: float
    max_term: float
    abs_sum: float
    value: float


def diagnostics_sixj(labels, h, bits=512):
    """Term-level conditioning of the 6j sum at q = e^{i pi/h}.

    Terms T_z carry the full triangle prefactor, so abs_sum/|S| is the
    condition number of the amplitude itself.  gamma_eager ranges over
    the unreduced factorial products of the series summand; gamma_dcr
    over the cumulative reduced monomials of the compiled DCR, weighted
    by log10|Phi_d(q^2)| (the unit-circle q-power contributes nothing).
    """
    with mp.workprec(bits):
        value, terms = _mp_terms(labels, h)
        abs_sum = sum((t for t, _ in terms), mpf(0))
        max_term = max(t for t, _ in terms)
        log10e = mp.log10(mp.e)
        ge = max(lnd * log10e for _, lnd in terms)
        kappa = abs_sum / abs(value)
        delta = mp.log10(max_term / abs(value))
    gd = _gamma_dcr(labels, h, bits=min(bits, 256))
    return Diagnostics(kappa=float(kappa), delta_loss=float(delta),
                       gamma_eager=float(ge), gamma_dcr=gd,
                       max_term=float(max_term), abs_sum=float(abs_sum),
                       value=float(value))


def _gamma_dcr(labels, h, bits=256):
    dcr = compile_sixj(labels)
    ctx = projection.root_of_unity_context(
        h, projection.ComplexExtended(bits), dcr.d_max)
    # log10|Phi_d(q^2)|: the one-factor monomial through the projection
    lphi = [None, None] + [
        float(mp.log10(abs(projection.project_monomial(
            CycloMonomial(1, 0, {d: 1}), ctx))))
        for d in range(2, ctx.d_max + 1)]
    exps = dict(dcr.base.exps.items())
    best = _gamma_of(exps, lphi)
    for rz in dcr.ratios:
        for d, e in rz.exps.items():
            w = exps.get(d, 0) + e
            if w:
                exps[d] = w
            else:
                exps.pop(d, None)
        best = max(best, _gamma_of(exps, lphi))
    return best


def _gamma_of(exps, lphi):
    num = sum(e * lphi[d] for d, e in exps.items() if e > 0)
    den = sum(-e * lphi[d] for d, e in exps.items() if e < 0)
    return num + den


def dcr_eval_sixj(labels, h, tag):
    """Amplitude of the 6j at q = e^{i pi/h} through the compiled path."""
    dcr = compile_sixj(labels)
    ctx = projection.root_of_unity_context(h, tag, dcr.d_max)
    return projection.amplitude_to_complex(projection.evaluate(dcr, ctx), ctx)


def _x_terms(pairs, k):
    """Interior summation labels x for given coupled pairs.

    Returns the level-admissible x list, or None when some x is
    triangle-admissible but exceeds the level: the raw series has a
    pole there and its finite limit is dropped by truncation, so the
    instance is outside the truncated theory and must be skipped.
    """
    xs = []
    top = min(ta + tb for ta, tb in pairs)
    for x in range(0, top + 1):
        if all(compiler.triangle_admissible(ta, tb, x) for ta, tb in pairs):
            if any(not compiler.triangle_admissible(ta, tb, x, k) for ta, tb in pairs):
                return None
            xs.append(x)
    return xs


def identity_checks(kind, max_tj, h, bits=256):
    """Max residual of a recoupling identity over admissible labels at
    level k = h - 2, evaluated through the DCR engine.

    kind "orthogonality":
        sum_x [x+1] {a b x; c d p} {a b x; c d p'} = delta_{pp'} / [p+1]
    kind "pentagon" (Biedenharn-Elliott, all labels as twice-spins):
        sum_x (-1)^{(S+x)/2} [x+1] {a b x; c d p} {c d x; e f q} {e f x; b a r}
            = {p q r; e a d} {p q r; f b c},   S = a+b+c+d+e+f+p+q+r.

    Labels run over twice-spins 0..min(max_tj, k).  Instances whose
    interior sum would leave the level-admissible range are skipped
    (see _x_terms); within the truncated theory both identities close
    to arithmetic precision.
    """
    k = h - 2
    table = SixJTable(projection.root_of_unity_context(
        h, projection.ComplexExtended(bits), d_max=2 * k + 2))
    cap = min(max_tj, k)
    with mp.workprec(bits):
        if kind == "orthogonality":
            return _orthogonality_residual(table, k, cap)
        if kind == "pentagon":
            return _pentagon_residual(table, k, cap)
    raise ValueError("unknown identity kind %r" % (kind,))


def _orthogonality_residual(table, k, cap):
    worst = mpf(0)
    rng = range(cap + 1)
    for a in rng:
        for b in rng:
            for c in rng:
                for d in rng:
                    ps = [p for p in rng
                          if compiler.triangle_admissible(a, d, p, k)
                          and compiler.triangle_admissible(b, c, p, k)]
                    if not ps:
                        continue
                    xs = _x_terms(((a, b), (c, d)), k)
                    if xs is None:
                        continue
                    for p in ps:
                        for pp in ps:
                            s = mpf(0)
                            for x in xs:
                                s += (table.qint(x + 1)
                                      * table.sixj((a, b, x, c, d, p))
                                      * table.sixj((a, b, x, c, d, pp)))
                            tgt = 1 / table.qint(p + 1) if p == pp else 0
                            worst = max(worst, abs(s - tgt))
    return float(worst)


def _pentagon_residual(table, k, cap):
    worst = mpf(0)
    rng = range(cap + 1)
    for a in rng:
        for d in rng:
            for p in rng:
                if not compiler.triangle_admissible(a, d, p, k):
                    continue
                for b in rng:
                    for c in rng:
                        if not compiler.triangle_admissible(b, c, p, k):
                            continue
                        for e in rng:
                            for f in rng:
                                worst = max(worst, _pentagon_one(
                                    table, k, cap, a, b, c, d, e, f, p))
    return float(worst)


def _pentagon_one(table, k, cap, a, b, c, d, e, f, p):
    worst = mpf(0)
    rng = range(cap + 1)
    qs = [q for q in rng
          if compiler.triangle_admissible(c, f, q, k)
          and compiler.triangle_admissible(d, e, q, k)]
    rs = [r for r in rng
          if compiler.triangle_admissible(e, a, r, k)
          and compiler.triangle_admissible(f, b, r, k)]
    if not qs or not rs:
        return worst
    xs = _x_terms(((a, b), (c, d), (e, f)), k)
    if xs is None:
        return worst
    for q in qs:
        for r in rs:
            # (p,q,r) is the one triad not fixed by the gates above
            if compiler.triangle_admissible(p, q, r):
                if not compiler.triangle_admissible(p, q, r, k):
                    continue  # pole on the right-hand side
                rhs = (table.sixj((p, q, r, e, a, d))
                       * table.sixj((p, q, r, f, b, c)))
            else:
                rhs = 0
            S2 = a + b + c + d + e + f + p + q + r
            lhs = mpf(0)
            for x in xs:
                ph = -1 if ((S2 + x) // 2) % 2 else 1
                lhs += (ph * table.qint(x + 1)
                        * table.sixj((a, b, x, c, d, p))
                        * table.sixj((c, d, x, e, f, q))
                        * table.sixj((e, f, x, b, a, r)))
            worst = max(worst, abs(lhs - rhs))
    return worst
