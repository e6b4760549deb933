"""Acceptance gate: one test per shipping criterion, each at its stated
tolerance.  Criteria 1-4 pin published reference values; 5-9 check the
arithmetic core against independent oracles; 10 checks scaling shape.

Each test prints a single summary line (visible with -rA or on failure).
"""

import cmath
import math
import random
import time

import numpy as np
from mpmath import mp, mpf

from qcyclo.cli import (T1_REF, T3_LSE_F64, T3_TRUTH, T4_GAMMA,
                        T4_LOG10_KAPPA)
from qcyclo.compiler import SixJLabels, compile_sixj, dcr_to_json
from qcyclo.diagnostics import (dcr_eval_sixj, diagnostics_sixj,
                                identity_checks, lse_eval_sixj)
from qcyclo.monomial import CycloMonomial, mul, sqrt_split
from qcyclo.projection import (Classical, ComplexDouble, ComplexExtended,
                               PoleError, RootOfUnityExact, SweepEvaluator,
                               amplitude_to_complex, classical_project,
                               evaluate, make_context, project_monomial,
                               root_of_unity_context, unit_circle_q)
from qcyclo.qfactor import clear_caches, qfact_monomial, qint_monomial

from conftest import (all_admissible_sixj, racah_sixj_squared, trig_qfact_mp,
                      trig_qint, trig_qint_mp)


def report(num, name, detail):
    print("criterion %02d (%s): PASS  %s" % (num, name, detail))


def sym(j):
    return SixJLabels(*(2 * j,) * 6)


def test_criterion_01_truth_column_highprec():
    """Symmetric 6j at k=500, dcr-mp 2048-bit vs published truth, 5e-5."""
    worst = 0.0
    for j, ref in T3_TRUTH.items():
        got = dcr_eval_sixj(sym(j), 502, ComplexExtended(2048))
        rel = float(abs(got.real - ref) / abs(ref))
        worst = max(worst, rel)
        assert rel <= 5e-5, (j, got.real, ref)
        assert abs(got.imag) <= 1e-300
    report(1, "truth column", "5 rows, worst rel dev %.2e <= 5e-5" % worst)


def test_criterion_02_failure_mode_sign():
    """Eager double LSE flips sign at j=90 while dcr-f64 does not."""
    labels = sym(90)
    lse = lse_eval_sixj(labels, 502)
    dcr = dcr_eval_sixj(labels, 502, ComplexDouble()).real
    truth = T3_TRUTH[90]
    assert truth < 0
    assert lse > 0, "eager double no longer exhibits the published failure"
    assert abs(lse - T3_LSE_F64[90]) <= 1e-4 * abs(T3_LSE_F64[90])
    assert dcr < 0, "compiled double projection lost the correct sign"
    assert abs(dcr - truth) <= 0.05 * abs(truth)
    report(2, "failure mode at j=90",
           "lse-f64 %+0.4e (wrong sign) vs dcr-f64 %+0.4e" % (lse, dcr))


def test_criterion_03_term_statistics():
    """Term-level diagnostics vs published 3-digit values."""
    for j, k in ((50, 200), (100, 400)):
        d = diagnostics_sixj(sym(j), k + 2)
        ref_max, ref_s, ref_loss = T1_REF[j]
        assert abs(d.max_term - ref_max) <= 0.01 * ref_max
        assert abs(abs(d.value) - ref_s) <= 0.01 * ref_s
        assert abs(d.delta_loss - ref_loss) <= 0.1
    report(3, "term statistics",
           "max|T|, |S| within 1% and delta within 0.1 at (50,200),(100,400)")


def test_criterion_04_conditioning():
    """log10 kappa within 0.05; gamma within 5%; gaps strictly grow."""
    gaps = []
    for j, k in ((10, 40), (50, 200), (100, 400)):
        d = diagnostics_sixj(sym(j), k + 2)
        assert abs(math.log10(d.kappa) - T4_LOG10_KAPPA[j]) <= 0.05
        ge_ref, gd_ref = T4_GAMMA[j]
        assert abs(d.gamma_eager - ge_ref) <= 0.05 * ge_ref
        assert abs(d.gamma_dcr - gd_ref) <= 0.05 * gd_ref
        gaps.append(d.gamma_eager - d.gamma_dcr)
    assert gaps[0] < gaps[1] < gaps[2]
    report(4, "conditioning", "kappa/gamma at j=10,50,100; gaps %s"
           % ", ".join("%.1f" % g for g in gaps))


def test_criterion_05_factorization_oracle():
    """200 random (n, q): projected qint/qfact vs trigonometric products,
    relative 1e-10 in double and 1e-100 at 512 bits."""
    rng = random.Random(20260815)
    mp_pairs = 0
    for trial in range(200):
        n = rng.randint(1, 300)
        theta = rng.uniform(0.1, math.pi - 0.1)
        qi = qint_monomial(n)
        qf = qfact_monomial(n)
        ctx = make_context(ComplexDouble(), n, q=cmath.exp(1j * theta))
        got = project_monomial(qi, ctx)
        want = trig_qint(n, theta)
        assert abs(got - want) <= 1e-10 * (1 + abs(want)), (n, theta)
        got = project_monomial(qf, ctx)
        want = float(trig_qfact_mp(n, theta))
        assert abs(got - want) <= 1e-10 * (1 + abs(want)), (n, theta)
        if trial % 10 == 0:
            tag = ComplexExtended(512)
            with mp.workprec(512):
                th = mpf(theta)
                ctxm = make_context(tag, n, q=mp.expj(th))
                tol = mpf(10) ** -100
                got = project_monomial(qi, ctxm)
                want = trig_qint_mp(n, th)
                assert abs(got - want) <= tol * (1 + abs(want))
                got = project_monomial(qf, ctxm)
                want = trig_qfact_mp(n, th)
                assert abs(got - want) <= tol * (1 + abs(want))
            mp_pairs += 1
    report(5, "factorization oracle",
           "200 pairs double 1e-10; %d pairs 512-bit 1e-100" % mp_pairs)


def test_criterion_06_classical_limit():
    """classical_project == exact-rational Racah oracle, all tj <= 6."""
    labels = all_admissible_sixj(6)
    assert len(labels) > 500
    for tjs in labels:
        dcr = compile_sixj(SixJLabels(*tjs))
        val = classical_project(dcr)
        square, sign = racah_sixj_squared(tjs)
        assert val.a * val.a * val.r == square, tjs
        assert val.r > 0
        assert (val.a > 0) - (val.a < 0) == sign, tjs
    # spot-validate the oracle itself against an external implementation
    cross = 0
    try:
        import sympy
        from sympy.physics.wigner import wigner_6j
    except ImportError:
        sympy = None
    if sympy is not None:
        rng = random.Random(7)
        for tjs in rng.sample(labels, 20):
            square, sign = racah_sixj_squared(tjs)
            ext = wigner_6j(*[sympy.Rational(t, 2) for t in tjs])
            assert sympy.simplify(ext ** 2 - sympy.Rational(square)) == 0
            ext_sign = 0 if ext == 0 else (1 if bool(ext > 0) else -1)
            assert ext_sign == sign
            cross += 1
    report(6, "classical limit",
           "%d label sets exact; oracle cross-checked on %d"
           % (len(labels), cross))


def test_criterion_07_homomorphism_and_split():
    """10^4 randomized monomial checks across all four regimes."""
    rng = random.Random(99)

    def rand_monomial():
        exps = {}
        for _ in range(rng.randint(0, 4)):
            exps[rng.randint(2, 10)] = rng.randint(-4, 4)
        return CycloMonomial(rng.choice((1, -1)), rng.randint(-30, 30), exps)

    ctx_dbl = make_context(ComplexDouble(), 10, q=cmath.exp(0.77j))
    tag = ComplexExtended(192)
    ctx_mp = make_context(tag, 10, q=unit_circle_q(23, tag))
    ctx_cl = make_context(Classical(), 10)
    ctx_ex = make_context(RootOfUnityExact(13), 10)
    checks = 0
    for _ in range(2500):
        a, b = rand_monomial(), rand_monomial()
        ab = mul(a, b)
        lhs = project_monomial(ab, ctx_dbl)
        rhs = project_monomial(a, ctx_dbl) * project_monomial(b, ctx_dbl)
        assert abs(lhs - rhs) <= 1e-12 * (1 + abs(lhs))
        with mp.workprec(192):
            lhs = project_monomial(ab, ctx_mp)
            rhs = project_monomial(a, ctx_mp) * project_monomial(b, ctx_mp)
            assert abs(lhs - rhs) <= mpf(10) ** -40 * (1 + abs(lhs))
        assert project_monomial(ab, ctx_cl) \
            == project_monomial(a, ctx_cl) * project_monomial(b, ctx_cl)
        assert project_monomial(ab, ctx_ex) \
            == project_monomial(a, ctx_ex) * project_monomial(b, ctx_ex)
        checks += 4
    for _ in range(2500):
        g = rand_monomial()
        s = sqrt_split(g)
        assert mul(mul(s.root, s.root), s.rad) == g
        assert s.root.sigma == 1
        assert s.rad.P in (0, 1)
        assert all(e in (0, 1) for _, e in s.rad.exps.items())
        checks += 1
    assert checks >= 10 ** 4
    report(7, "homomorphism and split", "%d checks exact or <= 1e-12" % checks)


def _six_sums(labels):
    tj = labels.as_tuple()
    a = tuple((tj[i] + tj[j] + tj[k]) // 2
              for i, j, k in ((0, 1, 2), (0, 4, 5), (1, 3, 5), (2, 3, 4)))
    b = ((tj[0] + tj[1] + tj[3] + tj[4]) // 2,
         (tj[0] + tj[2] + tj[3] + tj[5]) // 2,
         (tj[1] + tj[2] + tj[4] + tj[5]) // 2)
    return a, b


def _trig_amplitude(labels, h):
    """Full-range summation of the 6j at q = e^{i pi/h} straight from
    sine products; a vanishing numerator factorial zeroes its term
    (mp.sinpi is exact at integers).  Level admissibility of all four
    triads keeps every denominator factorial nonzero."""
    desc_a, desc_b = _six_sums(labels)
    z_min, z_max = max(desc_a), min(desc_b)
    s1 = mp.sinpi(mpf(1) / h)
    top = max(z_max + 1, max(desc_b))
    fact = [mpf(1)] * (top + 1)
    for n in range(1, top + 1):
        fact[n] = fact[n - 1] * mp.sinpi(mpf(n) / h) / s1
    pref = mpf(1)
    tj = labels.as_tuple()
    for i, j, k in ((0, 1, 2), (0, 4, 5), (1, 3, 5), (2, 3, 4)):
        ta, tb, tc = tj[i], tj[j], tj[k]
        s = (ta + tb + tc) // 2
        pref *= (fact[s - tc] * fact[s - tb] * fact[s - ta] / fact[s + 1])
    total = mpf(0)
    for z in range(z_min, z_max + 1):
        t = fact[z + 1]
        for ai in desc_a:
            t /= fact[z - ai]
        for by in desc_b:
            t /= fact[by - z]
        total += -t if z % 2 else t
    return mp.sqrt(pref) * total


def test_criterion_08_root_of_unity_soundness():
    """Early-terminated projection vs independent full-range 512-bit
    trigonometric summation, h <= 24, twice-spins <= 16; vanishing
    exponents project to exact zero in both numeric and exact regimes."""
    bits = 512
    rng = random.Random(2024)
    small = all_admissible_sixj(6)
    pool = rng.sample(small, 25)
    pool += [tuple(2 * t for t in tjs) for tjs in rng.sample(small, 25)]
    pool.append((14,) * 6)
    compared = 0
    zero_monomials = 0
    tol = mpf(10) ** -100
    with mp.workprec(bits):
        for tjs in pool:
            labels = SixJLabels(*tjs)
            dcr = compile_sixj(labels)
            lo = max(5, max(_six_sums(labels)[0]) + 2)  # level-admissible h
            if lo > 24:
                continue
            for h in sorted(rng.sample(range(lo, 25), min(4, 25 - lo))):
                ctx = root_of_unity_context(h, ComplexExtended(bits),
                                            max(dcr.d_max, h))
                try:
                    out = evaluate(dcr, ctx)
                except PoleError:
                    continue
                got = amplitude_to_complex(out, ctx)
                want = _trig_amplitude(labels, h)
                assert abs(got.real - want) <= tol * (1 + abs(want)), (tjs, h)
                assert abs(got.imag) <= tol * (1 + abs(want)), (tjs, h)
                compared += 1
                ctx_ex = make_context(RootOfUnityExact(h), max(dcr.d_max, h))
                for m in (dcr.base, *dcr.ratios, dcr.root, dcr.rad):
                    if m.exps.get(h, 0) > 0:
                        assert project_monomial(m, ctx) == 0
                        assert project_monomial(m, ctx_ex).is_zero()
                        zero_monomials += 1
    assert compared >= 60
    assert zero_monomials >= 10
    report(8, "root-of-unity soundness",
           "%d instances 1e-100; %d exact zeros" % (compared, zero_monomials))


def test_criterion_09_identity_suite():
    """Recoupling identities at h=7 over all admissible spins, 256-bit."""
    orth = identity_checks("orthogonality", max_tj=5, h=7, bits=256)
    pent = identity_checks("pentagon", max_tj=5, h=7, bits=256)
    assert orth <= mpf(10) ** -50
    assert pent <= mpf(10) ** -50
    report(9, "identity suite",
           "orthogonality %.1e, pentagon %.1e <= 1e-50"
           % (float(orth), float(pent)))


def test_criterion_10_scaling():
    """Representation size grows like j^p with p <= 1.3, and one compile
    amortizes over projections at >= 100x per point."""
    js = (20, 40, 60, 80, 100, 120)
    sizes = [len(dcr_to_json(compile_sixj(sym(j)))) for j in js]
    slope = np.polyfit(np.log(js), np.log(sizes), 1)[0]
    assert slope <= 1.3, sizes

    clear_caches()
    t0 = time.perf_counter()
    dcr = compile_sixj(sym(50))
    t_compile = time.perf_counter() - t0
    sweep = SweepEvaluator(dcr)
    qs = np.exp(1j * np.linspace(0.3, 2.8, 1000))
    sweep.amplitudes(qs[:8])  # warm the kernels
    t_point = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        sweep.amplitudes(qs)
        t_point = min(t_point, (time.perf_counter() - t0) / len(qs))
    assert t_point * 100 <= t_compile, (t_point, t_compile)
    report(10, "scaling", "size exponent %.2f <= 1.3; compile/point %.0fx"
           % (slope, t_compile / t_point))
