"""Diagnostics: eager log-sum-exp reference path, conditioning probes,
recoupling identity residuals."""

import math

import pytest
from mpmath import mpf

from qcyclo.cli import T1_REF, T3_LSE_F64, T4_GAMMA, T4_LOG10_KAPPA
from qcyclo.compiler import SixJLabels
from qcyclo.diagnostics import (_x_terms, diagnostics_sixj, dcr_eval_sixj,
                                identity_checks, lse_eval_sixj)
from qcyclo.projection import ComplexDouble, ComplexExtended


class TestLogQintTable:
    def test_rejects_bad_ranges(self):
        # the eager path's one range guard (_log_tables), through
        # lse_eval_sixj: h < 3, and a sum that reaches a vanishing [n]!,
        # [9]! at h = 9
        for precision in ("double", 192):
            with pytest.raises(ValueError, match="h must be >= 3"):
                lse_eval_sixj(SixJLabels(2, 2, 2, 2, 2, 2), 2, precision)
            with pytest.raises(ValueError, match=r"\[9\]!"):
                lse_eval_sixj(SixJLabels(4, 4, 4, 4, 4, 4), 9, precision)


class TestLseEval:
    def test_double_vs_mp_benign(self):
        labels = SixJLabels(2, 2, 4, 3, 1, 3)
        lo = lse_eval_sixj(labels, 8)
        hi = lse_eval_sixj(labels, 8, precision=192)
        assert abs(lo - float(hi)) <= 1e-11 * abs(float(hi))

    @pytest.mark.parametrize("run", (
        lambda labels, h: lse_eval_sixj(labels, h),
        lambda labels, h: lse_eval_sixj(labels, h, precision=192),
        lambda labels, h: diagnostics_sixj(labels, h)),
        ids=("double", "mp192", "diagnostics"))
    def test_range_guard(self, run):
        # the sum reaches [z_max + 1]! = [5]!, and its factor [4] vanishes
        # at h = 4
        with pytest.raises(ValueError):
            run(SixJLabels(2, 2, 2, 2, 2, 2), 4)

    @pytest.mark.parametrize("j", (30, 50))
    def test_published_double_column(self, j):
        # five-digit reference values for the eager double pipeline at
        # level 500; the later rows of the same column are the published
        # cancellation failures, pinned in the acceptance suite
        got = lse_eval_sixj(SixJLabels(*(2 * j,) * 6), 502)
        assert abs(got - T3_LSE_F64[j]) <= 5e-5 * abs(T3_LSE_F64[j])

    def test_mp_matches_dcr_truth(self):
        j = 30
        got = lse_eval_sixj(SixJLabels(*(2 * j,) * 6), 502, precision=256)
        want = dcr_eval_sixj(SixJLabels(*(2 * j,) * 6), 502, ComplexExtended(256))
        assert abs(got - want.real) <= mpf(10) ** -30 * abs(got)
        assert abs(want.imag) <= mpf(10) ** -30 * abs(got)


class TestDiagnostics:
    @pytest.mark.parametrize("j,k", ((50, 200), (100, 400)))
    def test_published_term_statistics(self, j, k):
        d = diagnostics_sixj(SixJLabels(*(2 * j,) * 6), k + 2)
        ref_max, ref_s, ref_loss = T1_REF[j]
        assert abs(d.max_term - ref_max) <= 0.01 * ref_max
        assert abs(abs(d.value) - ref_s) <= 0.01 * ref_s
        assert abs(d.delta_loss - ref_loss) <= 0.1

    @pytest.mark.parametrize("j,k", ((10, 40), (50, 200)))
    def test_published_kappa(self, j, k):
        d = diagnostics_sixj(SixJLabels(*(2 * j,) * 6), k + 2)
        assert abs(math.log10(d.kappa) - T4_LOG10_KAPPA[j]) <= 0.01

    @pytest.mark.parametrize("j,k", ((10, 40), (50, 200)))
    def test_published_gamma(self, j, k):
        d = diagnostics_sixj(SixJLabels(*(2 * j,) * 6), k + 2)
        ge, gd = T4_GAMMA[j]
        assert abs(d.gamma_eager - ge) <= 0.05
        assert abs(d.gamma_dcr - gd) <= 0.05
        assert d.gamma_dcr < d.gamma_eager

    def test_internal_consistency(self):
        d = diagnostics_sixj(SixJLabels(*(60,) * 6), 302)
        assert d.kappa >= 1.0
        assert d.max_term <= d.abs_sum
        assert abs(d.delta_loss - math.log10(d.max_term / abs(d.value))) < 1e-9

    def test_dcr_eval_double_vs_mp(self):
        labels = SixJLabels(*(60,) * 6)
        lo = dcr_eval_sixj(labels, 502, ComplexDouble())
        hi = dcr_eval_sixj(labels, 502, ComplexExtended(512))
        assert abs(lo - complex(hi)) <= 1e-6 * abs(complex(hi))


class TestXTerms:
    def test_full_range(self):
        assert _x_terms(((2, 2), (2, 2)), 4) == [0, 2, 4]
        assert _x_terms(((1, 2), (1, 2)), 4) == [1, 3]

    def test_pole_instance_skipped(self):
        # x = 4 passes the triangle rules but not the level cutoff k = 2:
        # the raw series pole means the instance leaves the truncated theory
        assert _x_terms(((2, 2), (2, 2)), 2) is None

    def test_parity_mismatch_empty(self):
        assert _x_terms(((1, 2), (2, 2)), 6) == []


class TestIdentities:
    def test_orthogonality_small(self):
        res = identity_checks("orthogonality", max_tj=3, h=7, bits=256)
        assert res <= mpf(10) ** -50

    def test_pentagon_small(self):
        res = identity_checks("pentagon", max_tj=2, h=6, bits=256)
        assert res <= mpf(10) ** -50

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            identity_checks("hexagon", max_tj=2, h=6)
