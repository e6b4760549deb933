import json

import pytest
from hypothesis import given, strategies as st

from qcyclo.compiler import (AdmissibilityError, AffineForm, SixJLabels,
                             bounds, compile_sixj, dcr_from_json, dcr_to_json,
                             ratio_monomial, series_from_sixj,
                             sixj_descriptor, triangle_admissible)
from qcyclo.monomial import div, mul
from qcyclo.qfactor import qfact_monomial

from conftest import all_admissible_sixj

ALL_ONES = SixJLabels(2, 2, 2, 2, 2, 2)
HALF_MIX = SixJLabels(1, 1, 2, 1, 1, 2)

ADMISSIBLE6 = all_admissible_sixj(6)


def sixj_strategy(max_tj=None):
    return st.sampled_from(ADMISSIBLE6)


class TestAdmissibility:
    def test_parity(self):
        assert not triangle_admissible(1, 1, 1)
        assert triangle_admissible(1, 1, 2)

    def test_triangle(self):
        assert not triangle_admissible(0, 0, 2)
        assert triangle_admissible(2, 2, 4)

    def test_level_cutoff(self):
        assert triangle_admissible(2, 2, 2, 3)
        assert not triangle_admissible(2, 2, 2, 2)

    def test_bad_triad_named(self):
        with pytest.raises(AdmissibilityError, match=r"\(j1, j2, j3\)"):
            sixj_descriptor(SixJLabels(1, 1, 1, 1, 1, 2))
        with pytest.raises(AdmissibilityError, match=r"\(j2, j4, j6\)"):
            sixj_descriptor(SixJLabels(2, 2, 2, 8, 2, 2))


class TestDescriptor:
    def test_all_ones_sums(self):
        d = sixj_descriptor(ALL_ONES)
        assert d.a == (3, 3, 3, 3)
        assert d.b == (4, 4, 4)

    def test_half_mix_sums(self):
        d = sixj_descriptor(HALF_MIX)
        assert d.a == (2, 2, 2, 2)
        assert d.b == (2, 3, 3)

    def test_bounds(self):
        assert bounds(series_from_sixj(sixj_descriptor(ALL_ONES))) == (3, 4)
        assert bounds(series_from_sixj(sixj_descriptor(HALF_MIX))) == (2, 2)


class TestRatio:
    def test_all_ones_z3(self):
        d = sixj_descriptor(ALL_ONES)
        r = ratio_monomial(series_from_sixj(d), 3)
        assert r.sigma == -1 and r.P == -4
        assert dict(r.exps.items()) == {5: 1}

    @given(sixj_strategy())
    def test_ratio_is_term_quotient(self, tjs):
        # R_z must equal M_{z+1} / M_z of the raw factorial composition,
        # times the alternating sign
        desc = sixj_descriptor(SixJLabels(*tjs))
        series = series_from_sixj(desc)
        z_min, z_max = bounds(series)
        if z_max == z_min:
            return

        def term(z):
            m = qfact_monomial(z + 1)
            for ai in desc.a:
                m = div(m, qfact_monomial(z - ai))
            for by in desc.b:
                m = div(m, qfact_monomial(by - z))
            return m

        for z in range(z_min, z_max):
            got = ratio_monomial(series, z)
            want = div(term(z + 1), term(z))
            assert want.sigma == 1
            assert got.sigma == -1
            assert got.P == want.P
            assert dict(got.exps.items()) == dict(want.exps.items())

    def test_ratio_sign_alternates(self):
        d = sixj_descriptor(ALL_ONES)
        r = ratio_monomial(series_from_sixj(d), 3)
        assert r.sigma == -1


class TestCompile:
    def test_all_ones_shape(self):
        dcr = compile_sixj(ALL_ONES)
        assert (dcr.z_min, dcr.z_max) == (3, 4)
        assert len(dcr.ratios) == 1
        assert dcr.base.sigma == -1  # (-1)^{z_min} with z_min = 3

    def test_prefactor_radicand_all_ones(self):
        d = sixj_descriptor(ALL_ONES)
        g = series_from_sixj(d).prefactor_radicand
        assert g.sigma == 1 and g.P == 24
        assert dict(g.exps.items()) == {2: -8, 3: -4, 4: -4}

    def test_root_rad_reconstruct(self):
        d = sixj_descriptor(ALL_ONES)
        g = series_from_sixj(d).prefactor_radicand
        dcr = compile_sixj(ALL_ONES)
        assert mul(mul(dcr.root, dcr.root), dcr.rad) == g

    def test_symmetric_ratio_count(self):
        dcr = compile_sixj(SixJLabels(*[100] * 6))
        assert len(dcr.ratios) == 50

    @given(sixj_strategy())
    def test_num_terms(self, tjs):
        dcr = compile_sixj(SixJLabels(*tjs))
        assert dcr.num_terms() == dcr.z_max - dcr.z_min + 1
        assert len(dcr.ratios) == dcr.num_terms() - 1
        assert dcr.d_max >= max((max(m.exps.indices(), default=1))
                                for m in (dcr.base, dcr.root, dcr.rad))


class TestSerialization:
    @given(sixj_strategy())
    def test_round_trip(self, tjs):
        dcr = compile_sixj(SixJLabels(*tjs))
        assert dcr_from_json(dcr_to_json(dcr)) == dcr

    def test_deterministic(self):
        a = dcr_to_json(compile_sixj(ALL_ONES))
        b = dcr_to_json(compile_sixj(ALL_ONES))
        assert a == b

    def test_malformed(self):
        with pytest.raises(ValueError):
            dcr_from_json("{not json")
        with pytest.raises(ValueError, match="missing"):
            dcr_from_json(json.dumps({"z_min": 0}))
        # a d_max below the largest index is refused when the DCR is built
        obj = json.loads(dcr_to_json(compile_sixj(ALL_ONES)))
        obj["d_max"] -= 1
        with pytest.raises(ValueError, match="d_max"):
            dcr_from_json(json.dumps(obj))


class TestAffineForm:
    def test_slope_validation(self):
        with pytest.raises(ValueError):
            AffineForm(0, 2)

    def test_at(self):
        f = AffineForm(3, -1)
        assert f.at(5) == -2
