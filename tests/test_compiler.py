import dataclasses
import hashlib
import json
import random

import pytest
from hypothesis import given, strategies as st

from qcyclo import monomial, qfactor
from qcyclo.compiler import (DCR, TRIADS, AdmissibilityError, AffineForm,
                             PhasePoly, SeriesDescriptor, SixJLabels, bounds,
                             compile_series, compile_sixj, dcr_from_json,
                             dcr_to_json, series_from_sixj,
                             sixj_descriptor, triangle_admissible)
from qcyclo.monomial import CycloMonomial, div, mul
from qcyclo.qfactor import fold, qfact_monomial, qint_monomial, unfold

from conftest import all_admissible_sixj
from test_summation import chu_vandermonde

ALL_ONES = SixJLabels(2, 2, 2, 2, 2, 2)
HALF_MIX = SixJLabels(1, 1, 2, 1, 1, 2)

ADMISSIBLE6 = all_admissible_sixj(6)

# a series of every argument kind (slope +1 and -1 on both sides, slope 0),
# with a quadratic phase, no alternation and a signed, odd-power radicand
GENERAL = SeriesDescriptor(
    num_args=(AffineForm(2, +1), AffineForm(9, -1)),
    den_args=(AffineForm(0, +1), AffineForm(-1, +1), AffineForm(12, -1),
              AffineForm(5, 0)),
    phase=PhasePoly(1, -3, 2),
    alternating=False,
    prefactor_radicand=mul(CycloMonomial(-1, 7, {3: 1}),
                           div(qfact_monomial(11), qfact_monomial(4))))


def seeded_labels(count, max_tj, seed):
    """count admissible labels, twice-spins drawn uniform on 0..max_tj."""
    rng, out = random.Random(seed), []
    while len(out) < count:
        tj = [rng.randint(0, max_tj) for _ in range(6)]
        if all(triangle_admissible(*(tj[i] for i in t)) for t in TRIADS):
            out.append(SixJLabels(*tj))
    return out


def ratio_oracle(desc, z):
    """R_z from the factorial steps: (n+1)!/n! = [n+1] and
    (n-1)!/n! = 1/[n], times q to the phase step and the series sign."""
    m = CycloMonomial(-1 if desc.alternating else 1,
                      desc.phase.at(z + 1) - desc.phase.at(z))
    for args, up, down in ((desc.num_args, mul, div),
                           (desc.den_args, div, mul)):
        for arg in args:
            if arg.c1 == 1:
                m = up(m, qint_monomial(arg.at(z) + 1))
            elif arg.c1 == -1:
                m = down(m, qint_monomial(arg.at(z)))
    return m


def base_oracle(desc, z):
    """T_z from its factorials: the product of the numerator's over the
    denominator's, times q to the phase and the series sign."""
    m = CycloMonomial((-1) ** (z % 2) if desc.alternating else 1,
                      desc.phase.at(z))
    for args, way in ((desc.num_args, mul), (desc.den_args, div)):
        for arg in args:
            m = way(m, qfact_monomial(arg.at(z)))
    return m


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

    @pytest.mark.parametrize("num_args, den_args, match", (
        # a slope-0 argument below 0 has no factorial at any z
        ((AffineForm(0, +1), AffineForm(5, -1)), (AffineForm(-1, 0),),
         "empty summation range: series is identically zero"),
        # z >= 5 from the slope +1 argument, z <= 2 from the slope -1 one
        ((AffineForm(-5, +1), AffineForm(2, -1)), (),
         "empty summation range: series is identically zero"),
        ((AffineForm(0, +1),), (AffineForm(3, 0),),
         "series unbounded above: no slope -1 factorial argument"),
        ((AffineForm(3, -1),), (AffineForm(3, 0),),
         "series unbounded below: no slope \\+1 factorial argument")))
    def test_compile_refuses_range(self, num_args, den_args, match):
        with pytest.raises(ValueError, match=match):
            compile_series(SeriesDescriptor(num_args, den_args))

    def test_negative_twice_spin(self):
        with pytest.raises(ValueError,
                           match="tj4 must be a non-negative twice-spin, "
                                 "got -2"):
            SixJLabels(2, 2, 2, -2, 2, 2)


class TestRatio:
    def test_all_ones_z3(self):
        r = compile_sixj(ALL_ONES).ratios[0]  # z_min = 3
        assert r.sigma == -1 and r.P == -4
        assert dict(r.exps.items()) == {5: 1}

    @given(sixj_strategy())
    def test_ratio_is_term_quotient(self, tjs):
        # R_z must equal M_{z+1} / M_z of the raw factorial composition,
        # times the alternating sign
        desc = sixj_descriptor(SixJLabels(*tjs))
        series = series_from_sixj(desc)
        dcr = compile_series(series)
        z_min, z_max = dcr.z_min, dcr.z_max
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
            got = dcr.ratios[z - z_min]
            want = div(term(z + 1), term(z))
            assert want.sigma == 1
            assert got.sigma == -1
            assert got.P == want.P
            assert dict(got.exps.items()) == dict(want.exps.items())

    def test_ratio_sign_alternates(self):
        r = compile_sixj(ALL_ONES).ratios[0]
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
        assert dcr.d_max >= max((max(m.exps, default=1))
                                for m in (dcr.base, dcr.root, dcr.rad))


class TestRows:
    def test_compiled_rows_are_folds(self):
        # the rows compile_series builds alongside the ratios are the folds
        # of the monomials, in fold's order, and survive a JSON round trip
        dcrs = [compile_sixj(labels) for labels in seeded_labels(300, 120, 7)]
        dcrs.append(compile_series(GENERAL))
        for dcr in dcrs:
            monos = (dcr.base, *dcr.ratios, dcr.root, dcr.rad)
            assert dcr.rows == tuple(map(fold, monos))
            assert dcr_from_json(dcr_to_json(dcr)).rows == dcr.rows

    @given(sixj_strategy())
    def test_every_row_is_the_fold_of_its_monomial(self, tjs):
        # unfold reads s_n as [n] s_1 and [1] = 1, so it, and the JSON,
        # which holds unfold's monomials, do not see a row's s_1 exponent;
        # fold(unfold(row)) == row pins it, and the s_n exponents of a
        # row sum to zero
        for dcr in (compile_sixj(SixJLabels(*tjs)), compile_series(GENERAL),
                    compile_series(chu_vandermonde(7, 4, 5)[0])):
            for row in dcr.rows:
                assert fold(unfold(row)) == row
                assert sum(f * len(g) for f, g in row[2]) == 0

    def test_rows_unfold_to_their_monomials(self):
        # every ratio row unfolds to the factorial-step quotient, the base
        # row to the factorial product at z_min, and root^2 * rad to the
        # prefactor radicand
        for labels in seeded_labels(300, 120, 7):
            series = series_from_sixj(sixj_descriptor(labels))
            self.check_unfolds(series, compile_series(series))
        self.check_unfolds(GENERAL, compile_series(GENERAL))

    @staticmethod
    def check_unfolds(series, dcr):
        want = [ratio_oracle(series, z) for z in range(dcr.z_min, dcr.z_max)]
        assert [unfold(row) for row in dcr.rows[1:-2]] == want
        assert list(dcr.ratios) == want
        assert dcr.base == base_oracle(series, dcr.z_min)
        assert mul(mul(dcr.root, dcr.root), dcr.rad) \
            == series.prefactor_radicand
        assert all(e == 1 for _, e in dcr.rad.exps.items())
        assert dcr.rows[-2][:2] == (1, 0)  # root: sigma 1, P' = 0

    def test_the_rows_are_the_dcr(self):
        # four fields, compared and hashed by them; the monomials are
        # views of the rows
        dcr = compile_series(GENERAL)
        assert [f.name for f in dataclasses.fields(DCR)] \
            == ["rows", "z_min", "z_max", "d_max"]
        same = DCR(list(dcr.rows), dcr.z_min, dcr.z_max, dcr.d_max)
        assert same == dcr and hash(same) == hash(dcr)
        assert (same.base, same.root, same.rad) \
            == tuple(map(unfold, (dcr.rows[0], *dcr.rows[-2:])))
        with pytest.raises(TypeError):
            DCR(base=dcr.base, ratios=dcr.ratios, root=dcr.root,
                rad=dcr.rad, z_min=dcr.z_min, z_max=dcr.z_max,
                d_max=dcr.d_max)

    def test_compile_builds_no_monomial_per_ratio(self, monkeypatch):
        # with the factorial cache warm, a compile constructs as many
        # monomials for 10 ratios as for 145, counting both the checking
        # constructor and the products mul and div build
        built = []
        real_init = monomial.CycloMonomial.__init__
        real_merge = monomial._merge

        def counting_init(self, *args, **kwargs):
            built.append(args)
            real_init(self, *args, **kwargs)

        def counting_merge(a, b, scale):
            built.append((a, b, scale))
            return real_merge(a, b, scale)

        def constructions(labels):
            compile_sixj(labels)
            built.clear()
            with monkeypatch.context() as patch:
                patch.setattr(monomial.CycloMonomial, "__init__", counting_init)
                patch.setattr(monomial, "_merge", counting_merge)
                dcr = compile_sixj(labels)
            return len(built), len(dcr.rows) - 3

        small = constructions(SixJLabels(*(20,) * 6))
        large = constructions(SixJLabels(308, 305, 307, 319, 320, 304))
        assert (small[1], large[1]) == (10, 145)
        assert small[0] == large[0]

    def test_general_ratio_row(self):
        # R_z = q^(4z-1) [z+3] [12-z] / ([9-z] [z+1] [z]): s_n to the power
        # of [n], s_1 to minus their sum, and P' the phase step 4z - 1;
        # rows[2] is R_2, as z_min = 1
        assert compile_series(GENERAL).rows[2] == (
            1, 7, ((1, (1, 5, 10)), (-1, (2, 3, 7))))

    @pytest.mark.parametrize("series", (
        series_from_sixj(sixj_descriptor(SixJLabels(*(20,) * 6))), GENERAL),
        ids=("sixj", "general"))
    def test_compile_folds_two_monomials(self, monkeypatch, series):
        # root and rad are folded; the base and the ratios are counted
        # into their rows, with no factorial monomial and no merge
        calls = []
        real = qfactor.fold

        def counting(m):
            calls.append(m)
            return real(m)

        def refuse(*args):
            raise AssertionError("compile_series built a monomial product")
        monkeypatch.setattr(qfactor, "fold", counting)
        monkeypatch.setattr(qfactor, "qfact_monomial", refuse)
        monkeypatch.setattr(monomial, "_merge", refuse)
        dcr = compile_series(series)
        assert len(dcr.ratios) > 3
        split = monomial.sqrt_split(series.prefactor_radicand)
        assert calls == [split.root, split.rad]

    @given(st.data())
    def test_counted_base_is_the_fold_of_its_factorials(self, data):
        # rows[0] of a random series is the fold of T_{z_min} built the
        # old way, from qfact_monomial, mul and div: slopes -1, 0 and +1
        # on both sides, slope-0 constants, a quadratic phase and both
        # alternations.  Every slope +1 argument is >= 0 from z_lo on
        # and every slope -1 one up to z_hi, so the range holds both.
        z_lo = data.draw(st.integers(-4, 6))
        z_hi = z_lo + data.draw(st.integers(0, 5))
        gap = st.integers(0, 4)
        arg = st.one_of(
            gap.map(lambda k: AffineForm(k - z_lo, +1)),
            gap.map(lambda k: AffineForm(z_hi + k, -1)),
            st.integers(0, 9).map(lambda c: AffineForm(c, 0)))
        args = st.lists(arg, max_size=4)
        num, den = data.draw(args), data.draw(args)
        # one slope +1 and one slope -1 argument bound the sum, both on
        # one side or one on each
        bound = data.draw(st.permutations(
            [AffineForm(data.draw(gap) - z_lo, +1),
             AffineForm(z_hi + data.draw(gap), -1)]))
        cut = data.draw(st.integers(0, 2))
        series = SeriesDescriptor(
            num_args=num + bound[:cut], den_args=den + bound[cut:],
            phase=PhasePoly(*data.draw(st.tuples(*[st.integers(-5, 5)] * 3))),
            alternating=data.draw(st.booleans()))
        dcr = compile_series(series)
        assert dcr.z_min <= z_lo <= z_hi <= dcr.z_max
        assert dcr.rows[0] == fold(base_oracle(series, dcr.z_min))


class TestSerialization:
    # sha256 of dcr_to_json, which is the output of `qcyclo compile`
    PINNED = (
        ((20,) * 6, "5b0bbc3257870821f7801ae3c00019503e476763a05ee28a1919f676caa499cb"),
        ((40, 54, 58, 46, 28, 30), "66ba308b463ec1ee8466a2b1b718a8a330ddeb2a3ecd1f54e2f487c11aac43cd"),
        ((127, 180, 69, 91, 82, 191), "4720a128f36dd8fedce915a0821881a6761ee528709079f5542f2ed339fcd680"),
        ((308, 305, 307, 319, 320, 304), "78c3e9bfab18a9c5cc570495aea18cf49e4343dd497f557fb0f3f12e6ac46b5b"),
        (GENERAL, "075e7405dada224e7b11ccd423a66b3199b09d4945afab104a1a785a4f8bf199"))

    @pytest.mark.parametrize("source,digest", PINNED,
                             ids=lambda v: "general" if v is GENERAL else None)
    def test_pinned_bytes(self, source, digest):
        dcr = (compile_series(source) if source is GENERAL
               else compile_sixj(SixJLabels(*source)))
        assert hashlib.sha256(dcr_to_json(dcr).encode()).hexdigest() == digest

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
        # so is a term range that does not match the ratios: one too
        # long for the two ratios of (4,)*6, or one that runs backwards
        obj = json.loads(dcr_to_json(compile_sixj(SixJLabels(*(4,) * 6))))
        assert len(obj["ratios"]) == 2
        obj["z_max"] += 3
        with pytest.raises(ValueError, match="ratios"):
            dcr_from_json(json.dumps(obj))
        obj["ratios"], obj["z_max"] = [], obj["z_min"] - 1
        with pytest.raises(ValueError, match="ratios"):
            dcr_from_json(json.dumps(obj))
        # a wrong-typed field is a ValueError that names it
        self.check_refused(((("ratios",), 5, "ratios"),
                            (("z_min",), "0", "z_min"),
                            (("base",), 5, "monomial"),
                            (("ratios", 0), [], "monomial"),
                            (("base", "e"), [], "e"),
                            (("root", "e"), {"2": "1"}, "e"),
                            (("rad", "P"), [], "P")))
        with pytest.raises(ValueError, match="object"):
            dcr_from_json("5")

    def test_booleans_are_not_integers(self):
        # JSON true and false parse as Python bools, which subclass int;
        # each integer field refuses them by name, as of the wrong type
        good = json.loads(dcr_to_json(compile_sixj(SixJLabels(*(4,) * 6))))
        d = next(iter(good["ratios"][0]["e"]))
        self.check_refused(((("z_min",), True, "z_min must be"),
                            (("z_max",), False, "z_max must be"),
                            (("d_max",), True, "d_max must be"),
                            (("base", "sigma"), True, "sigma must be"),
                            (("ratios", 0, "sigma"), True, "sigma must be"),
                            (("root", "P"), False, "P must be"),
                            (("ratios", 0, "e", d), True, "e must be"),
                            (("rad", "e", "2"), False, "e must be")))

    @staticmethod
    def check_refused(cases):
        """Each (path, value, field): the (4,)*6 DCR's JSON with the value
        at path is refused with a ValueError naming the field."""
        good = json.loads(dcr_to_json(compile_sixj(SixJLabels(*(4,) * 6))))
        for path, value, field in cases:
            obj = json.loads(json.dumps(good))
            parent = obj
            for key in path[:-1]:
                parent = parent[key]
            parent[path[-1]] = value
            with pytest.raises(ValueError, match=field):
                dcr_from_json(json.dumps(obj))


class TestAffineForm:
    def test_slope_validation(self):
        with pytest.raises(ValueError):
            AffineForm(0, 2)

    def test_at(self):
        f = AffineForm(3, -1)
        assert f.at(5) == -2
