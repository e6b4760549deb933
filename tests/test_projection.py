"""Projection layer: the fold rule, monomial images, evaluation, sweeps."""

import cmath
import dataclasses
import functools
import hashlib
import itertools
import math
import operator
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st
from mpmath import mp, mpc, mpf
from mpmath.libmp import from_man_exp

from qcyclo import projection, qfactor
from qcyclo.cli import T3_ROWS
from qcyclo.compiler import (DCR, SixJLabels, compile_series, compile_sixj,
                             dcr_from_json, dcr_to_json, triangle_admissible)
from qcyclo.cyclofield import CycloNumber
from qcyclo.diagnostics import diagnostics_sixj, lse_eval_sixj
from qcyclo.monomial import CycloMonomial, div, mul
from qcyclo.projection import (Classical, ComplexDouble, ComplexExtended,
                               PoleError, ProjectionRangeError,
                               RootOfUnityExact, SweepEvaluator,
                               amplitude_to_complex, classical_project,
                               evaluate, lattice_order, make_context,
                               project_monomial, root_of_unity_context,
                               unit_circle_q)
from qcyclo.qfactor import qint_monomial

from conftest import qracah_sixj_mp, racah_sixj_squared
from test_compiler import GENERAL
from test_summation import chu_vandermonde

ALL_ONES = SixJLabels(2, 2, 2, 2, 2, 2)
BRANCH_LABELS = SixJLabels(2, 2, 4, 3, 1, 3)
HALF_MIX = SixJLabels(1, 1, 2, 1, 1, 2)


def phi_direct_double(d, x):
    """Independent oracle: product over primitive d-th roots of unity."""
    out = 1.0 + 0.0j
    for k in range(1, d + 1):
        if math.gcd(k, d) == 1:
            out *= x - cmath.exp(2j * math.pi * k / d)
    return out


def phi_direct_mp(d, x):
    out = mp.mpc(1)
    for k in range(1, d + 1):
        if math.gcd(k, d) == 1:
            out *= x - mp.expjpi(mpf(2 * k) / d)
    return out


def phi_monomial(d, e=1):
    """The one-factor monomial Phi_d(q^2)^e."""
    return CycloMonomial(1, 0, {d: e})


def f64_amplitude(labels, h):
    dcr = compile_sixj(labels)
    ctx = root_of_unity_context(h, ComplexDouble(), dcr.d_max)
    return amplitude_to_complex(evaluate(dcr, ctx), ctx)


def mp_amplitude(labels, h, bits=256):
    dcr = compile_sixj(labels)
    ctx = root_of_unity_context(h, ComplexExtended(bits), dcr.d_max)
    return amplitude_to_complex(evaluate(dcr, ctx), ctx, bits)


class TestPhiTable:
    """Phi_d(q^2) is the one-factor monomial projected through the rule."""

    def test_double_matches_root_product(self):
        q = cmath.exp(0.7j)
        ctx = make_context(ComplexDouble(), 30, q=q)
        x = q * q
        for d in range(2, 31):  # Phi_1 is not a monomial of the basis
            want = phi_direct_double(d, x)
            got = project_monomial(phi_monomial(d), ctx)
            assert abs(got - want) <= 1e-9 * abs(want)

    def test_mp_matches_root_product(self):
        tag = ComplexExtended(256)
        with mp.workprec(256):
            q = mp.expjpi(mpf(1) / mpf(17) + mpf(1) / 1000)  # off the lattice
            ctx = make_context(tag, 30, q=q)
            x = q * q
            for d in range(2, 31):
                want = phi_direct_mp(d, x)
                got = project_monomial(phi_monomial(d), ctx)
                assert abs(got - want) <= mpf(10) ** -60 * abs(want)

    @pytest.mark.parametrize("h", (5, 6, 7, 12))
    def test_snap_to_zero_at_vanishing_index(self, h):
        ctx = root_of_unity_context(h, ComplexDouble(), 2 * h)
        assert project_monomial(phi_monomial(h), ctx) == 0  # exactly
        with pytest.raises(PoleError):
            project_monomial(phi_monomial(h, -1), ctx)
        assert ctx.vanishing_index == h
        for d in range(2, 2 * h + 1):
            if d != h:
                assert project_monomial(phi_monomial(d), ctx) != 0

    def test_snap_mp(self):
        ctx = root_of_unity_context(9, ComplexExtended(192), 12)
        assert project_monomial(phi_monomial(9), ctx) == 0
        with pytest.raises(PoleError):
            project_monomial(phi_monomial(9, -2), ctx)
        assert ctx.vanishing_index == 9

    def test_rejects_exact_tag_and_zero_q(self):
        with pytest.raises(ValueError):
            unit_circle_q(5, RootOfUnityExact(5))
        with pytest.raises(ValueError):
            make_context(ComplexDouble(), 5, q=0j)
        with pytest.raises(ValueError):
            make_context(ComplexExtended(64), 5, q=0j)

    @pytest.mark.parametrize("tag", (ComplexDouble(), ComplexExtended(64)),
                             ids=("double", "extended"))
    @pytest.mark.parametrize("q", (math.nan, math.inf, complex(math.inf, 1),
                                   complex(1, math.nan), mpf("-inf"),
                                   mpc(1, "nan")),
                             ids=("nan", "inf", "inf+1j", "1+nanj",
                                  "mpf-inf", "mpc-nan"))
    def test_rejects_non_finite_q(self, tag, q):
        # a non-finite q is invalid input, as q = 0 is, under either tag
        with pytest.raises(ValueError, match="finite"):
            make_context(tag, 5, q=q)


class TestLimitRule:
    """[10]/[5] at h = 5: both quantum integers vanish, the quotient is
    q^5 + q^-5 = -2, and the classical limit 10/5 = 2."""

    RATIO = div(qint_monomial(10), qint_monomial(5))

    def test_numeric(self):
        for tag in (ComplexDouble(), ComplexExtended(128)):
            ctx = root_of_unity_context(5, tag, 10)
            assert ctx.vanishing_index == 5
            assert project_monomial(self.RATIO, ctx) == -2

    def test_exact(self):
        ctx = make_context(RootOfUnityExact(5), 10)
        assert project_monomial(self.RATIO, ctx) == ctx.one * -2

    def test_classical(self):
        ctx = make_context(Classical(), 10)
        assert project_monomial(self.RATIO, ctx) == 2


class TestContexts:
    def test_unit_circle_q(self):
        assert abs(unit_circle_q(8, ComplexDouble())
                   - cmath.exp(1j * math.pi / 8)) < 1e-15
        with mp.workprec(128):
            got = unit_circle_q(8, ComplexExtended(128))
            assert abs(got - mp.expjpi(mpf(1) / 8)) < mpf(2) ** -120
        with pytest.raises(ValueError):
            unit_circle_q(8, Classical())

    def test_classical_phi_values(self):
        ctx = make_context(Classical(), 12)
        want = {2: 2, 3: 3, 4: 2, 5: 5, 6: 1, 7: 7, 8: 2, 9: 3, 12: 1}
        for d, v in want.items():
            assert project_monomial(phi_monomial(d), ctx) == Fraction(v)

    def test_exact_context_vanishing(self):
        ctx = make_context(RootOfUnityExact(7), 10)
        assert ctx.vanishing_index == 7
        assert project_monomial(phi_monomial(7), ctx).is_zero()
        with pytest.raises(PoleError):
            project_monomial(phi_monomial(7, -1), ctx)
        assert make_context(RootOfUnityExact(7), 5).vanishing_index is None

    def test_numeric_needs_q(self):
        with pytest.raises(ValueError):
            make_context(ComplexDouble(), 8)
        with pytest.raises(ValueError):
            make_context("bogus", 8)

    def test_tag_floors(self):
        with pytest.raises(ValueError, match="extended precision needs "
                                             ">= 53 bits, got 52"):
            ComplexExtended(52)
        with pytest.raises(ValueError,
                           match="root-of-unity order h must be >= 3, got 2"):
            RootOfUnityExact(2)

    @pytest.mark.parametrize("tag", (RootOfUnityExact(7), Classical()))
    def test_exact_tags_refuse_q(self, tag):
        # the exact field and q = 1 fix their own q; one passed is refused,
        # not ignored
        with pytest.raises(ValueError, match="q applies to numeric tags"):
            make_context(tag, 8, q=0.5)


def entry(ctx, n):
    """s_n of a fixed-point table, S_n 2^-scale, as an exact mpf."""
    return mp.make_mpf(from_man_exp(ctx.ring.s[n], -ctx.ring.scale))


class TestExtendedSineTable:
    """Every entry S_n 2^-W of an extended context's fixed-point table is
    within two units of 2^-bits, relative, of the sine formed at 2 bits +
    64 bits."""

    @staticmethod
    def assert_close(got, ref, bits):
        assert abs(got - ref) <= mpf(2) ** (1 - bits) * abs(ref)

    @pytest.mark.parametrize("bits", (128, 256, 2048))
    @pytest.mark.parametrize("point, d_max",
                             ((lambda: mp.expjpi(mpf(1) / 502), 500),
                              (lambda: mp.expjpi(1 / mp.pi), 700),
                              # |sin theta| = 2^-30 needs 30 more guard bits
                              (lambda: mp.expj(mpf(2) ** -30), 500)),
                             ids=("pi/502", "one-radian", "near-1"))
    def test_generic_point(self, bits, point, d_max):
        with mp.workprec(bits):
            q = point()
        ctx = make_context(ComplexExtended(bits), d_max, q=q)
        assert ctx.vanishing_index is None
        assert all(isinstance(v, int) for v in ctx.ring.s[1:])
        with mp.workprec(2 * bits + 64):
            theta = mp.arg(q)
            for n in range(1, d_max + 1):
                self.assert_close(entry(ctx, n), mp.sin(n * theta), bits)

    @pytest.mark.parametrize("bits", (128, 2048))
    @pytest.mark.parametrize("h", (7, 11, 61))
    def test_lattice_point(self, bits, h):
        with mp.workprec(bits):
            q = mp.expjpi(mpf(3) / h)
        ctx = make_context(ComplexExtended(bits), 3 * h, q=q)
        assert ctx.vanishing_index == h
        with mp.workprec(2 * bits + 64):
            for n in range(1, 3 * h + 1):
                if n % h:
                    self.assert_close(entry(ctx, n), mp.sin(3 * mp.pi * n / h),
                                      bits)
                else:
                    # the limit (-1)^{an/h} n, exactly
                    assert ctx.ring.s[n] \
                        == (-1) ** (3 * n // h) * n * 2 ** ctx.ring.scale


class TestOffCircleTable:
    """Off the unit circle every entry S_n 2^-W of an extended context's
    table, a Gaussian integer, is within two units of 2^-bits, relative,
    of q^n - q^-n formed at 2 bits + 64 bits, where q^{2n} is near 1
    too."""

    @pytest.mark.parametrize("bits", (128, 256, 2048))
    @pytest.mark.parametrize("point, d_max",
                             ((lambda: mpf("1.0001") * mp.expjpi(mpf(1) / 502),
                               500),
                              (lambda: mpf("0.97") * mp.expj(mpf("0.81")), 200),
                              # q^14 is within about 2^-96 of 1, so s_7 and
                              # s_14 cancel about 96 bits
                              (lambda: (1 + mpf(2) ** -100)
                               * mp.expjpi(mpf(1) / 7), 30),
                              # |s_n| is about n 2^-99 against |q^n| ~ 1:
                              # each entry cancels about 99 bits
                              (lambda: 1 + mpf(2) ** -100, 30),
                              (lambda: mpf(3), 40)),
                             ids=("r=1.0001", "r=0.97", "near-root",
                                  "near-1", "q=3"))
    def test_entries(self, bits, point, d_max):
        with mp.workprec(bits):
            q = point()
        ctx = make_context(ComplexExtended(bits), d_max, q=q)
        assert ctx.vanishing_index is None
        s, W = ctx.ring.s, ctx.ring.scale
        with mp.workprec(2 * bits + 64):
            qn, qin, qi = 1, 1, 1 / q
            for n in range(1, d_max + 1):
                qn, qin = qn * q, qin * qi
                got = mpc(mp.make_mpf(from_man_exp(s[n].real, -W)),
                          mp.make_mpf(from_man_exp(s[n].imag, -W)))
                want = qn - qin
                assert abs(got - want) <= mpf(2) ** (1 - bits) * abs(want), n


def nearest_double(x):
    """An mpf in double range rounded once to the nearest double."""
    with mp.workprec(53):
        return float(+x)


class TestDoubleTable:
    """Every entry of a ComplexDouble context's table is its s_n at 320
    bits rounded once to the nearest double: sin(n arg q) of the double q
    on the unit circle, sin(pi a n/h) at the root of unity e^{i pi a/h}
    with each vanishing entry its limit (-1)^{an/h} n exactly, and each
    part of q^n - q^-n off the circle."""

    @staticmethod
    def points(seed, count):
        """count seeded (angle, modulus) pairs, the angle in (0, pi) and
        the modulus in [0.98, 1.02]."""
        rng = random.Random(seed)
        return [(rng.uniform(0.01, 3.13), rng.uniform(0.98, 1.02))
                for _ in range(count)]

    @pytest.mark.parametrize("d_max", (121, 241, 481))
    def test_unit_circle(self, d_max):
        for theta, _ in self.points(d_max, 6):
            q = cmath.exp(1j * theta)
            ctx = make_context(ComplexDouble(), d_max, q=q)
            assert ctx.vanishing_index is None
            with mp.workprec(320):
                arg = mp.arg(mpc(q))
                assert ctx.ring.s[1:] == [nearest_double(mp.sin(n * arg))
                                          for n in range(1, d_max + 1)], q

    @pytest.mark.parametrize("d_max", (121, 241, 481))
    def test_roots_of_unity(self, d_max):
        rng = random.Random(d_max)
        for _ in range(6):
            h = rng.randint(3, d_max // 2)
            a = rng.choice([a for a in range(1, 2 * h)
                            if math.gcd(a, h) == 1])
            q = cmath.exp(1j * math.pi * a / h)
            ctx = make_context(ComplexDouble(), d_max, q=q)
            assert ctx.vanishing_index == h
            with mp.workprec(320):
                want = [(-1) ** (a * n // h) * n if n % h == 0
                        else nearest_double(mp.sin(mp.pi * a * n / h))
                        for n in range(1, d_max + 1)]
            assert ctx.ring.s[1:] == want, (a, h)

    @pytest.mark.parametrize("d_max", (121, 241, 481))
    def test_off_circle(self, d_max):
        for theta, r in self.points(d_max, 6):
            q = r * cmath.exp(1j * theta)
            ctx = make_context(ComplexDouble(), d_max, q=q)
            assert ctx.vanishing_index is None
            want = []
            with mp.workprec(320):
                q = mpc(q)
                for n in range(1, d_max + 1):
                    s = q ** n - q ** -n
                    want.append(complex(nearest_double(s.real),
                                        nearest_double(s.imag)))
            assert ctx.ring.s[1:] == want, q

    def test_past_double_range(self):
        # at |q| = 1e-3 the entries pass 1e308 from n = 103 on; the
        # context builds, and (4,)*6 reads only entries in range
        dcr = compile_sixj(SixJLabels(*(4,) * 6))
        ctx = make_context(ComplexDouble(), 200, q=0.001)
        assert math.isfinite(ctx.ring.s[102].real)
        assert ctx.ring.s[103] == complex(-math.inf, 0)
        got = amplitude_to_complex(evaluate(dcr, ctx), ctx)
        ref = make_context(ComplexExtended(512), dcr.d_max, q=0.001)
        want = complex(amplitude_to_complex(evaluate(dcr, ref), ref, 512))
        assert abs(got - want) <= 2.0 ** -50 * abs(want)
        # at 1e-100 already s_4 = -1e400 is past range: the rows that read
        # it are refused
        ctx = make_context(ComplexDouble(), dcr.d_max, q=1e-100)
        assert math.isfinite(ctx.ring.s[3].real)
        assert ctx.ring.s[4] == complex(-math.inf, 0)
        with pytest.raises(ProjectionRangeError, match="left double"):
            evaluate(dcr, ctx)


class TestCircleTables:
    """The sweep's table, _circle_tables: at a generic angle every entry
    is within the 13u its docstring derives of sin(n theta) for the double
    theta, absolute, u = 2^-53, at every d_max, so the split of theta
    must follow d_max (2500 needs 12 bits of it, 619 ten)."""

    # negative angles, and angles within 1e-3 of 0 and of +-pi
    THETAS = (0.7, 2.3, -1.1, -2.9, 4e-4, -9e-4, math.pi - 7e-4,
              -math.pi + 3e-4)

    @pytest.mark.parametrize("d_max", (101, 619, 2500))
    def test_entries_against_mpmath(self, d_max):
        theta = np.array(self.THETAS)
        s, h = projection._circle_tables(theta, d_max)
        assert not h.any()
        worst = 0.0
        with mp.workprec(120):
            for t, row in zip(self.THETAS, s):
                t = mpf(t)
                worst = max(worst, max(abs(float(v - mp.sin(n * t)))
                                       for n, v in enumerate(row, 1)))
        assert worst <= 13 * 2.0 ** -53, worst / 2.0 ** -53


def as_fraction(v):
    """A binary float or mpf, exactly."""
    if not isinstance(v, mpf):
        return Fraction(v)
    man, exp = v.man_exp
    return (-man if v < 0 else man) * Fraction(2) ** exp


class TestLatticeOrder:
    """On a fixed-point table, integers S_n ~ sin(n theta) 2^W, the test
    |S_n| <= 64 n u 2^W is decided exactly, for any binary u, below double
    range too, where float() would flush both sides to 0."""

    U = mpf(2) ** -2048

    @staticmethod
    def exact(table, u, scale):
        u = as_fraction(u)
        return next((n for n, v in enumerate(table, 1)
                     if Fraction(abs(v), 2 ** scale) <= 64 * n * u), 0)

    def test_below_double_range(self):
        # W such that every value below is a whole number of 2^-W
        u, W = self.U, 4200

        def fixed(values):
            return [int(as_fraction(v) * 2 ** W) for v in values]

        big = mpf(2) ** -1500
        assert lattice_order(fixed([big] * 5), u, W) == 0
        assert lattice_order(fixed([big, mpf(0), big]), u, W) == 2
        for n in range(1, 6):
            with mp.workprec(2048):
                edge = 64 * n * u
                above = edge * (1 + mpf(2) ** -1000)
                cases = ((edge, n), (-edge, n), (edge / 3, n),
                         (above, 0), (-above, 0))
            for v, hit in cases:
                values = [big] * 5
                values[n - 1] = v
                table = fixed(values)
                assert as_fraction(v) * 2 ** W == table[n - 1]
                assert lattice_order(table, u, W) == hit \
                    == self.exact(table, u, W)

    U_CASES = pytest.mark.parametrize(
        "u", (mpf(2) ** -2048, mpf(2) ** -256, 2.0 ** -53, 3 * mpf(2) ** -2050),
        ids=("2048", "256", "double", "odd-mantissa"))

    def compare_random_tables(self, u, dw):
        # tables at W = dw - log2 u, entries about the bound 64 n u 2^W or
        # far above it
        rng = random.Random(5)
        W = dw - mpf(u).man_exp[1]
        bound = [64 * n * as_fraction(u) * 2 ** W for n in range(1, 41)]
        for _ in range(200):
            table = [round(b * Fraction(rng.uniform(-3, 3))) for b in bound]
            table = [v if rng.random() < 0.05 else v << rng.randint(1, 900)
                     for v in table]
            assert lattice_order(table, u, W) == self.exact(table, u, W)

    @U_CASES
    def test_matches_exact_comparison(self, u):
        # the bound is a large integer, as in every context
        self.compare_random_tables(u, 40)

    @U_CASES
    def test_coarse_scale_matches_exact_comparison(self, u):
        # a scale that does not resolve u: the bound is under a few units
        self.compare_random_tables(u, -9)


def monomials(max_d=9, avoid=(), max_e=3, max_p=12):
    idx = st.sampled_from([d for d in range(2, max_d + 1) if d not in avoid])
    entry = st.tuples(idx, st.integers(min_value=-max_e, max_value=max_e))
    return st.builds(
        lambda sign, p, pairs: CycloMonomial(sign, p, dict(pairs)),
        st.sampled_from((1, -1)),
        st.integers(min_value=-max_p, max_value=max_p),
        st.lists(entry, max_size=4))


class TestUnfold:
    @given(monomials())
    def test_inverts_fold(self, m):
        assert qfactor.unfold(qfactor.fold(m)) == m


class TestProjectMonomial:
    @given(monomials(), monomials())
    def test_homomorphism_double(self, a, b):
        ctx = make_context(ComplexDouble(), 9, q=cmath.exp(0.81j))
        lhs = project_monomial(mul(a, b), ctx)
        rhs = project_monomial(a, ctx) * project_monomial(b, ctx)
        assert abs(lhs - rhs) <= 1e-9 * (1 + abs(lhs))

    @given(monomials(), monomials())
    def test_homomorphism_extended(self, a, b):
        with mp.workprec(128):
            q = mp.expj(mpf("0.81"))
        ctx = make_context(ComplexExtended(128), 9, q=q)
        lhs = project_monomial(mul(a, b), ctx)
        with mp.workprec(128):
            rhs = project_monomial(a, ctx) * project_monomial(b, ctx)
            assert abs(lhs - rhs) <= mpf(2) ** -110 * abs(lhs)

    @given(monomials(avoid=(7,)), monomials(avoid=(7,)))
    def test_homomorphism_exact(self, a, b):
        ctx = make_context(RootOfUnityExact(7), 9)
        lhs = project_monomial(mul(a, b), ctx)
        rhs = project_monomial(a, ctx) * project_monomial(b, ctx)
        assert lhs == rhs

    @given(monomials(), monomials())
    def test_homomorphism_classical(self, a, b):
        ctx = make_context(Classical(), 9)
        lhs = project_monomial(mul(a, b), ctx)
        rhs = project_monomial(a, ctx) * project_monomial(b, ctx)
        assert lhs == rhs and isinstance(lhs, Fraction)

    def test_vanishing_and_pole_exact(self):
        ctx = make_context(RootOfUnityExact(7), 9)
        zero = project_monomial(CycloMonomial(1, 3, {7: 2, 4: 1}), ctx)
        assert zero.is_zero()
        with pytest.raises(PoleError):
            project_monomial(CycloMonomial(1, 0, {7: -1}), ctx)

    def test_vanishing_and_pole_numeric(self):
        for tag in (ComplexDouble(), ComplexExtended(256)):
            ctx = root_of_unity_context(7, tag, 9)
            assert project_monomial(CycloMonomial(1, 3, {7: 2, 4: 1}), ctx) == 0
            with pytest.raises(PoleError):
                project_monomial(CycloMonomial(-1, 0, {7: -1, 3: 2}), ctx)

    def test_index_beyond_context(self):
        ctx = make_context(Classical(), 6)
        with pytest.raises(ValueError):
            project_monomial(CycloMonomial(1, 0, {8: 1}), ctx)


@functools.cache
def circle_context(bits, d_max, lattice):
    """Extended context at the generic q = e^{0.81 i}, or at the root of
    unity e^{3 pi i/7}, where s_7, s_14, ... take their limits."""
    with mp.workprec(bits):
        q = mp.expjpi(mpf(3) / 7) if lattice else mp.expj(mpf("0.81"))
    return make_context(ComplexExtended(bits), d_max, q=q)


class TestRoundedRow:
    """A row over a fixed-point extended-precision table is rounded once:
    it is within 0.51 ulp of the product of its own table entries, each
    read exactly as S_n 2^-W, formed at 16 times the bits.  At a root of unity a row of positive order is an
    exact zero and one of negative order a pole, as before."""

    BITS = (53, 128, 256, 2048)
    SIXJ = (SixJLabels(10, 10, 10, 10, 10, 10),
            SixJLabels(40, 44, 36, 50, 30, 42))

    @staticmethod
    def check(row, ctx):
        """Checks the row's image, its q^P' dropped; True when it was
        compared and read a limit."""
        sigma, _, groups = row
        row, bits, h = (sigma, 0, groups), ctx.tag.bits, ctx.vanishing_index
        order = sum(f for f, g in groups for n in g if h and n % h == 0)
        with mp.workprec(bits):
            if order < 0:
                with pytest.raises(PoleError):
                    projection._project(row, ctx)
                return False
            got = projection._project(row, ctx)
        if order > 0:
            assert got == 0
            return False
        with mp.workprec(16 * bits):
            want = mpf(sigma)
            for f, g in groups:
                for n in g:
                    want *= entry(ctx, n) ** f
            assert abs(got - want) <= mpf("0.51") * mpf(2) ** (mp.mag(got) - bits)
        return any(n % h == 0 for _, g in groups for n in g) if h else False

    @pytest.mark.parametrize("lattice", (False, True), ids=("generic", "h7"))
    @pytest.mark.parametrize("bits", BITS)
    @given(m=monomials(max_d=15))
    def test_monomial_rows(self, bits, lattice, m):
        self.check(qfactor.fold(m), circle_context(bits, 15, lattice))

    @pytest.mark.parametrize("lattice", (False, True), ids=("generic", "h7"))
    @pytest.mark.parametrize("bits", BITS)
    def test_sixj_rows(self, bits, lattice):
        limits = []
        for labels in self.SIXJ:
            dcr = compile_sixj(labels)
            ctx = circle_context(bits, dcr.d_max, lattice)
            limits += [self.check(row, ctx) for row in dcr.rows]
        assert any(limits) == lattice

    def test_zero_entry(self):
        # no context builds a zero entry off its vanishing index, but one
        # gives an exact zero in the numerator and ZeroDivisionError in the
        # denominator, as mpf arithmetic does
        ctx = circle_context(128, 9, False)
        s, scale = ctx.ring.s, ctx.ring.scale
        ctx = dataclasses.replace(ctx, ring=projection._FixedPoint(
            [*s[:5], 0, *s[6:]], scale, 128))
        assert projection._project((1, 0, ((1, (5,)), (-1, (1,)))), ctx) == 0
        with pytest.raises(ZeroDivisionError):
            projection._project((1, 0, ((1, (1,)), (-1, (5,)))), ctx)


def seeded_labels(seed, count, max_tj):
    """count admissible 6j labels with twice-spins <= max_tj, by rejection
    from uniform draws."""
    rng, out = random.Random(seed), []
    while len(out) < count:
        t = [rng.randint(0, max_tj) for _ in range(6)]
        if all(triangle_admissible(t[a], t[b], t[c])
               for a, b, c in ((0, 1, 2), (0, 4, 5), (1, 3, 5), (2, 3, 4))):
            out.append(SixJLabels(*t))
    return out


class TestExtendedAccuracy:
    """A realistic 6j at q = e^{i pi/502}, evaluated at 256 and 2048 bits,
    is within 2^(12 - bits) sum_z |T_z| of its evaluation at 2 bits + 64,
    T_z the terms of a = root * sum_z T_z."""

    LABELS = [SixJLabels(*(2 * j,) * 6) for j in T3_ROWS] \
        + seeded_labels(13, 20, 60)

    @staticmethod
    def reference(dcr, bits):
        """(a, sum_z |T_z|) at bits."""
        ctx = root_of_unity_context(502, ComplexExtended(bits), dcr.d_max)
        with mp.workprec(bits):
            root = projection._project(dcr.rows[-2], ctx)
            term = scale = projection._project(dcr.rows[0], ctx)
            for row in dcr.rows[1:-2]:
                term *= projection._project(row, ctx)
                scale += abs(term)
            return evaluate(dcr, ctx).a, abs(root) * abs(scale)

    @pytest.mark.parametrize("bits", (256, 2048))
    def test_matches_higher_precision(self, bits):
        for labels in self.LABELS:
            dcr = compile_sixj(labels)
            ctx = root_of_unity_context(502, ComplexExtended(bits), dcr.d_max)
            assert ctx.vanishing_index is None
            got = evaluate(dcr, ctx).a
            want, scale = self.reference(dcr, 2 * bits + 64)
            with mp.workprec(2 * bits + 64):
                assert abs(got - want) <= mpf(2) ** (12 - bits) * scale, labels


class TestOffCircleAccuracy:
    """The fixed-point ring off the unit circle, and for rows of P' != 0
    on it: a at 256 and 2048 bits is within 2^(12 - bits) sum_z |root
    T_z| of its evaluation at 2 bits + 64 from the same q, the bound of
    TestExtendedAccuracy."""

    @staticmethod
    def cases(bits):
        """(dcr, q) pairs, each q formed once at bits: the symmetric T3
        rows at r e^{i pi/502}, r = 1.0001 and 1.01, the GENERAL series
        off the circle and q-Chu-Vandermonde at e^{i pi/6} and e^{i pi/7},
        as TestRing.extended_cases has them, and both series at |q| =
        1e-12, where q at the table's scale W would lose 40 bits, and
        1e-100, below 2^-W: both have rows of P' > 0, q-Chu-Vandermonde
        rows of P' < 0 too."""
        with mp.workprec(bits):
            out = [(compile_sixj(SixJLabels(*(2 * j,) * 6)),
                    mpf(r) * mp.expjpi(mpf(1) / 502))
                   for r in ("1.0001", "1.01") for j in T3_ROWS]
            out.append((compile_series(GENERAL),
                        mpf("1.03") * mp.expj(mpf("0.81"))))
            out += [(compile_series(chu_vandermonde(*mnN)[0]),
                     mp.expjpi(mpf(1) / h))
                    for mnN, h in (((6, 5, 4), 6), ((5, 6, 5), 7))]
            out += [(compile_series(series), mpf(r) * mp.expj(mpf("0.81")))
                    for series in (GENERAL, chu_vandermonde(6, 5, 4)[0])
                    for r in ("1e-12", "1e-100")]
        return out

    @staticmethod
    def reference(dcr, q, bits):
        """(a, sum_z |root T_z|) at bits, the sum started at |base|."""
        ctx = make_context(ComplexExtended(bits), dcr.d_max, q=q)
        with mp.workprec(bits):
            root = abs(projection._project(dcr.rows[-2], ctx))
            term = projection._project(dcr.rows[0], ctx)
            scale = abs(term)
            for row in dcr.rows[1:-2]:
                term *= projection._project(row, ctx)
                scale += abs(term)
            return evaluate(dcr, ctx).a, root * scale

    @pytest.mark.parametrize("bits", (256, 2048))
    def test_matches_higher_precision(self, bits):
        for dcr, q in self.cases(bits):
            ctx = make_context(ComplexExtended(bits), dcr.d_max, q=q)
            assert isinstance(ctx.ring, projection._FixedPoint)
            got = evaluate(dcr, ctx).a
            want, scale = self.reference(dcr, q, 2 * bits + 64)
            with mp.workprec(2 * bits + 64):
                assert abs(got - want) <= mpf(2) ** (12 - bits) * scale, q


def live_term_scale(dcr, ctx):
    """sum_z |root T_z| over the live terms, each term's monomial
    projected by project_monomial, which gives zero for a term of
    positive order."""
    with mp.workprec(ctx.tag.bits):
        root = abs(project_monomial(dcr.root, ctx))
        term, scale = dcr.base, abs(project_monomial(dcr.base, ctx))
        for rz in dcr.ratios:
            term = mul(term, rz)
            scale += abs(project_monomial(term, ctx))
        return root * scale


class TestFixedPointChain:
    """On a fixed-point table a 6j's sum is nested on integers and a is
    rounded once (projection._FixedPoint)."""

    # T3 rows j = 30, 50, 70 and the labels of perfbench's point-mp pools
    # at seeds 1, 3 and 7, all at k = 500
    ACCURACY_LABELS = [(2 * j,) * 6 for j in (30, 50, 70)] + [
        (32, 31, 39, 40, 31, 35), (40, 54, 58, 46, 28, 30),
        (47, 35, 30, 20, 22, 45), (48, 27, 55, 34, 39, 53),
        (54, 54, 38, 48, 20, 44), (56, 21, 53, 37, 26, 40),
        (60, 30, 56, 60, 40, 54),
        (29, 47, 50, 49, 57, 52), (33, 39, 36, 32, 30, 39),
        (43, 22, 39, 21, 38, 33), (43, 55, 50, 47, 55, 28),
        (44, 50, 24, 51, 37, 29), (46, 56, 30, 48, 28, 42),
        (58, 49, 31, 47, 24, 44),
        (21, 28, 39, 59, 48, 47), (34, 21, 23, 42, 57, 49),
        (34, 46, 50, 30, 30, 52), (40, 38, 32, 35, 33, 31),
        (41, 35, 38, 22, 50, 23), (45, 55, 36, 46, 36, 57),
        (54, 43, 47, 49, 22, 60)]

    @staticmethod
    def a_and_amplitude(dcr, bits):
        ctx = root_of_unity_context(502, ComplexExtended(bits), dcr.d_max)
        v = evaluate(dcr, ctx)
        return v.a, amplitude_to_complex(v, ctx, bits)

    @pytest.mark.parametrize("bits", (256, 2048))
    def test_rounding_does_not_grow_with_kappa(self, bits):
        # a and the amplitude within 8 units of 2^-bits, relative, of an
        # evaluation at 2 bits + 64, kappa up to 1e11 (T3 j = 70)
        for labels in self.ACCURACY_LABELS:
            dcr = compile_sixj(SixJLabels(*labels))
            got = self.a_and_amplitude(dcr, bits)
            want = self.a_and_amplitude(dcr, 2 * bits + 64)
            with mp.workprec(2 * bits + 64):
                for g, w in zip(got, want):
                    assert abs(g - w) <= 8 * mpf(2) ** -bits * abs(w), labels

    @pytest.mark.parametrize("lattice", (False, True), ids=("generic", "h7"))
    @pytest.mark.parametrize("wide", (24, 117, 320))
    @given(m=monomials(max_d=15, max_e=9))
    def test_row_sides_within_stated_bound(self, wide, lattice, m):
        # each side (man, exp) of _FixedPoint._row_sides, every product
        # cut to wide bits and each group raised by squaring, is within
        # T 2^(2 - wide) of the exact product of its entries, relative,
        # T = sum (len(g) + 2)|f| over its groups
        ctx = circle_context(128, 15, lattice)
        groups = qfactor.fold(m)[2]
        s, scale = ctx.ring.s, ctx.ring.scale
        ring = projection._FixedPoint(s, scale, wide - 64)
        sides = ring._row_sides(groups)
        for (man, exp), den in zip(sides, (False, True)):
            exact, count, T = 1, 0, 0
            for f, g in groups:
                if (f < 0) == den:
                    for n in g:
                        exact *= s[n] ** abs(f)
                    count += len(g) * abs(f)
                    T += (len(g) + 2) * abs(f)
            assert man.bit_length() <= wide
            got = man * Fraction(2) ** (exp + scale * count)
            assert abs(got - exact) <= T * Fraction(2) ** (2 - wide) * abs(exact)

    STRUCTURAL = (
        # the root has order 1: a is zero
        lambda h: (CycloMonomial(), (qint_monomial(2),), qint_monomial(h)),
        # every term has order 1: the sum is zero
        lambda h: (qint_monomial(h), (qint_monomial(2),), CycloMonomial()),
        # the base has order 1 and the next term order 0: [2] at its limit
        lambda h: (qint_monomial(h), (div(qint_monomial(2), qint_monomial(h)),),
                   CycloMonomial()),
        # the base has order -1: a pole
        lambda h: (div(CycloMonomial(), qint_monomial(h)), (), CycloMonomial()),
        # the second term has order -1: a pole
        lambda h: (CycloMonomial(), (div(qint_monomial(2), qint_monomial(h)),),
                   CycloMonomial()))

    @staticmethod
    def outcome(dcr, ctx):
        try:
            return evaluate(dcr, ctx).a
        except PoleError:
            return None

    @pytest.mark.parametrize("h", range(3, 13))
    def test_decisions_match_exact_field(self, h):
        # poles and zeros come from the orders alone: every admissible 6j
        # with twice-spins <= 3, and hand-built chains of each structural
        # case.  The exact field also finds accidental zeros, such as
        # (2,)*6 at h = 6; there the integer chain is within the 2^(12 -
        # bits) sum_z |root T_z| of TestExtendedAccuracy
        bits = 64
        dcrs = [compile_sixj(SixJLabels(*t))
                for t in itertools.product(range(4), repeat=6)
                if all(triangle_admissible(t[a], t[b], t[c])
                       for a, b, c in ((0, 1, 2), (0, 4, 5), (1, 3, 5),
                                       (2, 3, 4)))]
        dcrs += [hand_built(base, ratios, root, CycloMonomial(), d_max=h)
                 for base, ratios, root in (c(h) for c in self.STRUCTURAL)]
        seen = set()
        for dcr in dcrs:
            d_max = max(dcr.d_max, 2)
            exact = self.outcome(dcr, make_context(RootOfUnityExact(h), d_max))
            ctx = root_of_unity_context(h, ComplexExtended(bits), d_max)
            got = self.outcome(dcr, ctx)
            assert (got is None) == (exact is None), dcr
            if got is None:
                seen.add("pole")
            elif got == 0 or exact.is_zero():
                assert got == 0 or abs(got) \
                    <= mpf(2) ** (12 - bits) * live_term_scale(dcr, ctx), dcr
                assert exact.is_zero(), dcr
                seen.add("zero" if got == 0 else "accidental zero")
        assert {"pole", "zero"} <= seen


def hand_built(base, ratios, root, rad, d_max):
    """A DCR from z = 0 with the rows of the given monomials."""
    rows = tuple(map(qfactor.fold, (base, *ratios, root, rad)))
    return DCR(rows, z_min=0, z_max=len(ratios), d_max=d_max)


def manual_series_amplitude(dcr, ctx, bits):
    """Oracle: project every term monomial separately, no early exit."""
    with mp.workprec(bits):
        monos = [dcr.base]
        for rz in dcr.ratios:
            monos.append(mul(monos[-1], rz))
        total = mp.mpc(0)
        for m in monos:
            total += project_monomial(m, ctx)
        return project_monomial(dcr.root, ctx) * total


def project_monomial_chain(dcr, ctx):
    """A DCR's walk over the ratios, up to the first of positive order,
    every monomial projected by project_monomial, which folds it afresh,
    and the product and sum formed forward in the context's arithmetic:
    a and the terms root T_z walked.  It is the walk of evaluate where no
    ratio has negative order, as for a 6j and the series below."""
    h = ctx.vanishing_index
    bits = ctx.tag.bits if isinstance(ctx.tag, ComplexExtended) else mp.prec
    with mp.workprec(bits):
        term = total = project_monomial(dcr.base, ctx)
        terms = [term]
        for rz in dcr.ratios:
            if h is not None and rz.exps.get(h) > 0:
                break
            term = term * project_monomial(rz, ctx)
            total = total + term
            terms.append(term)
        root = project_monomial(dcr.root, ctx)
        return root * total, [root * t for t in terms]


def project_monomial_nest(dcr, ctx):
    """a over the walk of project_monomial_chain, nested as evaluate
    nests a chain whose rows are each their image over one: A = 1, then
    A <- R_i A + 1 from the last ratio walked inward, and a = (root base)
    A, every image by project_monomial.  In double evaluate's quotient
    divides by one exactly, so the two agree bit for bit."""
    h, one = ctx.vanishing_index, ctx.one
    walked = []
    for rz in dcr.ratios:
        if h is not None and rz.exps.get(h) > 0:
            break
        walked.append(project_monomial(rz, ctx))
    A = one
    for rz in reversed(walked):
        A = rz * A + one
    return project_monomial(dcr.root, ctx) * project_monomial(dcr.base, ctx) * A


class TestEvaluate:
    CASES = ((ALL_ONES, 5), (ALL_ONES, 7), (SixJLabels(4, 4, 4, 4, 4, 4), 9),
             (SixJLabels(4, 4, 4, 4, 4, 4), 11), (BRANCH_LABELS, 8),
             (BRANCH_LABELS, 12), (HALF_MIX, 6))
    # q-Chu-Vandermonde (m, n, N), whose rows have P' != 0: at h = 6 the
    # first ratio of (6, 5, 4) and (7, 4, 5) vanishes, and h = 7 is past
    # the d_max of (5, 6, 5)
    SERIES = tuple((chu_vandermonde(m, n, N)[0], h) for m, n, N, h
                   in ((6, 5, 4, 6), (7, 4, 5, 6), (5, 6, 5, 7)))

    @pytest.mark.parametrize("labels,h", CASES + SERIES)
    def test_built_rows_project_as_project_monomial(self, labels, h):
        # the rows a DCR is built with give bit for bit what folding each
        # monomial afresh gives in double, nested in evaluate's order, and
        # in the exact field and the classical limit, where the sum nested
        # or multiplied forward is the same
        dcr = compile_sixj(labels) if isinstance(labels, SixJLabels) \
            else compile_series(labels)
        ctx = root_of_unity_context(h, ComplexDouble(), dcr.d_max)
        assert evaluate(dcr, ctx).a == project_monomial_nest(dcr, ctx)
        for ctx in (make_context(RootOfUnityExact(h), dcr.d_max),
                    make_context(Classical(), dcr.d_max)):
            assert evaluate(dcr, ctx).a == project_monomial_chain(dcr, ctx)[0]
        # extended precision, u = 2^-bits and S = sum_z |root T_z| over the
        # m terms walked, at the root (a fixed-point table of sines) and
        # off the circle (one of Gaussian integers)
        bits = 256
        with mp.workprec(bits):
            off_circle = mpf("1.03") * mp.expj(mpf("0.81"))
        for ctx in (root_of_unity_context(h, ComplexExtended(bits), dcr.d_max),
                    make_context(ComplexExtended(bits), dcr.d_max,
                                 q=off_circle)):
            got = evaluate(dcr, ctx).a
            want, terms = project_monomial_chain(dcr, ctx)
            m = len(terms)
            if isinstance(ctx.ring, projection._FixedPoint) \
                    and not any(P for _, P, _ in dcr.rows):
                # nested on integers, a is rounded once, within u |a| plus
                # 2^-60 u S of the value of its table.  The forward chain
                # rounds each of the z + 1 <= m rows of T_z once and its z
                # products, (2m - 1) u |T_z|, the m - 1 partial sums,
                # (m - 1) u S, and root's row and product, 2 u S: 3m u S to
                # first order.  The two differ by under (3m + 2) u S.
                bound = 3 * m + 2
            else:
                # rows of P' != 0 are complex, q^P' joining each row as a
                # fixed-point power of q.  The nested chain rounds a once,
                # each part, and its rows and cuts as above; the forward
                # chain rounds each complex row image once and each of its
                # mpc products and sums once per part, within u of the
                # modulus, and in all under 3m u S as above.  The bound
                # kept from the mpc ring these rows had before, 4m u S,
                # holds it.
                bound = 4 * m
            with mp.workprec(bits):
                scale = sum(abs(t) for t in terms)
                assert abs(got - want) <= bound * mpf(2) ** -bits * scale

    def test_general_series_off_the_circle(self):
        # GENERAL's ratio rows have P' != 0, so off the circle each is a
        # row of Gaussian fixed-point entries with q^P' joined to it.  The
        # oracle forms each T_z from its q-factorials in plain mpmath at
        # four times the bits, compiles nothing, and sums them; the
        # prefactor is the principal square root of the radicand -q^7
        # Phi_3(q^2) [11]! / [4]!, as GENERAL defines it.  Each entry
        # s_n = q^n - q^-n is within u of its value, relative, the rows
        # hold 68 entries, counted with their |f|, and a is rounded once
        # from its table's value: under 2^7 u S in all, to first order,
        # with S = sum_z |prefactor T_z|, inside the 2^13 u S kept from
        # the mpc ring.  A row image that loses its q^P' or its sign is
        # off by about S.
        bits = 256
        with mp.workprec(bits):
            q = mpf("1.03") * mp.expj(mpf("0.81"))
        dcr = compile_series(GENERAL)
        ctx = make_context(ComplexExtended(bits), dcr.d_max, q=q)
        assert any(P for _, P, _ in dcr.rows[1:-2])
        got = amplitude_to_complex(evaluate(dcr, ctx), ctx)
        with mp.workprec(4 * bits):
            def qfact(n):
                out = mpf(1)
                for k in range(2, n + 1):
                    out *= (q ** k - q ** -k) / (q - 1 / q)
                return out
            terms = []
            for z in range(dcr.z_min, dcr.z_max + 1):
                t = q ** GENERAL.phase.at(z) \
                    * (-1) ** (z % 2 if GENERAL.alternating else 0)
                for arg in GENERAL.num_args:
                    t *= qfact(arg.at(z))
                for arg in GENERAL.den_args:
                    t /= qfact(arg.at(z))
                terms.append(t)
            prefactor = mp.sqrt(-q ** 7 * (q ** 4 + q ** 2 + 1)
                                * qfact(11) / qfact(4))
            scale = abs(prefactor) * sum(abs(t) for t in terms)
            assert abs(got - prefactor * sum(terms)) \
                <= mpf(2) ** (13 - bits) * scale

    @pytest.mark.parametrize("labels,h", ((ALL_ONES, 5), (BRANCH_LABELS, 8),
                                          (SixJLabels(4, 4, 4, 4, 4, 4), 11)))
    def test_exact_evaluate_inverts_twice(self, monkeypatch, labels, h):
        # a and root share one inverse of their denominator, and r has
        # its own; a and root are still the quotients of their sides
        dcr = compile_sixj(labels)
        ctx = make_context(RootOfUnityExact(h), dcr.d_max)
        want = evaluate(dcr, ctx)
        calls = []
        real = CycloNumber.inverse

        def counting(self):
            calls.append(self)
            return real(self)
        monkeypatch.setattr(CycloNumber, "inverse", counting)
        assert evaluate(dcr, ctx) == want
        assert len(calls) == 2
        assert not want.root.is_zero()

    @pytest.mark.parametrize("labels,h", CASES)
    def test_early_termination_matches_term_sum(self, labels, h):
        bits = 256
        dcr = compile_sixj(labels)
        ctx = root_of_unity_context(h, ComplexExtended(bits), dcr.d_max)
        out = evaluate(dcr, ctx)
        want = manual_series_amplitude(dcr, ctx, bits)
        with mp.workprec(bits):
            assert abs(out.a - want) <= mpf(10) ** -60 * (1 + abs(want))

    def test_termination_case_is_exercised(self):
        # at h = 5 the single ratio of the all-ones symbol carries Phi_5
        dcr = compile_sixj(ALL_ONES)
        ctx = root_of_unity_context(5, ComplexExtended(128), dcr.d_max)
        assert project_monomial(dcr.ratios[0], ctx) == 0

    def test_context_must_cover_dcr(self):
        dcr = compile_sixj(ALL_ONES)
        ctx = make_context(Classical(), dcr.d_max - 1)
        with pytest.raises(ValueError):
            evaluate(dcr, ctx)

    def test_double_overflow_advice(self):
        # single factor past 1e308
        ctx = make_context(ComplexDouble(), 4, q=3 + 0j)
        with pytest.raises(ProjectionRangeError, match="extended-precision"):
            project_monomial(CycloMonomial(1, 0, {2: 400}), ctx)
        # factors fit but the running term does not
        m = CycloMonomial(1, 0, {2: 300})
        dcr = hand_built(m, (m, m), CycloMonomial(), CycloMonomial(), d_max=2)
        with pytest.raises(ProjectionRangeError, match="extended-precision"):
            evaluate(dcr, ctx)

    def test_double_underflow_advice(self):
        # a row image that underflows to zero is out of range, not a
        # zero: Phi_3(q^2) is about 1e-3 this near e^{i pi/3}
        ctx = make_context(ComplexDouble(), 6,
                           q=1.0001 * cmath.exp(1j * math.pi / 3))
        with pytest.raises(ProjectionRangeError, match="left double"):
            project_monomial(CycloMonomial(1, 0, {3: 200}), ctx)
        # at j = 150, k = 4j the root row's numerator underflows
        dcr = compile_sixj(SixJLabels(*(300,) * 6))
        ctx = root_of_unity_context(602, ComplexDouble(), dcr.d_max)
        with pytest.raises(ProjectionRangeError, match="left double"):
            evaluate(dcr, ctx)
        # off the circle a row's image (1e-117) and its q^P' (1e-301) are
        # each in range, but their product, the row's numerator, is not
        ctx = make_context(ComplexDouble(), 20, q=0.5)
        m = qfactor.unfold((1, 1000, ((20, (1,)), (-20, (20,)))))
        with pytest.raises(ProjectionRangeError, match="left double"):
            project_monomial(m, ctx)

    def test_double_term_past_range(self):
        # at j = 145, k = 580 every row is in double range, and so is the
        # nested sum, but the terms, root left off, pass 1e309 while
        # root times their sum is under 4e-4: the double sum is refused,
        # as the forward chain refused it, not returned wrong
        dcr = compile_sixj(SixJLabels(*(290,) * 6))
        ctx = root_of_unity_context(582, ComplexDouble(), dcr.d_max)
        with pytest.raises(ProjectionRangeError, match="overflowed double"):
            evaluate(dcr, ctx)

    @staticmethod
    def kappa_u_bound(dcr, terms, kappa, entry, op, level):
        """test_double_error_within_kappa_bound's first-order bound on a
        double a, in units of kappa u, from |T_z| up to a common factor:
        each entry within entry u of its s_n, each operation that forms a
        row's image within op u, and each product or sum of the nesting
        within level u."""
        weights, z = np.asarray(terms) / max(terms), np.arange(len(terms))
        W = min(weights @ abs(z - y) for y in z) / weights.sum()
        counts = [sum(abs(f) * len(g) for f, g in row[2])
                  for row in dcr.rows[:-1]]
        k = entry + 2 * op
        return (k * sum(counts) + 2 * level * len(terms)) / kappa \
            + (k * max(counts[1:-1], default=0) + 2 * level) * W

    @pytest.mark.parametrize("j", (30, 50, 70))
    def test_double_error_within_kappa_bound(self, j):
        # A first-order bound on the double a of T3's row j (k = 500,
        # q = e^{i pi/502}, u = 2^-53) against 512 bits, in units of
        # kappa u, kappa = sum_z |T_z| / |S| from diagnostics_sixj.
        # - Each s_n is sin(n theta), theta the phase of the rounded q
        #   (within 5u of pi/502), rounded once (u).  Here n theta <
        #   0.6 pi, where |x cot x| <= 1, so s_n is within 6u of
        #   sin(n pi/502), relative.
        # - A row of E entries, each counted |f| times, has its image
        #   within E (6u + 4u) = 10 E u: its entries, and at most 2E
        #   products, powers and one division, each within 1 ulp.
        # - Nesting adds a product and a sum per level, u each, and a is
        #   (root base) A, two products more.
        # T_z = root base R_1..R_z is thus formed with a relative error
        # d_z, and for any y, a is off the exact S = sum_z T_z by at most
        # |d_y| |S| + sum_z |T_z| |d_z - d_y|.  d_z - d_y sums the
        # ratios and levels between y and z, under (10 E_r + 2) u |z - y|,
        # E_r the largest ratio's count, and |d_y| < (10 E_all + 2m + 2) u,
        # E_all the count of all m + 1 rows walked.  In units of kappa u
        # the bound is
        #   (10 E_all + 2m + 2) / kappa + (10 E_r + 2) W,
        #   W = min_y sum_z |T_z| |z - y| / sum_z |T_z|,
        # about 93, 124 and 145 for these rows (W = 1.1, 1.5, 1.8).
        # Measured: 0.51, 0.19 and 0.31 kappa u, so beside the derived
        # bound a ceiling of 4 kappa u guards what is measured.
        labels = SixJLabels(*(2 * j,) * 6)
        dcr = compile_sixj(labels)
        ctx = root_of_unity_context(502, ComplexDouble(), dcr.d_max)
        got = evaluate(dcr, ctx).a
        kappa = diagnostics_sixj(labels, 502).kappa
        with mp.workprec(512):
            want = evaluate(dcr, root_of_unity_context(
                502, ComplexExtended(512), dcr.d_max)).a
            err = float(abs(got - want) / abs(want))
        # |T_z| up to a common factor, from the ratios' images
        logs = np.cumsum([0.0] + [math.log(abs(project_monomial(rz, ctx)))
                                  for rz in dcr.ratios])
        bound = self.kappa_u_bound(dcr, np.exp(logs - logs.max()), kappa,
                                   entry=6, op=2, level=1)
        assert err <= bound * kappa * 2.0 ** -53
        assert err <= 4 * kappa * 2.0 ** -53

    @pytest.mark.parametrize("on_circle", (True, False),
                             ids=("generic-angle", "off-circle"))
    def test_double_error_within_kappa_bound_seeded(self, on_circle):
        # The bound above at 20 seeded pairs of labels (twice-spins up to
        # 160) and q = r e^{i theta}, theta generic, r = 1 or in [0.98,
        # 1.02], against 512 bits at the same double q.  kappa and the
        # |T_z| come from a 512-bit walk of the same rows, since
        # diagnostics_sixj covers e^{i pi/h} alone.  Each entry is its s_n
        # at that q correctly rounded, within u (each part of a complex
        # one apart, so within u of it too).  On the circle every
        # operation is real, as above: a row's image is within E (u + 4u)
        # = 5 E u and a level's operations within u each.  Off it they are
        # complex: a product is within sqrt(5) u (Brent, Percival and
        # Zimmermann, 2007), a power by squaring within |f| - 1 of those,
        # a sum within u, and Python's (Smith's) division within about
        # 6.5u, (1 + sqrt 2) u from its numerators and 4u from its divisor
        # and last divisions.  A row's image is then within E (u + 14u)
        # = 15 E u and a level's operations within 3u each:
        #   (15 E_all + 6m + 6) / kappa + (15 E_r + 6) W.
        rng, u = random.Random(17), 2.0 ** -53
        for labels in seeded_labels(17, 20, 160):
            q = cmath.exp(1j * rng.uniform(0.05, 3.0))
            if not on_circle:
                q *= rng.uniform(0.98, 1.02)
            dcr = compile_sixj(labels)
            ctx = make_context(ComplexDouble(), dcr.d_max, q=q)
            assert ctx.vanishing_index is None
            got = evaluate(dcr, ctx).a
            ref = make_context(ComplexExtended(512), dcr.d_max, q=q)
            with mp.workprec(512):
                terms = list(itertools.accumulate(
                    (projection._project(row, ref) for row in dcr.rows[:-2]),
                    operator.mul))
                mags = [abs(t) for t in terms]
                kappa = float(sum(mags) / abs(sum(terms)))
                want = evaluate(dcr, ref).a
                err = float(abs(got - want) / abs(want))
                mags = [float(m / max(mags)) for m in mags]
            bound = self.kappa_u_bound(dcr, mags, kappa, entry=1,
                                       op=2 if on_circle else 7,
                                       level=1 if on_circle else 3)
            assert err <= bound * kappa * u, (labels, q)

    def test_large_symbol_fits_in_double(self):
        # exponent bookkeeping keeps hundred-term symbols inside double
        # range even though eager factorial products would overflow
        got = f64_amplitude(SixJLabels(*(100,) * 6), 202)
        assert cmath.isfinite(got)
        want = mp_amplitude(SixJLabels(*(100,) * 6), 202, bits=512)
        assert abs(got - complex(want)) <= 1e-6 * abs(want)


class TestFoldOnce:
    def test_evaluate_and_sweep_never_fold(self, monkeypatch):
        # compile_series and dcr_from_json make a DCR's rows when they
        # build it; evaluate and the sweep only read them
        compiled = compile_sixj(SixJLabels(4, 4, 4, 4, 4, 4))
        dcrs = (compiled, dcr_from_json(dcr_to_json(compiled)))
        d_max, h = compiled.d_max, 9
        ctxs = (root_of_unity_context(h, ComplexDouble(), d_max),
                make_context(ComplexDouble(), d_max, q=cmath.exp(0.7j)),
                root_of_unity_context(h, ComplexExtended(256), d_max),
                make_context(RootOfUnityExact(h), d_max),
                make_context(Classical(), d_max))
        qs = np.concatenate([np.exp(1j * np.linspace(0.1, 3.0, 17)),
                             np.exp(1j * np.pi / np.arange(3, 20))])

        def refuse(m):
            raise AssertionError("fold called on a built DCR")
        monkeypatch.setattr(qfactor, "fold", refuse)
        monkeypatch.setattr(projection, "fold", refuse)
        for dcr in dcrs:
            for ctx in ctxs:
                evaluate(dcr, ctx)
            assert SweepEvaluator(dcr).amplitudes(qs).shape == qs.shape


    def test_evaluate_and_sweep_never_unfold(self, monkeypatch):
        # projections read the rows alone, vanishing orders included: at
        # h = 5 the one ratio of the all-ones symbol vanishes, and the
        # early stop reads that from its row
        compiled = (compile_sixj(ALL_ONES), compile_sixj(SixJLabels(*(4,) * 6)))
        dcrs = compiled + tuple(dcr_from_json(dcr_to_json(d)) for d in compiled)
        ctxs = []
        for dcr, h in zip(dcrs, (5, 9, 5, 9)):
            d_max = dcr.d_max
            ctxs.append((root_of_unity_context(h, ComplexDouble(), d_max),
                         make_context(ComplexDouble(), d_max, q=cmath.exp(0.7j)),
                         root_of_unity_context(h, ComplexExtended(256), d_max),
                         make_context(ComplexExtended(256), d_max,
                                      q=cmath.exp(0.7j)),
                         make_context(RootOfUnityExact(h), d_max),
                         make_context(Classical(), d_max)))
        assert project_monomial(dcrs[0].ratios[0], ctxs[0][0]) == 0
        want = [[evaluate(d, c) for c in cs] for d, cs in zip(dcrs, ctxs)]
        qs = np.concatenate([np.exp(1j * np.linspace(0.1, 3.0, 17)),
                             np.exp(1j * np.pi / np.arange(3, 20))])
        sweeps = [SweepEvaluator(d).amplitudes(qs) for d in dcrs]

        def refuse(row):
            raise AssertionError("unfold called by a projection")
        monkeypatch.setattr(qfactor, "unfold", refuse)
        for dcr, cs, values, swept in zip(dcrs, ctxs, want, sweeps):
            assert [evaluate(dcr, c) for c in cs] == values
            assert np.array_equal(SweepEvaluator(dcr).amplitudes(qs), swept,
                                  equal_nan=True)


def mpf_digest(values):
    """sha256 of the _mpf_ tuples of mpmath values, an mpc's as its pair."""
    def key(v):
        parts = v._mpc_ if isinstance(v, mpc) else (v._mpf_,)
        return [(sign, int(man), exp, bc) for sign, man, exp, bc in parts]
    return hashlib.sha256(repr([key(v) for v in values]).encode()).hexdigest()


class TestRing:
    """Each context's ring decides its arithmetic: the bits evaluate
    returns, and the rings it builds."""

    @staticmethod
    def extended_cases():
        """name -> [(dcr, ctx)] over the extended-precision rings."""
        with mp.workprec(256):
            off_circle = mpf("1.03") * mp.expj(mpf("0.81"))
        general = compile_series(GENERAL)
        series = [compile_series(chu_vandermonde(*mnN)[0])
                  for mnN in ((6, 5, 4), (5, 6, 5))]

        def circle(labels, h, bits):
            dcr = compile_sixj(SixJLabels(*labels))
            return dcr, root_of_unity_context(h, ComplexExtended(bits),
                                              dcr.d_max)
        return {
            # labels of perfbench's point-mp pools at k = 500
            "point-mp 256": [circle(t, 502, 256) for t in (
                (32, 31, 39, 40, 31, 35), (29, 47, 50, 49, 57, 52),
                (21, 28, 39, 59, 48, 47))],
            "point-mp 2048": [circle((33, 39, 36, 32, 30, 39), 502, 2048)],
            "vanishing entries": [circle((4,) * 6, 9, 256),
                                  circle((6,) * 6, 11, 256)],
            "general off the circle": [(general, make_context(
                ComplexExtended(256), general.d_max, q=off_circle))],
            # rows of P' != 0 on the circle, where s_6 vanishes and where
            # no entry does
            "q-Chu-Vandermonde": [
                (series[0], root_of_unity_context(6, ComplexExtended(256),
                                                  series[0].d_max)),
                (series[1], root_of_unity_context(7, ComplexExtended(256),
                                                  series[1].d_max))],
        }

    # the digests of a, r and root of each case: a change to any bit of
    # them fails here
    DIGESTS = {
        "point-mp 256":
        "a188dbebd156b509f0549fbc163f5af7e7a52c4c73ac2ff7af2c14b25cb724b4",
        "point-mp 2048":
        "3b505f138e6397179edafe1774921d1128e5a040e4105e116eb98c8c17c5ac3c",
        "vanishing entries":
        "f4cd044950b4051380c41cc5e2adb748150d1a6ca6dcadbc3af22f7a6f9621a1",
        "general off the circle":
        "68c435a13eff25a3733fb8ce10044436960e31ae56a6b44ae1b94b33661db78a",
        "q-Chu-Vandermonde":
        "41fd789e607cf3df019642c779d3fa91727f15efe4aa3e1d0eebd4a7de756af0",
    }

    def test_evaluate_bits_pinned(self):
        cases = self.extended_cases()
        assert cases["vanishing entries"][0][1].vanishing_index == 9
        assert cases["q-Chu-Vandermonde"][0][1].vanishing_index == 6
        got = {}
        for name, pairs in cases.items():
            values = []
            for dcr, ctx in pairs:
                v = evaluate(dcr, ctx)
                values += [v.a, v.r, v.root]
            got[name] = mpf_digest(values)
        assert got == self.DIGESTS

    def test_every_extended_context_is_fixed_point(self, monkeypatch):
        # on the circle, at a root of unity and off the circle, from a
        # double or an mpc q, and for rows of P' = 0 and P' != 0, an
        # extended context's ring is the fixed-point one, no other ring
        # is built, and an output is complex exactly where a table entry
        # or a row's q^P' is
        made = []
        init = projection._Values.__init__

        def counted(self, *args, **kwargs):
            made.append(self)
            init(self, *args, **kwargs)
        monkeypatch.setattr(projection._Values, "__init__", counted)
        sixj = compile_sixj(SixJLabels(*(4,) * 6))
        series = compile_series(chu_vandermonde(6, 5, 4)[0])
        assert not any(P for _, P, _ in sixj.rows)
        assert any(P for _, P, _ in series.rows[1:-2])
        with mp.workprec(128):
            on = [mp.expj(mpf("0.81")), mp.expjpi(mpf(1) / 23),
                  cmath.exp(0.81j)]
            off = [mpf("1.03") * mp.expj(mpf("0.81")), mpf("0.7"), 1.05,
                   -0.9 + 0.1j]
        for dcr in (sixj, series):
            for q in on + off:
                ctx = make_context(ComplexExtended(128), dcr.d_max, q=q)
                assert isinstance(ctx.ring, projection._FixedPoint)
                complex_out = q in off or dcr is series
                assert isinstance(evaluate(dcr, ctx).a, mpc) == complex_out
                for m in (dcr.base, *dcr.ratios):
                    assert project_monomial(m, ctx) != 0
        assert made == []


class TestAmplitude:
    def test_branch_of_prefactor_root(self):
        # the radicand projects onto the negative real axis near h = 8 for
        # these labels; the prefactor must stay on the branch where
        # root * sqrt(rad) is the principal root of root^2 * rad
        got = f64_amplitude(BRANCH_LABELS, 8)
        want = lse_eval_sixj(BRANCH_LABELS, 8)
        assert got.real > 0.2  # the broken branch gave -0.215470
        assert abs(got - want) <= 1e-9 * abs(want)
        assert abs(got.imag) < 1e-12

    def test_branch_continuity_across_crossing(self):
        for h in (7.6, 7.8, 8.0, 8.2, 8.4):
            got = f64_amplitude(BRANCH_LABELS, h)
            want = lse_eval_sixj(BRANCH_LABELS, h)
            assert abs(got - want) <= 1e-8 * abs(want)

    @pytest.mark.parametrize("labels,h", ((ALL_ONES, 7), (BRANCH_LABELS, 8),
                                          (HALF_MIX, 9)))
    def test_exact_square_identity(self, labels, h):
        dcr = compile_sixj(labels)
        ctx = make_context(RootOfUnityExact(h), dcr.d_max)
        out = evaluate(dcr, ctx)
        square = out.a * out.a * out.r  # exact in the field
        amp = amplitude_to_complex(out, ctx, bits=256)
        with mp.workprec(256):
            want = square.embed(256)
            assert abs(amp * amp - want) <= mpf(10) ** -60 * (1 + abs(want))

    @pytest.mark.parametrize("labels,h", ((ALL_ONES, 7),
                                          (SixJLabels(*(4,) * 6), 10)))
    def test_exact_real_symbol_is_real(self, labels, h):
        # a, r and root of a real 6j are fixed by conjugation, so the
        # exact engine's amplitude has an imaginary part of exactly zero,
        # while q itself still embeds as non-real
        dcr = compile_sixj(labels)
        ctx = make_context(RootOfUnityExact(h), dcr.d_max)
        amp = amplitude_to_complex(evaluate(dcr, ctx), ctx)
        assert amp != 0 and amp.imag == 0
        assert ctx.q.embed().imag != 0

    @pytest.mark.parametrize("labels,h", ((ALL_ONES, 7), (BRANCH_LABELS, 8)))
    def test_exact_matches_extended(self, labels, h):
        dcr = compile_sixj(labels)
        ctx = make_context(RootOfUnityExact(h), dcr.d_max)
        exact_amp = amplitude_to_complex(evaluate(dcr, ctx), ctx, 256)
        got = mp_amplitude(labels, h)
        with mp.workprec(256):
            assert abs(exact_amp - got) <= mpf(10) ** -60 * (1 + abs(got))

    @pytest.mark.parametrize("tjs", ((2, 2, 2, 2, 2, 2), (2, 2, 4, 3, 1, 3),
                                     (4, 4, 4, 4, 4, 4)))
    def test_classical_limit_against_rational_oracle(self, tjs):
        dcr = compile_sixj(SixJLabels(*tjs))
        val = classical_project(dcr)
        square, sign = racah_sixj_squared(tjs)
        assert val.a * val.a * val.r == square
        ctx = make_context(Classical(), dcr.d_max)
        amp = amplitude_to_complex(evaluate(dcr, ctx), ctx)
        assert amp.imag == 0
        cmp = (amp.real > 0) - (amp.real < 0)
        assert cmp == sign


class TestBranch:
    """The prefactor branch at generic unit-circle points, sign included,
    against the plain q-Racah sum in mpmath."""

    # points where the radicand is negative and its rounded imaginary
    # part used to pick the wrong root
    HARD = (Fraction(21037, 99700), Fraction(11017, 49850),
            Fraction(6007, 24925))
    # every [n] the symbol needs is nonzero off roots of order <= 6
    GRID = tuple(Fraction(k, 100) for k in range(1, 100)
                 if Fraction(k, 100).denominator > 6)

    @staticmethod
    def truth(t):
        with mp.workprec(256):
            return complex(qracah_sixj_mp(BRANCH_LABELS.as_tuple(),
                                          mp.pi * mpf(t.numerator) / t.denominator))

    @pytest.mark.parametrize("t", HARD + GRID,
                             ids=lambda t: "%d_%d" % (t.numerator, t.denominator))
    def test_matches_plain_sum(self, t):
        dcr = compile_sixj(BRANCH_LABELS)
        want = self.truth(t)
        q = cmath.exp(1j * math.pi * t)
        got = SweepEvaluator(dcr).amplitudes(np.array([q]))[0]
        assert abs(got - want) <= 1e-9 * abs(want)
        ctx = make_context(ComplexDouble(), dcr.d_max, q=q)
        got = amplitude_to_complex(evaluate(dcr, ctx), ctx)
        assert abs(got - want) <= 1e-9 * abs(want)
        tag = ComplexExtended(128)
        with mp.workprec(128):
            qm = mp.expjpi(mpf(t.numerator) / t.denominator)
        ctx = make_context(tag, dcr.d_max, q=qm)
        got = complex(amplitude_to_complex(evaluate(dcr, ctx), ctx))
        assert abs(got - want) <= 1e-30 * abs(want)


class TestSweep:
    @pytest.mark.parametrize("labels", (ALL_ONES, BRANCH_LABELS, HALF_MIX))
    def test_matches_scalar_double(self, labels):
        dcr = compile_sixj(labels)
        sweep = SweepEvaluator(dcr)
        thetas = np.linspace(0.25, 2.9, 41)
        got = sweep.amplitudes(np.exp(1j * thetas))
        for theta, g in zip(thetas, got):
            q = cmath.exp(1j * theta)
            ctx = make_context(ComplexDouble(), dcr.d_max, q=q)
            want = amplitude_to_complex(evaluate(dcr, ctx), ctx)
            # squares are branch-free; the signs must agree too
            assert abs(g * g - want * want) <= 1e-9 * (1 + abs(want) ** 2)
            assert abs(g - want) <= 1e-9 * (1 + abs(want))

    def test_pole_marked_nan(self):
        # tj = 4 edges are level-inadmissible at h = 5: scalar projection
        # raises, the vectorized path flags the point instead
        dcr = compile_sixj(BRANCH_LABELS)
        with pytest.raises(PoleError):
            evaluate(dcr, root_of_unity_context(5, ComplexDouble(), dcr.d_max))
        qs = np.array([cmath.exp(1j * math.pi / h) for h in (5, 8, 12)])
        amps = SweepEvaluator(dcr).amplitudes(qs)
        assert np.isnan(amps[0].real)
        assert np.isfinite(amps[1]) and np.isfinite(amps[2])

    def test_lattice_points_match_scalar(self):
        # a grid point on a root of unity inside the covered index range
        # takes the same vanishing orders and limits as the scalar rule
        dcr = compile_sixj(ALL_ONES)
        assert dcr.d_max >= 5
        q = cmath.exp(1j * math.pi / 5)
        got = SweepEvaluator(dcr).amplitudes(np.array([q]))[0]
        want = mp_amplitude(ALL_ONES, 5)
        assert abs(got - complex(want)) <= 1e-12 * (1 + abs(want))
        # a root of unity beyond d_max is a generic point for the kernel
        q = cmath.exp(1j * math.pi / (dcr.d_max + 3))
        got = SweepEvaluator(dcr).amplitudes(np.array([q]))[0]
        ctx = make_context(ComplexDouble(), dcr.d_max, q=q)
        want = amplitude_to_complex(evaluate(dcr, ctx), ctx)
        assert abs(got - want) <= 1e-12 * (1 + abs(want))

    def test_lattice_limit_in_surviving_ratio(self):
        # at h = 5 the ratio [10]/[5] survives with both factors vanishing
        # (order 0); the kernel takes its limit -2 as the scalar rule does
        dcr = hand_built(CycloMonomial(),
                         (div(qint_monomial(10), qint_monomial(5)),
                          qint_monomial(3)),
                         qint_monomial(2), qint_monomial(3), d_max=10)
        got = SweepEvaluator(dcr).amplitudes(
            np.array([cmath.exp(1j * math.pi / 5)]))[0]
        ctx = root_of_unity_context(5, ComplexExtended(256), dcr.d_max)
        want = complex(amplitude_to_complex(evaluate(dcr, ctx), ctx))
        assert abs(got - want) <= 1e-12 * (1 + abs(want))
        phi = (1 + math.sqrt(5)) / 2  # [2] = [3] at h = 5
        assert abs(want - (1 - 2 - 2 * phi) * phi * math.sqrt(phi)) <= 1e-12

    def test_vanishing_prefactor_is_zero(self):
        # a root of positive order at h = 5 zeroes the amplitude
        dcr = hand_built(CycloMonomial(), (qint_monomial(2),),
                         qint_monomial(5), CycloMonomial(), d_max=5)
        q = cmath.exp(1j * math.pi / 5)
        ctx = make_context(ComplexDouble(), dcr.d_max, q=q)
        assert amplitude_to_complex(evaluate(dcr, ctx), ctx) == 0
        assert SweepEvaluator(dcr).amplitudes(np.array([q]))[0] == 0

    def test_real_q_off_circle_is_real(self):
        # each s_n of a real q is real, so its phase is a whole half turn
        # and the amplitude exactly real, as on the scalar path
        labels = SixJLabels(4, 6, 8, 6, 4, 6)
        dcr = compile_sixj(labels)
        qs = np.array([-0.5, -1.3])
        got = SweepEvaluator(dcr).amplitudes(qs)
        for q, g in zip(qs, got):
            ctx = make_context(ComplexDouble(), dcr.d_max, q=complex(q))
            want = amplitude_to_complex(evaluate(dcr, ctx), ctx)
            assert want.imag == 0 and g.imag == 0, (q, g, want)
            assert abs(g - want) <= 1e-12 * abs(want)

    @pytest.mark.parametrize("tj", ((4, 6, 8, 6, 4, 6),
                                    (40, 54, 58, 46, 28, 30),
                                    (308, 305, 307, 319, 320, 304)))
    def test_lattice_point_leaves_others_bit_identical(self, tj):
        # a root of unity inside d_max makes the kernel take the vanishing
        # orders; every other point's value is the one it has without it
        dcr = compile_sixj(SixJLabels(*tj))
        sweep = SweepEvaluator(dcr)
        qs = np.exp(1j * np.linspace(0.21, 3.05, 12))
        generic = sweep.amplitudes(qs)
        for h in (dcr.d_max, dcr.d_max // 2 + 1):
            mixed = qs.copy()
            mixed[5] = cmath.exp(1j * math.pi / h)
            got = sweep.amplitudes(mixed)
            others = np.arange(len(qs)) != 5
            assert got[others].tobytes() == generic[others].tobytes(), h
            _, order = projection._circle_tables(np.angle(mixed), dcr.d_max)
            assert order[5] == h and not order[others].any()

    @pytest.mark.parametrize("tj, qs", (
        ((200,) * 6, (10, 21.5, 0.1, 0.05, 5 * cmath.exp(0.3j))),
        ((40, 54, 58, 46, 28, 30),
         (1 + 1e-9, 1 - 1e-9, (1 + 1e-9) * cmath.exp(0.7j)))))
    def test_off_circle_matches_extended(self, tj, qs):
        # far from the circle q^n leaves double range, and within 1e-9 of
        # it q^n - q^-n cancels seven digits; the kernel forms neither, so
        # each point is within 1e-10 of the 192-bit value
        dcr = compile_sixj(SixJLabels(*tj))
        got = SweepEvaluator(dcr).amplitudes(np.array(qs, dtype=complex))
        for q, g in zip(qs, got):
            ctx = make_context(ComplexExtended(192), dcr.d_max, q=complex(q))
            want = complex(amplitude_to_complex(evaluate(dcr, ctx), ctx))
            assert abs(g - want) <= 1e-10 * abs(want), (q, g, want)

    def test_off_circle_points(self):
        dcr = compile_sixj(ALL_ONES)
        qs = np.array([0.9 * cmath.exp(0.4j), 1.1 * cmath.exp(1.9j)])
        got = SweepEvaluator(dcr).amplitudes(qs)
        for q, g in zip(qs, got):
            ctx = make_context(ComplexDouble(), dcr.d_max, q=complex(q))
            want = amplitude_to_complex(evaluate(dcr, ctx), ctx)
            assert abs(g - want) <= 1e-9 * (1 + abs(want))
