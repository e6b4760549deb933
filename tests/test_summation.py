"""Summation theorems as oracles for the general compiler: a series whose
sum is a single product of quantum factorials, one monomial, compiled by
compile_series and evaluated, against project_monomial of that monomial."""

import cmath

from hypothesis import given, strategies as st
from mpmath import mp, mpf

from qcyclo.compiler import AffineForm, PhasePoly, SeriesDescriptor, compile_series
from qcyclo.monomial import div, mul
from qcyclo.projection import (Classical, ComplexDouble, ComplexExtended,
                               RootOfUnityExact, evaluate, make_context,
                               project_monomial)
from qcyclo.qfactor import qfact_monomial

from conftest import trig_qfact_mp

THETA = "0.81"  # q = e^{0.81 i}, a generic point of the unit circle


def chu_vandermonde(m, n, N):
    """q-Chu-Vandermonde in the symmetric [n]:

    sum_k q^{mN - (m+n)k} [m]! [n]! / ([k]! [m-k]! [N-k]! [n-N+k]!)
        = [m+n]! / ([N]! [m+n-N]!),

    returned as (series, closed form)."""
    series = SeriesDescriptor(
        num_args=(AffineForm(m, 0), AffineForm(n, 0)),
        den_args=(AffineForm(0, +1), AffineForm(m, -1), AffineForm(N, -1),
                  AffineForm(n - N, +1)),
        phase=PhasePoly(m * N, -(m + n)))
    closed = div(qfact_monomial(m + n),
                 mul(qfact_monomial(N), qfact_monomial(m + n - N)))
    return series, closed


def term_scale(m, n, N, theta):
    """sum_k |T_k| at q = e^{i theta}, from sine-ratio factorials; the
    roundoff of the sum is relative to it."""
    def qbinom(a, b):
        return trig_qfact_mp(a, theta) / (trig_qfact_mp(b, theta)
                                          * trig_qfact_mp(a - b, theta))
    return sum(abs(qbinom(m, k) * qbinom(n, N - k))
               for k in range(max(0, N - n), min(m, N) + 1))


@st.composite
def cases(draw):
    """(m, n, N, h) with m, n < h: every factorial of the series is then
    nonzero at e^{i pi/h}, while the closed form vanishes when m + n >= h."""
    h = draw(st.integers(min_value=3, max_value=11))
    m = draw(st.integers(min_value=0, max_value=h - 1))
    n = draw(st.integers(min_value=0, max_value=h - 1))
    return m, n, draw(st.integers(min_value=0, max_value=m + n)), h


class TestChuVandermonde:
    @given(cases())
    def test_all_four_arithmetics(self, case):
        m, n, N, h = case
        series, closed = chu_vandermonde(m, n, N)
        dcr = compile_series(series)
        # the ratio rows carry P' = -(m + n), the phase step
        assert all(P == -(m + n) for _, P, _ in dcr.rows[1:-2])
        d_max = max(dcr.d_max, m + n)

        for ctx in (make_context(RootOfUnityExact(h), d_max),
                    make_context(Classical(), d_max)):
            got = evaluate(dcr, ctx)
            assert got.a == project_monomial(closed, ctx)
            assert got.r == ctx.one

        ctx = make_context(ComplexDouble(), d_max, q=cmath.exp(float(THETA) * 1j))
        want = project_monomial(closed, ctx)
        with mp.workprec(64):
            scale = float(term_scale(m, n, N, mpf(THETA)))
        assert abs(evaluate(dcr, ctx).a - want) <= 2 ** -45 * scale

        bits = 256
        with mp.workprec(bits):
            q = mp.expj(mpf(THETA))
        ctx = make_context(ComplexExtended(bits), d_max, q=q)
        got = evaluate(dcr, ctx).a
        want = project_monomial(closed, ctx)
        with mp.workprec(bits):
            scale = term_scale(m, n, N, mpf(THETA))
            assert abs(got - want) <= mpf(2) ** -(bits - 16) * scale
