"""Summation theorems as oracles for the general compiler: a series whose
sum is a single product of quantum factorials, one monomial, compiled by
compile_series and evaluated, against project_monomial of that monomial."""

import cmath

import numpy as np
from hypothesis import example, given, strategies as st
from mpmath import mp, mpf

from qcyclo.compiler import AffineForm, PhasePoly, SeriesDescriptor, compile_series
from qcyclo.monomial import div, mul
from qcyclo.projection import (Classical, ComplexDouble, ComplexExtended,
                               RootOfUnityExact, SweepEvaluator, evaluate,
                               make_context, project_monomial,
                               root_of_unity_context)
from qcyclo.qfactor import qfact_monomial

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


def qbinom(a, b, q):
    """The symmetric q-binomial [a choose b] at q, by the q-Pascal rule
    [a, b] = q^-b [a - 1, b] + q^(a - b) [a - 1, b - 1]; it divides by
    nothing, so it holds at roots of unity too."""
    row = [mp.mpc(1)]
    for k in range(1, a + 1):
        row = [(q ** -j * row[j] if j < k else 0)
               + (q ** (k - j) * row[j - 1] if j else 0) for j in range(k + 1)]
    return row[b] if 0 <= b <= a else 0


def term_scale(m, n, N, q):
    """sum_k |T_k| at q on the unit circle, T_k = q^{mN - (m+n)k} [m, k]
    [n, N - k]; the roundoff of the sum is relative to it."""
    return sum(abs(qbinom(m, k, q) * qbinom(n, N - k, q))
               for k in range(max(0, N - n), min(m, N) + 1))


@st.composite
def cases(draw):
    """(m, n, N, h) with m, n < 2h: a factorial of the series can then
    vanish at e^{i pi/h}, so a term can have positive order while a later
    one has order zero, and the closed form vanishes when its order is
    positive."""
    h = draw(st.integers(min_value=3, max_value=11))
    m = draw(st.integers(min_value=0, max_value=2 * h - 1))
    n = draw(st.integers(min_value=0, max_value=2 * h - 1))
    return m, n, draw(st.integers(min_value=0, max_value=m + n)), h


class TestChuVandermonde:
    # at h = 3 the ratio orders are +1 then -1: a walk that stops at the
    # first vanishing ratio returns -1 for -2
    @example((2, 4, 3, 3))
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

        # double and 256 bits at a generic q and at the root of unity
        # e^{i pi/h}, the sweep at the root too
        bits = 256
        with mp.workprec(bits):
            q = mp.expj(mpf(THETA))
        root = root_of_unity_context(h, ComplexDouble(), d_max)
        for double, extended in (
                (make_context(ComplexDouble(), d_max,
                              q=cmath.exp(float(THETA) * 1j)),
                 make_context(ComplexExtended(bits), d_max, q=q)),
                (root, root_of_unity_context(h, ComplexExtended(bits), d_max))):
            want = project_monomial(closed, double)
            with mp.workprec(64):
                scale = float(term_scale(m, n, N, mp.mpc(double.q)))
            assert abs(evaluate(dcr, double).a - want) <= 2 ** -45 * scale

            got = evaluate(dcr, extended).a
            want = project_monomial(closed, extended)
            with mp.workprec(bits):
                scale = term_scale(m, n, N, extended.q)
                assert abs(got - want) <= mpf(2) ** -(bits - 16) * scale

        got = SweepEvaluator(dcr).amplitudes(np.array([root.q]))[0]
        with mp.workprec(64):
            scale = float(term_scale(m, n, N, mp.mpc(root.q)))
        assert abs(got - project_monomial(closed, root)) <= 2 ** -45 * scale
