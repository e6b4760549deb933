import cmath

import pytest
from hypothesis import given, strategies as st

from qcyclo.monomial import IDENTITY, div, mul
from qcyclo.qfactor import clear_caches, divisors, qfact_monomial, qint_monomial
from qcyclo.projection import ComplexDouble, make_context, project_monomial

from conftest import trig_qint


class TestDivisors:
    def test_small(self):
        assert divisors(1) == [1]
        assert divisors(12) == [1, 2, 3, 4, 6, 12]
        assert divisors(13) == [1, 13]

    @given(st.integers(min_value=1, max_value=2000))
    def test_every_divisor_divides(self, n):
        ds = divisors(n)
        assert ds == sorted(ds)
        assert all(n % d == 0 for d in ds)
        assert ds[0] == 1 and ds[-1] == n

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            divisors(0)


class TestQuantumInteger:
    def test_one_is_identity(self):
        assert qint_monomial(1) == IDENTITY

    def test_six(self):
        m = qint_monomial(6)
        assert m.sigma == 1 and m.P == -5
        assert dict(m.exps.items()) == {2: 1, 3: 1, 6: 1}

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            qint_monomial(0)

    @given(st.integers(min_value=1, max_value=120),
           st.floats(min_value=0.15, max_value=2.9))
    def test_matches_sine_ratio(self, n, theta):
        ctx = make_context(ComplexDouble(), n, q=cmath.exp(1j * theta))
        got = project_monomial(qint_monomial(n), ctx)
        want = trig_qint(n, theta)
        assert got.imag == pytest.approx(0.0, abs=1e-8 * (1 + abs(want)))
        assert got.real == pytest.approx(want, rel=1e-9, abs=1e-9)


class TestQuantumFactorial:
    def test_zero_and_one(self):
        assert qfact_monomial(0) == IDENTITY
        assert qfact_monomial(1) == IDENTITY

    def test_four(self):
        m = qfact_monomial(4)
        assert m.P == -6
        assert dict(m.exps.items()) == {2: 2, 3: 1, 4: 1}

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            qfact_monomial(-1)

    def test_memoized_monomial_is_read_only(self):
        # qfact_monomial hands every caller the one memoized object, so
        # its exponent map refuses writes rather than trusting callers
        m = qfact_monomial(6)
        before = dict(m.exps)
        with pytest.raises(TypeError):
            m.exps[5] = 7
        with pytest.raises(TypeError):
            del m.exps[2]
        assert qfact_monomial(6) is m
        assert dict(qfact_monomial(6).exps) == before == {2: 3, 3: 2, 4: 1,
                                                          5: 1, 6: 1}

    @given(st.integers(min_value=1, max_value=200))
    def test_recurrence(self, n):
        assert qfact_monomial(n) == mul(qfact_monomial(n - 1), qint_monomial(n))

    @given(st.integers(min_value=1, max_value=200))
    def test_recurrence_down(self, n):
        assert div(qfact_monomial(n), qfact_monomial(n - 1)) == qint_monomial(n)

    def test_exponent_is_floor_quotient(self):
        m = qfact_monomial(30)
        for d, e in m.exps.items():
            assert e == 30 // d

    def test_cache_transparency(self):
        a = qfact_monomial(50)
        clear_caches()
        assert qfact_monomial(50) == a
