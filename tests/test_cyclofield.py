"""Exact cyclotomic arithmetic: polynomial coefficients and field ops."""

import operator
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st
from mpmath import mp, mpf

from qcyclo.compiler import SixJLabels, compile_sixj
from qcyclo.cyclofield import CycloField, CycloNumber, cyclotomic_coeffs
from qcyclo.projection import RootOfUnityExact, evaluate, make_context


def _poly_mul_int(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


class TestCyclotomicCoeffs:
    def test_small_values(self):
        assert cyclotomic_coeffs(1) == (-1, 1)
        assert cyclotomic_coeffs(2) == (1, 1)
        assert cyclotomic_coeffs(3) == (1, 1, 1)
        assert cyclotomic_coeffs(4) == (1, 0, 1)
        assert cyclotomic_coeffs(6) == (1, -1, 1)
        assert cyclotomic_coeffs(12) == (1, 0, -1, 0, 1)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            cyclotomic_coeffs(0)

    def test_degree_is_totient(self):
        # phi(10) = 4, phi(9) = 6
        assert len(cyclotomic_coeffs(10)) - 1 == 4
        assert len(cyclotomic_coeffs(9)) - 1 == 6

    def test_first_large_coefficient(self):
        # 105 = 3*5*7 is the smallest index with a coefficient outside {-1,0,1}
        coeffs = cyclotomic_coeffs(105)
        assert min(coeffs) == -2
        assert coeffs[7] == -2
        for d in range(1, 105):
            assert set(cyclotomic_coeffs(d)) <= {-1, 0, 1}

    @given(st.integers(min_value=1, max_value=80))
    def test_divisor_product_recovers_power(self, n):
        prod = [1]
        for d in range(1, n + 1):
            if n % d == 0:
                prod = _poly_mul_int(prod, cyclotomic_coeffs(d))
        want = [-1] + [0] * (n - 1) + [1]
        assert prod == want


# keep the degree phi(2h) small so inverse() stays fast under hypothesis
FIELD_HS = (3, 4, 5, 6, 7, 9, 12)


def field_elements(h):
    deg = CycloField(h).degree
    coeff = st.fractions(min_value=-4, max_value=4, max_denominator=6)
    return st.tuples(*([coeff] * deg))


class TestCycloField:
    def test_rejects_small_h(self):
        with pytest.raises(ValueError):
            CycloField(1)

    @pytest.mark.parametrize("h", FIELD_HS)
    def test_root_of_unity_order(self, h):
        F = CycloField(h)
        assert F.q ** (2 * h) == F.one
        assert F.q ** h == -F.one  # zeta_2h^h = e^{i pi} = -1
        for k in range(1, 2 * h):
            assert F.q ** k != F.one

    @pytest.mark.parametrize("h", FIELD_HS)
    def test_level_polynomial_vanishes_exactly(self, h):
        # Phi_h(q^2) = 0 is the defining relation the projection relies on
        F = CycloField(h)
        q2 = F.q_power(2)
        acc = F.zero
        for c in reversed(cyclotomic_coeffs(h)):
            acc = acc * q2 + F.from_rational(c)
        assert acc.is_zero()

    def test_minimal_polynomial_vanishes(self):
        F = CycloField(9)
        acc = F.zero
        for c in reversed(F.minpoly):
            acc = acc * F.q + F.from_rational(c)
        assert acc.is_zero()

    def test_power_reduction_wraps(self):
        F = CycloField(5)
        assert F.q_power(13) == F.q_power(13 % 10)
        assert F.q_power(-3) == F.q_power(7)

    @pytest.mark.parametrize("h", range(2, 41))
    def test_power_table_matches_products(self, h):
        # every class of x^k, k in [-2h, 2h), against q multiplied up
        # from q^{-2h} = 1
        F = CycloField(h)
        acc = F.one
        for k in range(-2 * h, 2 * h):
            assert F.element_from_power(k) == acc, k
            acc = acc * F.q

    def test_from_rational_arithmetic(self):
        F = CycloField(4)
        a = F.from_rational(Fraction(3, 2))
        b = F.from_rational(Fraction(-1, 3))
        assert (a * b).coeffs[0] == Fraction(-1, 2)
        assert all(c == 0 for c in (a * b).coeffs[1:])

    @pytest.mark.parametrize("h", (5, 7, 12))
    def test_embed_matches_root(self, h):
        F = CycloField(h)
        with mp.workprec(160):
            want = mp.e ** (mp.mpc(0, mp.pi / h))
            got = F.q.embed(160)
            assert abs(got - want) < mp.mpf(2) ** -140

    @pytest.mark.parametrize("h", (5, 7, 12))
    def test_embed_is_real_where_conjugation_fixes(self, h):
        # s_1 = q - 1/q = 2i sin(pi/h) goes to -s_1 under conjugation, and
        # its square is fixed: that one embeds as a real mpf, exactly
        F = CycloField(h)
        s = F.q - F.q_power(-1)
        assert s.conjugate() == -s and (s * s).conjugate() == s * s
        assert F.q.conjugate() == F.q_power(-1)
        assert isinstance((s * s).embed(128), mpf)
        assert (s * s).embed(128).imag == 0
        assert s.embed(128).imag != 0 and F.q.embed(128).imag != 0

    def test_embed_is_ring_hom(self):
        F = CycloField(7)
        a = F.q_power(3) + F.from_rational(Fraction(1, 2))
        b = F.q_power(-2) - F.one
        with mp.workprec(128):
            lhs = (a * b).embed(128)
            rhs = a.embed(128) * b.embed(128)
            assert abs(lhs - rhs) < mp.mpf(2) ** -100

    @given(st.sampled_from(FIELD_HS), st.data())
    def test_inverse(self, h, data):
        F = CycloField(h)
        coeffs = data.draw(field_elements(h))
        a = CycloNumber(F, coeffs)
        if a.is_zero():
            with pytest.raises(ZeroDivisionError):
                a.inverse()
        else:
            assert a * a.inverse() == F.one
            assert a / a == F.one

    def test_negative_power_is_inverse_power(self):
        F = CycloField(6)
        a = F.q + F.from_rational(2)
        assert a ** -3 == (a.inverse()) ** 3
        assert a ** 0 == F.one

    @given(st.sampled_from(FIELD_HS), st.data())
    def test_ring_axioms_spot(self, h, data):
        F = CycloField(h)
        a = CycloNumber(F, data.draw(field_elements(h)))
        b = CycloNumber(F, data.draw(field_elements(h)))
        assert a * b == b * a
        assert a * (b + F.one) == a * b + a
        assert (a - b) + b == a

    def test_equal_elements_of_two_fields_of_one_h(self):
        # one DCR evaluated in two contexts at h = 9 gives equal values,
        # each of its own CycloField object
        dcr = compile_sixj(SixJLabels(*(4,) * 6))
        a1, a2 = (evaluate(dcr, make_context(RootOfUnityExact(9), dcr.d_max)).a
                  for _ in range(2))
        assert a1.field is not a2.field
        assert (a1 - a2).is_zero()
        assert a1 == a2 and hash(a1) == hash(a2)
        assert a1 * a2 == a2 * a1
        assert CycloField(9).q == CycloField(9).q != CycloField(9).one

    @pytest.mark.parametrize("op", (operator.add, operator.sub,
                                    operator.mul, operator.truediv))
    def test_fields_of_different_h_do_not_mix(self, op):
        # Q(zeta_10) and Q(zeta_14) have coefficient lists of 4 and 6
        # entries; no arithmetic pairs them up
        a, b = CycloField(5).q, CycloField(7).q
        with pytest.raises(ValueError, match="do not mix"):
            op(a, b)
        with pytest.raises(ValueError, match="do not mix"):
            op(b, a)
        assert a != b and CycloField(5).one != CycloField(7).one
