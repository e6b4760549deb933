import ast
import importlib.resources
import re

import pytest
from hypothesis import given, strategies as st

from qcyclo.monomial import (CycloMonomial, ExponentVector, IDENTITY,
                             div, mul, sqrt_split)

exp_dicts = st.dictionaries(st.integers(min_value=2, max_value=40),
                            st.integers(min_value=-30, max_value=30),
                            max_size=8)
monomials = st.builds(
    lambda s, p, e: CycloMonomial(s, p, ExponentVector(e)),
    st.sampled_from((1, -1)),
    st.integers(min_value=-1000, max_value=1000),
    exp_dicts)


class TestExponentVector:
    def test_drops_zeros(self):
        e = ExponentVector({2: 0, 3: 5})
        assert e.get(2) == 0
        assert e.items() == [(3, 5)]

    def test_rejects_bad_index(self):
        with pytest.raises(ValueError):
            ExponentVector({1: 3})
        with pytest.raises(ValueError):
            ExponentVector({0: 1})

    def test_merge_is_addition(self):
        a = ExponentVector({2: 3, 5: -1})
        b = ExponentVector({2: -3, 7: 4})
        m = a.merge(b, 1)
        assert m.get(2) == 0 and m.get(5) == -1 and m.get(7) == 4

    def test_max_index_empty(self):
        assert ExponentVector({}).max_index() == 1


class TestMonomialAlgebra:
    @given(monomials, monomials)
    def test_mul_exponents_add(self, x, y):
        z = mul(x, y)
        assert z.sigma == x.sigma * y.sigma
        assert z.P == x.P + y.P
        for idx in set(x.exps.indices()) | set(y.exps.indices()):
            assert z.exps.get(idx) == x.exps.get(idx) + y.exps.get(idx)

    @given(monomials, monomials)
    def test_div_inverts_mul(self, x, y):
        assert div(mul(x, y), y) == x

    @given(monomials)
    def test_sqrt_split_reconstructs(self, g):
        s = sqrt_split(g)
        back = mul(mul(s.root, s.root), s.rad)
        assert back == g

    @given(monomials)
    def test_sqrt_split_rad_exponents_small(self, g):
        s = sqrt_split(g)
        for _, v in s.rad.exps.items():
            assert v in (0, 1)
        assert s.rad.P in (0, 1)
        assert s.root.sigma == 1

    def test_sigma_is_a_sign(self):
        with pytest.raises(ValueError, match="sigma must be \\+1 or -1, got 0"):
            CycloMonomial(sigma=0)

    def test_identity(self):
        assert (IDENTITY.sigma, IDENTITY.P, IDENTITY.exps) \
            == (1, 0, ExponentVector())
        m = CycloMonomial(-1, 3, ExponentVector({2: 1}))
        assert mul(m, IDENTITY) == m


class TestOverflowGuard:
    def test_exponent_overflow(self):
        big = CycloMonomial(1, 2 ** 62, ExponentVector({}))
        with pytest.raises(OverflowError):
            mul(big, big)

    def test_entry_overflow(self):
        m = CycloMonomial(1, 0, ExponentVector({2: 2 ** 62}))
        with pytest.raises(OverflowError):
            mul(m, m)


class TestSerialization:
    @given(monomials)
    def test_json_round_trip(self, m):
        back = CycloMonomial.from_json_dict(m.to_json_dict())
        assert back == m

    def test_missing_key(self):
        with pytest.raises(ValueError, match="missing"):
            CycloMonomial.from_json_dict({"sigma": 1, "P": 0})

    @pytest.mark.parametrize("key", (" 3", "+3", "03", "3 ", "-03"))
    def test_index_key_not_canonical(self, key):
        # int() reads each of these as an index, but it is not the key
        # to_json_dict writes for one
        with pytest.raises(ValueError,
                           match=re.escape("e has the key %r" % key)):
            CycloMonomial.from_json_dict({"sigma": 1, "P": 0, "e": {key: 1}})

    def test_two_keys_for_one_index(self):
        # "3" and " 3" would both load as index 3, the later one winning
        with pytest.raises(ValueError, match="e has the key ' 3'"):
            CycloMonomial.from_json_dict(
                {"sigma": 1, "P": 0, "e": {"3": 1, " 3": 2}})

    @pytest.mark.parametrize("key", ("x", "1e3", "", "3.0", "1_0", "\u0663"))
    def test_index_key_not_an_integer(self, key):
        # refused with the field named, not int()'s "invalid literal"
        with pytest.raises(ValueError, match="e has the key"):
            CycloMonomial.from_json_dict({"sigma": 1, "P": 0, "e": {key: 1}})

    def test_canonical_keys_load(self):
        m = CycloMonomial.from_json_dict(
            {"sigma": -1, "P": 2, "e": {"3": 1, "10": -2}})
        assert m == CycloMonomial(-1, 2, {3: 1, 10: -2})


def test_package_has_no_global_statement():
    # counters and other state travel through return values, so no
    # module of the package rebinds a module-level name
    for path in importlib.resources.files("qcyclo").iterdir():
        if path.name.endswith(".py"):
            tree = ast.parse(path.read_text(), filename=path.name)
            names = [n.names for n in ast.walk(tree)
                     if isinstance(n, ast.Global)]
            assert names == [], path.name
