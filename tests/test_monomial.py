import ast
import importlib.resources
import re

import pytest
from hypothesis import given, strategies as st

from qcyclo.monomial import CycloMonomial, IDENTITY, div, mul, sqrt_split

exp_dicts = st.dictionaries(st.integers(min_value=2, max_value=40),
                            st.integers(min_value=-30, max_value=30),
                            max_size=8)
monomials = st.builds(
    CycloMonomial,
    st.sampled_from((1, -1)),
    st.integers(min_value=-1000, max_value=1000),
    exp_dicts)


class TestExponentVector:
    # the sparse exponent vector e of a monomial, held as a read-only map
    def test_drops_zeros(self):
        m = CycloMonomial(1, 0, {2: 0, 3: 5})
        assert m.exps.get(2, 0) == 0
        assert dict(m.exps) == {3: 5}

    def test_rejects_bad_index(self):
        with pytest.raises(ValueError,
                           match="cyclotomic index must be >= 2, got 1"):
            CycloMonomial(1, 0, {1: 3})
        with pytest.raises(ValueError,
                           match="cyclotomic index must be >= 2, got 0"):
            CycloMonomial(1, 0, {0: 1})

    def test_merge_is_addition(self):
        # mul and div add and subtract entrywise, and drop what cancels
        a = CycloMonomial(1, 0, {2: 3, 5: -1})
        b = CycloMonomial(1, 0, {2: -3, 7: 4})
        assert dict(mul(a, b).exps) == {5: -1, 7: 4}
        assert dict(div(a, a).exps) == {}
        assert dict(a.exps) == {2: 3, 5: -1}  # operands left as they were

    def test_max_index_empty(self):
        assert CycloMonomial().max_index() == 1
        assert CycloMonomial(1, 0, {3: 1, 12: -2}).max_index() == 12

    def test_map_is_read_only(self):
        m = mul(CycloMonomial(1, 0, {2: 1}), CycloMonomial(1, 0, {3: 1}))
        for built in (m, CycloMonomial(1, 0, {2: 1})):
            with pytest.raises(TypeError):
                built.exps[2] = 5
        assert dict(m.exps) == {2: 1, 3: 1}

    def test_hash_ignores_entry_order(self):
        a = CycloMonomial(-1, 4, {2: 1, 3: -2, 7: 1})
        b = CycloMonomial(-1, 4, {7: 1, 3: -2, 2: 1})
        assert a == b and hash(a) == hash(b)


class TestMonomialAlgebra:
    @given(monomials, monomials)
    def test_mul_exponents_add(self, x, y):
        z = mul(x, y)
        assert z.sigma == x.sigma * y.sigma
        assert z.P == x.P + y.P
        for idx in set(x.exps) | set(y.exps):
            assert z.exps.get(idx, 0) == x.exps.get(idx, 0) + y.exps.get(idx, 0)

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
            == (1, 0, {})
        m = CycloMonomial(-1, 3, {2: 1})
        assert mul(m, IDENTITY) == m


class TestOverflowGuard:
    def test_exponent_overflow(self):
        big = CycloMonomial(1, 2 ** 62, {})
        with pytest.raises(OverflowError):
            mul(big, big)

    def test_constructor_checks_entries(self):
        with pytest.raises(OverflowError, match="exponent e_5 exceeds"):
            CycloMonomial(1, 0, {2: 1, 5: 2 ** 63})
        with pytest.raises(OverflowError, match="q-power P exceeds"):
            CycloMonomial(1, -2 ** 63 - 1, {})

    def test_entry_overflow(self):
        m = CycloMonomial(1, 0, {2: 2 ** 62})
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
