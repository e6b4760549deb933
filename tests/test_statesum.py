"""State sums over triangulations: canonical keys, coloring enumeration,
cache amortization, partition values."""

import importlib.resources
import itertools
import json
import random
from dataclasses import replace

import pytest
from mpmath import mp

from qcyclo import statesum
from qcyclo.compiler import (TRIADS, SixJLabels, compile_sixj,
                             triangle_admissible)
from qcyclo.diagnostics import dcr_eval_sixj
from qcyclo.projection import (ComplexDouble, ComplexExtended, PoleError,
                               RootOfUnityExact, amplitude_to_complex,
                               evaluate, make_context, project_monomial,
                               root_of_unity_context)
from qcyclo.qfactor import qint_monomial
from qcyclo.statesum import (DCRCache, Triangulation, admissible_colorings,
                             canonical_sixj, load_triangulation,
                             triangulation_from_json, tv_partition)

from conftest import count_compiles, trig_qint_mp

DATA = importlib.resources.files("qcyclo") / "data"

# S^3 from two tetrahedra on the same six edges of vertices A, B, C, D
EDGES = ("AB", "AC", "BC", "CD", "BD", "AD")
CLOSED_S3 = Triangulation(num_vertices=4, edges=EDGES,
                          tetrahedra=(EDGES, EDGES), boundary={})

# two tetrahedra glued along the ABC face; outer edges fixed
TWO_TETS = Triangulation(
    num_vertices=5,
    edges=("AB", "AC", "BC", "AD", "BD", "CD", "AE", "BE", "CE"),
    tetrahedra=(("AB", "AC", "BC", "CD", "BD", "AD"),
                ("AB", "AC", "BC", "CE", "BE", "AE")),
    boundary={"AD": 2, "BD": 2, "CD": 2, "AE": 1, "BE": 1, "CE": 1},
)


def sixj_images(tjs):
    """All 24 images of a twice-spin 6-tuple under the tetrahedral
    symmetries, listed one by one: column permutations of
    ((j1,j4),(j2,j5),(j3,j6)) composed with upper/lower exchange in two
    columns.  The brute-force oracle for canonical_sixj."""
    cols = ((tjs[0], tjs[3]), (tjs[1], tjs[4]), (tjs[2], tjs[5]))
    out = []
    for perm in itertools.permutations((0, 1, 2)):
        for flips in ((0, 0, 0), (1, 1, 0), (1, 0, 1), (0, 1, 1)):
            pc = [cols[perm[i]][::-1] if flips[i] else cols[perm[i]]
                  for i in range(3)]
            out.append((pc[0][0], pc[1][0], pc[2][0],
                        pc[0][1], pc[1][1], pc[2][1]))
    return out


class TestSymmetryOrbit:
    def test_orbit_size_and_membership(self):
        tjs = (2, 2, 4, 3, 1, 3)
        images = sixj_images(tjs)
        assert len(images) == 24
        assert tjs in images

    def test_canonical_idempotent_on_orbit(self):
        tjs = (2, 2, 4, 3, 1, 3)
        key = canonical_sixj(tjs)
        for img in sixj_images(tjs):
            assert canonical_sixj(img) == key
        assert key == min(sixj_images(tjs))

    def test_key_is_least_image_on_small_labels(self):
        for tjs in itertools.product(range(5), repeat=6):
            assert canonical_sixj(tjs) == min(sixj_images(tjs)), tjs

    def test_key_is_least_image_on_large_labels(self):
        rng = random.Random(26)
        for _ in range(2000):
            tjs = [rng.randint(0, 40) for _ in range(6)]
            # ties between columns and between labels
            tjs[rng.randrange(6)] = tjs[rng.randrange(6)]
            assert canonical_sixj(tjs) == min(sixj_images(tjs)), tjs

    def test_amplitude_invariant_on_orbit(self):
        # numerical invariance under the 24 relabelings is what makes
        # canonicalization safe as a cache key
        base = dcr_eval_sixj(SixJLabels(2, 2, 4, 3, 1, 3), 8,
                             ComplexExtended(256))
        for img in set(sixj_images((2, 2, 4, 3, 1, 3))):
            v = dcr_eval_sixj(SixJLabels(*img), 8, ComplexExtended(256))
            assert abs(v - base) <= 1e-10 * abs(base)


def regge_image(tjs):
    """The twice-spin Regge map (Regge 1959): (t1, (t2+t3+t5-t6)/2,
    (t2+t3-t5+t6)/2, t4, (t2+t5+t6-t3)/2, (t3+t5+t6-t2)/2)."""
    t1, t2, t3, t4, t5, t6 = tjs
    doubled = (2 * t1, t2 + t3 + t5 - t6, t2 + t3 - t5 + t6, 2 * t4,
               t2 + t5 + t6 - t3, t3 + t5 + t6 - t2)
    assert all(x % 2 == 0 for x in doubled), tjs
    return tuple(x // 2 for x in doubled)


def admissible(tjs):
    return all(triangle_admissible(*(tjs[i] for i in t)) for t in TRIADS)


def exact_amplitude(tjs, h):
    """(a^2 r, a sqrt(r)) of the 6j in Q(zeta_2h), or None at a pole."""
    dcr = compile_sixj(SixJLabels(*tjs))
    ctx = make_context(RootOfUnityExact(h), dcr.d_max)
    try:
        v = evaluate(dcr, ctx)
    except PoleError:
        return None
    return v.a * v.a * v.r, complex(amplitude_to_complex(v, ctx))


class TestReggeSymmetry:
    """The q-6j is invariant under the Regge symmetries as well as the 24
    tetrahedral ones.  A Regge image outside the tetrahedral class
    compiles different rows, so equality in Q(zeta_2h) is an exact oracle
    that does not lean on the compiler's own symmetry."""

    def test_regge_image_exactly_equal(self):
        rng = random.Random(18)
        pairs = poles = 0
        while pairs < 100:
            tjs = tuple(rng.randint(0, 12) for _ in range(6))
            if not admissible(tjs):
                continue
            img = regge_image(tjs)
            assert admissible(img), (tjs, img)
            if canonical_sixj(img) == canonical_sixj(tjs):
                continue
            pairs += 1
            h = max(tjs + img) + rng.randint(1, 8)
            want, got = exact_amplitude(tjs, h), exact_amplitude(img, h)
            assert (want is None) == (got is None), (tjs, img, h)
            if want is None:
                poles += 1
                continue
            assert got[0] == want[0], (tjs, img, h)
            assert abs(got[1] - want[1]) <= 1e-12 * abs(want[1])
        # the pairs exercise both outcomes: poles and exact equality
        assert 0 < poles < pairs


class TestTriangulation:
    def test_duplicate_edge(self):
        with pytest.raises(ValueError, match="duplicate"):
            Triangulation(1, ("a", "a"), (), {})

    def test_tet_arity(self):
        with pytest.raises(ValueError, match="expected 6"):
            Triangulation(1, ("a", "b", "c", "d", "e"),
                          (("a", "b", "c", "d", "e"),), {})

    def test_tet_repeats_edge(self):
        with pytest.raises(ValueError, match="repeats"):
            Triangulation(1, ("a", "b", "c", "d", "e"),
                          (("a", "b", "c", "d", "e", "a"),), {})

    def test_unknown_edge_in_tet(self):
        with pytest.raises(ValueError, match="unknown edge 'zz'"):
            Triangulation(1, ("a", "b", "c", "d", "e", "f"),
                          (("a", "b", "c", "d", "e", "zz"),), {})

    def test_bad_boundary(self):
        with pytest.raises(ValueError, match="unknown edge"):
            Triangulation(1, ("a",), (), {"zz": 0})
        with pytest.raises(ValueError, match="nonnegative"):
            Triangulation(1, ("a",), (), {"a": -2})

    # JSON true and false parse as Python bools, which subclass int; each
    # field refuses them by name
    ONE_TET = {"num_vertices": 4, "edges": [1, 2, 3, 4, 5, 6],
               "tetrahedra": [[1, 2, 3, 4, 5, 6]], "boundary": {}}

    @pytest.mark.parametrize("field,value,match", (
        ("num_vertices", True, "num_vertices must be an integer"),
        ("num_vertices", False, "num_vertices must be an integer"),
        ("edges", [True, 2, 3, 4, 5, 6], "edges must be"),
        ("tetrahedra", [[True, 2, 3, 4, 5, 6]], "tetrahedra must be")))
    def test_json_refuses_booleans(self, field, value, match):
        obj = dict(self.ONE_TET, **{field: value})
        with pytest.raises(ValueError, match=match):
            triangulation_from_json(json.dumps(obj))

    @pytest.mark.parametrize("color", (True, False))
    def test_json_refuses_boolean_color(self, color):
        obj = {"num_vertices": 4, "edges": list("abcdef"),
               "tetrahedra": [list("abcdef")], "boundary": {"a": color}}
        with pytest.raises(ValueError, match="boundary color for 'a'"):
            triangulation_from_json(json.dumps(obj))

    def test_json_integer_edge_takes_a_color(self):
        # a JSON object's keys are strings: "1" names the edge 1
        obj = dict(self.ONE_TET, boundary={"1": 2, "6": 0})
        tri = triangulation_from_json(json.dumps(obj))
        assert tri.boundary == {1: 2, 6: 0}
        assert tri.interior_edges == (2, 3, 4, 5)

    def test_json_refuses_edges_of_one_text(self):
        # 1 and "1" would both be named by the boundary key "1"
        obj = dict(self.ONE_TET, edges=[1, 2, 3, 4, 5, 6, "1"])
        with pytest.raises(ValueError, match="edges 1 and '1' have the same"):
            triangulation_from_json(json.dumps(obj))

    def test_refuses_booleans(self):
        with pytest.raises(ValueError, match="num_vertices"):
            Triangulation(True, ("a",), (), {})
        with pytest.raises(ValueError, match="edge name True"):
            Triangulation(1, (True, "b"), (), {})
        # True == 1, so only its type tells it from the edge named 1
        with pytest.raises(ValueError, match="edge name True"):
            Triangulation(1, (1, 2, 3, 4, 5, 6), ((True, 2, 3, 4, 5, 6),), {})
        with pytest.raises(ValueError, match="edge name False"):
            Triangulation(1, (0, 1), (), {False: 2})
        with pytest.raises(ValueError, match="boundary color for 'a'"):
            Triangulation(1, ("a",), (), {"a": True})

    def test_interior_edges(self):
        tri = Triangulation(1, ("a", "b", "c"), (), {"b": 0})
        assert tri.interior_edges == ("a", "c")

    def test_json_round_trip_and_errors(self):
        tri = load_triangulation(str(DATA / "ball_1tet.json"))
        assert tri.num_vertices == 4
        assert len(tri.tetrahedra) == 1
        assert tri.interior_edges == ()
        with pytest.raises(ValueError, match="missing boundary"):
            triangulation_from_json('{"num_vertices": 0, "edges": [], '
                                    '"tetrahedra": []}')
        with pytest.raises(ValueError, match="malformed"):
            triangulation_from_json("{nope")
        with pytest.raises(ValueError, match="malformed triangulation "
                                             "object: not a JSON object"):
            triangulation_from_json("[]")


class TestColorings:
    def test_single_tet_fixed_boundary(self):
        tri = load_triangulation(str(DATA / "ball_1tet.json"))
        assert list(admissible_colorings(tri, 3)) == [dict(tri.boundary)]
        # at k=2 the all-2 triads exceed the level cutoff
        assert list(admissible_colorings(tri, 2)) == []

    def test_boundary_color_above_level(self):
        tri = Triangulation(1, ("a", "b", "c", "d", "e", "f"),
                            (("a", "b", "c", "d", "e", "f"),),
                            {e: 4 for e in "abcdef"})
        assert list(admissible_colorings(tri, 3)) == []

    def test_single_interior_edge_matches_brute_force(self):
        tri = Triangulation(
            4, ("AB", "AC", "BC", "CD", "BD", "AD"),
            (("AB", "AC", "BC", "CD", "BD", "AD"),),
            {"AB": 2, "AC": 2, "BC": 2, "CD": 2, "BD": 2})
        k = 3
        got = sorted(c["AD"] for c in admissible_colorings(tri, k))
        # brute force over all k+1 colors of AD, all four triads checked
        triads = (("AB", "AC", "BC"), ("AB", "BD", "AD"),
                  ("AC", "CD", "AD"), ("BC", "CD", "BD"))
        want = []
        for x in range(k + 1):
            col = dict(tri.boundary, AD=x)
            if all(triangle_admissible(col[a], col[b], col[c], k)
                   for a, b, c in triads):
                want.append(x)
        assert got == want == [0, 2]

    def test_negative_level(self):
        tri = load_triangulation(str(DATA / "ball_1tet.json"))
        with pytest.raises(ValueError, match="level must be nonnegative, "
                                             "got -1"):
            list(admissible_colorings(tri, -1))

    def test_level_zero(self):
        tri = load_triangulation(str(DATA / "ball_4tet.json"))
        zero = Triangulation(tri.num_vertices, tri.edges, tri.tetrahedra,
                             {e: 0 for e in tri.boundary})
        cols = list(admissible_colorings(zero, 0))
        assert cols == [{e: 0 for e in zero.edges}]

    def test_yields_independent_dicts(self):
        cols = list(admissible_colorings(TWO_TETS, 4))
        assert len(cols) >= 2
        cols[0]["AB"] = 99
        assert cols[1]["AB"] != 99


class TestDCRCache:
    def test_hit_on_symmetric_image(self):
        cache = DCRCache()
        a = cache.get((2, 2, 4, 3, 1, 3))
        img = sixj_images((2, 2, 4, 3, 1, 3))[7]
        b = cache.get(img)
        assert a is b
        assert (cache.hits, cache.misses, len(cache)) == (1, 1, 1)

    def test_distinct_keys_miss(self):
        cache = DCRCache()
        cache.get((2, 2, 2, 2, 2, 2))
        cache.get((0, 0, 0, 0, 0, 0))
        assert (cache.hits, cache.misses) == (0, 2)


def direct_two_tet_sum(tri, k):
    """Cache-free oracle: explicit loops, per-coloring recompilation, in
    Turaev and Viro's convention: the signed edge dimension
    (-1)^tj [tj+1] and the tetrahedral phase i^(tj1+...+tj6)."""
    h = k + 2
    ctx = root_of_unity_context(h, ComplexDouble(), 2 * k + 2)
    qdim = [project_monomial(qint_monomial(tj + 1), ctx) for tj in range(k + 1)]
    norm = sum(w * w for w in qdim) ** (-tri.num_vertices)
    total = 0
    for ab in range(k + 1):
        for ac in range(k + 1):
            for bc in range(k + 1):
                col = dict(tri.boundary, AB=ab, AC=ac, BC=bc)
                tet_js = [tuple(col[e] for e in tet) for tet in tri.tetrahedra]
                if not all(triangle_admissible(*tr, k)
                           for t in tet_js
                           for tr in ((t[0], t[1], t[2]), (t[0], t[4], t[5]),
                                      (t[1], t[3], t[5]), (t[2], t[3], t[4]))):
                    continue
                term = 1
                for e in tri.edges:
                    term = term * (-1) ** col[e] * qdim[col[e]]
                for tjs in tet_js:
                    dcr = compile_sixj(SixJLabels(*tjs))
                    term = term * 1j ** sum(tjs) * amplitude_to_complex(
                        evaluate(dcr, ctx), ctx)
                total = total + term
    return total * norm


class TestPartitionSum:
    def test_single_tet_is_single_product(self):
        tri = load_triangulation(str(DATA / "ball_1tet.json"))
        k = 5
        got, stats = tv_partition(tri, k)
        ctx = root_of_unity_context(k + 2, ComplexDouble(), 2 * k + 2)
        qdim = [project_monomial(qint_monomial(t + 1), ctx)
                for t in range(k + 1)]
        amp = dcr_eval_sixj(SixJLabels(*(2,) * 6), k + 2, ComplexDouble())
        want = sum(w * w for w in qdim) ** -4 * qdim[2] ** 6 * amp
        assert abs(got - want) <= 1e-12 * abs(want)
        assert stats.num_colorings == 1
        assert stats.distinct_classes == 1

    def test_weights_flag_drops_edge_factors(self):
        tri = load_triangulation(str(DATA / "ball_1tet.json"))
        k = 5
        bare, _ = tv_partition(tri, k, weights=False)
        ctx = root_of_unity_context(k + 2, ComplexDouble(), 2 * k + 2)
        qdim = [project_monomial(qint_monomial(t + 1), ctx)
                for t in range(k + 1)]
        amp = dcr_eval_sixj(SixJLabels(*(2,) * 6), k + 2, ComplexDouble())
        want = sum(w * w for w in qdim) ** -4 * amp
        assert abs(bare - want) <= 1e-12 * abs(want)

    def test_two_tets_match_direct_sum(self):
        k = 4
        got, stats = tv_partition(TWO_TETS, k)
        want = direct_two_tet_sum(TWO_TETS, k)
        assert abs(got - want) <= 1e-10 * (1 + abs(want))
        assert stats.num_colorings > 1

    def test_inadmissible_boundary_empty_sum(self):
        tri = load_triangulation(str(DATA / "ball_1tet.json"))
        got, stats = tv_partition(tri, 2)
        assert got == 0
        assert stats.num_colorings == 0

    def test_cache_transparency(self):
        cache = DCRCache()
        v1, s1 = tv_partition(TWO_TETS, 4, cache=cache)
        v2, s2 = tv_partition(TWO_TETS, 4, cache=cache)
        v3, _ = tv_partition(TWO_TETS, 4)
        assert v1 == v2 == v3  # same code path, same arithmetic
        assert s2.cache_misses == s1.cache_misses  # all warm on the second run
        assert s2.cache_hits > s1.cache_hits

    def test_amortization_congruent_tets(self, monkeypatch):
        compiled = count_compiles(monkeypatch, statesum)
        tri = load_triangulation(str(DATA / "ball_4tet.json"))
        k = 5
        cache = DCRCache()
        _, stats = tv_partition(tri, k, cache=cache)
        compiles = len(compiled)
        # four congruent tetrahedra per coloring, one compile per class;
        # the per-run value memo absorbs every repeat within the run
        assert stats.num_colorings >= 2
        assert compiles == stats.cache_misses == len(cache)
        assert compiles == stats.distinct_classes
        assert (stats.distinct_classes + stats.value_reuses
                == 4 * stats.num_colorings)
        assert stats.cache_misses < 4 * stats.num_colorings
        # rerunning against the warm cache compiles nothing
        _, again = tv_partition(tri, k, cache=cache)
        assert len(compiled) == compiles
        assert again.cache_misses == stats.cache_misses
        assert again.cache_hits == stats.distinct_classes

    def test_extended_matches_double(self):
        v_lo, _ = tv_partition(TWO_TETS, 4)
        v_hi, _ = tv_partition(TWO_TETS, 4, bits=192)
        with mp.workprec(192):
            assert abs(v_lo - complex(v_hi)) <= 1e-10 * (1 + abs(complex(v_hi)))

    def test_extended_sum_at_requested_bits(self):
        # products, sum and normalization run at `bits`, not at the
        # ambient mpmath precision
        tri = load_triangulation(str(DATA / "ball_4tet.json"))
        with mp.workprec(53):
            v256, _ = tv_partition(tri, 5, bits=256)
        with mp.workprec(512):
            v512, _ = tv_partition(tri, 5, bits=512)
            assert abs(v256 - v512) <= mp.mpf(10) ** -60 * abs(v512)

    def test_one_four_move_invariance(self):
        one = load_triangulation(str(DATA / "ball_1tet.json"))
        four = load_triangulation(str(DATA / "ball_4tet.json"))
        k = 3
        v1, _ = tv_partition(one, k, bits=256)
        v4, _ = tv_partition(four, k, bits=256)
        with mp.workprec(256):
            assert abs(v1 - v4) <= 1e-8 * (1 + abs(v1))

    @staticmethod
    def two_three_move(k, colorings):
        """tv_partition on the two sides of the 2-3 move, ABCD + ABCE
        against ABDE + BCDE + CADE around the interior edge DE, for every
        boundary coloring of the nine edges A..E that `colorings` keeps
        among those admissible on the two-tetrahedron side."""
        two = load_triangulation(str(DATA / "ball_2tet.json"))
        three = load_triangulation(str(DATA / "ball_3tet.json"))
        cache, compared = DCRCache(), 0
        for boundary in admissible_colorings(replace(two, boundary={}), k):
            if not colorings(boundary):
                continue
            v2, _ = tv_partition(replace(two, boundary=boundary), k,
                                 bits=256, cache=cache)
            v3, _ = tv_partition(replace(three, boundary=boundary), k,
                                 bits=256, cache=cache)
            with mp.workprec(256):
                assert abs(v2 - v3) <= 1e-8 * (1 + abs(v2)), boundary
            compared += 1
        assert compared

    @pytest.mark.parametrize("k", (3, 4, 5, 6))
    def test_two_three_move_integer_spins(self, k):
        self.two_three_move(
            k, lambda boundary: not any(tj % 2 for tj in boundary.values()))

    def test_two_three_move_half_integer_spins(self):
        self.two_three_move(
            3, lambda boundary: any(tj % 2 for tj in boundary.values()))

    @pytest.mark.parametrize("k", (1, 2, 3, 4))
    def test_closed_sphere_is_inverse_total_dimension(self, k):
        # two tetrahedra glued face to face along all four faces give S^3,
        # whose invariant is A^{-1}, A = sum_{tj=0}^{k} [tj+1]^2; the two
        # tetrahedral phases i^sum multiply to (-1)^sum, which the six
        # signed edge dimensions cancel, so this checks the normalization
        v, _ = tv_partition(CLOSED_S3, k, bits=256)
        with mp.workprec(256):
            theta = mp.pi / (k + 2)
            want = 1 / sum(trig_qint_mp(tj + 1, theta) ** 2
                           for tj in range(k + 1))
            assert abs(v - want) <= mp.mpf(10) ** -70 * want

    @pytest.mark.parametrize("k", (2, 3, 4, 5, 6))
    def test_closed_sphere_after_one_four_move(self, k):
        # CLOSED_S3 with one ABCD replaced by ball_4tet's four tetrahedra
        # around a new vertex E: 5 vertices, 10 edges and 5 tetrahedra,
        # still S^3.  The boundary of the four is ABCD's, so odd
        # twice-spins reach every face, and the sum still gives A^{-1}.
        four = load_triangulation(str(DATA / "ball_4tet.json"))
        tri = Triangulation(num_vertices=5, edges=four.edges,
                            tetrahedra=(EDGES,) + four.tetrahedra,
                            boundary={})
        assert (len(tri.edges), len(tri.tetrahedra)) == (10, 5)
        v, _ = tv_partition(tri, k, bits=256)
        with mp.workprec(256):
            theta = mp.pi / (k + 2)
            want = 1 / sum(trig_qint_mp(tj + 1, theta) ** 2
                           for tj in range(k + 1))
            assert v.imag == 0
            assert abs(v - want) <= mp.mpf(10) ** -70 * want
