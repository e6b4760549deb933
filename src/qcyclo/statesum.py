"""Turaev-Viro style partition sums over triangulated 3-manifolds.

A triangulation is a combinatorial object: named edges, tetrahedra as
6-tuples of edge names, and a boundary coloring in twice-spins.  The
6-tuple order is (j1..j6) with faces {(j1,j2,j3), (j1,j5,j6),
(j2,j4,j6), (j3,j4,j5)}; for a tetrahedron on vertices A,B,C,D that is
the edge order (AB, AC, BC, CD, BD, AD).

The partition sum ranges over level-admissible colorings of the
interior edges.  Each tetrahedron contributes its 6j amplitude at
h = k + 2 times the tetrahedral phase (-1)^{(tj1+...+tj6)/2}; the
amplitude is read from a SixJTable: congruent tetrahedra (same labels up
to the 24 tetrahedral symmetries) share one canonical key, the least of
their 24 label tuples, which canonical_sixj finds by sorting columns
rather than listing the 24.  The table's DCRCache compiles each key
once and its value memo projects it once per context.  Compilation cost
thus scales with the number of distinct congruence classes rather than
the number of terms, and a DCRCache shared across levels compiles
nothing twice.  diagnostics.identity_checks reads its amplitudes from a
SixJTable too.
"""

import itertools
import json
from dataclasses import dataclass

from mpmath import mp

from . import projection
from .compiler import TRIADS, SixJLabels, compile_sixj, triangle_admissible
from .monomial import _json_int
from .qfactor import qint_monomial

# upper/lower exchange in exactly two columns, or none
_FLIPS = ((0, 0, 0), (1, 1, 0), (1, 0, 1), (0, 1, 1))


def canonical_sixj(tjs):
    """Lexicographic minimum of a twice-spin 6-tuple over its 24
    tetrahedral images: column permutations of ((j1,j4),(j2,j5),(j3,j6))
    composed with upper/lower exchange in two columns.  Under each
    exchange the least column order is the sorted one, and the exchanges
    map to each other under any column permutation, so the key is the
    least of the four exchanges' sorted forms."""
    cols = ((tjs[0], tjs[3]), (tjs[1], tjs[4]), (tjs[2], tjs[5]))
    keys = []
    for flips in _FLIPS:
        (u1, l1), (u2, l2), (u3, l3) = sorted(
            col[::-1] if flip else col for col, flip in zip(cols, flips))
        keys.append((u1, u2, u3, l1, l2, l3))
    return min(keys)


@dataclass(frozen=True)
class Triangulation:
    num_vertices: int
    edges: tuple
    tetrahedra: tuple
    boundary: dict

    def __post_init__(self):
        # true and false are refused although Python's bool subclasses int
        if not _json_int(self.num_vertices) or self.num_vertices < 0:
            raise ValueError("num_vertices must be a nonnegative integer")
        for name in itertools.chain(self.edges, *self.tetrahedra,
                                    self.boundary):
            if not _edge_name(name):
                raise ValueError("edge name %r is not a string or an integer"
                                 % (name,))
        known = set(self.edges)
        if len(known) != len(self.edges):
            raise ValueError("duplicate edge name")
        for i, tet in enumerate(self.tetrahedra):
            if len(tet) != 6:
                raise ValueError(
                    "tetrahedron %d has %d edges, expected 6" % (i, len(tet)))
            if len(set(tet)) != 6:
                raise ValueError("tetrahedron %d repeats an edge" % i)
            for name in tet:
                if name not in known:
                    raise ValueError(
                        "tetrahedron %d references unknown edge %r" % (i, name))
        for name, tj in self.boundary.items():
            if name not in known:
                raise ValueError("boundary color on unknown edge %r" % (name,))
            if not _json_int(tj) or tj < 0:
                raise ValueError(
                    "boundary color for %r must be a nonnegative twice-spin"
                    % (name,))

    @property
    def interior_edges(self):
        return tuple(e for e in self.edges if e not in self.boundary)


def _edge_name(name):
    """Whether name can name an edge: a string or an integer, not a
    bool."""
    return isinstance(name, str) or _json_int(name)


def triangulation_from_json(text):
    """A Triangulation from a JSON object of num_vertices, edges (names,
    strings or integers), tetrahedra (six edge names each) and boundary,
    an object from edge name to twice-spin.  A boundary key is a string
    and names the edge whose JSON text it is, "1" the edge 1, so no two
    edges may share one (1 and "1")."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError("malformed triangulation JSON: %s" % exc) from exc
    if not isinstance(obj, dict):
        raise ValueError("malformed triangulation object: not a JSON object")
    for key in ("num_vertices", "edges", "tetrahedra", "boundary"):
        if key not in obj:
            raise ValueError("malformed triangulation object: missing %s" % key)

    def names(seq):
        return isinstance(seq, list) and all(map(_edge_name, seq))
    for key, ok, what in (
            ("num_vertices", _json_int(obj["num_vertices"]), "an integer"),
            ("edges", names(obj["edges"]), "a list of edge names"),
            ("tetrahedra", isinstance(obj["tetrahedra"], list)
             and all(map(names, obj["tetrahedra"])),
             "a list of lists of edge names"),
            ("boundary", isinstance(obj["boundary"], dict),
             "an object from edge name to twice-spin")):
        if not ok:
            raise ValueError("malformed triangulation object: %s must be %s"
                             % (key, what))
    by_text = {}
    for name in obj["edges"]:
        other = by_text.setdefault(str(name), name)
        if type(other) is not type(name):
            raise ValueError("malformed triangulation object: edges %r and %r "
                             "have the same JSON text" % (other, name))
    return Triangulation(
        num_vertices=obj["num_vertices"],
        edges=tuple(obj["edges"]),
        tetrahedra=tuple(tuple(t) for t in obj["tetrahedra"]),
        boundary={by_text.get(k, k): v for k, v in obj["boundary"].items()},
    )


def load_triangulation(path):
    with open(path, "r", encoding="utf-8") as fh:
        return triangulation_from_json(fh.read())


class DCRCache:
    """Append-only map from canonical 6j key to compiled DCR.

    Reads are plain dict lookups and inserts are idempotent (a key
    always compiles to an equal DCR), so concurrent use is safe under
    the usual dict atomicity guarantees.
    """

    def __init__(self):
        self._dcrs = {}
        self.hits = 0
        self.misses = 0

    def __len__(self):
        return len(self._dcrs)

    def get(self, tjs):
        key = canonical_sixj(tjs)
        dcr = self._dcrs.get(key)
        if dcr is None:
            self.misses += 1
            dcr = compile_sixj(SixJLabels(*key))
            self._dcrs[key] = dcr
        else:
            self.hits += 1
        return dcr


class SixJTable:
    """6j amplitudes and quantum integers projected at one context.

    Amplitudes are memoized by canonical key, their DCRs come from
    `cache` (a fresh DCRCache when None), and `reuses` counts the memo
    hits."""

    def __init__(self, ctx, cache=None):
        self.ctx = ctx
        self.cache = DCRCache() if cache is None else cache
        self.values = {}
        self.reuses = 0

    def qint(self, n):
        return projection.project_monomial(qint_monomial(n), self.ctx)

    def sixj(self, tjs):
        key = canonical_sixj(tjs)
        v = self.values.get(key)
        if v is None:
            v = projection.amplitude_to_complex(
                projection.evaluate(self.cache.get(key), self.ctx), self.ctx)
            self.values[key] = v
        else:
            self.reuses += 1
        return v


def _tet_triads(tri):
    """(edge names per triad) for every face of every tetrahedron."""
    triads = []
    for tet in tri.tetrahedra:
        for i, j, k in TRIADS:
            triads.append((tet[i], tet[j], tet[k]))
    return triads


def admissible_colorings(tri, k):
    """Yield every coloring (edge name -> twice-spin) extending the
    boundary such that all four triads of every tetrahedron are
    admissible at level k.  Boundary colors above k yield nothing."""
    if k < 0:
        raise ValueError("level must be nonnegative, got %d" % k)
    triads = _tet_triads(tri)
    order = list(tri.boundary) + list(tri.interior_edges)
    rank = {e: i for i, e in enumerate(order)}
    # check each triad as soon as its last edge is colored
    by_last = {}
    for tri_edges in triads:
        last = max(rank[e] for e in tri_edges)
        by_last.setdefault(last, []).append(tri_edges)
    coloring = dict(tri.boundary)
    n_fixed = len(tri.boundary)

    def ok_at(pos):
        for ea, eb, ec in by_last.get(pos, ()):
            if not triangle_admissible(coloring[ea], coloring[eb],
                                       coloring[ec], k):
                return False
        return True

    for pos in range(n_fixed):
        if coloring[order[pos]] > k or not ok_at(pos):
            return

    def extend(pos):
        if pos == len(order):
            yield dict(coloring)
            return
        name = order[pos]
        for tj in range(k + 1):
            coloring[name] = tj
            if ok_at(pos):
                yield from extend(pos + 1)
        del coloring[name]

    yield from extend(n_fixed)


@dataclass
class TVStats:
    num_colorings: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    distinct_classes: int = 0
    value_reuses: int = 0


def tv_partition(tri, k, bits=None, weights=True, cache=None):
    """Partition sum over admissible colorings at level k.

    Each coloring contributes prod_edges [tj+1]_q * prod_tets
    (-1)^{(tj1+...+tj6)/2} (6j amplitude at h = k+2), the half sum
    rounded down as in the pentagon phase of identity_checks; the total
    is scaled by A^{-num_vertices} with A = sum_{tj=0}^{k} [tj+1]_q^2.
    weights=False drops the edge factors (and the normalization stays),
    for the bare form of the sum.  bits=None computes in double
    precision, otherwise in extended precision with that many bits, sums
    and products included.

    Returns (value, TVStats).
    """
    h = k + 2
    tag = projection.ComplexDouble() if bits is None \
        else projection.ComplexExtended(int(bits))
    table = SixJTable(
        projection.root_of_unity_context(h, tag, d_max=2 * k + 2), cache)
    # the double path never reads mp.prec
    with mp.workprec(mp.prec if bits is None else int(bits)):
        qdim = [table.qint(tj + 1) for tj in range(k + 1)]
        norm = sum(w * w for w in qdim) ** (-tri.num_vertices)
        colorings = 0
        total = 0
        for coloring in admissible_colorings(tri, k):
            colorings += 1
            term = 1
            if weights:
                for e in tri.edges:
                    term = term * qdim[coloring[e]]
            for tet in tri.tetrahedra:
                tjs = [coloring[e] for e in tet]
                term = term * table.sixj(tjs)
                if sum(tjs) // 2 % 2:
                    term = -term
            total = total + term
        total = total * norm
    stats = TVStats(num_colorings=colorings,
                    cache_hits=table.cache.hits,
                    cache_misses=table.cache.misses,
                    distinct_classes=len(table.values),
                    value_reuses=table.reuses)
    return total, stats
