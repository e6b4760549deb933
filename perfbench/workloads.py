"""The two benchmark workloads.

Each workload makes a pool of requests from a seed, runs one request
through public qcyclo functions with a span around each call, and
afterwards checks its outputs against the oracle in oracle.py, giving
one verdict (kind, bad, error) per output value.  The timed loop
walks `sequence`, seeded shuffles of the pool one after another, dealt
so that every short stretch holds the same mix of request classes; a
run of any length then sees the same mix and every request of the pool
repeats several times.  The outputs of the first pass (`ref_len`
requests, which every run completes) are checked against the oracle,
so attempted and failed counts repeat exactly for a seed.
The program keeps no cache across requests that a repeat could hit:
each request compiles and projects afresh.
Count metrics come from the first pass too.

Why these two: each puts most of its time on a different layer.

- point-mp: one generic 6j at level 500 in mpmath; context build
  (the Phi_d(q^2) table) dominates, then evaluate.
- sweep-f64: one compile and one numpy kernel per symbol, projected over
  a generic unit-circle grid and a level ladder; no mpmath runs.

The exact field Q(zeta_2h), the classical limit, the state sum and the
identity checks are timed, and the state sum's cache and reuse counted,
by the probe alone (see probe).
"""

import importlib.resources
import random
from fractions import Fraction

import numpy as np
from mpmath import mpc, mpf

from qcyclo import (ComplexExtended, DCRCache,
                    RootOfUnityExact, SixJLabels, SweepEvaluator,
                    admissible_colorings, amplitude_to_complex,
                    classical_project, compile_sixj, evaluate,
                    identity_checks, make_context, triangulation_from_json,
                    tv_partition, unit_circle_q)

import oracle

F64_TARGET = mpf("1e-6")
# draws of six twice-spins in each sized_labels call; it picks from
# the admissible ones
DRAWS = 20000


def extended_target(bits):
    return mpf(2) ** (-(bits // 2))


def oracle_bits(bits):
    """Working precision of a reference: at least twice the request's."""
    return max(256, 2 * bits)


def size(tj):
    """(z_max + 1, number of terms): the first is the largest cyclotomic
    index the compiled symbol carries, which sets the cost of a context
    or a sweep kernel; the second sets the cost of an evaluation."""
    _, _, z_min, z_max = oracle.racah_bounds(tj)
    return z_max + 1, z_max - z_min


def draw_labels(rng, lo, hi, min_terms, n=DRAWS):
    """The admissible ones of n draws of six twice-spins, each uniform
    on [lo, hi], that have at least min_terms terms; with their sizes."""
    tj = np.random.default_rng(rng.getrandbits(64)).integers(
        lo, hi + 1, size=(n, 6))
    ok = np.ones(n, dtype=bool)
    for i, j, k in oracle.TRIADS:
        a, b, c = tj[:, i], tj[:, j], tj[:, k]
        ok &= ((a + b + c) % 2 == 0) & (abs(a - b) <= c) & (c <= a + b)
    tj = tj[ok]
    sizes = np.array([size(row) for row in tj.tolist()]).reshape(-1, 2)
    keep = sizes[:, 1] >= min_terms
    return tj[keep], sizes[keep]


def sized_labels(rng, lo, hi, m, min_terms=0, k=7):
    """m labels sized like a fixed reference set: for each reference
    label, the seeded draw closest to it in d_max plus terms.  The
    reference set is the rank-stratum midpoints, by size, of m * k draws
    from a generator that does not depend on the seed, so every seed
    gets other labels of nearly the same sizes and costs."""
    ref = draw_labels(random.Random("sizes/%d/%d/%d" % (lo, hi, m)),
                      lo, hi, min_terms)[1][:m * k]
    ref = ref[np.lexsort((ref[:, 1], ref[:, 0]))][k // 2::k]
    tj, sizes = draw_labels(rng, lo, hi, min_terms)
    return [tuple(tj[np.abs(sizes - want).sum(axis=1).argmin()].tolist())
            for want in ref]


def ratio_entries(dcr):
    """Non-zero exponents across base, ratios, root and rad."""
    monos = (dcr.base, *dcr.ratios, dcr.root, dcr.rad)
    return sum(len(m.exps.items()) for m in monos)


class Tally:
    """Verdicts: outputs checked, outputs bad, and how they went bad."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.kinds = {}   # every verdict, by kind
        self.bad = {}     # bad verdicts, by kind
        self.worst = {}

    def add(self, kind, bad, err=None):
        self.attempted += 1
        self.kinds[kind] = self.kinds.get(kind, 0) + 1
        if bad:
            self.failed += 1
            self.bad[kind] = self.bad.get(kind, 0) + 1
        if err is not None:
            err = float(err) if err < 1e300 else float("inf")
            self.worst[kind] = max(self.worst.get(kind, 0.0), err)

    def as_dict(self):
        return {"attempted": self.attempted, "failed": self.failed,
                "bad_by_kind": self.bad, "worst_error": self.worst}


class Workload:
    name = None
    pool = ()

    def __init__(self, seed, tracer):
        self.rng = random.Random("%s/%d" % (self.name, seed))
        self.tr = tracer

    def shuffled_passes(self, classes, blocks, passes=40):
        """Set the pool to the union of `classes` and the sequence to
        passes over it; each pass deals every shuffled class round-robin
        into `blocks` blocks and shuffles each block."""
        self.pool = [req for cls in classes for req in cls]
        seq = []
        for _ in range(passes):
            dealt = [[] for _ in range(blocks)]
            for cls in classes:
                cls = list(cls)
                self.rng.shuffle(cls)
                for i, req in enumerate(cls):
                    dealt[i % blocks].append(req)
            for block in dealt:
                self.rng.shuffle(block)
                seq += block
        self.sequence = seq
        self.ref_len = len(self.pool)

    def warm_up(self):
        raise NotImplementedError

    def run(self, req):
        raise NotImplementedError

    def points(self, req):
        """q points projected by one request."""
        return 1

    def check(self, req, out):
        """Verdicts for one request's outputs; references are cached."""
        raise NotImplementedError

    def same(self, a, b):
        """Whether two outputs of one request are identical."""
        return a == b


class PointMP(Workload):
    """Generic 6j at k = 500 in mpmath; each pass over the pool runs 6
    labels with twice-spins 20..60 at 256 bits twice each and one label
    with twice-spins 30..40 at 2048 bits three times.  A fifth is more
    than the tail percentile's share, so p50 sits in the 256-bit class
    and the tail on the 2048-bit label; a single label there keeps the
    tail from jumping between labels as the run length changes.  The
    spins are small so that requests are short (about 30 ms at 256 bits
    and 300 ms at 2048): the best of a request's repeats has to fall in
    a quiet moment of a shared host, and short requests find one."""

    name = "point-mp"
    H = 502

    def __init__(self, seed, tracer):
        super().__init__(seed, tracer)
        self.shuffled_passes(
            [[(tj, bits) for tj in sized_labels(self.rng, lo, hi, n)] * times
             for bits, lo, hi, n, times in ((256, 20, 60, 6, 2),
                                            (2048, 30, 40, 1, 3))],
            blocks=3)
        self._warm = [((20,) * 6, 256), ((20,) * 6, 2048)]
        self._n_max = max(oracle.max_qint_index(tj) for tj, _ in self.pool)
        self._tables = {}
        self._refs = {}

    def warm_up(self):
        for tj, _ in set(self.pool):
            compile_sixj(SixJLabels(*tj))
        for req in self._warm:
            self.run(req)

    def run(self, req):
        tj, bits = req
        tr = self.tr
        with tr.span("compiler.compile"):
            dcr = compile_sixj(SixJLabels(*tj))
        tr.count("compiler.ratio_entries", lambda: ratio_entries(dcr))
        tr.count("input.d_max", lambda: dcr.d_max)
        tr.count("input.mp2048", lambda: int(bits == 2048))
        tag = ComplexExtended(bits)
        with tr.span("projection.context"):
            ctx = make_context(tag, dcr.d_max, q=unit_circle_q(self.H, tag))
        with tr.span("projection.evaluate"):
            val = evaluate(dcr, ctx)
        with tr.span("projection.branch"):
            return amplitude_to_complex(val, ctx)

    def check(self, req, amp):
        tj, bits = req
        ob = oracle_bits(bits)
        if ob not in self._tables:
            self._tables[ob] = oracle.QTable(Fraction(1, self.H),
                                             self._n_max, ob)
        if req not in self._refs:
            self._refs[req] = oracle.sixj(tj, self._tables[ob])
        err = oracle.rel_error(amp, self._refs[req])
        yield "mp%d" % bits, err > extended_target(bits), err


class SweepF64(Workload):
    """One symbol per request, projected by the numpy sweep kernel over a
    generic unit-circle grid and a ladder of roots of unity q = e^{i pi/h}.
    The ladder has levels where the series truncates (h <= d_max,
    rerouted point by point through the scalar path), levels where it
    does not, k = 4j for the largest spin, and one inadmissible level
    h = a + 1, a the second smallest triad half-sum, where the symbol
    has a pole and the sweep should answer NaN.

    Each pass over the pool projects 15 common symbols (twice-spins
    20..320) twice each and one large symbol (twice-spins 300..320,
    j >= 150) once.  The large symbol is 1 in 31 requests, more than the
    1-2% share the tail percentile leaves beyond it at the run lengths
    the benchmark sees, so the tail is the large symbol's time and p50
    that of the 8th of the 15 common symbols by cost.
    Every symbol is drawn with at least six levels in its truncating range
    [max a_i + 2, d_max], d_max = z_max + 1, and the ladder has six of
    them, so each projects the same number of rerouted lattice points."""

    name = "sweep-f64"
    COMMON = 15
    REPEAT = 2
    GRID = 96

    def __init__(self, seed, tracer):
        super().__init__(seed, tracer)
        # at least six levels h with max a_i + 2 <= h <= z_max + 1
        labels = sized_labels(self.rng, 20, 320, self.COMMON, min_terms=6)
        labels += sized_labels(self.rng, 300, 320, 1, min_terms=6)
        pool = []
        for tj in labels:
            n_max = oracle.max_qint_index(tj)
            h_lo = max(oracle.racah_bounds(tj)[0]) + 2
            d_max = size(tj)[0]
            ladder = {h_lo + (d_max - h_lo) * i // 5 for i in range(6)}
            ladder |= {n_max + 1 + n_max * i // 4 for i in range(4)}
            ladder.add(2 * max(tj) + 2)
            ladder.add(sorted(oracle.racah_bounds(tj)[0])[1] + 1)
            grid = [Fraction(0.01 + 0.98 * (i + self.rng.random()) / self.GRID)
                    for i in range(self.GRID)]
            pool.append((tj, grid, sorted(ladder)))
        self.pool = pool
        one_pass = pool[:-1] * self.REPEAT + pool[-1:]
        self.sequence = []
        for _ in range(60):
            self.rng.shuffle(one_pass)
            self.sequence += one_pass
        self.ref_len = len(one_pass)
        self._refs = {}
        self._verdicts = {}
        self._q = {id(p): (np.exp(1j * np.pi * np.array(p[1], dtype=float)),
                           np.exp(1j * np.pi / np.array(p[2], dtype=float)))
                   for p in pool}

    def warm_up(self):
        for req in self.pool:
            self.run(req)

    def points(self, req):
        return len(req[1]) + len(req[2])

    def same(self, a, b):
        return all(np.array_equal(x, y, equal_nan=True) for x, y in zip(a, b))

    def run(self, req):
        tj, grid, ladder = req
        q_grid, q_ladder = self._q[id(req)]
        tr = self.tr
        with tr.span("compiler.compile"):
            dcr = compile_sixj(SixJLabels(*tj))
        tr.count("compiler.ratio_entries", lambda: ratio_entries(dcr))
        tr.count("input.d_max", lambda: dcr.d_max)
        tr.count("projection.lattice_points",
                 lambda: sum(h <= dcr.d_max for h in ladder))
        tr.count("projection.points", lambda: len(grid) + len(ladder))
        with tr.span("projection.sweep_build"):
            sweep = SweepEvaluator(dcr)
        with tr.span("projection.sweep_generic", items=len(grid)):
            generic = sweep.amplitudes(q_grid)
        with tr.span("projection.sweep_lattice", items=len(ladder)):
            lattice = sweep.amplitudes(q_ladder)
        return generic, lattice

    def check(self, req, out):
        tj, grid, ladder = req
        refs = self._refs.get(id(req))
        if refs is None:
            ob = oracle_bits(53)
            refs = self._refs[id(req)] = (
                [_reference(tj, t, ob) for t in grid],
                [_reference(tj, Fraction(1, h), ob) for h in ladder])
        for kind, got, want in zip(("generic", "lattice"), out, refs):
            for i, (v, ref) in enumerate(zip(got, want)):
                # repeats of a symbol give the same values; judge each once
                key = (id(req), kind, i, complex(v))
                verdict = self._verdicts.get(key)
                if verdict is None:
                    verdict = self._verdicts[key] = _f64_verdict(kind, key[3],
                                                                 ref)
                yield verdict


def _reference(tj, t, bits):
    """The oracle's 6j at q = e^{i pi t}, or None at a pole."""
    try:
        return oracle.sixj_at(tj, t, bits)
    except oracle.Pole:
        return None


def _f64_verdict(kind, v, ref):
    """(kind, bad, err) for one double-precision output.  NaN is the
    sweep's pole marker: right where the oracle has a pole (ref None)
    and unexpected elsewhere.  inf is its overflow marker."""
    if ref is None:
        return kind + (".pole" if v != v else ".pole_missed"), v == v, None
    if v != v:
        return kind + ".nan", True, None
    if abs(v) == float("inf"):
        return kind + ".inf", True, None
    err = oracle.rel_error(v, ref)
    flip = abs(err - 2) < 1e-3 and isinstance(ref.value, mpc)
    return kind + (".branch" if flip else ".miss"), err > F64_TARGET, err


def _bundled(name):
    return (importlib.resources.files("qcyclo") / "data" / name).read_text()


def probe(tr):
    """One small fixed call into every traced layer, each in its span.

    A traced run times layers its own requests never reach with this
    probe, so that every per-layer time is a measurement on every
    workload; the report marks those values as probe values.  The
    state sum runs a level ladder on ball_4tet with one shared DCRCache,
    and its counts are recorded, as are the identity check's."""
    with tr.span("compiler.compile"):
        dcr = compile_sixj(SixJLabels(*(20,) * 6))
    tag = ComplexExtended(256)
    with tr.span("projection.context"):
        ctx = make_context(tag, dcr.d_max, q=unit_circle_q(61, tag))
    with tr.span("projection.evaluate"):
        val = evaluate(dcr, ctx)
    with tr.span("projection.branch"):
        amplitude_to_complex(val, ctx)
    with tr.span("projection.classical"):
        classical_project(dcr)
    small = compile_sixj(SixJLabels(*(12,) * 6))
    with tr.span("cyclofield.context"):
        ctx = make_context(RootOfUnityExact(22), small.d_max)
    with tr.span("cyclofield.evaluate"):
        evaluate(small, ctx)
    with tr.span("projection.sweep_build"):
        sweep = SweepEvaluator(dcr)
    qs = np.exp(1j * np.linspace(0.3, 2.8, 64))
    with tr.span("projection.sweep_generic", items=len(qs)):
        sweep.amplitudes(qs)
    qs = np.exp(1j * np.pi / np.arange(32.0, 36.0))
    with tr.span("projection.sweep_lattice", items=len(qs)):
        sweep.amplitudes(qs)
    tri = triangulation_from_json(_bundled("ball_4tet.json"))
    cache = DCRCache()
    for k in (4, 6, 8):
        with tr.span("statesum.colorings"):
            sum(1 for _ in admissible_colorings(tri, k))
        with tr.span("statesum.tv"):
            _, stats = tv_partition(tri, k, cache=cache)
        tr.count("statesum.colorings", lambda: stats.num_colorings)
        tr.count("statesum.cache", lambda: (stats.cache_hits,
                                            stats.cache_misses))
        tr.count("statesum.values", lambda: (stats.value_reuses,
                                             stats.distinct_classes))
    with tr.span("diagnostics.identity"):
        res = identity_checks("orthogonality", 2, 5)
    tr.count("diagnostics.identity_residual", lambda: float(res))


WORKLOADS = {w.name: w for w in (PointMP, SweepF64)}
