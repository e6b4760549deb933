"""Spans and counts recorded around the benchmark's calls into qcyclo.

A span is (name, start, end, request, items): `request` is the index of
the request that made the call and `items` the number of points a
per-point span covers.  The benchmark's spans do not nest, so a span's
self time is its duration.  Everything stays in memory until the run
ends.  With tracing off, `span` hands back one shared no-op context
manager and `count` does nothing, so untraced runs pay for a call.
"""

import contextlib
import time

_NULL = contextlib.nullcontext()

# every span the benchmark records, with the unit of its per-call median;
# "us" spans cover many points and are reported per point
TIMED_SPANS = (("compiler.compile", "ms"), ("projection.context", "ms"),
               ("projection.evaluate", "ms"), ("projection.branch", "ms"),
               ("projection.classical", "ms"),
               ("projection.sweep_build", "ms"),
               ("projection.sweep_generic", "us"),
               ("projection.sweep_lattice", "us"),
               ("cyclofield.context", "ms"), ("cyclofield.evaluate", "ms"),
               ("statesum.colorings", "ms"), ("statesum.tv", "ms"),
               ("diagnostics.identity", "ms"))


class Tracer:

    def __init__(self, enabled):
        self.enabled = enabled
        self.spans = []
        self.counts = []   # (name, value, request)
        self.request = -1
        self.count_cost = 0.0   # seconds spent computing counts

    def span(self, name, items=1):
        return _Span(self, name, items) if self.enabled else _NULL

    def count(self, name, value_fn):
        """Record value_fn() under name; value_fn runs only when tracing."""
        if self.enabled:
            t0 = time.perf_counter()
            self.counts.append((name, value_fn(), self.request))
            self.count_cost += time.perf_counter() - t0


def span_cost(repeat=2000):
    """Seconds one traced span costs over an untraced one."""
    costs = []
    for enabled in (True, False):
        tr = Tracer(enabled)
        t0 = time.perf_counter()
        for _ in range(repeat):
            with tr.span("x"):
                pass
        costs.append((time.perf_counter() - t0) / repeat)
    return max(costs[0] - costs[1], 0.0)


class _Span:
    __slots__ = ("tracer", "name", "items", "start")

    def __init__(self, tracer, name, items):
        self.tracer = tracer
        self.name = name
        self.items = items

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        tr = self.tracer
        tr.spans.append((self.name, self.start, time.perf_counter(),
                         tr.request, self.items))
        return False
