"""One benchmark process: set up, run the timed closed loop, check.

Started by run.py.  It prints the monotonic-clock time at which set-up
ended (qcyclo imported, inputs made, warm-up done), and unless
--setup-only it then acts as a single closed-loop client for --seconds
seconds, and for at least MIN_PASSES passes over the request pool (the
next request starts when the last returns), checks the outputs of the
first pass against the oracle and every later output against the first
one of its request, and prints one JSON line of raw results: each
request's latency and which pooled request it was.
"""

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import mpmath  # noqa: E402
import numpy  # noqa: E402
from qcyclo.cli import T3_TRUTH  # noqa: E402

import oracle  # noqa: E402
from spans import TIMED_SPANS, Tracer, span_cost  # noqa: E402
from workloads import WORKLOADS, Tally, probe  # noqa: E402

PROBE_REPEATS = 5
# the timed loop runs at least this many passes over the pool, so that
# every request has repeats to take the best of
MIN_PASSES = 3


def per_layer(tracer, wl, wall):
    """Per-layer metrics from the spans and counts of a traced run, and
    the spans that the run's requests never called, which are timed by
    the probe instead.  Counts come from the run's first pass and from
    the first of the probe's repeats."""
    out, probed_spans = {}, []
    probe_tracer = Tracer(True)
    for _ in range(PROBE_REPEATS):
        probe(probe_tracer)
    probe_counts = probe_tracer.counts[:len(probe_tracer.counts)
                                       // PROBE_REPEATS]
    for span, unit in TIMED_SPANS:
        durs = [(end - start, items) for name, start, end, _, items
                in tracer.spans if name == span]
        # the benchmark's spans never nest, so self time is the duration
        out[span + "_self_frac"] = sum(d for d, _ in durs) / wall
        if not durs:
            durs = [(end - start, items) for name, start, end, _, items
                    in probe_tracer.spans if name == span]
            probed_spans.append(span)
        scale = 1e6 if unit == "us" else 1e3
        out["%s_%s" % (span, unit)] = \
            statistics.median(d / n for d, n in durs) * scale

    ref = {}
    for name, value, request in tracer.counts + probe_counts:
        if request < wl.ref_len:
            ref.setdefault(name, []).append(value)

    def total(name):
        return sum(ref.get(name, ()))

    entries = ref.get("compiler.ratio_entries", ())
    out["compiler.ratio_entries"] = (sum(entries) / len(entries)
                                     if entries else 0.0)
    d_max = ref.get("input.d_max", (0,))
    out["input.d_max_min"] = min(d_max)
    out["input.d_max_max"] = max(d_max)
    mix = ref.get("input.mp2048", ())
    out["input.mp2048_share"] = sum(mix) / len(mix) if mix else 0.0
    points = total("projection.points")
    out["projection.lattice_share"] = (
        total("projection.lattice_points") / points if points else 0.0)
    out["statesum.colorings"] = total("statesum.colorings")
    cache = ref.get("statesum.cache", ())
    # hits and misses are cumulative over the probe's shared cache
    hits, misses = cache[-1] if cache else (0, 0)
    out["statesum.cache_hit_ratio"] = (hits / (hits + misses)
                                       if hits + misses else 0.0)
    vals = ref.get("statesum.values", ())
    reused = sum(v[0] for v in vals)
    looked = reused + sum(v[1] for v in vals)
    out["statesum.value_reuse_ratio"] = reused / looked if looked else 0.0
    res = ref.get("diagnostics.identity_residual", (0.0,))
    out["diagnostics.identity_residual"] = max(res)
    out["trace.overhead_frac"] = (len(tracer.spans) * span_cost()
                                  + tracer.count_cost) / wall
    return out, probed_spans


def nonfinite(tally):
    """Non-finite sweep outputs split by cause: NaN where the oracle has
    a pole, inf (overflow) where it is finite, and NaN where it is
    finite."""
    kinds = tally.kinds
    return {"projection.nonfinite_pole":
                kinds.get("generic.pole", 0) + kinds.get("lattice.pole", 0),
            "projection.nonfinite_overflow":
                kinds.get("generic.inf", 0) + kinds.get("lattice.inf", 0),
            "projection.nonfinite_unexpected":
                kinds.get("generic.nan", 0) + kinds.get("lattice.nan", 0)}


def environment():
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "mpmath": mpmath.__version__,
            "mpmath_backend": mpmath.libmp.BACKEND, "cpu": cpu,
            "nproc": os.cpu_count(),
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}


class Raised:
    """Stands in for the output of a request that raised."""

    def __init__(self, text):
        self.text = text


def same_output(wl, a, b):
    """Whether two runs of one request gave the same output."""
    if isinstance(a, Raised) or isinstance(b, Raised):
        return isinstance(a, Raised) and isinstance(b, Raised)
    return wl.same(a, b)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    tracer = Tracer(bool(args.trace))
    wl = WORKLOADS[args.workload](args.seed, tracer)
    wl.warm_up()
    tracer.spans.clear()
    tracer.counts.clear()
    tracer.count_cost = 0.0
    gc.collect()
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    seq = wl.sequence
    lat, keys, ids, done = [], [], {}, []
    start = time.perf_counter()
    deadline = start + args.seconds
    i = 0
    while i < MIN_PASSES * wl.ref_len or time.perf_counter() < deadline:
        req = seq[i % len(seq)]
        tracer.request = i
        t0 = time.perf_counter()
        try:
            out = wl.run(req)
        except Exception:  # counted as a bad output; the loop goes on
            out = Raised(traceback.format_exc(limit=3))
        lat.append(time.perf_counter() - t0)
        keys.append(ids.setdefault(id(req), len(ids)))
        done.append((req, out))
        i += 1
    wall = time.perf_counter() - start
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # the first pass is checked against the oracle; every later output
    # must repeat the first-pass output of its request exactly
    tally, first, raised = Tally(), {}, []
    for n, (req, out) in enumerate(done):
        if isinstance(out, Raised):
            raised.append(out.text)
        if n < wl.ref_len:
            first.setdefault(id(req), out)
            verdicts = ([("raised", True, None)] if isinstance(out, Raised)
                        else wl.check(req, out))
            for verdict in verdicts:
                tally.add(*verdict)
        elif not same_output(wl, first[id(req)], out):
            tally.add("repeat_differs", True)
    try:
        selfcheck = oracle.self_check(T3_TRUTH)
    except AssertionError as exc:
        selfcheck = str(exc)
    result = {"ready": ready, "latencies": lat, "keys": keys,
              "pass_len": wl.ref_len,
              "pass_points": sum(wl.points(req)
                                 for req in seq[:wl.ref_len]),
              "peak_rss_mb": rss_mb,
              "tally": tally.as_dict(), "raised": raised[:3],
              "oracle_selfcheck": selfcheck, "env": environment()}
    if args.trace:
        layers, result["probed"] = per_layer(tracer, wl, wall)
        layers.update(nonfinite(tally))
        result["per_layer"] = layers
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
