"""qcyclo benchmark: one command per workload run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it uses the package under src/.
Workloads: point-mp and sweep-f64 (see workloads.py for what each one
stresses and why); NAME "all" runs both one after the other, each
printing its report and JSON line.

The run starts worker.py SETUPS times.  Each start measures set-up: the
time from spawning a fresh interpreter until it has imported qcyclo,
made its inputs from the seed and finished its warm-up; setup_s is the
median.  The middle start then acts as one closed-loop client for S
seconds and afterwards checks every output against the independent
oracle in oracle.py; the others only set up, half before it and half
after, so that the set-ups sample the host at different moments.  BLAS
is pinned to one thread.

Every request of a workload's pool runs several times in the timed
phase, and a request's latency is the best of its repeats: the speed of
a small shared host changes from second to second, and the best of a
few repeats is what stays put from run to run.  The latency percentiles
are taken over the requests of the whole passes run (a run's last,
partial pass is left out), each at its best time, and requests_per_s
and points_per_s divide the requests and q points of those passes by
the sum of those times.  The report also prints the raw figures (every
request at its own time).

With --trace 0 the run reports the end-to-end metrics; with --trace 1
it records a span around every call the benchmark makes into qcyclo
and reports the per-layer metrics instead.  A layer the workload's
requests never call is timed, after the timed phase, on a small fixed
probe (workloads.probe) so that every per-layer time is measured; the
report marks those values "(probe)" and their _self_frac stays 0.

Every line but the last is a report for people: the metrics with units
and sample counts, the share of bad outputs (failed_frac) by kind, the
oracle self-check and the environment.  The last line is one JSON
object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

`attempted` counts the output values of the first pass over the pool,
each checked against the oracle, and `failed` those that raised, came
back non-finite where the oracle is finite, or missed their accuracy
target, plus any later output that differs from the first-pass output
of its request; failed_frac is their ratio.  Both repeat exactly for a
seed.  `correct` is true when
the oracle passed its self-check and every output was checked, so a
false value means the check itself cannot be trusted.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

from spans import TIMED_SPANS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("point-mp", "sweep-f64")
SETUPS = 5
IMPORT_PROBES = 3
TAIL_BEYOND = 10

END_TO_END = {"setup_s": "s", "latency_p50_ms": "ms",
              "latency_tail_ms": "ms", "requests_per_s": "1/s",
              "points_per_s": "1/s", "peak_rss_mb": "MB"}

PER_LAYER = {"cli.import_s": "s", "trace.overhead_frac": "frac",
             "compiler.ratio_entries": "count",
             "input.d_max_min": "count", "input.d_max_max": "count",
             "input.mp2048_share": "frac",
             "projection.lattice_share": "frac",
             "projection.nonfinite_pole": "count",
             "projection.nonfinite_overflow": "count",
             "projection.nonfinite_unexpected": "count",
             "statesum.colorings": "count",
             "statesum.cache_hit_ratio": "frac",
             "statesum.value_reuse_ratio": "frac",
             "diagnostics.identity_residual": "abs"}
for _name, _unit in TIMED_SPANS:
    PER_LAYER["%s_%s" % (_name, _unit)] = _unit
    PER_LAYER["%s_self_frac" % _name] = "frac"


def child_env():
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def start_worker(args, setup_only, timeout):
    """Run worker.py once; returns (seconds from spawn to ready, result)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    spawned = time.monotonic()
    proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, timeout=timeout,
                          stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise RuntimeError("worker exited with code %d" % proc.returncode)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result["ready"] - spawned, result


def import_seconds():
    """Median wall time of `import qcyclo` in a fresh interpreter."""
    code = ("import sys, time; sys.path.insert(0, 'src'); "
            "t = time.perf_counter(); import qcyclo; "
            "print(time.perf_counter() - t)")
    times = []
    for _ in range(IMPORT_PROBES):
        out = subprocess.run([sys.executable, "-c", code], env=child_env(),
                             cwd=ROOT, timeout=60, check=True,
                             stdout=subprocess.PIPE, text=True).stdout
        times.append(float(out))
    return statistics.median(times)


def tail(latencies):
    """(percentile, value, samples beyond): the highest whole percentile
    with at least TAIL_BEYOND samples above its nearest-rank value."""
    xs = sorted(latencies)
    n = len(xs)
    for p in range(99, 49, -1):
        rank = math.ceil(p * n / 100)
        if n - rank >= TAIL_BEYOND:
            return p, xs[rank - 1], n - rank
    return 50, statistics.median(xs), n // 2


def best_of(latencies, keys):
    """Each request's latency replaced by the best of its repeats, and
    the fewest repeats any request had."""
    best, runs = {}, {}
    for key, t in zip(keys, latencies):
        best[key] = min(t, best.get(key, t))
        runs[key] = runs.get(key, 0) + 1
    return [best[key] for key in keys], min(runs.values())


def run_workload(args):
    """Run one workload; print its report and, last, its JSON line."""
    setups = [start_worker(args, True, 60)[0] for _ in range(SETUPS // 2)]
    ready, res = start_worker(args, False, args.seconds + 100)
    setups.append(ready)
    setups += [start_worker(args, True, 60)[0] for _ in range(SETUPS // 2)]

    # statistics over whole passes, each a shuffle of the same requests,
    # so that every run weighs the requests alike
    passes = len(res["latencies"]) // res["pass_len"]
    n = passes * res["pass_len"]
    raw = res["latencies"][:n]
    lat, repeats = best_of(res["latencies"], res["keys"])
    lat = lat[:n]
    points = passes * res["pass_points"]
    p, tail_s, beyond = tail(lat)
    busy = sum(lat)
    tally = res["tally"]
    selfcheck_ok = isinstance(res["oracle_selfcheck"], float)
    print("# perfbench %s seed=%d seconds=%d trace=%d"
          % (args.workload, args.seed, args.seconds, args.trace))
    print("# env %s" % json.dumps(res["env"], sort_keys=True))
    e2e = {"setup_s": statistics.median(setups),
           "latency_p50_ms": 1e3 * statistics.median(lat),
           "latency_tail_ms": 1e3 * tail_s,
           "requests_per_s": n / busy,
           "points_per_s": points / busy,
           "peak_rss_mb": res["peak_rss_mb"]}
    notes = {"setup_s": "median of %d set-ups: %s" % (
                 SETUPS, " ".join("%.3f" % s for s in setups)),
             "latency_p50_ms": "n=%d in %d passes, %d distinct, each best "
                               "of >= %d; raw %.4g" % (
                                   n, passes, len(set(res["keys"])), repeats,
                                   1e3 * statistics.median(raw)),
             "latency_tail_ms": "p%d, n=%d, %d beyond; raw %.4g" % (
                 p, n, beyond, 1e3 * tail(raw)[1]),
             "requests_per_s": "%d requests in %.2f s at best; raw %.4g "
                               "in %.2f s" % (n, busy, n / sum(raw),
                                              sum(raw)),
             "points_per_s": "%d q points; raw %.4g" % (
                 points, points / sum(raw)),
             "peak_rss_mb": "worker process, timed phase"}
    for name, unit in END_TO_END.items():
        print("%-18s %14.6g %-4s (%s)" % (name, e2e[name], unit, notes[name]))
    print("%-18s %14.6g %-4s (%d of %d outputs bad: %s)"
          % ("failed_frac", tally["failed"] / max(tally["attempted"], 1), "",
             tally["failed"], tally["attempted"],
             json.dumps(tally["bad_by_kind"], sort_keys=True)))
    print("# worst error by kind %s"
          % json.dumps(tally["worst_error"], sort_keys=True))
    for text in res["raised"]:
        print("# raised: %s" % text.strip().replace("\n", " | "))
    print("# oracle self-check against the T3 truth column: %s"
          % (("worst %.2e <= 5e-05" % res["oracle_selfcheck"])
             if selfcheck_ok else res["oracle_selfcheck"]))

    if args.trace:
        layers = dict(res["per_layer"], **{"cli.import_s": import_seconds()})
        probed = {"%s_%s" % s for s in TIMED_SPANS if s[0] in res["probed"]}
        for name, unit in PER_LAYER.items():
            note = "  (probe)" if name in probed else ""
            print("%-36s %14.6g %s%s" % (name, layers[name], unit, note))
        metrics = {k: {"value": layers[k], "unit": u}
                   for k, u in PER_LAYER.items()}
    else:
        metrics = {k: {"value": e2e[k], "unit": u}
                   for k, u in END_TO_END.items()}
    print(json.dumps({"correct": selfcheck_ok,
                      "attempted": tally["attempted"],
                      "failed": tally["failed"], "metrics": metrics}))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                    help="one workload, or all of them one after another")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "qcyclo", "__init__.py")):
        print("perfbench: no package at src/qcyclo; run from the root of a "
              "qcyclo checkout", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        run_workload(argparse.Namespace(**dict(vars(args), workload=name)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
