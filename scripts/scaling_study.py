#!/usr/bin/env python3
"""Measure how the compiled representation scales with spin and how one
compile amortizes over a projection sweep.

Two experiments:
  size    serialized DCR bytes, term counts and the tracemalloc peak of
          one cold compile (caches cleared first) over j in a range at
          k = 4j, with a log-log power-law fit of the bytes and of the
          peak
  amortize cold-cache compile time at one j vs per-point time of the
          vectorized double sweep over a 1000-point grid

Results print as CSV on stdout; redirect to keep them.
"""

import argparse
import sys
import time
import tracemalloc

import numpy as np

from qcyclo.compiler import SixJLabels, compile_sixj, dcr_to_json
from qcyclo.projection import SweepEvaluator
from qcyclo.qfactor import clear_caches


def cold_compile(j):
    """The DCR of the symmetric 6j of spin j and the peak bytes traced
    while compiling it with cleared caches."""
    clear_caches()
    tracemalloc.start()
    try:
        dcr = compile_sixj(SixJLabels(*(2 * j,) * 6))
        return dcr, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def size_study(js):
    print("j,k,bytes,num_terms,d_max,compile_peak_bytes")
    sizes, peaks = [], []
    for j in js:
        dcr, peak = cold_compile(j)
        n = len(dcr_to_json(dcr))
        sizes.append(n)
        peaks.append(peak)
        print("%d,%d,%d,%d,%d,%d" % (j, 4 * j, n, dcr.num_terms(), dcr.d_max,
                                     peak))
    for name, ys in (("bytes", sizes), ("compile peak bytes", peaks)):
        slope, intercept = np.polyfit(np.log(js), np.log(ys), 1)
        print("# power-law fit: %s ~ %.2f * j^%.3f"
              % (name, np.exp(intercept), slope), file=sys.stderr)


def amortize_study(j, points, repeats):
    clear_caches()
    t0 = time.perf_counter()
    dcr = compile_sixj(SixJLabels(*(2 * j,) * 6))
    t_compile = time.perf_counter() - t0
    sweep = SweepEvaluator(dcr)
    qs = np.exp(1j * np.linspace(0.3, 2.8, points))
    sweep.amplitudes(qs[:8])  # warm the kernels before timing
    t_point = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        sweep.amplitudes(qs)
        t_point = min(t_point, (time.perf_counter() - t0) / points)
    print("j,points,compile_us,per_point_us,ratio")
    print("%d,%d,%.1f,%.3f,%.0f" % (j, points, t_compile * 1e6,
                                    t_point * 1e6, t_compile / t_point))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("experiment", choices=("size", "amortize", "both"),
                    nargs="?", default="both")
    ap.add_argument("--j-min", type=int, default=20)
    ap.add_argument("--j-max", type=int, default=120)
    ap.add_argument("--j-step", type=int, default=20)
    ap.add_argument("--j", type=int, default=50,
                    help="spin for the amortize experiment")
    ap.add_argument("--points", type=int, default=1000)
    ap.add_argument("--repeats", type=int, default=3)
    cfg = ap.parse_args(argv)
    if cfg.experiment in ("size", "both"):
        size_study(list(range(cfg.j_min, cfg.j_max + 1, cfg.j_step)))
    if cfg.experiment in ("amortize", "both"):
        amortize_study(cfg.j, cfg.points, cfg.repeats)
    return 0


if __name__ == "__main__":
    sys.exit(main())
