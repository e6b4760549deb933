"""Tests of the benchmark itself: python3 -m pytest perfbench"""

import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest
from mpmath import mp, mpf

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

from qcyclo.cli import T3_TRUTH  # noqa: E402

import oracle  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def test_oracle_self_check():
    assert oracle.self_check(T3_TRUTH) <= 5e-5


@pytest.mark.parametrize("t", [Fraction(1, 502), Fraction(0.3718)])
def test_quantum_integers_match_sinpi(t):
    table = oracle.QTable(t, 400, 256)
    with mp.workprec(256):
        s1 = mp.sinpi(mpf(t.numerator) / t.denominator)
        for n in (2, 17, 251, 400):
            want = mp.sinpi(mpf(n * t.numerator) / t.denominator) / s1
            assert abs(table.qint[n] - want) <= mpf(2) ** -200 * abs(want)


@pytest.mark.parametrize("tj", [(60, 62, 58, 64, 56, 60), (8, 8, 8, 8, 8, 8),
                                (30, 31, 29, 32, 33, 30)])
def test_q_racah_sum_tends_to_the_classical_sum(tj):
    """Near q = 1 the q-Racah sum is the exact-rational Racah sum."""
    got = oracle.sixj_at(tj, Fraction(1, 10 ** 40), 256).value
    s, r = oracle.classical_sixj(tj)
    with mp.workprec(256):
        want = mpf(s.numerator) / s.denominator * mp.sqrt(
            mpf(r.numerator) / r.denominator)
        assert abs(got - want) <= mpf(10) ** -60 * abs(want)


def test_roots_of_unity_truncate_and_poles_raise():
    tj = (8, 8, 8, 8, 8, 8)     # triads 12, terms z = 12..16
    at_16 = oracle.sixj_at(tj, Fraction(1, 16), 128)   # z >= 15 vanish
    with mp.workprec(128):
        assert abs(at_16.value) > 0
    with pytest.raises(oracle.Pole):
        oracle.sixj_at(tj, Fraction(1, 7), 128)


def test_sweep_pole_levels_are_poles():
    wl = WORKLOADS["sweep-f64"](5, Tracer(False))
    for tj, _, ladder in wl.pool:
        with pytest.raises(oracle.Pole):
            oracle.sixj_at(tj, Fraction(1, ladder[0]), 64)


def test_classical_oracle():
    s, r = oracle.classical_sixj((2, 2, 2, 2, 2, 2))
    assert s > 0 and s * s * r == Fraction(1, 36)   # {1 1 1; 1 1 1} = 1/6


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_one_seed_gives_identical_inputs(name):
    def inputs(seed):
        wl = WORKLOADS[name](seed, Tracer(False))
        return repr(wl.sequence[:50])
    assert inputs(7) == inputs(7)
    assert inputs(7) != inputs(8)


def _counts(name, seed):
    tracer = Tracer(True)
    wl = WORKLOADS[name](seed, tracer)
    for i, req in enumerate(wl.sequence[:wl.ref_len]):
        tracer.request = i
        wl.run(req)
    layers, _ = worker.per_layer(tracer, wl, 1.0)
    return {k: v for k, v in layers.items()
            if run.PER_LAYER[k] in ("count", "frac", "abs")
            and not k.endswith("_self_frac") and k != "trace.overhead_frac"}


def test_one_seed_gives_identical_counts():
    first = _counts("sweep-f64", 3)
    assert first == _counts("sweep-f64", 3)
    # ball_4tet at k = 4, 6, 8 (see workloads.probe)
    assert first["statesum.colorings"] == 25 + 55 + 85
    assert 0 < first["statesum.cache_hit_ratio"] < 1
    assert first["projection.lattice_share"] > 0


def test_every_metric_is_declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    declared = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    assert declared == run.END_TO_END
    declared = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert declared == run.PER_LAYER
    tracer = Tracer(True)
    wl = WORKLOADS["sweep-f64"](1, tracer)
    printed = set(worker.per_layer(tracer, wl, 1.0)[0]) \
        | set(worker.nonfinite(worker.Tally())) | {"cli.import_s"}
    assert printed == set(run.PER_LAYER)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)


def test_best_of_repeats():
    best, repeats = run.best_of([3, 1, 5, 2, 4], [0, 1, 0, 1, 0])
    assert (best, repeats) == ([3, 1, 3, 1, 3], 2)


def test_tail_percentile_keeps_ten_beyond():
    assert run.tail(list(range(100))) == (90, 89, 10)
    assert run.tail(list(range(60)))[0] == 83


def test_fails_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "point-mp",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
