"""Command-line interface, exercised in process through main(argv)."""

import importlib.resources
import json
import math

import pytest

from qcyclo import cli
from qcyclo.cli import T3_TRUTH, main
from qcyclo.compiler import SixJLabels, compile_sixj, dcr_from_json

from conftest import count_compiles, racah_sixj_squared

DATA = importlib.resources.files("qcyclo") / "data"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestEval:
    def test_reference_row_json(self, capsys):
        code, out, _ = run(capsys, "eval", "--spins", ",".join(["60"] * 6),
                           "--level", "500", "--engine", "dcr-mp",
                           "--bits", "512", "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj["bits"] == 512
        got = obj["amplitude"]["re"]
        assert abs(got - T3_TRUTH[30]) <= 5e-4 * abs(T3_TRUTH[30])
        assert abs(obj["amplitude"]["im"]) < 1e-30
        # the emitted DCR is the compiled object, losslessly embedded
        assert dcr_from_json(json.dumps(obj["dcr"])) \
            == compile_sixj(SixJLabels(*[60] * 6))

    def test_default_bits(self, capsys):
        code, out, _ = run(capsys, "eval", "--spins", "2,2,2,2,2,2",
                           "--level", "5", "--format", "json")
        assert code == 0
        assert json.loads(out)["bits"] == 256

    def test_classical_engine_prints_rational_parts(self, capsys):
        code, out, _ = run(capsys, "eval", "--spins", "2,2,2,2,2,2",
                           "--level", "5", "--engine", "classical")
        assert code == 0
        a_line = next(l for l in out.splitlines() if l.startswith("a "))
        r_line = next(l for l in out.splitlines() if l.startswith("r "))
        amp_line = next(l for l in out.splitlines()
                        if l.startswith("amplitude"))
        from fractions import Fraction
        a = Fraction(a_line.split()[1])
        r = Fraction(r_line.split()[1])
        square, sign = racah_sixj_squared((2,) * 6)
        assert a * a * r == square
        got = float(amp_line.split()[1].split("e")[0] + "e"
                    + amp_line.split()[1].split("e")[1])
        assert (got > 0) - (got < 0) == sign

    def test_exact_engine_parts(self, capsys):
        code, out, _ = run(capsys, "eval", "--spins", "2,2,2,2,2,2",
                           "--level", "5", "--engine", "exact", "--parts",
                           "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert all(isinstance(c, str) for c in obj["parts"]["a_coeffs"])
        assert len(obj["parts"]["a_coeffs"]) >= 1

    def test_engines_agree(self, capsys):
        vals = {}
        for engine in ("dcr-f64", "dcr-mp", "lse-f64", "lse-mp", "exact"):
            code, out, _ = run(capsys, "eval", "--spins", "2,2,4,3,1,3",
                               "--level", "6", "--engine", engine,
                               "--format", "json")
            assert code == 0
            vals[engine] = json.loads(out)["amplitude"]["re"]
        base = vals["dcr-mp"]
        for engine, v in vals.items():
            assert abs(v - base) <= 1e-9 * abs(base), engine

    def test_inadmissible_parity_exit_2(self, capsys):
        code, _, err = run(capsys, "eval", "--spins", "1,1,1,1,1,1",
                           "--level", "8")
        assert code == 2
        assert "inadmissible input" in err

    @pytest.mark.parametrize("engine", ("lse-f64", "lse-mp"))
    def test_lse_past_level_exit_1(self, capsys, engine):
        # the eager sum reaches [5]!, and its factor [4] vanishes at h = 4
        code, out, err = run(capsys, "eval", "--spins", "2,2,2,2,2,2",
                             "--level", "2", "--engine", engine)
        assert code == 1 and out == ""
        assert err.count("\n") == 1 and "internal error" in err

    def test_lse_refusal_of_admissible_labels(self, capsys):
        # admissible at level 6, h = 8, but the eager sum needs
        # [z_max + 1]! = [9]!, which vanishes there: the refusal names
        # that cause and the compiled engines, which evaluate the labels
        argv = ("eval", "--spins", "4,4,4,4,4,4", "--level", "6")
        for engine in ("lse-f64", "lse-mp"):
            code, out, err = run(capsys, *argv, "--engine", engine)
            assert code == 1 and out == ""
            assert "[9]!" in err and "z_max + 1 >= h" in err \
                and "dcr-* engine" in err and "exceed the level" not in err
        for engine in ("dcr-mp", "exact"):
            code, out, _ = run(capsys, *argv, "--engine", engine,
                               "--format", "json")
            assert code == 0
            got = json.loads(out)["amplitude"]["re"]
            assert abs(got - 1.213203435596e-01) <= 1e-12

    def test_pole_exit_2(self, capsys):
        code, _, err = run(capsys, "eval", "--spins", "4,4,4,4,4,4",
                           "--level", "2")
        assert code == 2
        assert "inadmissible input" in err

    def test_bits_rejected_for_double_engine(self, capsys):
        code, _, err = run(capsys, "eval", "--spins", "2,2,2,2,2,2",
                           "--level", "5", "--engine", "dcr-f64",
                           "--bits", "128")
        assert code == 2
        assert "configuration error" in err

    def test_usage_error_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--spins", "2,2,2,2,2,2", "--level", "5",
                  "--engine", "nope"])
        assert exc.value.code == 2

    def test_bad_spin_count_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--spins", "2,2,2", "--level", "5"])
        assert exc.value.code == 2


class TestBits:
    # every command that takes --bits refuses one below the 53-bit floor
    # of extended precision as a usage error, before any work is done
    @pytest.mark.parametrize("argv", (
        ("eval", "--spins", "2,2,2,2,2,2", "--level", "5",
         "--engine", "dcr-mp"),
        ("sweep", "--spins", "2,2,2,2,2,2", "--engine", "dcr-mp",
         "--start", "0.5", "--stop", "1.0", "--count", "2"),
        ("diag", "--spins", "2,2,2,2,2,2", "--level", "5"),
        ("table", "t3"),
        ("tv", "--triangulation", str(DATA / "ball_1tet.json"),
         "--level", "5")), ids=lambda argv: argv[0])
    @pytest.mark.parametrize("bits", ("8", "0"))
    def test_below_floor_exit_2(self, capsys, argv, bits):
        code, out, err = run(capsys, *argv, "--bits", bits)
        assert code == 2 and out == ""
        assert "configuration error" in err and ">= 53" in err


class TestLevel:
    # a negative level is a usage error for every command that takes one,
    # and level 0 (h = 2) for the engines and diag that need h >= 3
    @pytest.mark.parametrize("argv", (
        ("eval", "--spins", "2,2,2,2,2,2", "--level", "-1"),
        ("eval", "--spins", "2,2,2,2,2,2", "--level", "-1",
         "--engine", "classical"),
        ("tv", "--triangulation", str(DATA / "ball_1tet.json"),
         "--level", "-1"),
        ("eval", "--spins", "2,2,2,2,2,2", "--level", "0",
         "--engine", "exact"),
        ("eval", "--spins", "2,2,2,2,2,2", "--level", "0",
         "--engine", "lse-f64"),
        ("eval", "--spins", "2,2,2,2,2,2", "--level", "0",
         "--engine", "lse-mp"),
        ("diag", "--spins", "2,2,2,2,2,2", "--level", "0")),
        ids=("eval", "classical", "tv", "exact", "lse-f64", "lse-mp", "diag"))
    def test_below_floor_exit_2(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert "configuration error" in err and "--level must be >=" in err

    def test_level_zero_for_the_compiled_engines(self, capsys):
        # h = 2 admits only spin 0, whose 6j is 1
        for engine in ("dcr-f64", "dcr-mp"):
            code, out, _ = run(capsys, "eval", "--spins", "0,0,0,0,0,0",
                               "--level", "0", "--engine", engine,
                               "--format", "json")
            assert code == 0
            assert json.loads(out)["amplitude"] == {"re": 1.0, "im": 0.0}


class TestCompile:
    def test_round_trip(self, capsys):
        code, out, _ = run(capsys, "compile", "--spins", "2,2,4,3,1,3")
        assert code == 0
        assert dcr_from_json(out) == compile_sixj(SixJLabels(2, 2, 4, 3, 1, 3))

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "dcr.json"
        code, out, _ = run(capsys, "compile", "--spins", "2,2,2,2,2,2",
                           "--output", str(target))
        assert code == 0 and out == ""
        assert dcr_from_json(target.read_text()) \
            == compile_sixj(SixJLabels(*[2] * 6))

    def test_format_is_json_only(self, capsys):
        code, bare, _ = run(capsys, "compile", "--spins", "2,2,2,2,2,2")
        code_json, out, _ = run(capsys, "compile", "--spins", "2,2,2,2,2,2",
                                "--format", "json")
        assert code == code_json == 0 and out == bare
        for fmt in ("csv", "text"):
            with pytest.raises(SystemExit) as exc:
                main(["compile", "--spins", "2,2,2,2,2,2", "--format", fmt])
            assert exc.value.code == 2


class TestSweep:
    def test_single_point_matches_eval(self, capsys):
        theta = math.pi / 7
        code, out, _ = run(capsys, "sweep", "--spins", "2,2,2,2,2,2",
                           "--start", repr(theta), "--stop", repr(theta),
                           "--count", "1", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        row = lines[1].split(",")
        sweep_val = complex(float(row[3]), float(row[4]))
        code, out, _ = run(capsys, "eval", "--spins", "2,2,2,2,2,2",
                           "--level", "5", "--engine", "dcr-f64",
                           "--format", "json")
        assert code == 0
        want = json.loads(out)["amplitude"]
        assert abs(sweep_val - complex(want["re"], want["im"])) \
            <= 1e-9 * (1 + abs(sweep_val))

    def test_single_point_sits_at_start(self, capsys):
        # one point of a grid whose bounds differ is its start
        args = ("sweep", "--spins", "2,2,2,2,2,2", "--count", "1",
                "--format", "csv")
        code, out, _ = run(capsys, *args, "--start", "0.5", "--stop", "2.5")
        assert code == 0
        rows = out.splitlines()
        assert rows[2].startswith("# points=1 ")
        q = complex(*map(float, rows[1].split(",")[1:3]))
        assert abs(q - complex(math.cos(0.5), math.sin(0.5))) <= 1e-12
        code, alone, _ = run(capsys, *args, "--start", "0.5", "--stop", "0.5")
        assert alone.splitlines()[1].split(",")[1:5] \
            == rows[1].split(",")[1:5]

    def test_compiles_once_footer(self, capsys, monkeypatch):
        compiled = count_compiles(monkeypatch, cli)
        code, out, _ = run(capsys, "sweep", "--spins", "2,2,2,2,2,2",
                           "--start", "0.3", "--stop", "1.2", "--count", "8",
                           "--format", "csv")
        assert code == 0
        assert len(compiled) == 1
        footer = [l for l in out.splitlines() if l.startswith("#")]
        assert len(footer) == 1
        assert "points=8" in footer[0]
        assert float(footer[0].split("proj_us_per_point=")[1]) > 0

    @pytest.mark.parametrize("engine", ("dcr-f64", "dcr-mp"))
    def test_pole_row_isolated(self, capsys, engine):
        # theta = pi/3 pins q at the h = 3 root where the radicand has a
        # pole; the other grid points must come through untouched
        theta = math.pi / 3
        code, out, _ = run(capsys, "sweep", "--spins", "2,2,2,2,2,2",
                           "--start", repr(theta), "--stop", "1.5",
                           "--count", "3", "--engine", engine,
                           "--format", "csv")
        assert code == 0
        rows = [l.split(",") for l in out.splitlines()[1:] if l[:1] != "#"]
        assert [r[5] for r in rows] == ["ERROR", "ok", "ok"]
        assert rows[0][3] == "" and float(rows[1][3]) != 0.0

    def test_mp_grid_matches_double(self, capsys):
        # dcr-mp builds one extended context per grid point
        pts = {}
        for engine in ("dcr-mp", "dcr-f64"):
            code, out, _ = run(capsys, "sweep", "--spins", "4,6,8,6,4,6",
                               "--start", "0.3", "--stop", "2.8", "--count",
                               "40", "--engine", engine, "--format", "json")
            assert code == 0
            pts[engine] = json.loads(out)["points"]
        assert [p["status"] for p in pts["dcr-mp"]] \
            == [p["status"] for p in pts["dcr-f64"]]
        for p, d in zip(pts["dcr-mp"], pts["dcr-f64"]):
            if p["status"] == "ok":
                want = complex(float(p["amp_re"]), float(p["amp_im"]))
                got = complex(float(d["amp_re"]), float(d["amp_im"]))
                assert abs(got - want) <= 1e-10 * abs(want)

    def test_unit_circle_flag_is_gone(self, capsys):
        # the unit circle is the default grid; only --real-axis changes it
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--spins", "2,2,2,2,2,2", "--start", "0.3",
                  "--stop", "1.2", "--count", "2", "--unit-circle"])
        assert exc.value.code == 2

    def test_real_axis_grid(self, capsys):
        code, out, _ = run(capsys, "sweep", "--spins", "2,2,2,2,2,2",
                           "--start", "1.05", "--stop", "1.25", "--count",
                           "3", "--real-axis", "--format", "json")
        assert code == 0
        pts = json.loads(out)["points"]
        assert [p["status"] for p in pts] == ["ok"] * 3
        assert float(pts[0]["q_im"]) == 0.0

    @pytest.mark.parametrize("engine", ("dcr-f64", "dcr-mp"))
    @pytest.mark.parametrize("bound, value", (("--start", "nan"),
                                              ("--start", "-inf"),
                                              ("--stop", "inf"),
                                              ("--stop", "x")))
    def test_non_finite_grid_bound_usage_error(self, capsys, engine, bound,
                                               value):
        # a grid bound that is not a finite number is invalid usage: no
        # row is printed, with status ok or any other
        bounds = {"--start": "0.3", "--stop": "1.2", bound: value}
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--spins", "2,2,2,2,2,2", "--count", "2",
                  "--engine", engine,
                  *("%s=%s" % kv for kv in bounds.items())])
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert ("expected a finite number" if value != "x"
                else "expected a number") in out.err

    @pytest.mark.parametrize("start", ("-1e-3", "-.5e1"))
    def test_negative_bound_in_exponent_form(self, capsys, start):
        # a bound that starts with '-' is the option's value, though
        # argparse reads such a token as an option of its own
        code, out, _ = run(capsys, "sweep", "--spins", "4,6,8,6,4,6",
                           "--start", start, "--stop", "1.25", "--count",
                           "4", "--real-axis", "--format", "json")
        assert code == 0
        pts = json.loads(out)["points"]
        assert float(pts[0]["q_re"]) == float(start)
        assert [p["status"] for p in pts] == ["ok"] * 4

    @pytest.mark.parametrize("bound", ("--start", "--stop"))
    @pytest.mark.parametrize("value", ("-inf", "-nan"))
    def test_negative_non_finite_bound_as_next_token(self, capsys, bound,
                                                     value):
        bounds = {"--start": "0.3", "--stop": "1.2", bound: value}
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--spins", "2,2,2,2,2,2", "--count", "2",
                  *(x for kv in bounds.items() for x in kv)])
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert out.out == "" and "expected a finite number" in out.err

    @pytest.mark.parametrize("engine", ("dcr-f64", "dcr-mp"))
    def test_grid_holding_zero_exit_2(self, capsys, engine):
        # no amplitude is defined at q = 0: the grid is invalid input
        code, out, err = run(capsys, "sweep", "--spins", "2,2,2,2,2,2",
                             "--start", "0", "--stop", "1", "--count", "2",
                             "--real-axis", "--engine", engine)
        assert code == 2 and out == ""
        assert err.startswith("configuration error:") and "q = 0" in err

    def test_count_below_one_exit_2(self, capsys):
        code, out, err = run(capsys, "sweep", "--spins", "2,2,2,2,2,2",
                             "--start", "0.3", "--stop", "1.2", "--count", "0")
        assert code == 2 and out == ""
        assert err == "configuration error: --count must be >= 1\n"

    def test_spin_not_an_integer_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--spins", "1,2,3,4,5,x", "--start", "0.3",
                  "--stop", "1.2", "--count", "2"])
        assert exc.value.code == 2
        assert "argument --spins: invalid literal for int() with base 10: " \
            "'x'" in capsys.readouterr().err


class TestDiag:
    def test_json_fields(self, capsys):
        code, out, _ = run(capsys, "diag", "--spins", "8,8,8,8,8,8",
                           "--level", "20", "--bits", "256",
                           "--format", "json")
        assert code == 0
        obj = json.loads(out)
        for key in ("kappa", "delta_loss", "gamma_eager", "gamma_dcr",
                    "max_term", "abs_sum", "value"):
            assert key in obj
        assert obj["kappa"] >= 1.0
        assert obj["gamma_dcr"] <= obj["gamma_eager"]


    def test_past_level_exit_1(self, capsys):
        code, out, err = run(capsys, "diag", "--spins", "2,2,2,2,2,2",
                             "--level", "2")
        assert code == 1 and out == ""
        assert err.count("\n") == 1 and "internal error" in err


class TestTable:
    def test_t1_against_published(self, capsys):
        code, out, _ = run(capsys, "table", "t1", "--format", "json")
        assert code == 0
        rows = json.loads(out)["rows"]
        assert [r["j"] for r in rows] == [50, 100]
        for row in rows:
            assert (abs(float(row["max_term"]) - float(row["ref_max_term"]))
                    <= 0.01 * float(row["ref_max_term"]))
            assert (abs(float(row["delta_loss"]) - float(row["ref_delta_loss"]))
                    <= 0.1)


class TestTv:
    def test_bundled_ball(self, capsys):
        code, out, _ = run(capsys, "tv", "--triangulation",
                           str(DATA / "ball_1tet.json"), "--level", "5")
        assert code == 0
        lines = dict(l.split(None, 1) for l in out.splitlines())
        assert float(lines["value_re"]) != 0.0
        assert lines["colorings"] == "1"

    def test_missing_file_exit_1(self, capsys):
        code, _, err = run(capsys, "tv", "--triangulation",
                           "/nonexistent/tri.json", "--level", "3")
        assert code == 1
        assert "error" in err

    @pytest.mark.parametrize("field, value, message", (
        ("edges", None, "missing"),
        ("boundary", [1], "boundary"),
        ("edges", 5, "edges"),
        ("tetrahedra", [5], "tetrahedra"),
        ("num_vertices", "4", "num_vertices")),
        ids=("missing", "boundary", "edges", "tetrahedra", "num_vertices"))
    def test_malformed_file_exit_1(self, capsys, tmp_path, field, value,
                                   message):
        obj = json.loads((DATA / "ball_1tet.json").read_text())
        if value is None:
            del obj[field]
        else:
            obj[field] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(obj))
        code, out, err = run(capsys, "tv", "--triangulation", str(bad),
                             "--level", "3")
        assert code == 1 and out == ""
        assert err.count("\n") == 1
        assert "internal error" in err and message in err

    def test_no_weights_flag(self, capsys):
        path = str(DATA / "ball_1tet.json")
        code, out, _ = run(capsys, "tv", "--triangulation", path,
                           "--level", "5", "--format", "json")
        weighted = json.loads(out)["value_re"]
        code, out, _ = run(capsys, "tv", "--triangulation", path,
                           "--level", "5", "--no-weights", "--format", "json")
        bare = json.loads(out)["value_re"]
        assert code == 0
        assert abs(float(weighted)) != pytest.approx(abs(float(bare)))
