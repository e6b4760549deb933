"""Command line front end.

Subcommands: compile (emit DCR JSON), eval (single amplitude), sweep
(one compile, many projections over a q grid), diag (conditioning
diagnostics), table (reference-table reproduction with deviation
columns), tv (partition sum over a triangulation file).

One output path: each command returns its result as data (a Result: a
table, its JSON object, footer lines and, for a single record, aligned
`name value` lines), `_render` writes it as --format text, csv or json,
and `main` writes that once to stdout or --output. compile writes the
DCR JSON text only, so its --format takes json alone.

Spins are always entered as twice-spins: j = 30 is --spins 60,60,...
A --level below 0 is a usage error, and so is one below 1 for diag and
the engines lse-f64, lse-mp and exact, which need h = level + 2 >= 3.
Exit codes: 0 success, 1 internal error or unreadable file, 2 invalid
usage or inadmissible input (bad triad, pole at the requested root).
"""

import argparse
import cmath
import csv
import io
import json
import math
import sys
import time

import numpy as np

from . import diagnostics, statesum
from .compiler import (AdmissibilityError, SixJLabels, compile_sixj,
                       dcr_to_json)
from .projection import (Classical, ComplexDouble, ComplexExtended,
                         PoleError, RootOfUnityExact, SweepEvaluator,
                         amplitude_to_complex, evaluate, make_context,
                         root_of_unity_context)

ENGINES = ("dcr-f64", "dcr-mp", "lse-f64", "lse-mp", "exact", "classical")
_MP_ENGINES = ("dcr-mp", "lse-mp", "exact")
# the engines and commands that need the root order h = level + 2 >= 3
_H3_USERS = ("lse-f64", "lse-mp", "exact", "diag")

# published reference values, tagged by table of origin
T3_ROWS = (30, 50, 70, 90, 110)
T3_LEVEL = 500
T3_TRUTH = {30: -1.0930e-3, 50: +9.1082e-4, 70: -7.6283e-4,
            90: -6.4428e-4, 110: +2.8290e-4}
T3_LSE_F64 = {30: -1.0930e-3, 50: +9.1082e-4, 70: -7.6406e-4,
              90: +3.5642e-4, 110: -9.6881e-1}
T1_ROWS = ((50, 200), (100, 400))
T1_REF = {50: (6.03e3, 2.19e-3, 6.4), 100: (2.96e10, 7.80e-4, 13.6)}
T4_ROWS = ((10, 40), (50, 200), (100, 400), (200, 800))
T4_LOG10_KAPPA = {10: 1.27, 50: 7.10, 100: 14.39, 200: 28.97}
T4_GAMMA = {10: (61.1, 19.0), 50: (560.1, 104.5), 100: (1352.7, 212.5)}


def _parse_spins(text):
    parts = text.split(",")
    if len(parts) != 6:
        raise argparse.ArgumentTypeError(
            "expected six comma-separated twice-spins, got %d" % len(parts))
    try:
        tj = tuple(int(p) for p in parts)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))
    return tj


def _finite_float(text):
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError("expected a number, got %r" % text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError("expected a finite number, got %r"
                                         % text)
    return value


def _build_parser():
    top = argparse.ArgumentParser(
        prog="qcyclo",
        description="Compile q-hypergeometric 6j series into a deferred "
                    "cyclotomic representation and project it.")
    sub = top.add_subparsers(dest="command", required=True)

    def add_common(p, spins=True, level=True, formats=("text", "csv", "json")):
        if spins:
            p.add_argument("--spins", type=_parse_spins, required=True,
                           help="six twice-spins, e.g. 60,60,60,60,60,60 for j=30")
        if level:
            p.add_argument("--level", type=int, required=True,
                           help="level k; evaluation root is h = k + 2")
        p.add_argument("--format", dest="fmt", choices=formats,
                       default=formats[0])
        p.add_argument("--output", help="write to file instead of stdout")

    p = sub.add_parser("compile", help="emit the compiled DCR as JSON")
    add_common(p, level=False, formats=("json",))

    p = sub.add_parser("eval", help="evaluate one amplitude")
    add_common(p)
    p.add_argument("--engine", choices=ENGINES, default="dcr-mp")
    p.add_argument("--bits", type=int)
    p.add_argument("--parts", action="store_true",
                   help="also print the a and sqrt-radicand parts")

    p = sub.add_parser("sweep", help="project one DCR over a q grid")
    add_common(p, level=False)
    p.add_argument("--engine", choices=("dcr-f64", "dcr-mp"), default="dcr-f64")
    p.add_argument("--bits", type=int)
    p.add_argument("--start", type=_finite_float, required=True)
    p.add_argument("--stop", type=_finite_float, required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--real-axis", action="store_true",
                   help="grid is real q from start to stop (default: "
                        "q = exp(i theta), theta from start to stop)")

    p = sub.add_parser("diag", help="term-level conditioning diagnostics")
    add_common(p)
    p.add_argument("--bits", type=int, default=512)

    p = sub.add_parser("table", help="reproduce a reference table")
    p.add_argument("which", choices=("t1", "t3", "t4"))
    add_common(p, spins=False, level=False)
    p.add_argument("--bits", type=int, default=2048,
                   help="precision of the truth column (t3)")

    p = sub.add_parser("tv", help="partition sum over a triangulation file")
    p.add_argument("--triangulation", required=True)
    add_common(p, spins=False)
    p.add_argument("--bits", type=int)
    p.add_argument("--no-weights", dest="weights", action="store_false",
                   help="drop the per-edge quantum-dimension factors")
    return top


def _check_args(args):
    """Reject the option mixes argparse cannot, and resolve --bits for the
    engines that take it."""
    # 53 bits is the floor of extended precision (ComplexExtended)
    if getattr(args, "bits", None) is not None and args.bits < 53:
        raise ConfigError("--bits must be >= 53, got %d" % args.bits)
    if getattr(args, "level", None) is not None:
        what = getattr(args, "engine", args.command)
        low = 1 if what in _H3_USERS else 0
        if args.level < low:
            raise ConfigError("--level must be >= %d for %s, got %d"
                              % (low, what, args.level))
    if args.command in ("eval", "sweep"):
        if args.bits is not None and args.engine not in _MP_ENGINES:
            raise ConfigError("--bits only applies to engines %s"
                              % ", ".join(_MP_ENGINES))
        if args.bits is None and args.engine in _MP_ENGINES:
            args.bits = 256
    if args.command == "sweep" and args.count < 1:
        raise ConfigError("--count must be >= 1")


class ConfigError(ValueError):
    pass


def _emit(args, text):
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


class Result:
    """A formatted command's output: a table (header and rows), its JSON
    object, footer lines (shown as "# " comments) and, for a single
    record, the aligned `name value` lines that text shows in place of
    the table."""

    def __init__(self, header, rows, obj, footer=(), lines=None):
        self.header, self.rows, self.obj = header, rows, obj
        self.footer, self.lines = footer, lines


def _render(fmt, result):
    """The text of a command's result in one output format."""
    if fmt == "json":
        return json.dumps(result.obj, indent=2) + "\n"
    footer = ["# " + line for line in result.footer]
    table = [result.header, *result.rows]
    if fmt == "csv":
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(table)
        return buf.getvalue() + "".join(line + "\n" for line in footer)
    lines = result.lines
    if lines is None:
        cols = [max(len(str(v)) for v in col) for col in zip(*table)]
        lines = ["  ".join(str(v).ljust(c) for v, c in zip(r, cols)).rstrip()
                 for r in table]
    return "\n".join([*lines, *footer]) + "\n"


def _cx(z):
    return {"re": float(z.real), "im": float(z.imag)}


def cmd_compile(args):
    return dcr_to_json(compile_sixj(SixJLabels(*args.spins))) + "\n"


def _eval_amplitude(args):
    """(amplitude complex, parts dict or None, dcr or None)"""
    labels = SixJLabels(*args.spins)
    h, bits = args.level + 2, args.bits
    if args.engine == "lse-f64":
        return complex(diagnostics.lse_eval_sixj(labels, h, "double")), None, None
    if args.engine == "lse-mp":
        return complex(diagnostics.lse_eval_sixj(labels, h, bits)), None, None
    dcr = compile_sixj(labels)
    if args.engine in ("dcr-f64", "dcr-mp"):
        tag = ComplexDouble() if args.engine == "dcr-f64" \
            else ComplexExtended(bits)
        ctx = root_of_unity_context(h, tag, dcr.d_max)
    else:
        tag = RootOfUnityExact(h) if args.engine == "exact" else Classical()
        ctx = make_context(tag, dcr.d_max)
    out = evaluate(dcr, ctx)
    amp = complex(amplitude_to_complex(out, ctx, bits=bits))
    if args.engine == "exact":
        parts = {"a_coeffs": [str(c) for c in out.a.coeffs],
                 "r_coeffs": [str(c) for c in out.r.coeffs]}
    elif args.engine == "classical":
        parts = {"a": str(out.a), "r": str(out.r)}
    else:
        parts = {"a": _cx(out.a), "r": _cx(out.r)}
    return amp, parts, dcr


def cmd_eval(args):
    amp, parts, dcr = _eval_amplitude(args)
    spins = ",".join(map(str, args.spins))
    obj = {"spins": list(args.spins), "level": args.level,
           "engine": args.engine, "bits": args.bits, "amplitude": _cx(amp)}
    if parts is not None and args.parts:
        obj["parts"] = parts
    if dcr is not None and args.fmt == "json":
        # only JSON shows the DCR, which unfolds every ratio to show it
        obj["dcr"] = json.loads(dcr_to_json(dcr))
    header = ("spins", "level", "engine", "bits", "amp_re", "amp_im")
    row = (spins, args.level, args.engine, args.bits or "",
           "%.17e" % amp.real, "%.17e" % amp.imag)
    record = [("spins", spins), ("level", args.level),
              ("engine", args.engine + (" (%d bits)" % args.bits
                                        if args.bits else "")),
              ("amplitude", "%.12e %+.12ej" % (amp.real, amp.imag))]
    if parts and (args.parts or args.engine == "classical"):
        record.extend(parts.items())
    return Result(header, [row], obj,
                  lines=["%-10s %s" % kv for kv in record])


def cmd_diag(args):
    labels = SixJLabels(*args.spins)
    d = diagnostics.diagnostics_sixj(labels, args.level + 2,
                                     bits=args.bits)
    fields = (("kappa", "%.6e"), ("delta_loss", "%.3f"),
              ("gamma_eager", "%.2f"), ("gamma_dcr", "%.2f"),
              ("max_term", "%.6e"), ("abs_sum", "%.6e"), ("value", "%.6e"))
    obj = {"spins": list(args.spins), "level": args.level}
    obj.update({name: getattr(d, name) for name, _ in fields})
    record = [(name, fmt % getattr(d, name)) for name, fmt in fields]
    names, values = zip(*record)
    return Result(names, [values], obj,
                  lines=["%-12s %s" % kv for kv in record])


def _sweep_grid(args):
    ts = np.linspace(args.start, args.stop, args.count)
    if not args.real_axis:
        return np.exp(1j * ts)
    if not ts.all():
        # a real-axis grid is the only one that can hold q = 0
        raise ConfigError("the q grid holds q = 0, where no amplitude is "
                          "defined")
    return ts.astype(complex)


def cmd_sweep(args):
    t0 = time.perf_counter()
    dcr = compile_sixj(SixJLabels(*args.spins))
    compile_s = time.perf_counter() - t0
    qs = _sweep_grid(args)
    # one (value, usec) pair per point; NaN marks a pole and inf an
    # overflow, as in the sweep kernel.  The extended ring has no range to
    # leave: past double range its value converts to inf
    if args.engine == "dcr-f64":
        sw = SweepEvaluator(dcr)
        t0 = time.perf_counter()
        vals = sw.amplitudes(qs)
        usecs = [1e6 * (time.perf_counter() - t0) / len(qs)] * len(qs)
    else:
        tag = ComplexExtended(args.bits)
        vals, usecs = [], []
        for q in qs:
            t0 = time.perf_counter()
            try:
                # the context moves a double q that lies on the unit
                # circle, or on a root of unity, there to roundoff
                ctx = make_context(tag, dcr.d_max, q=complex(q))
                vals.append(complex(amplitude_to_complex(evaluate(dcr, ctx),
                                                         ctx)))
            except PoleError:
                vals.append(math.nan)
            usecs.append(1e6 * (time.perf_counter() - t0))
    rows = []
    for i, (q, v, us) in enumerate(zip(qs, vals, usecs)):
        amp = (("%.12e" % v.real, "%.12e" % v.imag, "ok")
               if cmath.isfinite(v) else ("", "", "ERROR"))
        rows.append((i, "%.12e" % q.real, "%.12e" % q.imag, *amp,
                     "%.3f" % us))
    header = ("idx", "q_re", "q_im", "amp_re", "amp_im", "status", "usec")
    obj = {"points": [dict(zip(header, r)) for r in rows],
           "compile_us": 1e6 * compile_s,
           "proj_us_per_point": sum(usecs) / len(qs)}
    footer = ["points=%d compile_us=%.1f proj_us_per_point=%.3f"
              % (len(qs), obj["compile_us"], obj["proj_us_per_point"])]
    return Result(header, rows, obj, footer)


def _table_t3(bits):
    header = ("j", "k", "truth", "ref_truth", "dev_truth",
              "lse_f64", "ref_lse_f64", "dcr_f64")
    rows = []
    h = T3_LEVEL + 2
    for j in T3_ROWS:
        labels = SixJLabels(*[2 * j] * 6)
        truth = float(diagnostics.dcr_eval_sixj(
            labels, h, ComplexExtended(bits)).real)
        lse = diagnostics.lse_eval_sixj(labels, h, "double")
        dcrf = diagnostics.dcr_eval_sixj(labels, h, ComplexDouble()).real
        ref = T3_TRUTH[j]
        rows.append((j, T3_LEVEL, "%+.4e" % truth, "%+.4e" % ref,
                     "%.1e" % (abs(truth - ref) / abs(ref)),
                     "%+.4e" % lse, "%+.4e" % T3_LSE_F64[j], "%+.4e" % dcrf))
    return header, rows


def _table_t1():
    header = ("j", "k", "max_term", "ref_max_term", "abs_S", "ref_abs_S",
              "delta_loss", "ref_delta_loss")
    rows = []
    for j, k in T1_ROWS:
        d = diagnostics.diagnostics_sixj(SixJLabels(*[2 * j] * 6), k + 2)
        rt, rs, rd = T1_REF[j]
        rows.append((j, k, "%.3e" % d.max_term, "%.3e" % rt,
                     "%.3e" % abs(d.value), "%.3e" % rs,
                     "%.1f" % d.delta_loss, "%.1f" % rd))
    return header, rows


def _table_t4():
    header = ("j", "k", "log10_kappa", "ref_log10_kappa",
              "gamma_eager", "ref_gamma_eager", "gamma_dcr", "ref_gamma_dcr")
    rows = []
    for j, k in T4_ROWS:
        d = diagnostics.diagnostics_sixj(SixJLabels(*[2 * j] * 6), k + 2)
        ge_ref, gd_ref = T4_GAMMA.get(j, ("", ""))
        rows.append((j, k, "%.2f" % math.log10(d.kappa),
                     "%.2f" % T4_LOG10_KAPPA[j],
                     "%.1f" % d.gamma_eager, ge_ref,
                     "%.1f" % d.gamma_dcr, gd_ref))
    return header, rows


def cmd_table(args):
    if args.which == "t3":
        header, rows = _table_t3(args.bits)
    elif args.which == "t1":
        header, rows = _table_t1()
    else:
        header, rows = _table_t4()
    return Result(header, rows, {"table": args.which,
                                 "rows": [dict(zip(header, r)) for r in rows]})


def cmd_tv(args):
    tri = statesum.load_triangulation(args.triangulation)
    value, stats = statesum.tv_partition(tri, args.level, bits=args.bits,
                                         weights=args.weights)
    value = complex(value)
    fields = (("value_re", "%.12e" % value.real),
              ("value_im", "%.12e" % value.imag),
              ("colorings", stats.num_colorings),
              ("distinct_classes", stats.distinct_classes),
              ("cache_hits", stats.cache_hits),
              ("cache_misses", stats.cache_misses))
    names, values = zip(*fields)
    return Result(names, [values], dict(fields),
                  lines=["%-16s %s" % kv for kv in fields])


_COMMANDS = {"compile": cmd_compile, "eval": cmd_eval, "sweep": cmd_sweep,
             "diag": cmd_diag, "table": cmd_table, "tv": cmd_tv}


def _bound_values(argv):
    """argv with each `--start X` and `--stop X` written `--start=X`:
    argparse reads a token that follows an option and looks like one,
    such as -1e-3 or -inf, as an option, not as the option's value."""
    for i in range(len(argv) - 2, -1, -1):
        if argv[i] in ("--start", "--stop"):
            argv[i:i + 2] = ["=".join(argv[i:i + 2])]
    return argv


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(_bound_values(
        list(sys.argv[1:] if argv is None else argv)))
    try:
        _check_args(args)
        result = _COMMANDS[args.command](args)
        _emit(args, result if isinstance(result, str)
              else _render(args.fmt, result))
        return 0
    except (AdmissibilityError, PoleError) as exc:
        print("inadmissible input: %s" % exc, file=sys.stderr)
        return 2
    except ConfigError as exc:
        print("configuration error: %s" % exc, file=sys.stderr)
        return 2
    except OSError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except (ValueError, ArithmeticError) as exc:
        print("internal error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
