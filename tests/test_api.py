"""The package's public names: those its documented features use, and
what importing the command line loads."""

import os
import subprocess
import sys
import types

import qcyclo

PUBLIC = (
    # compiling
    "SixJLabels", "compile_sixj", "SeriesDescriptor", "AffineForm",
    "PhasePoly", "compile_series", "DCR", "dcr_to_json", "dcr_from_json",
    "CycloMonomial", "AdmissibilityError", "triangle_admissible",
    # projecting
    "ComplexDouble", "ComplexExtended", "RootOfUnityExact", "Classical",
    "make_context", "unit_circle_q", "evaluate", "amplitude_to_complex",
    "classical_project", "project_monomial", "SweepEvaluator",
    "AmplitudeValue", "CycloNumber", "PoleError", "ProjectionRangeError",
    # state sums
    "tv_partition", "TVStats", "DCRCache", "admissible_colorings",
    "Triangulation", "triangulation_from_json", "load_triangulation",
    # diagnostics
    "diagnostics_sixj", "Diagnostics", "lse_eval_sixj", "dcr_eval_sixj",
    "identity_checks",
)


def test_all_is_pinned():
    assert sorted(qcyclo.__all__) == sorted(PUBLIC)
    assert len(set(qcyclo.__all__)) == len(qcyclo.__all__)


def test_every_name_resolves_and_none_is_a_module():
    for name in qcyclo.__all__:
        assert not isinstance(getattr(qcyclo, name), types.ModuleType), name


def test_helpers_stay_in_their_submodules():
    for name in ("mul", "div", "ExponentVector", "ClassicalValue",
                 "fold", "unfold"):
        assert not hasattr(qcyclo, name), name



def test_cli_import_stays_lean():
    # a fresh interpreter, as a benchmark worker or the console script
    # starts; qcyclo.cli imports the whole package
    src = os.path.dirname(os.path.dirname(qcyclo.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    code = ("import sys, qcyclo.cli; print(*sorted({m.partition('.')[0] "
            "for m in sys.modules} & {'sympy', 'hypothesis', 'pytest', "
            "'scipy'}))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=path)).stdout
    assert out.split() == []
