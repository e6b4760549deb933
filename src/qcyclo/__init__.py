"""Deferred cyclotomic evaluation of finite q-hypergeometric series.

Compile once into a sparse integer-exponent object (the DCR), then project
into any target arithmetic: complex double, extended precision, the exact
cyclotomic field at a root of unity, or the classical q -> 1 limit.

The package exports the names its documented features use; helpers stay
in their submodules (qcyclo.monomial, qcyclo.qfactor, ...).
"""

import types

from .compiler import (DCR, AdmissibilityError, AffineForm, PhasePoly,
                       SeriesDescriptor, SixJLabels, compile_series,
                       compile_sixj, dcr_from_json, dcr_to_json,
                       triangle_admissible)
from .monomial import CycloMonomial
from .cyclofield import CycloNumber
from .projection import (AmplitudeValue, Classical, ComplexDouble,
                         ComplexExtended, PoleError, ProjectionRangeError,
                         RootOfUnityExact, SweepEvaluator,
                         amplitude_to_complex, classical_project, evaluate,
                         make_context, project_monomial, unit_circle_q)
from .statesum import (DCRCache, Triangulation, TVStats,
                       admissible_colorings, load_triangulation,
                       triangulation_from_json, tv_partition)
from .diagnostics import (Diagnostics, dcr_eval_sixj, diagnostics_sixj,
                          identity_checks, lse_eval_sixj)

__all__ = sorted(name for name, value in globals().items()
                 if not (name.startswith("_")
                         or isinstance(value, types.ModuleType)))
