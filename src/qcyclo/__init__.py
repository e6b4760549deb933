"""Deferred cyclotomic evaluation of finite q-hypergeometric series.

Compile once into a sparse integer-exponent object (the DCR), then project
into any target arithmetic: complex double, extended precision, the exact
cyclotomic field at a root of unity, or the classical q -> 1 limit.
"""

from .monomial import (CycloMonomial, ExponentVector, IDENTITY, SquareSplit,
                       div, mul, sqrt_split)
from .qfactor import divisors, qfact_monomial, qint_monomial
from .compiler import (DCR, AdmissibilityError, AffineForm, PhasePoly,
                       SeriesDescriptor, SixJDescriptor, SixJLabels,
                       bounds, compile_series, compile_sixj, dcr_from_json,
                       dcr_to_json, ratio_monomial, series_from_sixj,
                       sixj_descriptor, triangle_admissible)
from .cyclofield import CycloField, CycloNumber, cyclotomic_coeffs
from .projection import (AmplitudeValue, Classical, ClassicalValue,
                         ComplexDouble, ComplexExtended, PoleError,
                         ProjectionContext, ProjectionRangeError,
                         RootOfUnityExact, SweepEvaluator,
                         amplitude_to_complex, classical_project, evaluate,
                         make_context, project_monomial,
                         root_of_unity_context, unit_circle_q)
from .statesum import (DCRCache, Triangulation, TVStats,
                       admissible_colorings, canonical_sixj,
                       load_triangulation, sixj_images,
                       triangulation_from_json, tv_partition)
from .diagnostics import (Diagnostics, dcr_eval_sixj, diagnostics_sixj,
                          identity_checks, log_qint_table, lse_eval_sixj)

__all__ = [name for name in dir() if not name.startswith("_")]
