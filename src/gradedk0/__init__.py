"""Exact graded K0 of monoid rings supported on pointed cones.

The package realizes, entirely in exact arithmetic, the class-level
correspondence between graded projective modules over a monoid ring
S[C ∩ Z^n] (C a full-dimensional pointed cone) and Laurent-monomial
combinations of classes over the degree-0 part: every graded idempotent
presentation is conjugated into its reduced block form by an explicit
unipotent matrix, the blocks give the graded rank, filtration stages fall
out as conjugated partial sums, and all advertised identities are verified
exactly, never numerically.
"""

from .cones import Cone, LatticePoint, OrderForm, enumerate_window, facets_from_generators
from .errors import (
    GradedK0Error,
    InternalCheckError,
    JobSyntaxError,
    JobValidationError,
)
from .k0 import (
    GradedRankClass,
    K0Class,
    graded_rank,
    hilbert_series_check,
    hilbert_table,
    k0_of_idempotent,
    phi_realize,
    verify_theorem_k0,
)
from .modules import (
    DecomposedForm,
    GradedMatrix,
    IdempotentPresentation,
    conjugator,
    filtration_idempotent,
    filtration_window,
    graded_dimension,
    reduce_matrix,
    splitting_difference_check,
    unipotent_inverse,
    window_index,
)
from .presets import PRESET_NAMES, default_sample_modules, preset_ring, random_idempotent
from .rings import GradedRing, RingElem, from_term_list
from .scalars import (
    QQ,
    ZZ,
    IntegerRing,
    PrimeField,
    PrimeFieldElem,
    ProductRing,
    QuadraticField,
    QuadraticReal,
    Rational,
    RationalField,
)

__version__ = "0.1.0"

__all__ = [
    "Cone",
    "DecomposedForm",
    "GradedK0Error",
    "GradedMatrix",
    "GradedRankClass",
    "GradedRing",
    "IdempotentPresentation",
    "IntegerRing",
    "InternalCheckError",
    "JobSyntaxError",
    "JobValidationError",
    "K0Class",
    "LatticePoint",
    "OrderForm",
    "PRESET_NAMES",
    "PrimeField",
    "PrimeFieldElem",
    "ProductRing",
    "QQ",
    "QuadraticField",
    "QuadraticReal",
    "Rational",
    "RationalField",
    "RingElem",
    "ZZ",
    "conjugator",
    "default_sample_modules",
    "enumerate_window",
    "facets_from_generators",
    "filtration_idempotent",
    "filtration_window",
    "from_term_list",
    "graded_dimension",
    "graded_rank",
    "hilbert_series_check",
    "hilbert_table",
    "k0_of_idempotent",
    "phi_realize",
    "preset_ring",
    "random_idempotent",
    "reduce_matrix",
    "splitting_difference_check",
    "unipotent_inverse",
    "verify_theorem_k0",
    "window_index",
]
