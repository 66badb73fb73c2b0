"""Operator frame sequences on finite-dimensional l^p spaces.

The package models families {L_i : X -> Y_i} of matrices between coordinate
l^p spaces, classifies them (Bessel sequence, frame, Riesz basis), constructs
dual Riesz bases, assembles symbol-weighted Bessel multipliers, and certifies
the norm bounds, inverses, perturbation estimates and parameter-continuity
statements these objects satisfy.  Every quantitative claim travels as a
:class:`~pgframes.opnorm.BoundCertificate` recording its provenance (exact
closed form, certified upper bound, or witness-backed estimate).
"""
from .config import DEFAULT_CONFIG, NumericsConfig
from .spaces import (
    INF,
    DimensionMismatchError,
    ProductSpaceSpec,
    ProductVector,
    SpaceError,
    SpaceSpec,
    Vector,
    conjugate_exponent,
    dual_pairing,
    holder_witness,
    mixed_norm,
    p_norm,
    pnorm,
    product_duality_gap,
)
from .opnorm import (
    BoundCertificate,
    BoundPair,
    VertexLimitError,
    matrix_opnorm,
    min_ratio_estimate,
    operator_norm_bounds,
    upper_certificate_only,
)
from .operators import (
    OperatorSequence,
    analysis_apply,
    analysis_opnorm,
    analysis_upper,
    synthesis_apply,
    synthesis_matrix,
)
from .frames import (
    DualSequence,
    FrameReport,
    NotRieszError,
    RieszEquivalences,
    classify,
    dual_riesz_basis,
    riesz_equivalences_check,
)
from .multipliers import (
    InverseVerificationError,
    MultiplierOperator,
    NormBounds,
    Symbol,
    SymbolTooSmallError,
    assemble,
    injectivity_witness,
    invert,
    norm_bounds,
)
from .perturbation import (
    CONTINUITY_KINDS,
    ContinuityTrace,
    ContinuityViolation,
    PerturbationReport,
    continuity_suite,
    perturbation_check,
)
from .generate import GEN_KINDS, GenerationError, gen
from .instances import Instance, InstanceFormatError, load, parse, save, serialize
from .checks import CheckReport, CheckResult, SUITES, run_checks
from .gridsearch import OracleBudgetError

__version__ = "0.1.0"
