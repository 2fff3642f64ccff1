"""Exact Frobenius-Perron arithmetic for fusion semirings over arbitrary
base fields: fusion data with endomorphism dimensions, axiom checking,
certified algebraic FPdims, regular elements, Morita and Drinfeld-center
invariants, and real division-type products.
"""

__version__ = "0.1.0"

from .core import (
    Comparison,
    FusionData,
    MultisetElement,
    UnitDecomposition,
    compare,
    dual_element,
    multiply,
    pairing,
    unit_decomposition,
)
from .deligne import (
    DivisionType,
    ProductSimple,
    SemisimpleDesc,
    TensorCell,
    deligne_product,
    tensor_types,
    verify_cc_idempotents,
)
from .errors import (
    ContextMismatchError,
    FusionError,
    InconsistentAnnotationError,
    InconsistentDataError,
    InsufficientDataError,
    NonTransitiveError,
    NoRealRootError,
    NotFusionError,
    ResourceLimitError,
    SchemaError,
    UnrepresentableError,
)
from .catalog import FixtureEntry, get_builtin, list_builtins, vec_group
from .fileformat import (
    emit_entry,
    emit_fusion_file,
    emit_morphism_file,
    parse_fusion_file,
    parse_morphism_file,
)
from .fpengine import (
    AlgebraicNumber,
    RationalMatrix,
    algebraic_equal,
    char_poly,
    exact_cmp,
    exact_mul,
    exact_square,
    fpdim_element,
    isolate_max_real_root,
    left_mult_matrix,
    min_poly,
    mul_algebraic,
    reciprocal,
    refine,
)
from .galois import (
    CenterPrediction,
    FiniteGroup,
    GaloisAnnotation,
    GaloisMark,
    center_endo_degree,
    center_fpdim_prediction,
    from_galois_group,
    galois_trivial_subring,
)
from .morphisms import (
    MoritaComparison,
    SemiringMorphism,
    adjoint_fpdim,
    check_adjoint_matrix,
    check_dominant,
    check_homomorphism,
    exact_div,
    morita_ratio_equal,
    relative_tensor_fpdim,
    verify_fpdim_transport,
)
from .poly import RationalPolynomial
from .regular import (
    ExtendedElement,
    IntegralityCertificate,
    certify_integrality,
    fpdim_category,
    is_invertible,
    regular_element,
    verify_regular_eigenproperty,
)
from .report import ValidationReport, Violation
from .validate import (
    check_eps_consistency,
    check_structural,
    check_transitivity,
    search_idempotents_above_unit,
)
