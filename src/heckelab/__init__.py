"""heckelab: exact verification of trace identities and characteristic
relations for Hecke-type R-matrices."""

__version__ = "0.1.0"

from .qscalar import (  # noqa: F401
    QScalar,
    ModInt,
    FieldSpec,
    SymbolicField,
    RationalField,
    ModularField,
    make_field,
    q_number,
    q_factorial,
    q_binomial,
    parse_scalar,
    format_scalar,
    ScalarParseError,
    SpecializationError,
    DEFAULT_PRIME,
    sample_rational_qs,
    sample_modular_qs,
)
from .tensor import (  # noqa: F401
    TensorOperator,
    ShapeError,
    NotInvertibleError,
)
from .hecke import (  # noqa: F401
    HeckeSymmetry,
    validate,
    builtin_standard,
    builtin_permutation,
    identity_suite,
    antisym_checks,
    Check,
    HeckeError,
    YBEViolationError,
    HeckeViolationError,
    NotClosedError,
    NotEvenError,
    RankImageError,
    FieldError,
    DEFAULT_RANK_BOUND,
)
from .ncalgebra import (  # noqa: F401
    NCPoly,
    generator_matrix,
    re_relations,
    EchelonBasis,
    ideal_component,
    is_member,
    DegreeError,
    ResourceError,
    DEFAULT_COLUMN_CAP,
)
from .invariants import (  # noqa: F401
    CentralSet,
    CharPoly,
    central_set,
    power_sum,
    sigma,
    alpha,
    newton_defect,
    cayley_hamilton_defect,
    char_poly,
    w_column,
    centrality_defects,
    ideal_components,
    member_at_degree,
    eigen_relation_check,
    verify_newton,
    verify_cayley_hamilton,
    verify_char_poly,
    verify_centrality,
    classical_crosscheck,
)
from .cli import RunConfig, Report, run, main  # noqa: F401
