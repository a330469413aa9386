"""Linear algebra over semiring pairs: tangible sets, null layers, doubled
determinants, three rank notions, and max-plus style solvers."""

from .core import (
    AuditReport,
    CharacteristicProfile,
    El,
    ModulusValue,
    PairAlgebra,
    PairError,
    UniformPresentation,
    axiom_audit,
    balances,
    characteristic,
    circ,
    e_elements,
    height,
    surpasses0,
    uniform_presentation,
)
from .instances import (
    BadSpecifier,
    NotASubgroup,
    make_algebra,
    make_doubled,
    make_sign_pair,
    make_supertropical,
    registered_instances,
    st_ghost,
    st_tan,
)
from .matrices import (
    CapExceeded,
    DimensionMismatch,
    DoubledDet,
    Matrix,
    adjoint,
    cayley_hamilton_check,
    det_doubled,
    identity,
    is_singular,
    krasner_det_contains_zero,
    laplace_expand,
    mat_mul,
    mat_vec,
    matrix,
    permanent,
    quasi_identity_check,
    quasi_inverse,
)
from .rank import (
    CoefficientDomain,
    DependenceWitness,
    RankReport,
    check_condition,
    col_rank,
    entry_ratio_domain,
    exact_domain,
    find_dependence,
    preceq_spans,
    rank_defect,
    rank_report,
    row_rank,
    submatrix_rank,
)
from .solve import (
    CramerResult,
    JacobiState,
    cramer_solve,
    dominant_structure,
    jacobi_solve,
)

__all__ = [n for n in dir() if not n.startswith("_")]
__version__ = "0.1.0"
