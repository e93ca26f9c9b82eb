"""Exact-arithmetic analysis of codimension-two CR singular graph germs.

Subpackages by layer: ``numeric``/``linalg`` (Gaussian-rational scalars and
exact sparse linear algebra), ``series`` (truncated polynomial ring in z and
zbar), ``germ`` (graph germs and their coordinate changes), ``quadratic``
(flattenability, coarse classification, Bishop slices), ``crfields``
(tangent-field brackets and the non-minimality obstruction), ``flatten``
(order-by-order formal flattening of the parabolic quadric), ``cli``.
"""

from .errors import (
    ConsistencyError,
    CrflatError,
    DegenerateSliceError,
    InconsistentSystemError,
    ParseError,
    PreconditionError,
    UnderdeterminedSystemError,
)
from .numeric import GaussianRational, sqrt_fraction, sqrt_gaussian
from .linalg import ExactMatrix, nullspace, solve, sparse_nullspace
from .series import Series, subst_w, sum_of_products, exp_from_bracket, bracket_from_exp
from .germ import (
    Germ,
    GESplit,
    KernelPolynomial,
    load_germ,
    loads_germ,
    dumps_germ,
    save_germ,
    load_kernel,
    loads_kernel,
    dumps_kernel,
    save_kernel,
    parabolic_pair,
    parabolic_quadric,
    quadric_germ,
)
from .quadratic import (
    CoarseBClass,
    CoarseClass,
    DirectionCandidate,
    FlattenabilityVerdict,
    LinearizationReport,
    QuadraticPair,
    SliceReport,
    bishop_slice,
    coarse_b_class,
    cr_singular_linearization,
    elliptic_candidates,
    is_hermitianizable,
    max_null_dim,
    recognize_pair,
    subslice_pair,
)
from .crfields import (
    BracketData,
    ObstructionReport,
    TangentField,
    WitnessReport,
    achievable_order,
    bracket_data,
    build_canonical_field,
    obstruction,
    obstruction_series,
    verify_witness,
    load_field,
    loads_field,
    dumps_field,
    save_field,
)
from .flatten import (
    AuditReport,
    Constraint,
    FlattenReport,
    HTable,
    KTransform,
    NormalizationSystem,
    PhiPsiTables,
    check_fundamental,
    flatten_to_order,
    fundamental_nullspace,
    h_from_germ,
    identity_audit,
    k_transform,
    normalization_system,
    parity_audit,
    phi_psi,
    recursion_audit,
    solve_kernel,
    uniqueness_nullspace,
)
from . import case_tables

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
