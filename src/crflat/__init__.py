"""Exact-arithmetic analysis of codimension-two CR singular graph germs.

Subpackages by layer: ``numeric``/``linalg`` (Gaussian-rational scalars and
exact sparse linear algebra), ``series`` (truncated polynomial ring in z and
zbar), ``germ`` (graph germs and their coordinate changes), ``quadratic``
(flattenability, coarse classification, Bishop slices), ``crfields``
(tangent-field brackets and the non-minimality obstruction), ``flatten``
(order-by-order formal flattening of the parabolic quadric), ``audits``
(the recursion audits of ``flatten``'s operators), ``cli``.

Every submodule but ``errors`` and ``cli`` is registered lazily, with the
standard library's ``importlib.util.LazyLoader``: it sits in ``sys.modules``
and as an attribute of this package from the start, but its source is
compiled and run only when one of its attributes is first read.  The names
re-exported here resolve through the module ``__getattr__`` (PEP 562), so a
program that uses only ``crflat.flatten`` never runs ``crflat.crfields``.
"""

import sys as _sys
from importlib.util import (
    LazyLoader as _LazyLoader,
    find_spec as _find_spec,
    module_from_spec as _module_from_spec,
)

from .errors import (
    ConsistencyError,
    CrflatError,
    DegenerateSliceError,
    InconsistentSystemError,
    ParseError,
    PreconditionError,
    UnderdeterminedSystemError,
)

# submodule -> the names this package re-exports from it, in dependency order
_EXPORTS = {
    "numeric": ("GaussianRational", "sqrt_fraction", "sqrt_gaussian"),
    "linalg": ("ExactMatrix", "nullspace", "solve", "sparse_nullspace"),
    "series": ("Series", "subst_w", "sum_of_products", "exp_from_bracket", "bracket_from_exp"),
    "germ": (
        "Germ",
        "KernelPolynomial",
        "load_germ",
        "loads_germ",
        "dumps_germ",
        "save_germ",
        "load_kernel",
        "loads_kernel",
        "dumps_kernel",
        "save_kernel",
        "parabolic_pair",
        "parabolic_quadric",
        "quadric_germ",
    ),
    "quadratic": (
        "CoarseBClass",
        "CoarseClass",
        "DirectionCandidate",
        "FlattenabilityVerdict",
        "LinearizationReport",
        "QuadraticPair",
        "SliceReport",
        "bishop_slice",
        "coarse_b_class",
        "cr_singular_linearization",
        "elliptic_candidates",
        "is_hermitianizable",
        "max_null_dim",
        "recognize_pair",
        "subslice_pair",
    ),
    "crfields": (
        "BracketData",
        "ObstructionReport",
        "TangentField",
        "WitnessReport",
        "achievable_order",
        "bracket_data",
        "build_canonical_field",
        "obstruction",
        "obstruction_series",
        "verify_witness",
        "load_field",
        "loads_field",
        "dumps_field",
    ),
    "flatten": (
        "Constraint",
        "FlattenReport",
        "HTable",
        "PhiPsiTables",
        "check_fundamental",
        "flatten_to_order",
        "fundamental_nullspace",
        "h_from_germ",
        "normalization_system",
        "phi_psi",
        "solve_kernel",
        "uniqueness_nullspace",
    ),
    "audits": (
        "AuditReport",
        "KTransform",
        "identity_audit",
        "k_transform",
        "parity_audit",
        "recursion_audit",
    ),
    "case_tables": (),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}


def _register_lazily(name: str):
    """The submodule ``name``, in ``sys.modules`` but not run until first used."""
    spec = _find_spec(f"{__name__}.{name}")
    loader = _LazyLoader(spec.loader)
    spec.loader = loader
    module = _module_from_spec(spec)
    _sys.modules[spec.name] = module
    loader.exec_module(module)
    return module


for _name in _EXPORTS:
    globals()[_name] = _register_lazily(_name)
del _name


def __getattr__(name: str):
    try:
        module = _OWNER[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = globals()[name] = getattr(globals()[module], name)  # later reads skip this hook
    return value


__all__ = sorted([
    "errors",
    "ConsistencyError",
    "CrflatError",
    "DegenerateSliceError",
    "InconsistentSystemError",
    "ParseError",
    "PreconditionError",
    "UnderdeterminedSystemError",
    *_EXPORTS,
    *_OWNER,
])
__version__ = "0.1.0"


def __dir__():
    return sorted({*globals(), *__all__})
