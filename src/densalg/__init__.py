"""Exact supercommutative calculus on odd cotangent bundles and the algebra
of densities: canonical odd bracket, divergence and delta operators, the
canonical weighted lift, and exact classification of Poisson lifts."""

from .spoly import ANY, EVEN, MIXED, ODD, Chart, SPoly, Variable
from .spoly import ChartMismatchError, DensalgError, SubstitutionError, UnknownVariableError
from .brackets import (
    PINNED,
    DomainError,
    SignConvention,
    antibracket,
    convention_ledger,
    delta_op,
    divergence,
    divergence_full,
    divergence_wrt,
    pin_convention,
    r_ary_bracket,
    restrict_to_base,
)
from .lift import (
    CoordinateChange,
    DensityElement,
    OrientationError,
    WeightOneError,
    base_bracket,
    lift,
    lift_commutes_check,
    project_to_density,
    transform_density,
    transform_hatted,
)
from .classify import (
    KernelBasis,
    LieAlgebraData,
    classify_lifts,
    decompose,
    density_evolution,
    lie_poisson,
    master_check,
    master_residual_of_lift,
    q_manifold_lifts,
    supertrace_extension,
)
from .printing import poly_from_dict, poly_to_dict, poly_to_text

__all__ = [name for name in dir() if not name.startswith("_")]
