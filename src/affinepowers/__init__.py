"""Exact decompositions of polynomials into sums of powers of affine forms.

The univariate model is f(x) = sum_i coeff_i * (x - node_i)^exp_i over the
rationals; special cases with all exponents equal (Waring) or all nodes
equal (sparsest shift) have dedicated solvers, and a randomized projection
lifts the machinery to several variables.  Every algorithm certifies its
output by exact re-expansion before returning it.
"""

__version__ = "0.1.0"

from .classic import (
    SparsestResult,
    WaringResult,
    expand_sparsest,
    expand_waring,
    sparsest_shift,
    waring_decompose,
)
from .decompose import (
    AffineTerm,
    ConditionReport,
    Criterion,
    Decomposition,
    check_conditions,
    decompose_auto,
    decompose_big_exponents,
    decompose_big_gaps,
    decompose_distinct_nodes,
    decompose_small_intervals,
)
from .errors import (
    DeltaExhausted,
    DimensionMismatch,
    DuplicateAbscissa,
    ExactAlgebraError,
    FieldExtensionRequired,
    Inconsistent,
    IrrationalNodeDetected,
    ReconstructionFailed,
    UnsatisfiableSpec,
    ZeroPolynomial,
)
from .generate import InstanceSpec, generate_instance
from .multipoly import LinearForm, MultiPoly
from .multivariate import (
    AffineChange,
    BlackBox,
    MultiDecomposition,
    MultiTerm,
    expand_multi,
    multi_build,
    project_to_axis,
)
from .sde import (
    SDE,
    apply_sde,
    canonical_sde,
    find_min_sde,
    power_solutions,
    shifted_poly_solutions,
    wronskian,
)
from .unipoly import UniPoly, interpolate, rational_roots

__all__ = [
    "AffineChange",
    "AffineTerm",
    "BlackBox",
    "ConditionReport",
    "Criterion",
    "Decomposition",
    "DeltaExhausted",
    "DimensionMismatch",
    "DuplicateAbscissa",
    "ExactAlgebraError",
    "FieldExtensionRequired",
    "Inconsistent",
    "InstanceSpec",
    "IrrationalNodeDetected",
    "LinearForm",
    "MultiDecomposition",
    "MultiPoly",
    "MultiTerm",
    "ReconstructionFailed",
    "SDE",
    "SparsestResult",
    "UniPoly",
    "UnsatisfiableSpec",
    "WaringResult",
    "ZeroPolynomial",
    "apply_sde",
    "canonical_sde",
    "check_conditions",
    "decompose_auto",
    "decompose_big_exponents",
    "decompose_big_gaps",
    "decompose_distinct_nodes",
    "decompose_small_intervals",
    "expand_multi",
    "expand_sparsest",
    "expand_waring",
    "find_min_sde",
    "generate_instance",
    "interpolate",
    "multi_build",
    "power_solutions",
    "project_to_axis",
    "rational_roots",
    "shifted_poly_solutions",
    "sparsest_shift",
    "waring_decompose",
    "wronskian",
]
