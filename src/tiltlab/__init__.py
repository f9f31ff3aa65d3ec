"""tiltlab: a desk-scale laboratory for a minimax route to fixed points.

Evaluate and globally minimize the tilted displacement objective
J(x, y) = ||x - f(x)|| - ||y - f(x)|| over closed convex unbounded sets in
finite-dimensional normed spaces, certify whether J(., y) shows a single
global-minimum cluster, audit the saddle and fixed-point conclusions that
the minimax route predicts, and sweep map/norm families hunting for
instances with two separated minimum clusters.
"""

from .errors import (
    ConfigError,
    DimensionMismatch,
    FixedPointNotLocated,
    GrowthConditionNotMet,
    InfeasibleTruncation,
    MembershipViolation,
    RangeViolation,
)
from .spaces import (
    INF,
    ConeIntersection,
    FeasibleSet,
    FullSpace,
    HalfSpace,
    MaxNorm,
    NormSpec,
    Orthant,
    SampleDomain,
    contains,
    norm,
    norms_of_rows,
    project,
)
from .maps import (
    AffineMap,
    BoundedPerturbedMap,
    ConstantMap,
    FIELD_CATALOG,
    GrowthEstimate,
    GrowthMethod,
    MapSpec,
    ProjectedMap,
    analytic_fixed_point,
    evaluate,
    growth_coefficient,
    induced_operator_norm,
)
from .functional import (
    TiltedFunctional,
    coercivity_radius,
    displacement,
    tilted_value,
)
from .optimize import (
    Cluster,
    MinimizationResult,
    OptimizeConfig,
    SearchStatus,
    brute_force_minima,
    global_minimize,
    pattern_search,
)
from .experiments import (
    EntryVerdict,
    MinimaxGapReport,
    SaddleCheck,
    SaddleReport,
    UniquenessReport,
    Verdict,
    YEntry,
    certify_uniqueness,
    effective_growth_bound,
    find_fixed_point,
    minimax_gap,
    verify_saddle,
)
from .sweep import (
    CounterexampleCandidate,
    MapFamily,
    SweepResult,
    planted_double_well,
    search_counterexample,
)

__version__ = "0.1.0"

__all__ = [
    "AffineMap",
    "BoundedPerturbedMap",
    "Cluster",
    "ConeIntersection",
    "ConfigError",
    "ConstantMap",
    "CounterexampleCandidate",
    "DimensionMismatch",
    "EntryVerdict",
    "FIELD_CATALOG",
    "FeasibleSet",
    "FixedPointNotLocated",
    "FullSpace",
    "GrowthConditionNotMet",
    "GrowthEstimate",
    "GrowthMethod",
    "HalfSpace",
    "INF",
    "InfeasibleTruncation",
    "MapFamily",
    "MapSpec",
    "MaxNorm",
    "MembershipViolation",
    "MinimaxGapReport",
    "MinimizationResult",
    "NormSpec",
    "OptimizeConfig",
    "Orthant",
    "ProjectedMap",
    "RangeViolation",
    "SaddleCheck",
    "SaddleReport",
    "SampleDomain",
    "SearchStatus",
    "SweepResult",
    "TiltedFunctional",
    "UniquenessReport",
    "Verdict",
    "YEntry",
    "analytic_fixed_point",
    "brute_force_minima",
    "certify_uniqueness",
    "coercivity_radius",
    "contains",
    "displacement",
    "effective_growth_bound",
    "evaluate",
    "find_fixed_point",
    "global_minimize",
    "growth_coefficient",
    "induced_operator_norm",
    "minimax_gap",
    "norm",
    "norms_of_rows",
    "pattern_search",
    "planted_double_well",
    "project",
    "search_counterexample",
    "tilted_value",
    "verify_saddle",
]
