"""Experiment drivers over tilted displacement objectives.

- certify_uniqueness: for each probe y, globally minimize J(., y) over a
  coercivity-truncated window and report how many separated minimum clusters
  were found.  Verdicts are sample-relative by design: the laboratory can
  refute uniqueness by exhibiting two clusters but can never prove it.
- find_fixed_point: minimize the displacement Phi (the upper envelope of J)
  and cross-check the saddle and strict-proximity conclusions around the
  minimizer.
- verify_saddle: grid checks of the saddle inequalities for an arbitrary
  zero-diagonal bifunctional around a proposed point.
- minimax_gap: both minimax envelopes on harvested candidate sets, computed
  so the weak-duality direction holds exactly.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import (
    FixedPointNotLocated,
    GrowthConditionNotMet,
    InfeasibleTruncation,
    MembershipViolation,
)
from .functional import Bifunctional, TiltedFunctional, coercivity_radius
from .maps import MEMBERSHIP_TOL, GrowthEstimate, evaluate_rows
from .optimize import (
    MinimizationResult,
    OptimizeConfig,
    SearchStatus,
    _Budget,
    direction_set,
    global_minimize,
    pattern_search,
)
from .spaces import FeasibleSet, NormSpec, SampleDomain, as_vector, norm, norms_of_rows

_STREAM_PRESCAN = 0x9E3
_STREAM_SADDLE_Y = 0xA11
_STREAM_SADDLE_X = 0xA12
_PRESCAN_COUNT = 16


class Verdict(enum.Enum):
    UNIQUE_ON_SAMPLES = "unique_on_samples"
    MULTIPLE_FOUND = "multiple_found"
    INCONCLUSIVE = "inconclusive"
    VACUOUS = "vacuous"


class EntryVerdict(enum.Enum):
    UNIQUE = "unique"
    MULTIPLE = "multiple"
    NO_MINIMUM = "no_minimum"
    INCONCLUSIVE = "inconclusive"


def effective_growth_bound(kappa_info: GrowthEstimate) -> tuple[float, float]:
    """Convert an asymptotic growth estimate into (kappa, r0) valid at finite
    radius: ||f(x)|| <= kappa * ||x|| for ||x|| >= r0.

    With ||f(x)|| <= kappa_hat ||x|| + B, any slack s > 0 gives the ratio
    bound kappa_hat + s beyond B / s; the slack splits the headroom to 1/2.
    """
    if not kappa_info.satisfied:
        raise GrowthConditionNotMet(
            f"growth ratio estimate {kappa_info.kappa_hat} is not below 1/2"
        )
    if kappa_info.offset_bound <= 1e-12:
        return kappa_info.kappa_hat, 0.0
    slack = (0.5 - kappa_info.kappa_hat) / 2.0
    return kappa_info.kappa_hat + slack, kappa_info.offset_bound / slack


@dataclass(frozen=True)
class YEntry:
    y: tuple[float, ...]
    radius: float
    incumbent: float
    result: MinimizationResult
    verdict: EntryVerdict


@dataclass(frozen=True)
class UniquenessReport:
    entries: tuple[YEntry, ...]
    verdict: Verdict
    value_tolerance: float
    separation: float
    kappa_method: str
    kappa_hat: float | None
    margin: float


def _prescan_incumbent(
    F: TiltedFunctional, y: np.ndarray, seed: int, index: int
) -> float:
    """Cheap incumbent for J(., y): probe y itself (value 0 on the diagonal),
    the set's base witness, and a few seeded feasible points."""
    pilot = max(1.0, 2.0 * norm(y, F.norm))
    window = SampleDomain(F.domain, F.norm, pilot, 3)
    rng = np.random.default_rng(
        np.random.SeedSequence([seed, _STREAM_PRESCAN, index])
    )
    X = np.vstack((F.domain.ray_base, window.random_points(_PRESCAN_COUNT, rng)))
    X = X[F.domain.violations_of_rows(X) <= MEMBERSHIP_TOL]
    return float(min([0.0, *F.values_for_xs(X, y)]))


def _certify_probe(
    F: TiltedFunctional,
    y: np.ndarray,
    index: int,
    config: OptimizeConfig,
    bound: tuple[float, float] | None,
    margin: float,
    fixed_radius: float,
    objective=None,
) -> YEntry:
    """Globally minimize J(., y) for one probe and classify the clusters.

    ``bound`` is an :func:`effective_growth_bound` pair; the search runs in
    the coercive ball it licenses, or inside ``fixed_radius`` when it is
    None.  ``index`` seeds the prescan incumbent.  ``objective`` replaces
    J(., y) (the planted-instance hook).
    """
    if objective is not None:
        rows = None
        incumbent = float(min(objective(y), objective(F.domain.ray_base)))
    else:
        objective = F.tilt_objective(y)
        rows = lambda X: F.values_for_xs(X, y)
        incumbent = _prescan_incumbent(F, y, config.seed, index)
    if bound is None:
        radius = fixed_radius
    else:
        kappa_eff, r0 = bound
        radius = max(coercivity_radius(F, y, kappa_eff, r0, incumbent, margin), 1.0)
    result = global_minimize(
        objective, F.domain, radius, config, norm_spec=F.norm, objective_rows=rows
    )
    if result.cluster_count >= 2:
        verdict = EntryVerdict.MULTIPLE
    elif result.status is SearchStatus.NO_MINIMUM_SUSPECTED:
        verdict = EntryVerdict.NO_MINIMUM
    elif result.status is SearchStatus.BUDGET_EXHAUSTED:
        verdict = EntryVerdict.INCONCLUSIVE
    else:
        verdict = EntryVerdict.UNIQUE
    return YEntry(
        y=tuple(float(v) for v in y),
        radius=float(radius),
        incumbent=incumbent,
        result=result,
        verdict=verdict,
    )


def certify_uniqueness(
    F: TiltedFunctional,
    y_samples,
    kappa_info: GrowthEstimate | None,
    config: OptimizeConfig,
    margin: float = 1.0,
    radius_override: float | None = None,
    fallback_radius: float = 10.0,
    objective_override=None,
) -> UniquenessReport:
    """Per-probe global minimization of J(., y) with cluster counting.

    When the growth estimate does not license a coercive radius and no
    override is supplied, every probe runs inside the fallback radius and
    the overall verdict is capped at INCONCLUSIVE.  ``objective_override``
    replaces J(., y) by an arbitrary objective (a planted-instance hook used
    to validate the detector).
    """
    ys = [as_vector(y, F.dimension, "y sample") for y in y_samples]
    if not ys:
        raise ValueError("y_samples must be non-empty")
    for y in ys:
        v = F.domain.violation(y)
        if v > MEMBERSHIP_TOL:
            raise MembershipViolation(f"y sample outside the set by {v:.3e}")

    planted = objective_override is not None
    use_growth = (
        not planted
        and radius_override is None
        and kappa_info is not None
        and kappa_info.satisfied
    )
    bound = effective_growth_bound(kappa_info) if use_growth else None
    fixed_radius = fallback_radius if radius_override is None else radius_override
    entries = [
        _certify_probe(
            F, y, index, config, bound, margin, fixed_radius, objective_override
        )
        for index, y in enumerate(ys)
    ]

    if any(e.verdict is EntryVerdict.MULTIPLE for e in entries):
        overall = Verdict.MULTIPLE_FOUND
    elif any(e.verdict is EntryVerdict.NO_MINIMUM for e in entries):
        overall = Verdict.VACUOUS
    elif not planted and radius_override is None and not use_growth:
        overall = Verdict.INCONCLUSIVE
    elif any(e.verdict is EntryVerdict.INCONCLUSIVE for e in entries):
        overall = Verdict.INCONCLUSIVE
    else:
        overall = Verdict.UNIQUE_ON_SAMPLES

    if planted:
        kappa_method = "planted"
        kappa_hat = None
    elif kappa_info is None:
        kappa_method = "override" if radius_override is not None else "fallback"
        kappa_hat = None
    else:
        kappa_method = kappa_info.method.value
        if radius_override is not None:
            kappa_method += "+override"
        elif not kappa_info.satisfied:
            kappa_method += "+fallback"
        kappa_hat = kappa_info.kappa_hat
    return UniquenessReport(
        entries=tuple(entries),
        verdict=overall,
        value_tolerance=config.value_tolerance,
        separation=config.separation,
        kappa_method=kappa_method,
        kappa_hat=kappa_hat,
        margin=float(margin),
    )


@dataclass(frozen=True)
class SaddleReport:
    """Fixed-point location and the numeric saddle checks around it.

    ``row_max`` is the largest J(x_star, y) over probe ys (should not exceed
    the tolerance); ``strict_min`` the smallest J(x, x_star) over probe xs at
    least ``separation`` away (should be strictly positive); ``proximity_min``
    the smallest ||x - f(x)|| - ||x_star - f(x)|| over the same xs (the strict
    best-approximation property of the fixed point); ``criterion_gap_max``
    the largest J(f(x), x) - Phi(x) (should be <= 1e-12, the fixed-point
    criterion from the minimax route).  Pass flags are pure functions of the
    stored numbers and tolerances.
    """

    x_star: tuple[float, ...]
    residual: float
    radius: float
    row_max: float
    row_witness: tuple[float, ...]
    strict_min: float
    strict_witness: tuple[float, ...]
    proximity_min: float
    criterion_gap_max: float
    samples_used: int
    residual_tolerance: float
    check_tolerance: float
    separation: float
    kappa_method: str
    result: MinimizationResult

    @property
    def residual_ok(self) -> bool:
        return self.residual <= self.residual_tolerance

    @property
    def row_ok(self) -> bool:
        return self.row_max <= self.check_tolerance

    @property
    def strict_ok(self) -> bool:
        return self.strict_min > 0.0

    @property
    def proximity_ok(self) -> bool:
        return self.proximity_min > 0.0

    @property
    def criterion_ok(self) -> bool:
        return self.criterion_gap_max <= 1e-12


def _feasible_samples(
    F: TiltedFunctional, radius: float, count: int, seed: int, stream: int
) -> np.ndarray:
    window = SampleDomain(F.domain, F.norm, radius, 3)
    rng = np.random.default_rng(np.random.SeedSequence([seed, stream]))
    return window.random_points(count, rng)


def find_fixed_point(
    F: TiltedFunctional,
    kappa_info: GrowthEstimate,
    config: OptimizeConfig,
    check_samples: int = 200,
    seed: int | None = None,
    margin: float = 1.0,
    residual_tolerance: float = 1e-6,
    check_tolerance: float = 1e-6,
    residual_cap: float = 1e-4,
) -> SaddleReport:
    """Minimize the displacement Phi over a coercivity-truncated window and
    audit the saddle conclusions at the minimizer.

    Raises FixedPointNotLocated (carrying the report) when the residual stays
    above ``residual_cap``: either a hypothesis fails or the budget fell
    short.
    """
    if not kappa_info.satisfied:
        raise GrowthConditionNotMet(
            "growth ratio is not certified below 1/2; the displacement need "
            "not be coercive and the truncation is unjustified"
        )
    if seed is None:
        seed = config.seed
    kappa_eff, r0 = effective_growth_bound(kappa_info)
    base = F.domain.ray_base
    best_known = F.displacement(base)
    # Phi >= J(., base) pointwise, so the coercive radius for J(., base)
    # bounds the displacement search as well.
    radius = max(coercivity_radius(F, base, kappa_eff, r0, best_known, margin), 1.0)

    result = global_minimize(
        F.displacement_objective(),
        F.domain,
        radius,
        config,
        norm_spec=F.norm,
        objective_rows=F.displacements,
    )
    x_star = result.best_point
    residual = result.global_value

    Y = _feasible_samples(F, radius, check_samples, seed, _STREAM_SADDLE_Y)
    row_vals = F.values_for_ys(x_star, Y)
    iy = int(np.argmax(row_vals))
    row_max, row_witness = float(row_vals[iy]), Y[iy]

    X = _feasible_samples(F, radius, 3 * check_samples, seed, _STREAM_SADDLE_X)
    far = norms_of_rows(X - x_star[None, :], F.norm) >= config.separation
    X = X[far][: check_samples]
    if len(X) == 0:
        raise ValueError("no probe points at the required separation; enlarge radius")
    col_vals = F.values_for_xs(X, x_star)
    ix = int(np.argmin(col_vals))
    strict_min, strict_witness = float(col_vals[ix]), X[ix]

    FX = evaluate_rows(F.mapping, X, F.domain)
    prox = norms_of_rows(X - FX, F.norm) - norms_of_rows(
        x_star[None, :] - FX, F.norm
    )
    proximity_min = float(prox.min())

    FFX = evaluate_rows(F.mapping, FX, F.domain)
    criterion = (
        norms_of_rows(FX - FFX, F.norm)
        - norms_of_rows(X - FFX, F.norm)
        - norms_of_rows(X - FX, F.norm)
    )
    criterion_gap_max = float(criterion.max())

    report = SaddleReport(
        x_star=tuple(float(v) for v in x_star),
        residual=residual,
        radius=radius,
        row_max=row_max,
        row_witness=tuple(float(v) for v in row_witness),
        strict_min=strict_min,
        strict_witness=tuple(float(v) for v in strict_witness),
        proximity_min=proximity_min,
        criterion_gap_max=criterion_gap_max,
        samples_used=len(X),
        residual_tolerance=residual_tolerance,
        check_tolerance=check_tolerance,
        separation=config.separation,
        kappa_method=kappa_info.method.value,
        result=result,
    )
    if residual > residual_cap:
        raise FixedPointNotLocated(
            f"displacement minimum {residual:.3e} stayed above the cap "
            f"{residual_cap:.1e}",
            report=report,
        )
    return report


@dataclass(frozen=True)
class SaddleCheck:
    row_max: float
    row_witness: tuple[float, ...]
    column_min: float
    column_witness: tuple[float, ...]
    strict_min: float | None
    strict_witness: tuple[float, ...] | None
    row_ok: bool
    column_nonneg_ok: bool
    column_strict_ok: bool
    tolerance: float
    separation: float


def verify_saddle(
    J: Bifunctional,
    x_star,
    y_grid,
    x_grid,
    tol: float,
    separation: float = 1e-3,
    norm_spec: NormSpec | None = None,
) -> SaddleCheck:
    """Check J(x_star, y) <= tol over the y grid and J(x, x_star) > -tol over
    the x grid, with strict positivity beyond ``separation`` of x_star."""
    if not J.zero_diagonal:
        raise ValueError("saddle verification requires a zero-diagonal bifunctional")
    n = J.domain.dimension
    x_star = as_vector(x_star, n, "x_star")
    if J.domain.violation(x_star) > MEMBERSHIP_TOL:
        raise MembershipViolation("x_star is outside the domain")
    if norm_spec is None:
        norm_spec = NormSpec(n, 2.0)
    y_grid = np.asarray(y_grid, dtype=float)
    x_grid = np.asarray(x_grid, dtype=float)

    row_vals = J.row_values(x_star, y_grid)
    iy = int(np.argmax(row_vals))
    col_vals = J.column_values(x_grid, x_star)
    ix = int(np.argmin(col_vals))

    dist = norms_of_rows(x_grid - x_star[None, :], norm_spec)
    far = dist >= separation
    if far.any():
        far_vals = col_vals[far]
        k = int(np.argmin(far_vals))
        strict_min = float(far_vals[k])
        strict_witness = tuple(float(v) for v in x_grid[far][k])
        strict_ok = strict_min > 0.0
    else:
        strict_min, strict_witness, strict_ok = None, None, False

    return SaddleCheck(
        row_max=float(row_vals[iy]),
        row_witness=tuple(float(v) for v in y_grid[iy]),
        column_min=float(col_vals[ix]),
        column_witness=tuple(float(v) for v in x_grid[ix]),
        strict_min=strict_min,
        strict_witness=strict_witness,
        row_ok=bool(row_vals[iy] <= tol),
        column_nonneg_ok=bool(col_vals[ix] > -tol),
        column_strict_ok=bool(strict_ok),
        tolerance=float(tol),
        separation=float(separation),
    )


@dataclass(frozen=True)
class MinimaxGapReport:
    """Envelope values on the harvested candidate sets.

    lower = max over y candidates of the column minimum, upper = min over x
    candidates of the row maximum; computed on one shared value matrix, so
    lower <= upper holds exactly on every instance.  ``boundary_max_flag``
    reports a y maximizer on the truncation shell (the sup side has no
    coercivity license, so hitting the boundary is flagged rather than
    silently accepted).
    """

    lower: float
    upper: float
    gap: float
    x_witness: tuple[float, ...]
    y_witness: tuple[float, ...]
    boundary_max_flag: bool
    witness_distance: float
    evaluations: int
    radius: float
    resolution: int


class _InnerSolver:
    """Extremum of J with one argument fixed, warm-started along a walk.

    Scans a candidate pool, then polishes by pattern search from the better
    of the pool winner and the previous witness, both through one rows
    closure over the bifunctional's batched evaluators.
    ``outer_step`` scales both the inner termination and the warm initial
    step, so precision tracks what the outer walk needs; ``outer_step=None``
    solves at full precision.  Every evaluation is charged to ``budget``.
    """

    def __init__(
        self,
        J: Bifunctional,
        pool: np.ndarray,
        maximize: bool,
        free_is_y: bool,
        radius: float,
        norm_spec: NormSpec,
        config: OptimizeConfig,
        budget: _Budget,
    ):
        self.J = J
        self.pool = pool
        self.sign = -1.0 if maximize else 1.0
        self.free_is_y = free_is_y
        self.radius = radius
        self.norm_spec = norm_spec
        self.config = config
        self.budget = budget
        self.dirs = direction_set(J.domain.dimension, config.directions)
        self.pool_step = radius / 10.0
        self.warm: np.ndarray | None = None

    def solve(self, fixed: np.ndarray, outer_step: float | None = None) -> tuple[np.ndarray, float]:
        J, sign, budget = self.J, self.sign, self.budget
        if self.free_is_y:
            rows = lambda Z: sign * J.row_values(fixed, Z)
        else:
            rows = lambda Z: sign * J.column_values(Z, fixed)
        vals = rows(self.pool)
        budget.take(len(self.pool))
        k = int(np.argmin(vals))
        start, f0 = self.pool[k], float(vals[k])
        init = self.pool_step
        if outer_step is None:
            termination = self.config.termination_step
        else:
            termination = max(self.config.termination_step, 0.01 * outer_step)
        if self.warm is not None:
            fw = float(rows(self.warm[None, :])[0])
            budget.take(1)
            if fw < f0:
                start, f0 = self.warm, fw
                if outer_step is not None:
                    init = max(4.0 * outer_step, 256.0 * termination)
        z, fz = pattern_search(
            rows,
            J.domain,
            self.radius,
            self.norm_spec,
            start,
            f0,
            init,
            termination,
            self.config.shrink,
            self.dirs,
            budget,
        )
        self.warm = z
        return z, sign * fz


def _envelope_walk(
    envelope,
    x0: np.ndarray,
    domain: FeasibleSet,
    radius: float,
    norm_spec: NormSpec,
    dirs: np.ndarray,
    step0: float,
    termination: float,
    shrink: float,
) -> np.ndarray:
    """Compass walk minimizing an envelope whose evaluation precision adapts
    to the current step: ``envelope(z, outer_step)``.

    Each step level is one :func:`pattern_search` that ends at its first
    shrink.  The inner solve only needs enough precision to rank nearby
    trial points; the incumbent is re-anchored after every shrink so that
    comparisons stay consistent and the next inner solve is warm-started.
    Callers polish the returned endpoint at full precision afterwards.
    """
    x = np.asarray(x0, dtype=float)
    step = float(step0)
    walk_budget = _Budget(10 ** 18)  # never exhausted
    rows = lambda Z: np.array([envelope(z, step) for z in Z])
    fx = envelope(x, step)
    while step > termination:
        x, _ = pattern_search(
            rows, domain, radius, norm_spec, x, fx, step, step * shrink, shrink,
            dirs, walk_budget,
        )
        step *= shrink
        fx = envelope(x, step)
    return x


def minimax_gap(
    J: Bifunctional,
    radius: float,
    resolution: int,
    norm_spec: NormSpec | None = None,
    config: OptimizeConfig | None = None,
) -> MinimaxGapReport:
    """Both minimax envelopes of J over X truncated to the ambient ball.

    Nested grid optimization with pattern-search refinement harvests
    candidate points for each side; the reported envelopes are then read off
    one shared value matrix over the harvested sets, which makes the weak
    duality direction (lower <= upper) exact by construction.
    """
    n = J.domain.dimension
    if norm_spec is None:
        norm_spec = NormSpec(n, 2.0)
    if config is None:
        config = OptimizeConfig(
            coarse_grid=resolution, multistart=4, termination_step=1e-8, seed=0
        )
    budget = _Budget(10 ** 18)  # counts evaluations; never exhausted
    window = SampleDomain(J.domain, norm_spec, float(radius), resolution)
    G = window.grid_points()
    if len(G) == 0:
        raise InfeasibleTruncation(
            f"no feasible grid point inside the ball of radius {radius}"
        )
    rough = np.empty((len(G), len(G)))
    for i, x in enumerate(G):
        rough[i] = J.row_values(x, G)
    budget.take(rough.size)

    step0 = config.initial_step if config.initial_step is not None else radius / 10.0
    dirs = direction_set(n, config.directions)
    x_harvest: list[np.ndarray] = []
    y_harvest: list[np.ndarray] = []

    # Upper phase: minimize the row envelope sup_y J(x, .).
    upper_starts = G[np.argsort(rough.max(axis=1), kind="stable")[: config.multistart]]
    for x0 in upper_starts:
        sup_solver = _InnerSolver(J, G, True, True, radius, norm_spec, config, budget)
        x_end = _envelope_walk(
            lambda z, s: sup_solver.solve(z, s)[1],
            x0,
            J.domain,
            radius,
            norm_spec,
            dirs,
            step0,
            config.termination_step,
            config.shrink,
        )
        x_harvest.append(x_end)
        y_fin, _ = sup_solver.solve(x_end)
        y_harvest.append(y_fin)

    # Lower phase: maximize the column envelope inf_x J(., y); the inner
    # minimizations also scan the upper-phase endpoints so a good x is never
    # missed on the lower side.
    x_pool = np.vstack([G] + [x.reshape(1, -1) for x in x_harvest])
    lower_starts = G[np.argsort(-rough.min(axis=0), kind="stable")[: config.multistart]]
    for y0 in lower_starts:
        inf_solver = _InnerSolver(
            J, x_pool, False, False, radius, norm_spec, config, budget
        )
        y_end = _envelope_walk(
            lambda z, s: -inf_solver.solve(z, s)[1],
            y0,
            J.domain,
            radius,
            norm_spec,
            dirs,
            step0,
            config.termination_step,
            config.shrink,
        )
        y_harvest.append(y_end)
        x_fin, _ = inf_solver.solve(y_end)
        x_harvest.append(x_fin)

    # Matrix phase: one shared value matrix over the harvested sets.
    def _dedupe(rows: list[np.ndarray], cap: int) -> np.ndarray:
        arr = np.vstack([r.reshape(1, -1) for r in rows])
        _, first = np.unique(arr, axis=0, return_index=True)
        return arr[np.sort(first)][:cap]

    keep_grid = min(len(G), 128)
    S_x = _dedupe(
        x_harvest + list(G[np.argsort(rough.max(axis=1), kind="stable")[:keep_grid]]),
        256,
    )
    S_y = _dedupe(
        y_harvest + list(G[np.argsort(-rough.min(axis=0), kind="stable")[:keep_grid]]),
        256,
    )
    M = np.empty((len(S_x), len(S_y)))
    for i, x in enumerate(S_x):
        M[i] = J.row_values(x, S_y)
    budget.take(M.size)

    row_max = M.max(axis=1)
    col_min = M.min(axis=0)
    iu = int(np.argmin(row_max))
    il = int(np.argmax(col_min))
    upper = float(row_max[iu])
    lower = float(col_min[il])
    y_witness = S_y[il]
    x_witness = S_x[iu]
    boundary = radius - norm(y_witness, norm_spec) <= config.separation
    return MinimaxGapReport(
        lower=lower,
        upper=upper,
        gap=upper - lower,
        x_witness=tuple(float(v) for v in x_witness),
        y_witness=tuple(float(v) for v in y_witness),
        boundary_max_flag=bool(boundary),
        witness_distance=norm(x_witness - y_witness, norm_spec),
        evaluations=budget.used,
        radius=float(radius),
        resolution=int(resolution),
    )
