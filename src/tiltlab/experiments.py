"""Experiment drivers over tilted displacement objectives.

- certify_uniqueness: for each probe y, globally minimize J(., y) over a
  coercivity-truncated window and report how many separated minimum clusters
  were found; one lockstep search refines every probe.  Verdicts are
  sample-relative by design: the laboratory can refute uniqueness by
  exhibiting two clusters but can never prove it.
- find_fixed_point: minimize the displacement Phi (the upper envelope of J)
  and cross-check the saddle and strict-proximity conclusions around the
  minimizer.
- verify_saddle: grid checks of the saddle inequalities for an arbitrary
  zero-diagonal bifunctional around a proposed point.
- minimax_gap: both minimax envelopes on harvested candidate sets, computed
  so the weak-duality direction holds exactly, for a J with an exact row
  envelope (Phi for a tilted J).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import FixedPointNotLocated, GrowthConditionNotMet, InfeasibleTruncation
from .functional import Bifunctional, TiltedFunctional, coercivity_radius, tilted_rows
from .maps import GrowthEstimate, evaluate_rows
from .optimize import (
    MinimizationResult,
    OptimizeConfig,
    SearchStatus,
    _Budget,
    direction_set,
    first_argmin,
    global_minimize,
    global_minimize_batch,
    pattern_search,
)
from .spaces import (
    MEMBERSHIP_TOL,
    NormSpec,
    SampleDomain,
    as_rows,
    first_rows,
    in_ball,
    norm,
    norms_of_rows,
)

_STREAM_PRESCAN = 0x9E3
_STREAM_SADDLE_Y = 0xA11
_STREAM_SADDLE_X = 0xA12
_PRESCAN_COUNT = 16
_MATRIX_BLOCK = 4096  # pairs per kernel call of a value matrix
_SADDLE_BLOCK = 8192  # probe rows per block of verify_saddle

# find_fixed_point's thresholds for residual_ok and row_ok, and the residual
# above which the fixed point counts as not located.
RESIDUAL_TOLERANCE = 1e-6
CHECK_TOLERANCE = 1e-6
RESIDUAL_CAP = 1e-4


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
    return float(min([0.0, *F.pairs(X, y[None, :])]))


class Probe(NamedTuple):
    """One J(., y) to minimize: ``F`` and the probe ``y``.  ``index`` seeds
    the prescan incumbent; ``bound``, an :func:`effective_growth_bound`
    pair, licenses the coercive ball (None: the fixed radius);
    ``objective``, a rows function, replaces J(., y) (the planted-instance
    hook), and its incumbent is its lesser value at y and at the set's
    base witness."""

    F: TiltedFunctional
    y: np.ndarray
    index: int
    bound: tuple[float, float] | None = None
    objective: Callable[[np.ndarray], np.ndarray] | None = None


def _probe_rows(probes: Sequence[Probe]):
    """The batched objective over ``probes``, which share one norm and one
    set: row i is J(X[i], y) of probe ``owners[i]``, or its override.

    A call walks the runs of adjacent rows whose probes share a kernel (one
    map, or one override).  An override's run is one call of it.  A map's
    run is one range-checked ``evaluate_rows``, so a :class:`RangeViolation`
    names the worst row of its run.  Then one :func:`tilted_rows` computes
    J's two norms over every J row of the call.  A row's value does not
    depend on its batch, so each row has its own probe's ``F.pairs`` bits."""
    Y = np.array([p.y for p in probes])
    norm_spec, domain = probes[0].F.norm, probes[0].F.domain
    overridden = np.array([p.objective is not None for p in probes])
    mixed = bool(overridden.any())  # else every row is a J row
    kernels, kinds, seen = [], [], {}
    for p in probes:
        kernel = p.F.mapping if p.objective is None else p.objective
        if id(kernel) not in seen:
            seen[id(kernel)] = len(kernels)
            kernels.append(kernel)
        kinds.append(seen[id(kernel)])
    kinds = np.array(kinds)

    def rows(X, owners):
        kind = kinds[owners]
        edges = [0, *(np.flatnonzero(kind[1:] != kind[:-1]) + 1).tolist(), len(X)]
        out, FX = np.empty(len(X)), np.empty_like(X)
        for a, b in zip(edges, edges[1:]):
            if overridden[owners[a]]:
                out[a:b] = kernels[kind[a]](X[a:b])
            else:
                FX[a:b] = evaluate_rows(kernels[kind[a]], X[a:b], domain)
        J = ~overridden[owners] if mixed else slice(None)
        out[J] = tilted_rows(X[J], Y[owners[J]], FX[J], norm_spec)
        return out

    return rows


def _certify_probes(
    probes: Sequence[Probe],
    config: OptimizeConfig,
    margin: float,
    fixed_radius: float,
) -> list[YEntry]:
    """Globally minimize J(., y) for every probe and classify each probe's
    clusters; one :class:`YEntry` per probe, in order.

    Each probe gets its prescan incumbent and its radius: the coercive one
    its ``bound`` licenses, or ``fixed_radius``.  Then one
    :func:`global_minimize_batch` searches every probe, so one lockstep
    pattern search refines them all; the probes must share one norm and
    one set, and each keeps its own radius and budget.
    """
    if not probes:
        return []
    radii, incumbents = [], []
    for p in probes:
        if p.objective is None:
            incumbent = _prescan_incumbent(p.F, p.y, config.seed, p.index)
        else:
            incumbent = float(min(p.objective(np.vstack((p.y, p.F.domain.ray_base)))))
        if p.bound is None:
            radius = fixed_radius
        else:
            kappa_eff, r0 = p.bound
            radius = max(coercivity_radius(p.F, p.y, kappa_eff, r0, incumbent, margin), 1.0)
        radii.append(radius)
        incumbents.append(incumbent)
    F = probes[0].F
    if any(p.F.norm != F.norm or p.F.domain != F.domain for p in probes):
        raise ValueError("the probes of one batched search must share one norm and one set")
    results = global_minimize_batch(_probe_rows(probes), F.domain, radii, config, F.norm)
    entries = []
    for p, radius, incumbent, result in zip(probes, radii, incumbents, results):
        if result.cluster_count >= 2:
            verdict = EntryVerdict.MULTIPLE
        elif result.status is SearchStatus.NO_MINIMUM_SUSPECTED:
            verdict = EntryVerdict.NO_MINIMUM
        elif result.status is SearchStatus.BUDGET_EXHAUSTED:
            verdict = EntryVerdict.INCONCLUSIVE
        else:
            verdict = EntryVerdict.UNIQUE
        entries.append(YEntry(
            y=tuple(float(v) for v in p.y),
            radius=float(radius),
            incumbent=incumbent,
            result=result,
            verdict=verdict,
        ))
    return entries


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

    Each probe has its own coercive radius and evaluation budget, and one
    :func:`_certify_probes` step searches them all, so one lockstep pattern
    search refines every probe.
    When the growth estimate does not license a coercive radius and no
    override is supplied, every probe runs inside the fallback radius and
    the overall verdict is capped at INCONCLUSIVE.  ``objective_override``,
    a rows function ``(k, n) -> (k,)``, replaces J(., y) (a planted-instance
    hook used to validate the detector).
    """
    ys = [F.domain.require(y, "y sample") for y in y_samples]
    if not ys:
        raise ValueError("y_samples must be non-empty")

    planted = objective_override is not None
    use_growth = (
        not planted
        and radius_override is None
        and kappa_info is not None
        and kappa_info.satisfied
    )
    bound = effective_growth_bound(kappa_info) if use_growth else None
    fixed_radius = fallback_radius if radius_override is None else radius_override
    probes = [Probe(F, y, index, bound, objective_override) for index, y in enumerate(ys)]
    entries = _certify_probes(probes, config, margin, fixed_radius)

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
    stored numbers and tolerances.  The proximity difference is J(x, x_star),
    so ``proximity_min`` is ``strict_min`` of the same check, bit for bit.
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
) -> SaddleReport:
    """Minimize the displacement Phi over a coercivity-truncated window and
    audit the saddle conclusions at the minimizer.

    Raises FixedPointNotLocated (carrying the report) when the residual stays
    above ``RESIDUAL_CAP``: either a hypothesis fails or the budget fell
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

    result = global_minimize(F.displacements, F.domain, radius, config, F.norm)
    x_star = result.best_point
    residual = result.global_value

    Y = _feasible_samples(F, radius, check_samples, seed, _STREAM_SADDLE_Y)
    X = _feasible_samples(F, radius, 3 * check_samples, seed, _STREAM_SADDLE_X)
    far = norms_of_rows(X - x_star[None, :], F.norm) >= config.separation
    X = X[far][: check_samples]
    if len(X) == 0:
        raise ValueError("no probe points at the required separation; enlarge radius")
    # Every x is far, so the strict (and proximity) minimum is over all of X.
    check = verify_saddle(
        F.as_bifunctional(), x_star, Y, X, CHECK_TOLERANCE, config.separation, F.norm
    )

    # The fixed-point criterion J(f(x), x) - Phi(x) from the minimax route.
    phi, FX = F.row_sup(X)
    criterion_gap_max = float((F.pairs(FX, X) - phi).max())

    report = SaddleReport(
        x_star=tuple(float(v) for v in x_star),
        residual=residual,
        radius=radius,
        row_max=check.row_max,
        row_witness=check.row_witness,
        strict_min=check.strict_min,
        strict_witness=check.strict_witness,
        proximity_min=check.strict_min,
        criterion_gap_max=criterion_gap_max,
        samples_used=len(X),
        residual_tolerance=RESIDUAL_TOLERANCE,
        check_tolerance=CHECK_TOLERANCE,
        separation=config.separation,
        kappa_method=kappa_info.method.value,
        result=result,
    )
    if residual > RESIDUAL_CAP:
        raise FixedPointNotLocated(
            f"displacement minimum {residual:.3e} stayed above the cap "
            f"{RESIDUAL_CAP:.1e}",
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
    the x grid, with strict positivity beyond ``separation`` of x_star.

    Each grid must be a (k, n) array of members of J's domain.  Both are
    checked and valued in blocks of ``_SADDLE_BLOCK`` rows, whose
    temporaries stay in cache; a row's values do not depend on its block,
    and the extremes are taken over the assembled vectors, so the first
    witness wins as over whole grids."""
    if not J.zero_diagonal:
        raise ValueError("saddle verification requires a zero-diagonal bifunctional")
    if not 0.0 <= tol < np.inf:
        raise ValueError(f"tol must be a finite number >= 0, got {tol}")
    x_star = J.domain.require(x_star, "x_star")
    n = J.domain.dimension
    if norm_spec is None:
        norm_spec = NormSpec(n, 2.0)
    y_grid = as_rows(y_grid, n, "y_grid")
    x_grid = as_rows(x_grid, n, "x_grid")
    if len(y_grid) == 0 or len(x_grid) == 0:
        raise InfeasibleTruncation(
            f"saddle checks need probe points: the y grid has {len(y_grid)} "
            f"and the x grid {len(x_grid)}"
        )

    row_vals = np.empty(len(y_grid))
    for s in range(0, len(y_grid), _SADDLE_BLOCK):
        Y = y_grid[s : s + _SADDLE_BLOCK]
        J.domain.require_rows(Y, "y_grid", s)
        row_vals[s : s + len(Y)] = J.pairs(x_star[None, :], Y)
    col_vals = np.empty(len(x_grid))
    far = np.empty(len(x_grid), dtype=bool)
    for s in range(0, len(x_grid), _SADDLE_BLOCK):
        X = x_grid[s : s + _SADDLE_BLOCK]
        J.domain.require_rows(X, "x_grid", s)
        col_vals[s : s + len(X)] = J.pairs(X, x_star[None, :])
        far[s : s + len(X)] = norms_of_rows(X - x_star[None, :], norm_spec) >= separation
    iy = int(np.argmax(row_vals))
    ix = int(np.argmin(col_vals))

    far_at = np.flatnonzero(far)
    if len(far_at):
        i = int(far_at[np.argmin(col_vals[far_at])])
        strict_min = float(col_vals[i])
        strict_witness = tuple(float(v) for v in x_grid[i])
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
    """Envelope values on the harvested candidate sets S_x and S_y.

    lower = max over y in S_y of the column minimum of one shared value
    matrix M[i, j] = J(S_x[i], S_y[j]).  upper = min over x in S_x of J's
    exact row envelope ``row_sup``, sup over all y in X of J(x, y) (Phi(x)
    for a tilted J), so ``upper`` is a true upper bound on the truncated
    inf_x sup_y J, up to the rounding of Phi.  lower <= upper holds exactly on
    every instance: every M[i, j] is at most its row's envelope bit for
    bit, a NaN entry reads -inf in its column minimum, a NaN envelope reads
    +inf, and a matrix that is NaN everywhere is a ValueError.
    ``boundary_max_flag`` reports a y maximizer on the truncation shell
    (the sup side has no coercivity license, so hitting the boundary is
    flagged rather than silently accepted).
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


def _value_matrix(J: Bifunctional, X, Y, budget: _Budget) -> np.ndarray:
    """M[i, j] = J(X[i], Y[j]), one kernel call per block of whole rows of
    at most _MATRIX_BLOCK pairs (or one row); M.size is charged to budget.
    A row of ``pairs`` does not depend on its batch, so neither does M."""
    step = max(1, _MATRIX_BLOCK // len(Y))
    blocks = []
    for i in range(0, len(X), step):
        Xb = X[i : i + step]
        blocks.append(J.pairs(np.repeat(Xb, len(Y), axis=0), np.tile(Y, (len(Xb), 1))))
    M = np.concatenate(blocks).reshape(len(X), len(Y))
    budget.take(M.size)
    return M


def _minimize_row_sup(
    J: Bifunctional,
    starts: np.ndarray,
    radius: float,
    norm_spec: NormSpec,
    config: OptimizeConfig,
    budget: _Budget,
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Minimize J's row envelope x -> sup_y J(x, y) from each start by one
    lockstep :func:`pattern_search` on ``J.row_sup``; return the endpoints
    and those of their maximisers that lie in the truncation ball.  Every
    envelope row is charged to ``budget``: the search charges its in-ball
    trials, the rows it evaluates."""
    budget.take(len(starts))
    step0 = config.initial_step if config.initial_step is not None else radius / 10.0
    dirs = direction_set(J.domain.dimension, config.directions)
    X, _ = pattern_search(
        lambda X: J.row_sup(X)[0], J.domain, radius, norm_spec, starts, J.row_sup(starts)[0],
        step0, config.termination_step, config.shrink, dirs, budget,
    )
    budget.take(len(X))
    Y = J.row_sup(X)[1]
    return list(X), list(Y[in_ball(Y, radius, norm_spec)])


def _minimize_columns(
    J: Bifunctional,
    pool: np.ndarray,
    Y: np.ndarray,
    radius: float,
    norm_spec: NormSpec,
    config: OptimizeConfig,
    budget: _Budget,
) -> tuple[np.ndarray, np.ndarray]:
    """Minimize J(., y) for each row y of Y: endpoints (S, n) and values
    (S,).  One value matrix over ``pool`` x Y gives each y its start, the
    first argmin of its column (NaN never wins); then one lockstep
    :func:`pattern_search`, each start partnered with its own y, refines
    them all from step radius / 10.  Every evaluation is charged to
    ``budget``."""
    M = _value_matrix(J, pool, Y, budget)
    k = [first_argmin(column) for column in M.T]
    dirs = direction_set(J.domain.dimension, config.directions)
    return pattern_search(
        J.pairs, J.domain, radius, norm_spec, pool[k], M[k, np.arange(len(Y))],
        radius / 10.0, config.termination_step, config.shrink, dirs, budget, partners=Y,
    )


def minimax_gap(
    J: Bifunctional,
    radius: float,
    resolution: int,
    norm_spec: NormSpec | None = None,
    config: OptimizeConfig | None = None,
) -> MinimaxGapReport:
    """Both minimax envelopes of J over X truncated to the ambient ball.

    J must carry its exact row envelope ``row_sup`` (Phi for a tilted J);
    without one this is a ValueError, raised before any evaluation.  One
    order of the rough grid by J's envelope (NaN last) gives every grid
    start and candidate.  The upper phase minimizes the envelope
    x -> sup_y J(x, y) by one lockstep pattern search from the m grid
    points of least envelope; its y candidates are the envelope's
    maximisers at the endpoints inside the ball.  The lower phase
    minimizes J(., y) once, at those candidates and the same m grid
    points: at a saddle point (x*, y*) of J, such as (x*, x*) of a tilted
    J, both approximate the y that attains sup_y inf_x J.
    ``upper`` is then the least row envelope over the x candidates, and
    ``lower`` is read off one shared value matrix over the harvested sets,
    which makes the weak duality direction (lower <= upper) exact by
    construction.
    """
    if J.row_sup is None:
        raise ValueError("minimax_gap needs J's exact row envelope row_sup; it has none")
    n = J.domain.dimension
    if norm_spec is None:
        norm_spec = NormSpec(n, 2.0)
    if config is None:
        config = OptimizeConfig(
            coarse_grid=resolution, multistart=4, termination_step=1e-8, seed=0
        )
    budget = _Budget(10 ** 18)  # counts evaluations; never exhausted
    G = SampleDomain(J.domain, norm_spec, float(radius), resolution).require_grid()
    budget.take(len(G))
    best = np.argsort(J.row_sup(G)[0], kind="stable")  # NaN sorts last
    m = config.multistart

    # Upper phase: minimize the row envelope sup_y J(x, .).
    x_ends, y_fins = _minimize_row_sup(J, G[best[:m]], radius, norm_spec, config, budget)
    # Lower phase: at a saddle point (x*, y*) of J, such as (x*, x*) of a
    # tilted J, sup_y inf_x J is attained at y*, which the upper witnesses
    # approximate, and so do the grid points of least Phi: one inf_x J(x, y)
    # solve at both stands in for a walk.  Its scan also covers the
    # upper-phase endpoints so a good x is never missed on the lower side.
    Y_c = np.vstack([*y_fins, G[best[:m]]])
    x_pool = np.vstack([G, *x_ends])
    x_fins = list(_minimize_columns(J, x_pool, Y_c, radius, norm_spec, config, budget)[0])

    # Matrix phase: one shared value matrix over the harvested sets.
    def _dedupe(rows: list[np.ndarray], cap: int) -> np.ndarray:
        arr = np.vstack([r.reshape(1, -1) for r in rows])
        return arr[first_rows(arr)][:cap]

    S_x = _dedupe(x_ends + x_fins + list(G[best[:128]]), 256)
    S_y = _dedupe(list(Y_c) + list(G[best[:128]]), 256)
    M = _value_matrix(J, S_x, S_y, budget)
    nan = np.isnan(M)
    if nan.all():
        raise ValueError("J is NaN on every pair of the value matrix")
    col_min = np.where(nan, -np.inf, M).min(axis=0)
    budget.take(len(S_x))  # every M[i, j] <= row_sup(S_x)[0][i], bit for bit
    row_max = J.row_sup(S_x)[0]
    row_max = np.where(np.isnan(row_max), np.inf, row_max)
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
