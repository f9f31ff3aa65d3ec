"""Counterexample sweeps: instantiate a map family over a parameter grid,
screen each instance by its growth ratio, run the uniqueness step over the
unscreened cells, and keep only two-cluster findings that survive
re-verification at four times the grid resolution with the value window
halved.

A sweep cell is one (parameter point, norm, probe y) triple, and is its
summary; each (parameter point, norm) pair has one J and one growth estimate.
The cells of one norm, across parameter points, are probes of one batched
search: one pattern search per norm refines them all, each cell with its own
radius and budget.  Runs of one norm's cells may go to worker processes;
outcomes are merged in cell index order, so the result does not depend on
the worker count.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np

from .errors import DimensionMismatch
from .experiments import Probe, _certify_probes, effective_growth_bound
from .functional import TiltedFunctional
from .maps import AffineMap, GrowthEstimate, MapSpec, growth_coefficient, shell_radii
from .optimize import Cluster, MinimizationResult, OptimizeConfig
from .spaces import (
    FeasibleSet, MaxNorm, NormSpec, finite_tuple, norm, positive_int,
)

_REVERIFY_FACTOR = 4
_SCORE_FLOOR = 1e-12
_PLANTED_SPREAD = 2.0


@dataclass(frozen=True)
class MapFamily:
    """A parameterized map template; ``parameters`` maps each swept name to
    its grid of values, in sweep order.  It must name each parameter its
    kind takes in its dimension once, and no other."""

    kind: str
    dimension: int
    parameters: tuple[tuple[str, tuple[float, ...]], ...]
    offset: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.kind not in FAMILY_BUILDERS:
            raise ValueError(
                f"unknown family '{self.kind}'; known: {sorted(FAMILY_BUILDERS)}"
            )
        object.__setattr__(self, "dimension", positive_int(self.dimension))
        params = tuple(
            (str(name), finite_tuple(values, f"parameter {name}"))
            for name, values in self.parameters
        )
        if any(not values for _, values in params):
            raise ValueError("every swept parameter needs at least one value")
        object.__setattr__(self, "parameters", params)
        if self.offset is not None:
            offset = finite_tuple(self.offset, "offset", self.dimension)
            object.__setattr__(self, "offset", offset)
        takes = sorted(FAMILY_BUILDERS[self.kind][0](self.dimension))
        given = [name for name, _ in params]
        if sorted(given) != takes:
            raise ValueError(
                f"family '{self.kind}' takes each of the parameters {takes} once, "
                f"got {given}"
            )
        # One instance now, so that what the builder refuses (a dimension)
        # fails here and not inside the sweep.
        self.instantiate(tuple((name, values[0]) for name, values in params))

    def parameter_points(self) -> list[tuple[tuple[str, float], ...]]:
        names = [name for name, _ in self.parameters]
        grids = [values for _, values in self.parameters]
        return [
            tuple(zip(names, combo)) for combo in itertools.product(*grids)
        ]

    def instantiate(self, point: tuple[tuple[str, float], ...]) -> MapSpec:
        values = dict(point)
        offset = self.offset if self.offset is not None else (0.0,) * self.dimension
        return FAMILY_BUILDERS[self.kind][1](self.dimension, values, offset)


def _build_scaled_identity(n: int, params: dict, offset) -> MapSpec:
    theta = params["theta"]
    matrix = tuple(
        tuple(theta if i == j else 0.0 for j in range(n)) for i in range(n)
    )
    return AffineMap(dimension=n, matrix=matrix, offset=offset)


def _build_rotation_scale(n: int, params: dict, offset) -> MapSpec:
    if n != 2:
        raise ValueError("rotation_scale family is two-dimensional")
    theta, phi = params["theta"], params["phi"]
    c, s = float(np.cos(phi)), float(np.sin(phi))
    matrix = ((theta * c, -theta * s), (theta * s, theta * c))
    return AffineMap(dimension=2, matrix=matrix, offset=offset)


def _build_diagonal(n: int, params: dict, offset) -> MapSpec:
    diag = [params[f"d{i}"] for i in range(n)]
    matrix = tuple(
        tuple(diag[i] if i == j else 0.0 for j in range(n)) for i in range(n)
    )
    return AffineMap(dimension=n, matrix=matrix, offset=offset)


# kind -> (the names of its parameters in dimension n, its builder)
FAMILY_BUILDERS = {
    "scaled_identity": (lambda n: ("theta",), _build_scaled_identity),
    "rotation_scale": (lambda n: ("phi", "theta"), _build_rotation_scale),
    "diagonal": (lambda n: tuple(f"d{i}" for i in range(n)), _build_diagonal),
}


def sweep_norm_specs(dimension: int, norms) -> list[NormSpec]:
    """One norm per swept exponent; ``ValueError`` for no exponent or an
    invalid one."""
    if len(norms) == 0:
        raise ValueError("a sweep needs at least one p value")
    return [NormSpec(dimension, p) for p in norms]


def require_planted_cell(planted_cell: int | None, family: MapFamily, norms, probes: int):
    """``ValueError`` unless ``planted_cell`` is None or a cell of the sweep."""
    count = len(family.parameter_points()) * len(norms) * probes
    if planted_cell is not None and not 0 <= planted_cell < count:
        raise ValueError(f"planted_cell {planted_cell} is not one of the sweep's {count} cells")


def planted_double_well(dimension: int, spread: float = 1.0):
    """Rows objective with exactly two tied global minima ``spread`` apart
    along the first axis, centred at the origin; the standard plant for
    validating the multiplicity detector."""
    half = spread / 2.0

    def rows(X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.shape[1:] != (dimension,):
            raise DimensionMismatch(f"expected a (k, {dimension}) array, got {X.shape}")
        return (X[:, 0] ** 2 - half * half) ** 2 + (X[:, 1:] ** 2).sum(axis=1)

    return rows


@dataclass(frozen=True)
class CellSummary:
    """Sweep cell ``index``, its (parameter point, norm exponent, probe y)
    triple, and its outcome; the defaults are those of a screened-out cell."""

    index: int
    params: tuple[tuple[str, float], ...]
    norm_p: float | MaxNorm
    y: tuple[float, ...]
    screened_out: bool = True
    kappa_hat: float | None = None
    radius: float | None = None
    cluster_count: int = 0
    best_value: float | None = None


@dataclass(frozen=True)
class CounterexampleCandidate:
    """A two-cluster finding that survived re-verification, with its cell."""

    cell_index: int
    params: tuple[tuple[str, float], ...]
    norm_p: float | MaxNorm
    y: tuple[float, ...]
    clusters: tuple[Cluster, ...]
    value_gap: float
    separation: float
    score: float
    status: str
    kappa_method: str


@dataclass(frozen=True)
class SweepResult:
    candidates: tuple[CounterexampleCandidate, ...]
    summaries: tuple[CellSummary, ...]
    cells_total: int
    cells_screened_out: int
    findings_raw: int
    value_tolerance: float
    separation: float


@dataclass(frozen=True)
class _SweepContext:
    config: OptimizeConfig
    margin: float
    fallback_radius: float
    planted_cell: int | None


def _candidate_metrics(
    result: MinimizationResult, norm_spec: NormSpec
) -> tuple[float, float]:
    values = [c.value for c in result.clusters]
    value_gap = float(max(values) - min(values))
    points = [c.point_array for c in result.clusters]
    separation = min(
        norm(a - b, norm_spec)
        for i, a in enumerate(points)
        for b in points[i + 1 :]
    )
    return value_gap, float(separation)


def _run_cells(
    ctx: _SweepContext, cells: list[tuple[CellSummary, TiltedFunctional, GrowthEstimate]]
) -> list[tuple[CellSummary, CounterexampleCandidate | None]]:
    """Cells of one norm, each given as its screened-out summary, its
    pair's J and its pair's growth estimate; returns (summary,
    candidate-or-None) per cell, in order.  The planted cell ignores the
    growth estimate.

    One :func:`_certify_probes` call searches every cell that passes the
    screen, so one lockstep pattern search refines them all, and one more
    re-verifies every cell whose search found two clusters."""
    outcomes = []
    searched = []  # (position, probe, kappa_hat, kappa_method) per unscreened cell
    for summary, F, growth in cells:
        y = np.array(summary.y, dtype=float)
        if summary.index == ctx.planted_cell:
            objective = planted_double_well(F.dimension, _PLANTED_SPREAD)
            probe = Probe(F, y, summary.index, None, objective)
            searched.append((len(outcomes), probe, None, "planted"))
        elif growth.satisfied:
            probe = Probe(F, y, summary.index, effective_growth_bound(growth))
            searched.append((len(outcomes), probe, growth.kappa_hat, growth.method.value))
        outcomes.append((replace(summary, kappa_hat=growth.kappa_hat), None))

    def certify(work, config: OptimizeConfig):
        probes = [probe for _, probe, _, _ in work]
        return zip(work, _certify_probes(probes, config, ctx.margin, ctx.fallback_radius))

    twice = []  # the work items whose coarse search found two clusters
    for item, coarse in certify(searched, ctx.config):
        position, _, kappa_hat, _ = item
        outcomes[position] = (replace(
            cells[position][0],
            screened_out=False,
            kappa_hat=kappa_hat,
            radius=coarse.radius,
            cluster_count=coarse.result.cluster_count,
            best_value=coarse.result.global_value,
        ), None)
        if coarse.result.cluster_count >= 2:
            twice.append(item)

    # Re-verify at finer resolution with the value window halved; most
    # coarse two-cluster findings are optimizer artifacts.  The finer config
    # keeps the seed, so each probe gets the same incumbent and radius.
    finer = replace(
        ctx.config,
        coarse_grid=_REVERIFY_FACTOR * ctx.config.coarse_grid,
        value_tolerance=ctx.config.value_tolerance / 2.0,
    )
    for (position, probe, _, kappa_method), entry in certify(twice, finer):
        fine = entry.result
        if fine.cluster_count < 2:
            continue
        summary = outcomes[position][0]
        value_gap, separation = _candidate_metrics(fine, probe.F.norm)
        outcomes[position] = (summary, CounterexampleCandidate(
            cell_index=summary.index,
            params=summary.params,
            norm_p=summary.norm_p,
            y=summary.y,
            clusters=fine.clusters,
            value_gap=value_gap,
            separation=separation,
            score=separation / (value_gap + _SCORE_FLOOR),
            status=f"confirmed_at_{_REVERIFY_FACTOR}x",
            kappa_method=kappa_method,
        ))
    return outcomes


def search_counterexample(
    family: MapFamily,
    norms: list[float | MaxNorm],
    domain: FeasibleSet,
    y_points,
    config: OptimizeConfig,
    margin: float = 1.0,
    fallback_radius: float = 10.0,
    growth_radii=(100.0, 1_000.0, 10_000.0),
    growth_directions: int = 32,
    jobs: int = 1,
    planted_cell: int | None = None,
) -> SweepResult:
    """Sweep (parameter point, norm exponent, probe y) cells hunting for
    two-cluster instances of J(., y).

    Instances whose growth ratio is not certified below 1/2 are screened out
    and counted.  ``planted_cell`` replaces the objective of one cell by the
    built-in tied double well, which must yield exactly one candidate; this
    validates the detector inside the sweep machinery.  An empty candidate
    list is a valid outcome.  ``norms`` must hold at least one valid
    exponent.  ``jobs`` (an integer >= 1) caps the worker processes, of
    which there are never more than cells.
    """
    jobs = positive_int(jobs, "jobs")
    growth_directions = positive_int(growth_directions, "growth_directions")
    norm_specs = sweep_norm_specs(family.dimension, norms)
    y_arr = np.asarray(y_points, dtype=float)
    if y_arr.ndim != 2 or y_arr.shape[1] != family.dimension:
        raise ValueError("y_points must be a (k, dimension) array")
    if len(y_arr) == 0:
        raise ValueError("y_points must be non-empty")
    ys = [tuple(domain.require(y, "probe y").tolist()) for y in y_arr]
    require_planted_cell(planted_cell, family, norm_specs, len(ys))
    ctx = _SweepContext(config, float(margin), float(fallback_radius), planted_cell)
    radii = shell_radii(growth_radii, "growth_radii")
    # J and the growth estimate depend only on the (parameter point, norm)
    # pair, so one of each serves every probe y of the pair.  The growth
    # seed folds the pair into one integer, which repeats once a sweep has
    # 1010 norms; each estimate still stays with its own pair.
    cells = 0
    by_norm = [[] for _ in norms]  # each norm's cells, in cell order
    for pi, params in enumerate(family.parameter_points()):
        mapping = family.instantiate(params)
        for ni, (p, norm_spec) in enumerate(zip(norms, norm_specs)):
            F = TiltedFunctional(norm=norm_spec, domain=domain, mapping=mapping)
            growth = growth_coefficient(
                mapping, norm_spec, radii, growth_directions,
                seed=config.seed + 7919 * (pi * 1009 + ni), domain=domain,
            )
            for y in ys:
                by_norm[ni].append((CellSummary(cells, params, p, y), F, growth))
                cells += 1
    # A unit of work is a run of one norm's cells, searched in one lockstep;
    # each norm is cut into as many units as there are workers.  Under fork
    # the pool starts all its workers at the first submit, so it never gets
    # more workers than cells.
    workers = min(jobs, cells)
    units = []
    for run in by_norm:
        size = -(-len(run) // workers)  # the ceiling of len(run) / workers
        units += [run[i : i + size] for i in range(0, len(run), size)]
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # only --jobs > 1 loads it
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_run_cells, itertools.repeat(ctx), units))
    else:
        outcomes = [_run_cells(ctx, unit) for unit in units]
    outcomes = sorted(itertools.chain(*outcomes), key=lambda o: o[0].index)

    summaries = tuple(s for s, _ in outcomes)
    candidates = [c for _, c in outcomes if c is not None]
    candidates.sort(key=lambda c: (-c.score, c.cell_index))
    return SweepResult(
        candidates=tuple(candidates),
        summaries=summaries,
        cells_total=cells,
        cells_screened_out=sum(1 for s in summaries if s.screened_out),
        # Screened cells carry cluster_count 0, so this counts the cells
        # whose coarse search found two clusters.
        findings_raw=sum(1 for s in summaries if s.cluster_count >= 2),
        value_tolerance=config.value_tolerance,
        separation=config.separation,
    )
