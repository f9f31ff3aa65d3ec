"""Counterexample sweeps: instantiate a map family over a parameter grid,
screen each instance by its growth ratio, run the per-probe uniqueness step,
and keep only two-cluster findings that survive re-verification at four
times the grid resolution with the value window halved.

A sweep cell is one (parameter point, norm, probe y) triple.  Cells are
independent and may run in worker processes; outcomes are merged in cell
index order, so the result does not depend on the worker count.
"""

from __future__ import annotations

import itertools
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .errors import MembershipViolation
from .experiments import _certify_probe, effective_growth_bound
from .functional import TiltedFunctional
from .maps import MEMBERSHIP_TOL, AffineMap, GrowthEstimate, MapSpec, growth_coefficient
from .optimize import Cluster, MinimizationResult, OptimizeConfig
from .spaces import FeasibleSet, MaxNorm, NormSpec, norm

_REVERIFY_FACTOR = 4
_SCORE_FLOOR = 1e-12


@dataclass(frozen=True)
class MapFamily:
    """A parameterized map template; ``parameters`` maps each swept name to
    its grid of values, in sweep order."""

    kind: str
    dimension: int
    parameters: tuple[tuple[str, tuple[float, ...]], ...]
    offset: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.kind not in FAMILY_BUILDERS:
            raise ValueError(
                f"unknown family '{self.kind}'; known: {sorted(FAMILY_BUILDERS)}"
            )
        params = tuple(
            (str(name), tuple(float(v) for v in values))
            for name, values in self.parameters
        )
        if not params or any(not values for _, values in params):
            raise ValueError("every swept parameter needs at least one value")
        object.__setattr__(self, "parameters", params)
        if self.offset is not None:
            b = tuple(float(v) for v in self.offset)
            if len(b) != self.dimension:
                raise ValueError("offset length mismatch")
            object.__setattr__(self, "offset", b)

    def parameter_points(self) -> list[tuple[tuple[str, float], ...]]:
        names = [name for name, _ in self.parameters]
        grids = [values for _, values in self.parameters]
        return [
            tuple(zip(names, combo)) for combo in itertools.product(*grids)
        ]

    def instantiate(self, point: tuple[tuple[str, float], ...]) -> MapSpec:
        values = dict(point)
        offset = self.offset if self.offset is not None else (0.0,) * self.dimension
        return FAMILY_BUILDERS[self.kind](self.dimension, values, offset)


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


FAMILY_BUILDERS = {
    "scaled_identity": _build_scaled_identity,
    "rotation_scale": _build_rotation_scale,
    "diagonal": _build_diagonal,
}


def planted_double_well(dimension: int, x0=None, spread: float = 1.0):
    """Objective with exactly two tied global minima ``spread`` apart along
    the first axis; the standard plant for validating the multiplicity
    detector."""
    center = np.zeros(dimension) if x0 is None else np.asarray(x0, dtype=float)
    half = spread / 2.0

    def objective(x: np.ndarray) -> float:
        d = np.asarray(x, dtype=float) - center
        rest = float(np.dot(d[1:], d[1:]))
        return (d[0] * d[0] - half * half) ** 2 + rest

    return objective


@dataclass(frozen=True)
class CellDescriptor:
    index: int
    params: tuple[tuple[str, float], ...]
    norm_p: float | MaxNorm
    y: tuple[float, ...]
    param_index: int
    norm_index: int


@dataclass(frozen=True)
class CellSummary:
    index: int
    params: tuple[tuple[str, float], ...]
    norm_p: float | MaxNorm
    y: tuple[float, ...]
    screened_out: bool
    kappa_hat: float | None
    radius: float | None
    cluster_count: int
    best_value: float | None


@dataclass(frozen=True)
class CounterexampleCandidate:
    """A surviving two-cluster finding with full provenance."""

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
    radius: float
    seed: int
    value_tolerance: float


@dataclass(frozen=True)
class SweepResult:
    candidates: tuple[CounterexampleCandidate, ...]
    summaries: tuple[CellSummary, ...]
    cells_total: int
    cells_screened_out: int
    findings_raw: int
    seed: int
    value_tolerance: float
    separation: float


@dataclass(frozen=True)
class _SweepContext:
    family: MapFamily
    domain: FeasibleSet
    config: OptimizeConfig
    margin: float
    fallback_radius: float
    planted_cell: int | None
    planted_spread: float


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


def _run_cell(
    ctx: _SweepContext, cell: CellDescriptor, kappa_info: GrowthEstimate | None
):
    """One sweep cell; returns (summary, candidate-or-None, raw_finding).
    ``kappa_info`` is the pair's growth estimate; the planted cell ignores it."""
    planted = ctx.planted_cell is not None and ctx.planted_cell == cell.index
    if not planted and not kappa_info.satisfied:
        summary = CellSummary(
            index=cell.index,
            params=cell.params,
            norm_p=cell.norm_p,
            y=cell.y,
            screened_out=True,
            kappa_hat=kappa_info.kappa_hat,
            radius=None,
            cluster_count=0,
            best_value=None,
        )
        return summary, None, False

    F = TiltedFunctional(
        norm=NormSpec(ctx.family.dimension, cell.norm_p),
        domain=ctx.domain,
        mapping=ctx.family.instantiate(cell.params),
    )
    y = np.array(cell.y, dtype=float)
    if planted:
        objective = planted_double_well(ctx.family.dimension, spread=ctx.planted_spread)
        bound, kappa_hat, kappa_method = None, None, "planted"
    else:
        objective = None
        bound = effective_growth_bound(kappa_info)
        kappa_hat, kappa_method = kappa_info.kappa_hat, kappa_info.method.value

    def certify(config: OptimizeConfig):
        return _certify_probe(
            F, y, cell.index, config, bound, ctx.margin, ctx.fallback_radius, objective
        )

    coarse = certify(ctx.config)
    summary = CellSummary(
        index=cell.index,
        params=cell.params,
        norm_p=cell.norm_p,
        y=cell.y,
        screened_out=False,
        kappa_hat=kappa_hat,
        radius=coarse.radius,
        cluster_count=coarse.result.cluster_count,
        best_value=coarse.result.global_value,
    )
    if coarse.result.cluster_count < 2:
        return summary, None, False

    # Re-verify at finer resolution with the value window halved; most
    # coarse two-cluster findings are optimizer artifacts.  The finer config
    # keeps the seed, so the step recomputes the same incumbent and radius.
    finer = replace(
        ctx.config,
        coarse_grid=_REVERIFY_FACTOR * ctx.config.coarse_grid,
        value_tolerance=ctx.config.value_tolerance / 2.0,
    )
    fine_result = certify(finer).result
    if fine_result.cluster_count < 2:
        return summary, None, True

    value_gap, separation = _candidate_metrics(fine_result, F.norm)
    candidate = CounterexampleCandidate(
        cell_index=cell.index,
        params=cell.params,
        norm_p=cell.norm_p,
        y=cell.y,
        clusters=fine_result.clusters,
        value_gap=value_gap,
        separation=separation,
        score=separation / (value_gap + _SCORE_FLOOR),
        status=f"confirmed_at_{_REVERIFY_FACTOR}x",
        kappa_method=kappa_method,
        radius=coarse.radius,
        seed=ctx.config.seed,
        value_tolerance=finer.value_tolerance,
    )
    return summary, candidate, True


def ctx_param_key(cell: CellDescriptor) -> int:
    return cell.param_index * 1009 + cell.norm_index


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
    planted_spread: float = 2.0,
) -> SweepResult:
    """Sweep (parameter point, norm exponent, probe y) cells hunting for
    two-cluster instances of J(., y).

    Instances whose growth ratio is not certified below 1/2 are screened out
    and counted.  ``planted_cell`` replaces the objective of one cell by the
    built-in tied double well, which must yield exactly one candidate; this
    validates the detector inside the sweep machinery.  An empty candidate
    list is a valid outcome.
    """
    y_arr = np.asarray(y_points, dtype=float)
    if y_arr.ndim != 2 or y_arr.shape[1] != family.dimension:
        raise ValueError("y_points must be a (k, dimension) array")
    if len(y_arr) == 0:
        raise ValueError("y_points must be non-empty")
    worst = float(domain.violations_of_rows(y_arr).max())
    if worst > MEMBERSHIP_TOL:
        raise MembershipViolation(f"a probe y is outside the set by {worst:.3e}")
    points = family.parameter_points()
    cells = [
        CellDescriptor(
            index=i,
            params=params,
            norm_p=p,
            y=tuple(float(v) for v in y),
            param_index=pi,
            norm_index=ni,
        )
        for i, (pi, params, ni, p, y) in enumerate(
            (pi, params, ni, p, y)
            for pi, params in enumerate(points)
            for ni, p in enumerate(norms)
            for y in y_arr
        )
    ]
    if planted_cell is not None and not 0 <= planted_cell < len(cells):
        raise ValueError(
            f"planted_cell {planted_cell} is not one of the sweep's {len(cells)} cells"
        )
    ctx = _SweepContext(
        family=family,
        domain=domain,
        config=config,
        margin=float(margin),
        fallback_radius=float(fallback_radius),
        planted_cell=planted_cell,
        planted_spread=float(planted_spread),
    )
    # A growth estimate and its seed depend only on the cell's (parameter
    # point, norm) pair, so one estimate serves every probe y of the pair.
    radii = tuple(float(r) for r in growth_radii)
    growth: dict[int, GrowthEstimate] = {}
    for c in cells:
        key = ctx_param_key(c)
        if c.index != planted_cell and key not in growth:
            growth[key] = growth_coefficient(
                family.instantiate(c.params),
                NormSpec(family.dimension, c.norm_p),
                radii,
                int(growth_directions),
                seed=config.seed + 7919 * key,
                domain=domain,
            )
    kappas = [growth.get(ctx_param_key(c)) for c in cells]
    if jobs > 1 and len(cells) > 1:
        with ProcessPoolExecutor(max_workers=int(jobs)) as pool:
            outcomes = list(
                pool.map(_run_cell, itertools.repeat(ctx), cells, kappas, chunksize=8)
            )
    else:
        outcomes = [_run_cell(ctx, c, k) for c, k in zip(cells, kappas)]

    summaries = tuple(o[0] for o in outcomes)
    candidates = [o[1] for o in outcomes if o[1] is not None]
    findings_raw = sum(1 for o in outcomes if o[2])
    candidates.sort(key=lambda c: (-c.score, c.cell_index))
    return SweepResult(
        candidates=tuple(candidates),
        summaries=summaries,
        cells_total=len(cells),
        cells_screened_out=sum(1 for s in summaries if s.screened_out),
        findings_raw=findings_raw,
        seed=config.seed,
        value_tolerance=config.value_tolerance,
        separation=config.separation,
    )
