"""Experiment drivers over tilted displacement objectives.

- certify_uniqueness: for each probe y, globally minimize J(., y) over a
  coercivity-truncated window and report how many separated minimum clusters
  were found; one lockstep search refines every probe.  Verdicts are
  sample-relative by design: the laboratory can refute uniqueness by
  exhibiting two clusters but can never prove it.
- find_fixed_point: minimize the displacement Phi (the upper envelope of J)
  and cross-check the saddle and strict-proximity conclusions around the
  minimizer.
- verify_saddle: grid checks of the saddle inequalities of J around a
  proposed point.
- minimax_gap: both minimax envelopes on harvested candidate sets, computed
  so the weak-duality direction holds exactly, J's upper one from its exact
  row envelope Phi.
"""

from __future__ import annotations

import contextlib
import enum
from dataclasses import dataclass
from functools import reduce
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import FixedPointNotLocated, GrowthConditionNotMet, InfeasibleTruncation
from .functional import (
    TiltedFunctional, coercivity_radius, mesh_displace, mesh_images, mesh_norms, tilted_rows,
)
from .maps import GrowthEstimate, evaluate_rows, range_checked
from .optimize import (
    MinimizationResult,
    OptimizeConfig,
    SearchStatus,
    _Budget,
    _values_by_problem,
    direction_set,
    first_argmin,
    global_minimize,
    global_minimize_batch,
    pattern_search,
)
from .spaces import (
    MEMBERSHIP_TOL,
    MESH_BLOCK_FLOATS,
    NormSpec,
    SampleDomain,
    as_rows,
    first_rows,
    in_ball,
    norm,
    norms_of_rows,
    sample_windows,
    scratch,
)

_STREAM_PRESCAN = 0x9E3
_STREAM_SADDLE_Y = 0xA11
_STREAM_SADDLE_X = 0xA12
_PRESCAN_COUNT = 16
_MATRIX_BLOCK = 4096  # pairs per kernel call of a value matrix

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


def _prescan_rows(probes: Sequence[Probe], seed: int) -> list[np.ndarray]:
    """The points of each probe's cheap incumbent: for J(., y) the set's
    base witness and a few seeded feasible points, for an override y too.
    The probes share one set and one norm: every J(., y) window is sampled
    in one :func:`sample_windows` pass, and its points are tested in one
    ``violations_of_rows`` call."""
    F = probes[0].F
    base, drawn = F.domain.ray_base, [p for p in probes if p.objective is None]
    windows, draws = [], []
    for p, size in zip(drawn, norms_of_rows([p.y for p in drawn], F.norm) if drawn else []):
        window = SampleDomain(F.domain, F.norm, max(1.0, 2.0 * float(size)), 3)
        rng = np.random.default_rng(np.random.SeedSequence([seed, _STREAM_PRESCAN, p.index]))
        windows.append(window)
        draws.append((_PRESCAN_COUNT, window.uniform(rng)))
    samples = iter(sample_windows(windows, draws)[1])
    rows = [np.vstack((p.y, base)) if p.objective is not None else np.vstack((base, next(samples)))
            for p in probes]
    member = F.domain.violations_of_rows(np.concatenate(rows)) <= MEMBERSHIP_TOL
    members = np.split(member, np.cumsum([len(X) for X in rows[:-1]]))
    return [X if p.objective is not None else X[m] for p, X, m in zip(probes, rows, members)]


def _incumbent(probe: Probe, seed: int, values=None) -> float:
    """A probe's incumbent: the least of its prescan ``values`` (one call
    of its own objective when None), and of J(y, y) = 0 for J(., y)."""
    plant = probe.objective
    if values is None:
        (X,) = _prescan_rows([probe], seed)
        values = probe.F.pairs(X, probe.y[None, :]) if plant is None else plant(X)
    return float(min([0.0, *values])) if plant is None else float(min(values))


def _probe_rows(probes: Sequence[Probe]):
    """The batched objective over ``probes``, which share one norm and one
    set: row i is J(X[i], y) of probe ``owners[i]``, or its override.

    A call walks the runs of adjacent rows whose probes share a kernel: one
    override, one F whose class has its own ``pairs``, or one map.  An
    override's run is one call of it, and an own kernel's run one call
    ``F.pairs(X, Y)`` with each row's own y.  A map's run is one
    ``raw_rows`` call, and one ``violations_of_rows`` call range-checks the
    rows of every run that :func:`range_checked` names; on a failure (a NaN
    fails) or an exception the runs are walked again in order through
    ``evaluate_rows``, so that a :class:`RangeViolation` names the worst row
    of its run.  Then one :func:`tilted_rows` computes J's two norms over
    every formula row of the call.  A row's value does not depend on its
    batch, so each row has its own probe's ``F.pairs`` bits."""
    Y = np.array([p.y for p in probes])
    norm_spec, domain = probes[0].F.norm, probes[0].F.domain
    formula = np.array([p.objective is None and type(p.F).pairs is TiltedFunctional.pairs
                        for p in probes])
    mixed = not formula.all()  # else every row is a formula row
    checked = formula & [range_checked(p.F.mapping, domain) for p in probes]
    some, every = checked.any(), checked.all()
    kinds, seen = [], {}
    for p, by_formula in zip(probes, formula):
        kernel = p.F.mapping if by_formula else p.F if p.objective is None else p.objective
        kinds.append(seen.setdefault(id(kernel), len(seen)))
    kinds = np.array(kinds)

    def rows(X, owners):
        kind = kinds[owners]
        edges = [0, *(np.flatnonzero(kind[1:] != kind[:-1]) + 1).tolist(), len(X)]
        out, FX = np.empty(len(X)), np.empty_like(X)

        def walk(image):
            for a, b in zip(edges, edges[1:]):
                p = probes[owners[a]]
                if formula[owners[a]]:
                    FX[a:b] = image(p.F.mapping, X[a:b], domain)
                elif p.objective is not None:
                    out[a:b] = p.objective(X[a:b])
                else:
                    out[a:b] = p.F.pairs(X[a:b], Y[owners[a:b]])

        try:
            walk(lambda f, X, domain: f.raw_rows(X, domain))
            fits = not some or (domain.violations_of_rows(
                FX if every else FX[checked[owners]]) <= MEMBERSHIP_TOL).all()
        except Exception:  # the ordered walk raises what its first failing run raises
            fits = False
        if not fits:
            walk(evaluate_rows)
        J = formula[owners] if mixed else slice(None)
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
    its ``bound`` licenses, or ``fixed_radius``.  Every probe's prescan
    window is sampled in one :func:`_prescan_rows` pass and its rows are
    valued in one :func:`_probe_rows` call; when either raises, each
    probe's are sampled and valued alone, in probe order, so that the step
    raises what such calls raise.  Then one :func:`global_minimize_batch`
    searches every probe, its grids and random starts snapped in one more
    pass, so one lockstep pattern search refines them all; the probes must
    share one norm and one set, and each keeps its own radius and budget.
    """
    if not probes:
        return []
    F = probes[0].F
    shared = all(p.F.norm == F.norm and p.F.domain == F.domain for p in probes)
    values = [None] * len(probes)  # else valued one probe at a time below
    with contextlib.suppress(Exception):
        if shared:
            values = _values_by_problem(_probe_rows(probes), _prescan_rows(probes, config.seed))
    radii, incumbents = [], []
    for p, prescan in zip(probes, values):
        incumbent = _incumbent(p, config.seed, prescan)
        if p.bound is None:
            radius = fixed_radius
        else:
            kappa_eff, r0 = p.bound
            radius = max(coercivity_radius(p.F, p.y, kappa_eff, r0, incumbent, margin), 1.0)
        radii.append(radius)
        incumbents.append(incumbent)
    if not shared:
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

    window = SampleDomain(F.domain, F.norm, radius, 3)
    y_rng, x_rng = (np.random.default_rng(np.random.SeedSequence([seed, stream]))
                    for stream in (_STREAM_SADDLE_Y, _STREAM_SADDLE_X))
    draws = [(check_samples, window.uniform(y_rng)), (3 * check_samples, window.uniform(x_rng))]
    Y, X = sample_windows([window, window], draws)[1]
    far = norms_of_rows(X - x_star[None, :], F.norm) >= config.separation
    X = X[far][: check_samples]
    if len(X) == 0:
        raise ValueError("no probe points at the required separation; enlarge radius")
    # Every x is far, so the strict (and proximity) minimum is over all of X.
    check = verify_saddle(F, x_star, Y, X, CHECK_TOLERANCE, config.separation)

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
    F: TiltedFunctional,
    x_star,
    y_grid,
    x_grid,
    tol: float,
    separation: float = 1e-3,
) -> SaddleCheck:
    """Check J(x_star, y) <= tol over the y grid and J(x, x_star) > -tol over
    the x grid, with strict positivity beyond ``separation`` of x_star in
    F's norm.

    Each grid is a (k, n) array of members of F's set, or a
    :class:`SampleDomain` window whose grid points are the probes.  When
    both are one window on F's set, F has a mesh form
    (:attr:`~tiltlab.functional.TiltedFunctional.mesh_form`), and the
    window's norm is under p in {1, 2, inf}, no grid is built: the
    window's ``hull`` blocks (:meth:`SampleDomain.blocks`) of at most
    ``MESH_BLOCK_FLOATS // n`` points are valued in mesh form.  There
    J(x_star, y) = Phi(x_star) - ||y - f(x_star)|| and ||x - x_star|| are
    folds of per-axis terms, bit for bit the rows' values, and
    J(x, x_star) = ||x - f(x)|| - ||x_star - f(x)|| takes f from
    :func:`~tiltlab.functional.mesh_images`, whose last bits may differ
    from the rows'.  A block whose members fill less than a third of it is
    valued as their rows instead.  Otherwise the grids are checked and
    valued through ``F.pairs`` in blocks of as many rows.  A value does not
    depend on the rest of its block, and each extreme keeps its first
    witness in the grid's order, as over whole grids."""
    if not 0.0 <= tol < np.inf:
        raise ValueError(f"tol must be a finite number >= 0, got {tol}")
    if not 0.0 < separation < np.inf:
        raise ValueError(f"separation must be positive and finite, got {separation}")
    x_star = F.domain.require(x_star, "x_star")
    n = F.dimension
    cap = MESH_BLOCK_FLOATS // n
    walk = _SaddleWalk(F, x_star, separation)
    window = y_grid if isinstance(y_grid, SampleDomain) and y_grid is x_grid else None
    if (window is not None and F.mesh_form and window.domain == F.domain
            and window.norm.fold is not None):
        walk.mesh(window.blocks(cap, hull=True), cap)
        if walk.row.best is None:
            _no_probes(0, 0)
    else:
        if window is not None:
            y_grid = x_grid = window.grid_points()
        y_grid, x_grid = (as_rows(g.grid_points() if isinstance(g, SampleDomain) else g, n, name)
                          for g, name in ((y_grid, "y_grid"), (x_grid, "x_grid")))
        if len(y_grid) == 0 or len(x_grid) == 0:
            _no_probes(len(y_grid), len(x_grid))
        for s in range(0, len(y_grid), cap):
            Y = y_grid[s : s + cap]
            F.domain.require_rows(Y, "y_grid", s)
            walk.ys(Y)
        for s in range(0, len(x_grid), cap):
            X = x_grid[s : s + cap]
            F.domain.require_rows(X, "x_grid", s)
            walk.xs(X)
    row_max, row_witness = walk.row.result()
    column_min, column_witness = walk.col.result()
    strict_min, strict_witness = walk.strict.result()
    return SaddleCheck(
        row_max=row_max,
        row_witness=row_witness,
        column_min=column_min,
        column_witness=column_witness,
        strict_min=strict_min,
        strict_witness=strict_witness,
        row_ok=bool(row_max <= tol),
        column_nonneg_ok=bool(column_min > -tol),
        column_strict_ok=strict_min is not None and strict_min > 0.0,
        tolerance=float(tol),
        separation=float(separation),
    )


def _no_probes(ys: int, xs: int):
    raise InfeasibleTruncation(
        f"saddle checks need probe points: the y grid has {ys} and the x grid {xs}"
    )


class _SaddleWalk:
    """verify_saddle's three extremes, fed block by block in grid order:
    J(x_star, y) over the ys, J(x, x_star) over the xs, and the latter over
    the xs at least ``separation`` from x_star in F's norm."""

    def __init__(self, F, x_star, separation):
        self.F, self.x_star, self.separation = F, x_star, separation
        self.row = _FirstExtreme("argmax", -np.inf)
        self.col = _FirstExtreme("argmin", np.inf)
        self.strict = _FirstExtreme("argmin", np.inf)

    def ys(self, Y):
        self.row.add(self.F.pairs(self.x_star[None, :], Y), None, Y.__getitem__)

    def xs(self, X):
        values = self.F.pairs(X, self.x_star[None, :])
        self.col.add(values, None, X.__getitem__)
        far = norms_of_rows(X - self.x_star[None, :], self.F.norm) >= self.separation
        self.strict.add(values, far, X.__getitem__)

    def mesh(self, blocks, cap: int):
        """The members of a window's hull blocks as ys and xs, in mesh form;
        in a block they fill less than a third of, where the mesh form would
        value three times the members, as their rows through ``F.pairs``,
        which wait, in order, to be valued together up to ``cap`` at a
        time."""
        F, x_star, n, separation = self.F, self.x_star, self.F.dimension, self.separation
        fold = F.norm.fold
        waiting: list[np.ndarray] = []

        def sparse(block):
            inside = block.inside
            return inside is not None and 3 * np.count_nonzero(inside) < inside.size

        def flush():
            if waiting:
                X = waiting[0] if len(waiting) == 1 else np.concatenate(waiting)
                waiting.clear()
                self.ys(X)
                self.xs(X)

        phi = None
        with scratch() as room:
            for block, f in mesh_images(F, blocks, rows=sparse):
                if f is None:
                    waiting.append(block.rows())
                    if sum(map(len, waiting)) >= cap:
                        flush()
                    continue
                flush()
                if phi is None:  # Phi(x_star) and f(x_star), as pairs forms them
                    phi, (fx,) = F.row_sup(x_star[None, :])
                lead, tail, inside = block.lead, block.tail, block.inside
                axes = [np.array([v]) for v in lead] + tail
                shape, size = [len(a) for a in axes], f.shape[1]
                at = lambda i, block=block: block.gather(
                    np.unravel_index([i], [len(a) for a in block.tail]))[0]
                # J(x, x_star) = ||x - f|| - ||x_star - f||, each formed in
                # place; the work rows then hold J(x_star, y) and the
                # distances to x_star, folds of the axes' terms.
                work = room(0, (max(n, 2), size))
                star = mesh_norms(fold, np.subtract(x_star[:, None], f, out=work[:n]))
                xs = mesh_norms(fold, mesh_displace(lead, tail, f))
                xs = np.subtract(xs, star, out=xs).reshape(shape)
                ys = fold.mesh([a - v for a, v in zip(axes, fx)], out=work[0].reshape(shape))
                self.row.add(np.subtract(phi, fold.finished(ys, out=ys), out=ys), inside, at)
                # When the fold of each axis's least distance term reaches
                # the separation, every probe's does: the strict minimum is
                # the column minimum.
                gaps = [a - v for a, v in zip(axes, x_star)]
                least = reduce(fold.ufunc, [t.min() for t in fold.axis_terms(gaps)])
                entry = self.col.add(xs, inside, at)
                if entry is not None and fold.finished(least) >= separation:
                    self.strict.offer(entry)
                    continue
                far = fold.mesh(gaps, out=work[1].reshape(shape))
                far = fold.finished(far, out=far) >= separation
                if inside is not None:
                    far &= inside
                self.strict.add(xs, far, at)
        flush()


class _FirstExtreme:
    """The first extreme, as ``argmax`` or ``argmin`` (``arg``) finds it, of
    values given block by block in grid order, each block's over a mask of
    its members (all when None): each block's own first extreme, kept when
    it beats the best so far, a NaN beating every number as in ``arg``.  A
    block's values outside its mask are overwritten by ``fill``, which only
    a member's fill ties, so a second extreme over a smaller mask may
    follow on the same values."""

    def __init__(self, arg: str, fill: float):
        self.arg, self.fill, self.best = arg, fill, None
        self.beats = (lambda a, b: a > b) if arg == "argmax" else (lambda a, b: a < b)

    def add(self, values, mask, point) -> tuple | None:
        """A block's values, its mask and ``point(i)``, the probe at flat
        index i: the block's entry, or None when the mask keeps nothing."""
        if mask is not None:
            np.copyto(values, self.fill, where=~mask)
        i = int(getattr(values, self.arg)())
        if mask is not None and not mask.flat[i]:  # no member, or each reads the fill
            if not mask.any():
                return None
            i = int(mask.argmax())
        entry = (float(values.flat[i]), point, i)
        self.offer(entry)
        return entry

    def offer(self, entry: tuple):
        best = self.best
        value = entry[0]  # a NaN beats every number, and is beaten by none
        if best is None or (best[0] == best[0] and (value != value or self.beats(value, best[0]))):
            self.best = entry

    def result(self) -> tuple[float | None, tuple[float, ...] | None]:
        if self.best is None:
            return None, None
        value, point, i = self.best
        return value, tuple(point(i).tolist())


@dataclass(frozen=True)
class MinimaxGapReport:
    """Envelope values on the harvested candidate sets S_x and S_y.

    lower = max over y in S_y of the column minimum of one shared value
    matrix M[i, j] = J(S_x[i], S_y[j]).  upper = min over x in S_x of J's
    exact row envelope Phi(x) = sup over all y in X of J(x, y), so
    ``upper`` is a true upper bound on the truncated inf_x sup_y J, up to
    the rounding of Phi.  lower <= upper holds exactly on every instance:
    every M[i, j] is at most its row's envelope bit for bit, a NaN entry
    reads -inf in its column minimum, a NaN envelope reads +inf, and a
    matrix that is NaN everywhere is a ValueError.
    ``boundary_max_flag`` reports a y maximizer on the truncation shell
    (the sup side has no coercivity license, so hitting the boundary is
    flagged rather than silently accepted).  ``evaluations`` counts the
    rough grid's envelope rows, the rows the two searches charge (those of
    their lockstep, not the unused rows of their step ladders), the value
    matrices and the x candidates' envelope rows.
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


def _value_matrix(F: TiltedFunctional, X, Y, budget: _Budget) -> np.ndarray:
    """M[i, j] = J(X[i], Y[j]), one kernel call per block of whole rows of
    at most _MATRIX_BLOCK pairs (or one row); M.size is charged to budget.
    A row of ``pairs`` does not depend on its batch, so neither does M."""
    step = max(1, _MATRIX_BLOCK // len(Y))
    blocks = []
    for i in range(0, len(X), step):
        Xb = X[i : i + step]
        blocks.append(F.pairs(np.repeat(Xb, len(Y), axis=0), np.tile(Y, (len(Xb), 1))))
    M = np.concatenate(blocks).reshape(len(X), len(Y))
    budget.take(M.size)
    return M


def _minimize_row_sup(
    F: TiltedFunctional,
    starts: np.ndarray,
    start_values: np.ndarray,
    radius: float,
    config: OptimizeConfig,
    budget: _Budget,
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Minimize J's row envelope Phi from each start, whose envelope value
    is ``start_values``, by one lockstep :func:`pattern_search` on
    ``F.row_sup``; return the endpoints and those of their maximisers that
    lie in the truncation ball.  Every envelope row it evaluates is charged
    to ``budget``."""
    step0 = config.initial_step if config.initial_step is not None else radius / 10.0
    dirs = direction_set(F.dimension, config.directions)
    X, _ = pattern_search(
        lambda X: F.row_sup(X)[0], F.domain, radius, F.norm, starts, start_values,
        step0, config.termination_step, config.shrink, dirs, budget,
    )
    budget.take(len(X))
    Y = F.row_sup(X)[1]
    return list(X), list(Y[in_ball(Y, radius, F.norm)])


def _minimize_columns(
    F: TiltedFunctional,
    pool: np.ndarray,
    Y: np.ndarray,
    radius: float,
    config: OptimizeConfig,
    budget: _Budget,
) -> tuple[np.ndarray, np.ndarray]:
    """Minimize J(., y) for each row y of Y: endpoints (S, n) and values
    (S,).  One value matrix over ``pool`` x Y gives each y its start, the
    first argmin of its column (NaN never wins); then one lockstep
    :func:`pattern_search`, each start partnered with its own y, refines
    them all from step radius / 10.  Every evaluation is charged to
    ``budget``."""
    M = _value_matrix(F, pool, Y, budget)
    k = [first_argmin(column) for column in M.T]
    dirs = direction_set(F.dimension, config.directions)
    return pattern_search(
        F.pairs, F.domain, radius, F.norm, pool[k], M[k, np.arange(len(Y))],
        radius / 10.0, config.termination_step, config.shrink, dirs, budget, partners=Y,
    )


def minimax_gap(
    F: TiltedFunctional,
    radius: float,
    resolution: int,
    norm_spec: NormSpec | None = None,
    config: OptimizeConfig | None = None,
) -> MinimaxGapReport:
    """Both minimax envelopes of J over X truncated to the ball of F's norm,
    in which the balls, the boundary flag and the witness distance are
    measured too.  ``norm_spec``, when given, must be ``F.norm``; any other
    norm is a ValueError before any evaluation.

    One order of the rough grid by J's exact row envelope ``F.row_sup``
    (Phi, NaN last) gives every grid start and candidate.  The upper phase
    minimizes Phi = sup_y J(., y) by one lockstep pattern search from the m
    grid points of least Phi; its y candidates are the envelope's
    maximisers f(x) at the endpoints inside the ball.  The lower phase
    minimizes J(., y) once, at those candidates and the same m grid
    points: at a saddle point (x*, x*) of J, both approximate the y that
    attains sup_y inf_x J.
    ``upper`` is then the least row envelope over the x candidates, and
    ``lower`` is read off one shared value matrix over the harvested sets,
    which makes the weak duality direction (lower <= upper) exact by
    construction.
    """
    # Kept only for the benchmark harness (perfbench/workloads.py), which
    # passes norm_spec=F.norm.
    if norm_spec is not None and norm_spec != F.norm:
        raise ValueError(f"minimax_gap measures in F's norm {F.norm}, not {norm_spec}")
    if config is None:
        config = OptimizeConfig(
            coarse_grid=resolution, multistart=4, termination_step=1e-8, seed=0
        )
    budget = _Budget()  # counts evaluations; it has no limit
    G = SampleDomain(F.domain, F.norm, float(radius), resolution).require_grid()
    budget.take(len(G))
    phi = F.row_sup(G)[0]
    best = np.argsort(phi, kind="stable")  # NaN sorts last
    m = config.multistart

    # Upper phase: minimize the row envelope sup_y J(x, .).
    x_ends, y_fins = _minimize_row_sup(
        F, G[best[:m]], phi[best[:m]], radius, config, budget)
    # Lower phase: at a saddle point (x*, x*) of J, sup_y inf_x J is
    # attained at x*, which the upper witnesses approximate, and so do the
    # grid points of least Phi: one inf_x J(x, y) solve at both stands in
    # for a walk.  Its scan also covers the upper-phase endpoints so a good
    # x is never missed on the lower side.
    Y_c = np.vstack([*y_fins, G[best[:m]]])
    x_pool = np.vstack([G, *x_ends])
    x_fins = list(_minimize_columns(F, x_pool, Y_c, radius, config, budget)[0])

    # Matrix phase: one shared value matrix over the harvested sets.
    def _dedupe(rows: list[np.ndarray], cap: int) -> np.ndarray:
        arr = np.vstack([r.reshape(1, -1) for r in rows])
        return arr[first_rows(arr)][:cap]

    S_x = _dedupe(x_ends + x_fins + list(G[best[:128]]), 256)
    S_y = _dedupe(list(Y_c) + list(G[best[:128]]), 256)
    M = _value_matrix(F, S_x, S_y, budget)
    nan = np.isnan(M)
    if nan.all():
        raise ValueError("J is NaN on every pair of the value matrix")
    col_min = np.where(nan, -np.inf, M).min(axis=0)
    budget.take(len(S_x))  # every M[i, j] <= row_sup(S_x)[0][i], bit for bit
    row_max = F.row_sup(S_x)[0]
    row_max = np.where(np.isnan(row_max), np.inf, row_max)
    iu = int(np.argmin(row_max))
    il = int(np.argmax(col_min))
    upper = float(row_max[iu])
    lower = float(col_min[il])
    y_witness = S_y[il]
    x_witness = S_x[iu]
    boundary = radius - norm(y_witness, F.norm) <= config.separation
    return MinimaxGapReport(
        lower=lower,
        upper=upper,
        gap=upper - lower,
        x_witness=tuple(float(v) for v in x_witness),
        y_witness=tuple(float(v) for v in y_witness),
        boundary_max_flag=bool(boundary),
        witness_distance=norm(x_witness - y_witness, F.norm),
        evaluations=budget.used,
        radius=float(radius),
        resolution=int(resolution),
    )
