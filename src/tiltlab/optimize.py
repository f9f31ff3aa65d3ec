"""Deterministic derivative-free global minimization over truncated feasible
windows, plus an independent exhaustive-grid oracle.

The search runs in three stages: a coarse feasible grid scan over
X intersected with the active-norm ball of radius R, local refinement of the
best-scoring and seeded random starts by pattern search over a sign-vector
direction set (step halving on failure, projection after every trial step),
and clustering of the refined endpoints.  A cluster is a representative
separated from the others by at least ``separation`` in the ambient norm
whose value lies within ``value_tolerance`` of the best value found; the
cluster count is the operational surrogate for the number of global minima,
and every report carries the pair of tolerances that define it.

Everything is deterministic given (config, seed): grid scans break ties by
lexicographic grid-index order, one lockstep pattern search refines every
start of every problem of a batch, each start in its problem's ball and on
its problem's budget, and the random starts come from a seeded generator.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DimensionMismatch, FieldError, InfeasibleTruncation
from .functional import TiltedFunctional, mesh_displacements
from .spaces import (
    MESH_BLOCK_FLOATS, FeasibleSet, NormSpec, SampleDomain, ball_bound, mesh_blocks, norm,
    norms_of_rows, positive_int, sample_windows,
)

_STREAM_STARTS = 0x51A7
# A search's ladders hold at most _LADDER_LEVELS levels per start and
# _LADDER_ROWS trials per call; see pattern_search.
_LADDER_LEVELS = 16
_LADDER_ROWS = 256


class SearchStatus(enum.Enum):
    OK = "ok"
    BUDGET_EXHAUSTED = "budget_exhausted"
    NO_MINIMUM_SUSPECTED = "no_minimum_suspected"


@dataclass(frozen=True)
class OptimizeConfig:
    """Knobs for :func:`global_minimize`; all results are pure functions of
    (config, objective, set, radius)."""

    coarse_grid: int = 33
    multistart: int = 32
    initial_step: float | None = None  # None: radius / 10
    shrink: float = 0.5
    termination_step: float = 1e-9
    value_tolerance: float = 1e-6
    separation: float = 1e-3
    budget: int = 1_000_000
    seed: int = 0
    directions: str = "auto"  # "axes" | "full" | "auto"

    def __post_init__(self):
        for name in ("coarse_grid", "multistart", "budget"):
            if getattr(self, name) < 1:
                raise FieldError(name, f"{name} must be positive")
        if self.initial_step is not None and not 0.0 < self.initial_step < math.inf:
            raise FieldError("initial_step", "initial_step must be positive and finite when given")
        if not 0.0 < self.shrink < 1.0:
            raise FieldError("shrink", "shrink must lie in (0, 1)")
        if not 0.0 < self.termination_step < math.inf:
            raise FieldError("termination_step", "termination_step must be positive and finite")
        if not 0.0 < self.value_tolerance < math.inf:
            raise FieldError("value_tolerance", "value_tolerance must be positive and finite")
        if not self.termination_step < self.separation < math.inf:
            raise FieldError(
                "separation", "separation must be finite and exceed the termination step"
            )
        if self.seed < 0:
            raise FieldError("seed", "seed must be a non-negative integer")
        if self.directions not in ("axes", "full", "auto"):
            raise FieldError("directions", "directions must be one of axes/full/auto")


@dataclass(frozen=True)
class Cluster:
    point: tuple[float, ...]
    value: float

    @property
    def point_array(self) -> np.ndarray:
        return np.array(self.point, dtype=float)


@dataclass(frozen=True)
class MinimizationResult:
    clusters: tuple[Cluster, ...]
    global_value: float
    status: SearchStatus
    evaluations: int
    radius: float
    value_tolerance: float
    separation: float

    @property
    def best_point(self) -> np.ndarray:
        return self.clusters[0].point_array

    @property
    def cluster_count(self) -> int:
        return len(self.clusters)


class _Budget:
    """Evaluations charged against ``limit``; ``_Budget()`` has no limit and
    only counts.  :func:`pattern_search` charges it the rows of the
    lockstep, whatever ladders it values."""

    __slots__ = ("limit", "used", "exhausted")

    def __init__(self, limit: int | None = None):
        self.limit = None if limit is None else int(limit)
        self.used = 0
        self.exhausted = False

    def take(self, k: int = 1) -> int:
        grant = k if self.limit is None else min(k, self.limit - self.used)
        if grant < k:
            self.exhausted = True
        self.used += max(grant, 0)
        return max(grant, 0)


def direction_set(dimension: int, mode: str = "auto") -> np.ndarray:
    """Search directions: signed axes, optionally all nonzero sign vectors.

    Axis-only compass search stalls on max-norm style objectives (it cannot
    descend along the diagonal kinks), so "auto" uses the full sign-vector
    set whenever it stays small and falls back to axes plus pairwise
    diagonals above that.
    """
    axes = []
    for i in range(dimension):
        e = np.zeros(dimension)
        e[i] = 1.0
        axes.extend((e.copy(), -e))
    axes = np.array(axes)
    if mode == "axes":
        return axes
    full_size = 3 ** dimension - 1
    if mode == "full" or full_size <= 80:
        combos = [
            np.array(s, dtype=float)
            for s in itertools.product((-1.0, 0.0, 1.0), repeat=dimension)
            if any(v != 0.0 for v in s)
        ]
        return np.array(combos)
    pairs = []
    for i in range(dimension):
        for j in range(i + 1, dimension):
            for si, sj in itertools.product((1.0, -1.0), repeat=2):
                d = np.zeros(dimension)
                d[i], d[j] = si, sj
                pairs.append(d)
    return np.vstack([axes, np.array(pairs)])


def first_argmin(values: np.ndarray) -> int:
    """Index of the first least value, where NaN never wins unless every
    value is NaN (``argmin`` alone returns the first NaN)."""
    best = int(values.argmin())
    if math.isnan(values[best]):
        best = int(np.where(np.isnan(values), np.inf, values).argmin())
    return best


def pattern_search(
    objective_rows: Callable[..., np.ndarray],
    domain: FeasibleSet,
    radius: float | np.ndarray,
    norm_spec: NormSpec,
    x0: np.ndarray,
    f0: np.ndarray,
    initial_step: float | np.ndarray,
    termination_step: float,
    shrink: float,
    directions: np.ndarray,
    budget: _Budget | Sequence[_Budget],
    partners: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Lockstep compass refinement of S starts; monotone, projected,
    ball-constrained.

    ``x0`` holds the starts as an (S, n) array and ``f0`` their (S,)
    values; the endpoints and their values come back in the same shapes.
    ``initial_step`` and ``radius``, the truncation radius, are each one
    value for every start or an (S,) array of them.  Each iteration of the
    lockstep steps every active start along every direction, projects all
    the trials into the set with one ``project_rows`` call, drops the
    trials that leave their start's ball, charges the rest to the budgets
    and evaluates them with one ``objective_rows`` call.  Each start then
    takes its own best trial (first direction on ties; NaN never wins, and
    a NaN incumbent reads +inf) only on strict improvement; otherwise only
    its own step shrinks, and it leaves the batch once its step passes
    ``termination_step``.  Every kernel gives a row the same value in any
    batch, so each start ends exactly where a search from it alone would.

    The bookkeeping of one iteration is a fixed number of numpy calls
    whatever the number of active starts: the points live in one (S, n)
    array, the trials of all active starts are one broadcast, and every
    start's best trial comes from one row-wise ``argmin``.  Only the
    incumbent values, the steps and the active indices are Python lists,
    so that a search of one or two starts stays cheap.  The per-trial
    partner, ball-bound and group arrays are rebuilt only when a start
    ends.

    ``partners``, an (S,) or (S, m) array, gives every start its own fixed
    second argument: the objective is then called as
    ``objective_rows(trials, partners[owner])``, each trial row paired with
    the row of the start it came from, so one call refines searches over
    different objectives.

    ``budget`` is one :class:`_Budget` for every start or a length-S
    sequence of them; starts that share a budget object form a group, and
    each iteration of the lockstep charges each group's budget once, with
    the count of its own in-ball trials.  A group whose budget cannot cover
    that count ends its own starts at their current points, with
    ``used == limit``, and the other groups go on, exactly as in searches
    of their own.

    The search values a ladder for each start in an iteration's one call:
    the trials at its next K steps s, s * shrink, s * shrink**2, ...,
    formed by repeated multiplication, so bit for bit the steps it would
    reach.  K is ``min(_LADDER_LEVELS, _LADDER_ROWS // (S d))`` for S
    active starts and d directions, at least 1, so that a call stays small
    enough that its cost is its overhead, not its rows; it is set again
    when a start ends.  Each start walks its levels up to the first that
    improves, and ends before a level at or below ``termination_step``.
    Each budget is charged what the lockstep charges: for each of its
    starts the in-ball trials of the levels it walked, the improving one
    included.  So every trial, value, move and endpoint and every budget's
    ``used`` and ``exhausted`` are bitwise the lockstep's, for any K and
    any batch; the objective also sees the levels no start walks.  A
    ladder run whose charge would cross a limit, or whose objective raises,
    restores every budget to its state on entry and runs the search again
    as the lockstep, one level per start, which stops, raises or returns
    as the lockstep does.
    """
    S = len(f0)
    init = np.asarray(initial_step, dtype=float)
    if not np.all((0.0 < init) & (init < math.inf)):  # an infinite step never ends
        raise ValueError(f"initial_step must be finite and positive, got {initial_step}")
    d, n = directions.shape
    init = np.broadcast_to(init, (S,)).tolist()
    bounds = ball_bound(radius)
    starts = [i for i, s in enumerate(init) if s > termination_step]
    group = None  # each start's group, when there is more than one
    if isinstance(budget, _Budget):
        budgets = [budget]
    else:
        budgets = list(budget)
        if len(budgets) != S:
            raise ValueError(f"budget must be one _Budget or one per start, got {len(budgets)}")
        ids: dict[int, int] = {}  # a budget's id -> its group, in order of appearance
        group = np.array([ids.setdefault(id(b), len(ids)) for b in budgets], dtype=int)
        if len(ids) > 1:
            # A group's starts are adjacent in the batch, so that its trials
            # are one row block; the order of a batch's rows changes no value.
            starts.sort(key=group.__getitem__)
        else:
            group = None
    entry = [(b, b.used, b.exhausted) for b in budgets]

    def search(ladders: bool):
        """The endpoints and values, or None when a run that valued a
        deeper level than the lockstep would have to stop or raise."""
        xs = np.array(x0, dtype=float)
        fs = [float(v) for v in f0]
        live = list(starts)
        steps = [init[i] for i in live]
        ended = True
        while live:
            if ended:  # the per-trial arrays of the active starts
                K = max(1, min(_LADDER_LEVELS, _LADDER_ROWS // (len(live) * d))) if ladders else 1
                w = K * d  # the trial rows of one start
                paired = None if partners is None else partners[live].repeat(w, axis=0)
                bound = bounds if np.ndim(bounds) == 0 else bounds[live].repeat(w)
                if K > 1:  # a start's step, then a factor per deeper level
                    factors = np.full((len(live), K), shrink)
                edges, payers = [0], budgets[:1]  # each group's first row and budget
                if group is not None:
                    cuts = [0, *(np.flatnonzero(np.diff(group[live])) + 1).tolist()]
                    edges, payers = [j * w for j in cuts], [budgets[live[j]] for j in cuts]
            if K == 1 and len(live) == 1:  # skips the fancy index and the reshape
                trials = xs[live[0]] + steps[0] * directions
            else:  # the same bits as xs[i] + s * directions, row block by row block
                if K > 1:  # each start's next K steps, bit for bit those of K shrinks
                    factors[:, 0] = steps
                    scale = np.multiply.accumulate(factors, axis=1)
                else:
                    scale = np.array(steps)[:, None]
                trials = (
                    xs[live][:, None, None, :] + scale[:, :, None, None] * directions
                ).reshape(len(live) * w, n)
            trials = domain.project_rows(trials)
            inside = norms_of_rows(trials, norm_spec) <= bound  # in_ball, the bound cached
            k = int(np.count_nonzero(inside))  # budget.used stays a Python int
            ended = False
            # K never falls as starts end, so an iteration at K = 1 is the
            # lockstep's own: it charges before valuing, and stops or raises
            # as the lockstep does.  A deeper ladder is charged after.
            if K == 1 and group is not None:  # one take per group; a short grant ends its starts
                counts = np.add.reduceat(inside, edges, dtype=np.intp).tolist()
                for row, stop, owner, c in zip(edges, [*edges[1:], len(trials)], payers, counts):
                    if owner.take(c) < c:  # its trials are not evaluated
                        inside[row:stop] = False
                        steps[row // w : stop // w] = [0.0] * ((stop - row) // w)
                        ended = True
                k = int(np.count_nonzero(inside))
            elif K == 1 and budgets[0].take(k) < k:  # one group: a short grant ends every start
                break
            args = (trials,) if paired is None else (trials, paired)
            try:
                if k == len(trials):
                    values = np.asarray(objective_rows(*args), dtype=float)
                else:  # an out-of-ball trial reads +inf, which never improves
                    values = np.full(len(trials), np.inf)
                    if k:
                        values[inside] = objective_rows(*(a[inside] for a in args))
            except Exception:
                if K == 1:
                    raise
                return None
            picks = values.reshape(len(live) * K, d).argmin(axis=1).tolist()
            flat = values.tolist()
            walked = []  # the levels each start walks, which the lockstep values
            for j, i in enumerate(live):  # each start walks its levels to the first that improves
                s, level = steps[j], j * K
                while True:
                    row = level * d + picks[level]
                    v = flat[row]
                    if v != v:  # argmin stops at the first NaN; only then look again
                        row = level * d + first_argmin(values[level * d:(level + 1) * d])
                        v = flat[row]
                    level += 1
                    if v < fs[i] or (fs[i] != fs[i] and v < math.inf):
                        xs[i], fs[i] = trials[row], v
                        break
                    s *= shrink  # the products np.multiply.accumulate formed
                    if s <= termination_step:  # it ends before a level it never reaches
                        ended = True
                        break
                    if level % K == 0:  # every level failed
                        break
                steps[j] = s
                walked.append(level - j * K)
            if K > 1:  # each budget pays the lockstep's charge: the in-ball rows walked
                if group is None and k == len(trials):
                    charges = [d * sum(walked)]
                else:
                    reached = np.arange(K) < np.array(walked)[:, None]
                    charged = inside.reshape(len(live), K, d) & reached[:, :, None]
                    charges = np.add.reduceat(charged.reshape(-1), edges, dtype=np.intp).tolist()
                for owner, c in zip(payers, charges):
                    if owner.take(c) < c:
                        return None
            if ended:
                keep = [j for j, s in enumerate(steps) if s > termination_step]
                live, steps = [live[j] for j in keep], [steps[j] for j in keep]
        return xs, np.array(fs)

    found = search(True)
    if found is None:  # the lockstep again, from every budget's entry state
        for b, used, exhausted in entry:
            b.used, b.exhausted = used, exhausted
        found = search(False)
    return found


def _cluster(
    points: Sequence[np.ndarray],
    values: Sequence[float],
    value_tolerance: float,
    separation: float,
    norm_spec: NormSpec,
) -> tuple[Cluster, ...]:
    # A NaN value is no minimum: it never forms or joins a cluster.
    kept = [i for i, v in enumerate(values) if not math.isnan(v)]
    order = sorted(kept, key=lambda i: (values[i], i))
    if not order:
        raise ValueError("every objective value is NaN; there is no minimum to report")
    best = values[order[0]]
    near = [i for i in order if not values[i] > best + value_tolerance]
    P = np.asarray(points, dtype=float)[near]
    # A representative takes one norm pass over the later endpoints, and a
    # pair's norm does not depend on its batch.
    far, reps = np.ones(len(near), dtype=bool), []
    for j, i in enumerate(near):
        if far[j]:
            reps.append((points[i], values[i]))
            if j + 1 < len(near):
                far[j + 1:] &= norms_of_rows(P[j + 1:] - P[j], norm_spec) >= separation
    return tuple(
        Cluster(point=tuple(float(v) for v in x), value=float(fv)) for x, fv in reps
    )


def _status(
    exhausted: bool, best_point: np.ndarray, radius: float, separation: float,
    norm_spec: NormSpec,
) -> SearchStatus:
    if exhausted:
        return SearchStatus.BUDGET_EXHAUSTED
    if radius - norm(best_point, norm_spec) <= separation:
        # The incumbent sits on the truncation shell: either the radius is
        # wrong or the objective keeps decreasing outward (no minimum).
        return SearchStatus.NO_MINIMUM_SUSPECTED
    return SearchStatus.OK


def _values_of_rows(objective_rows, X: np.ndarray) -> np.ndarray:
    """``objective_rows(X)`` as floats, refused unless it is one value per row."""
    values = np.asarray(objective_rows(X), dtype=float)
    if values.shape != (len(X),):
        raise ValueError(
            f"a rows objective must return one value per row, shape ({len(X)},), "
            f"got shape {values.shape}"
        )
    return values


def _scans(domain: FeasibleSet, radii, config: OptimizeConfig, norm_spec: NormSpec):
    """Each problem's budget, grid rows and seeded random starts, each cut to
    what its budget grants, grid first: every problem's window in one
    :func:`sample_windows` pass."""
    windows, draws = [], []
    for radius in radii:
        if not radius > 0.0:
            raise ValueError("radius must be positive")
        window = SampleDomain(domain, norm_spec, float(radius), config.coarse_grid)
        rng = np.random.default_rng(np.random.SeedSequence([config.seed, _STREAM_STARTS]))
        windows.append(window)
        draws.append((config.multistart, window.uniform(rng)))
    scans = []
    for window, grid, randoms in zip(windows, *sample_windows(windows, draws, grids=True)):
        if not len(grid):
            window.require_grid()  # refuses the empty grid
        budget = _Budget(config.budget)
        scans.append((budget, grid[: budget.take(len(grid))], randoms[: budget.take(len(randoms))]))
    return scans


def _values_by_problem(objective, blocks, first: int = 0) -> list[np.ndarray]:
    """The values of problem ``first + i`` at the rows ``blocks[i]``, from
    one ``objective`` call, or none when there are no rows."""
    sizes = [len(X) for X in blocks]
    if not sum(sizes):
        return [np.empty(0)] * len(blocks)
    owners = np.arange(first, first + len(blocks)).repeat(sizes)
    values = _values_of_rows(lambda X: objective(X, owners), np.vstack(blocks))
    edges = list(itertools.accumulate(sizes, initial=0))
    return [values[a:b] for a, b in zip(edges, edges[1:])]


def global_minimize(
    objective_rows: Callable[[np.ndarray], np.ndarray],
    domain: FeasibleSet,
    radius: float,
    config: OptimizeConfig,
    norm_spec: NormSpec | None = None,
) -> MinimizationResult:
    """Global minimization over X within the ball of the ambient norm
    (Euclidean when ``norm_spec`` is omitted): the one-problem call of
    :func:`global_minimize_batch`.

    ``objective_rows`` maps a (k, n) batch to its (k,) values; every
    evaluation (grid scan, random starts, refinement) goes through it, and
    each row counts against the budget.
    """
    rows = lambda X, owners: objective_rows(X)
    return global_minimize_batch(rows, domain, [radius], config, norm_spec)[0]


def global_minimize_batch(
    objective: Callable[[np.ndarray, np.ndarray], np.ndarray],
    domain: FeasibleSet,
    radii: Sequence[float],
    config: OptimizeConfig,
    norm_spec: NormSpec | None = None,
) -> list[MinimizationResult]:
    """Global minimization of P problems over one set and norm, problem p
    within the ball of radius ``radii[p]``; one result per problem.

    ``objective(X, owners)`` gives row i the value at ``X[i]`` of problem
    ``owners[i]``, an integer array.  Each problem has its own grid scan,
    seeded random starts and budget of ``config.budget`` evaluations,
    charged grid first, then random starts, in problem order.  Every
    problem's grid and random starts are snapped into its window in one
    :func:`sample_windows` pass, every problem's grid rows are valued in one
    objective call and every problem's random starts in one more; when the
    pass or either call raises, each problem is scanned and valued alone,
    grid then random starts, in problem order, so that the search raises
    what such calls raise.  One lockstep :func:`pattern_search` then refines
    the starts of every problem, each with its problem's radius, initial
    step and budget, on step ladders whose depth depends on how many starts
    are active, while each budget is charged only the lockstep's rows; each
    problem's endpoints are clustered on their own, one norm pass per
    cluster representative.  A result, ``evaluations`` and status included,
    is bit for bit that of the problem searched alone.
    """
    n = domain.dimension
    if norm_spec is None:
        norm_spec = NormSpec(n, 2.0)
    try:
        scans = _scans(domain, radii, config, norm_spec)
        values = [_values_by_problem(objective, [s[i] for s in scans]) for i in (1, 2)]
    except Exception:
        scans, values = [], [[], []]
        for p, radius in enumerate(radii):
            scans += _scans(domain, [radius], config, norm_spec)
            for i in (1, 2):
                values[i - 1] += _values_by_problem(objective, [scans[p][i]], p)
    starts, start_values, budgets, counts = [], [], [], []
    for (budget, grid, randoms), grid_values, random_values in zip(scans, *values):
        order = np.argsort(grid_values, kind="stable")[: config.multistart]
        starts += [grid[order], randoms]
        start_values += [grid_values[order], random_values]
        budgets.append(budget)
        counts.append(len(order) + len(randoms))

    owners = np.arange(len(radii)).repeat(counts)
    # One radius for every start when the problems share it, else one per start.
    radius = radii[0] if len(set(radii)) == 1 else np.asarray(radii, dtype=float)[owners]
    endpoints, endpoint_values = pattern_search(
        objective,
        domain,
        radius,
        norm_spec,
        np.vstack(starts),
        np.concatenate(start_values),
        radius / 10.0 if config.initial_step is None else config.initial_step,
        config.termination_step,
        config.shrink,
        direction_set(n, config.directions),
        budgets[0] if len(budgets) == 1 else [budgets[p] for p in owners.tolist()],
        partners=owners,
    )

    results, ends = [], list(itertools.accumulate(counts))
    for radius, budget, a, b in zip(radii, budgets, [0, *ends], ends):
        clusters = _cluster(
            endpoints[a:b], endpoint_values[a:b], config.value_tolerance,
            config.separation, norm_spec,
        )
        best = clusters[0]
        results.append(MinimizationResult(
            clusters=clusters,
            global_value=best.value,
            status=_status(
                budget.exhausted, best.point_array, radius, config.separation, norm_spec
            ),
            evaluations=budget.used,
            radius=float(radius),
            value_tolerance=config.value_tolerance,
            separation=config.separation,
        ))
    return results


def brute_force_minima(
    objective: Callable[[np.ndarray], float],
    domain: FeasibleSet,
    radius: float,
    resolution: int,
    value_tolerance: float = 1e-6,
    separation: float = 1e-3,
    norm_spec: NormSpec | None = None,
    objective_rows: Callable[[np.ndarray], np.ndarray] | None = None,
) -> MinimizationResult:
    """Exhaustive scan of the feasible grid; the independent oracle.

    No projection and no refinement: grid points are membership-filtered
    (residual at most 1e-12, inside the ball), evaluated in lexicographic
    order, and clustered with the same rule as :func:`global_minimize`.
    On a coordinatewise set (full space, orthants) a row passes the
    residual test exactly when each of its coordinates does, so each axis
    keeps only the values that pass it (tested with the other coordinates
    at the set's base point), and the ball's members of the mesh of the
    kept axes are the members, in the same order.  The scan takes the
    ball's members in :func:`mesh_blocks` of at most
    ``MESH_BLOCK_FLOATS // n`` rows, and on other sets masks each block by
    the residual.  Every row is masked and valued as it would be in any
    other batch, and the candidates are every member within
    ``value_tolerance`` of the final minimum, so the block edges change
    nothing.  ``objective_rows``, when given, evaluates each block's
    members in one call and ``objective`` is never called.

    When ``objective_rows`` is a :class:`TiltedFunctional`'s own
    ``displacements`` and F has a mesh form
    (:attr:`~tiltlab.functional.TiltedFunctional.mesh_form`), on box sets,
    no rows are built: Phi comes in mesh form
    (:func:`~tiltlab.functional.mesh_displacements`, whose values may differ
    from the rows' in the last bits), and the candidates from the blocks'
    member masks and axes.
    """
    n = domain.dimension
    if not 0.0 < radius < math.inf:
        raise ValueError(f"radius must be positive and finite, got {radius}")
    if not 0.0 < value_tolerance < math.inf:
        raise ValueError(f"value_tolerance must be positive and finite, got {value_tolerance}")
    if not 0.0 < separation < math.inf:
        raise ValueError(f"separation must be positive and finite, got {separation}")
    resolution = positive_int(resolution, "resolution")
    if resolution < 2:
        raise ValueError("resolution must be >= 2")
    if resolution ** n > 10 ** 8:
        raise ValueError("resolution**dimension exceeds the 1e8 guard")
    if norm_spec is None:
        norm_spec = NormSpec(n, 2.0)
    if norm_spec.dimension != n:
        raise DimensionMismatch("set and norm dimensions disagree")

    axis = np.linspace(-radius, radius, resolution)
    axes = [axis] * n
    box = domain.coordinatewise
    if box:  # trial[j, i] is the base point with coordinate j set to axis[i]
        trial = np.tile(domain.ray_base, (n, resolution, 1))
        for j in range(n):
            trial[j, :, j] = axis
        passes = domain.violations_of_rows(trial.reshape(-1, n)) <= 1e-12
        axes = [axis[m] for m in passes.reshape(n, resolution)]
    blocks = mesh_blocks(axes, radius, norm_spec, MESH_BLOCK_FLOATS // n)
    F = getattr(objective_rows, "__self__", None)
    if (box and isinstance(F, TiltedFunctional) and F.mesh_form and F.dimension == n
            and objective_rows.__func__ is TiltedFunctional.displacements):
        # (values, member mask or None for all, rows at a mask of the values);
        # a candidate mask is sparse, so its flat indices are found first.
        scans = ((phi, block.inside, lambda mask, block=block: block.gather(
                      np.unravel_index(np.flatnonzero(mask), mask.shape)))
                 for block, phi in mesh_displacements(F, blocks))
    else:
        scans = _row_scans(blocks, None if box else domain, objective, objective_rows)
    evaluations = 0
    best_value = np.inf
    cand_pts: list[np.ndarray] = []
    cand_vals: list[float] = []

    for vals, inside, rows_at in scans:
        count = vals.size if inside is None else int(np.count_nonzero(inside))
        if count == 0:
            continue
        evaluations += count
        # The least member value (a NaN must not stop the pruning), read
        # only where the least of all values leaves room for a candidate.
        lo = float(np.fmin.reduce(vals, axis=None))
        if inside is not None and lo <= best_value + value_tolerance:
            lo = float(np.fmin.reduce(vals[inside]))
        if lo < best_value:
            best_value = lo
            keep = [
                i for i, v in enumerate(cand_vals) if v <= best_value + value_tolerance
            ]
            cand_pts = [cand_pts[i] for i in keep]
            cand_vals = [cand_vals[i] for i in keep]
        if lo <= best_value + value_tolerance:
            mask = vals <= best_value + value_tolerance
            if inside is not None:
                mask &= inside
            cand_pts.extend(rows_at(mask))
            cand_vals.extend(vals[mask].tolist())

    if evaluations == 0:
        raise InfeasibleTruncation(
            f"no feasible grid point inside the ball of radius {radius}"
        )
    clusters = _cluster(cand_pts, cand_vals, value_tolerance, separation, norm_spec)
    best = clusters[0]
    return MinimizationResult(
        clusters=clusters,
        global_value=best.value,
        status=_status(False, best.point_array, radius, separation, norm_spec),
        evaluations=evaluations,
        radius=float(radius),
        value_tolerance=float(value_tolerance),
        separation=float(separation),
    )


def _row_scans(blocks, residual_set, objective, objective_rows):
    """Each block's members as rows and their values: ``(values, None,
    rows at a mask of the values)``, after masking by ``residual_set``'s
    residual when one is given."""
    for block in blocks:
        coords = block.rows()
        if residual_set is not None:
            coords = np.compress(
                residual_set.violations_of_rows(coords) <= 1e-12, coords, axis=0)
        if len(coords) == 0:
            continue
        if objective_rows is not None:
            vals = _values_of_rows(objective_rows, coords)
        else:
            vals = np.array([float(objective(x)) for x in coords])
        yield vals, None, coords.__getitem__
