import collections
import math
from dataclasses import replace
import re
import signal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import affine_instance, kernel_functional, rows_of

from tiltlab import (
    INF,
    AffineMap,
    BoundedPerturbedMap,
    ConeIntersection,
    ConstantMap,
    DimensionMismatch,
    FullSpace,
    HalfSpace,
    InfeasibleTruncation,
    NormSpec,
    OptimizeConfig,
    Orthant,
    ProjectedMap,
    RangeViolation,
    SampleDomain,
    SearchStatus,
    TiltedFunctional,
    analytic_fixed_point,
    brute_force_minima,
    contains,
    global_minimize,
    norm,
    norms_of_rows,
    planted_double_well,
)
from tiltlab.functional import mesh_displacements
from tiltlab.optimize import (
    _Budget, _cluster, direction_set, global_minimize_batch, pattern_search,
)
from tiltlab.spaces import MEMBERSHIP_TOL, MESH_BLOCK_FLOATS, MeshBlock, mesh_blocks


def double_well(X):
    return (X[:, 0] ** 2 - 1.0) ** 2


def quarter_tilt(y):
    q = TiltedFunctional(
        NormSpec(1, 2.0), FullSpace(1), AffineMap(1, matrix=((0.25,),), offset=(0.0,))
    )
    return lambda X: q.pairs(X, [[y]])


CFG = OptimizeConfig(coarse_grid=33, multistart=8, seed=3)


def test_double_well_two_clusters():
    res = global_minimize(double_well, FullSpace(1), 2.0, CFG)
    assert res.cluster_count == 2
    points = sorted(c.point[0] for c in res.clusters)
    assert points == pytest.approx([-1.0, 1.0], abs=1e-6)
    assert res.global_value == pytest.approx(0.0, abs=1e-12)
    assert res.status is SearchStatus.OK


def test_tilt_instance_single_cluster():
    # piecewise analysis: J(x, 4) = 0.75|x| - |4 - 0.25 x| >= 0.5|x| - 4,
    # equality only at x = 0
    obj = quarter_tilt(4.0)
    xs = np.linspace(-2, 2, 2001)
    assert np.all(obj(xs[:, None]) >= 0.5 * np.abs(xs) - 4.0 - 1e-12)
    res = global_minimize(obj, FullSpace(1), 2.0, CFG)
    assert res.cluster_count == 1
    assert res.clusters[0].point[0] == pytest.approx(0.0, abs=1e-8)
    assert res.global_value == pytest.approx(-4.0, abs=1e-9)


def test_displacement_matches_analytic_fixed_point():
    F = TiltedFunctional(
        NormSpec(2, 2.0),
        FullSpace(2),
        AffineMap(2, matrix=((0.3, 0.0), (0.0, 0.2)), offset=(1.0, 1.0)),
    )
    res = global_minimize(F.displacements, FullSpace(2), 10.0, CFG, norm_spec=F.norm)
    assert res.cluster_count == 1
    assert np.allclose(res.best_point, analytic_fixed_point(F.mapping), atol=1e-6)
    assert res.global_value <= 1e-8


def test_brute_force_examples():
    res = brute_force_minima(None, FullSpace(1), 2.0, 4001, objective_rows=double_well)
    assert res.cluster_count == 2
    points = sorted(c.point[0] for c in res.clusters)
    assert points == pytest.approx([-1.0, 1.0], abs=1e-3)

    res2 = brute_force_minima(
        None, FullSpace(1), 2.0, 4001, objective_rows=quarter_tilt(4.0)
    )
    assert res2.cluster_count == 1
    assert res2.clusters[0].point[0] == pytest.approx(0.0, abs=1e-3)
    assert res2.global_value == pytest.approx(-4.0, abs=1e-3)

    res3 = brute_force_minima(
        lambda x: float(np.abs(x).sum()), Orthant(2), 1.0, 101, norm_spec=NormSpec(2, 2.0)
    )
    assert res3.cluster_count == 1
    assert res3.clusters[0].point == (0.0, 0.0)
    assert res3.global_value == 0.0


def test_brute_force_guard():
    with pytest.raises(ValueError, match="guard"):
        brute_force_minima(None, FullSpace(3), 1.0, 100_000, objective_rows=double_well)


@pytest.mark.parametrize("radius", [math.inf, math.nan, 0.0, -1.0])
def test_brute_force_refuses_a_radius_that_is_not_finite_and_positive(radius):
    # An infinite radius used to fail later as "every objective value is NaN".
    with pytest.raises(ValueError, match="radius must be positive and finite"):
        brute_force_minima(None, FullSpace(1), radius, 9, objective_rows=double_well)


@pytest.mark.parametrize("value", [np.nan, -1.0, 0.0, np.inf])
@pytest.mark.parametrize("argument", ["value_tolerance", "separation"])
def test_brute_force_refuses_a_tolerance_that_is_not_finite_and_positive(argument, value):
    # A NaN separation used to merge the double well's two minima into one
    # cluster, and a NaN or negative tolerance to read as "every value is NaN".
    with pytest.raises(ValueError, match=f"{argument} must be positive and finite"):
        brute_force_minima(None, FullSpace(1), 2.0, 401, objective_rows=double_well,
                           **{argument: value})


@pytest.mark.parametrize("resolution", [5.0, 0, True, "9"])
def test_brute_force_refuses_a_resolution_that_is_not_an_integer(resolution):
    # A float used to die in numpy with a TypeError.
    with pytest.raises(ValueError, match="resolution must be an integer >= 1"):
        brute_force_minima(None, FullSpace(1), 1.0, resolution, objective_rows=double_well)


def test_monotone_refinement():
    rng = np.random.default_rng(9)
    dirs = direction_set(2, "auto")
    for _ in range(20):
        x0 = rng.uniform(-2, 2, 2)
        f0 = float((x0 @ x0 - 1.0) ** 2)
        budget = _Budget(10_000)
        X, FX = pattern_search(
            lambda Z: ((Z * Z).sum(axis=1) - 1.0) ** 2,
            FullSpace(2),
            4.0,
            NormSpec(2, 2.0),
            x0[None, :],
            [f0],
            0.4,
            1e-9,
            0.5,
            dirs,
            budget,
        )
        assert X.shape == (1, 2) and FX.shape == (1,)
        assert FX[0] <= f0


def reference_pattern_search(
    objective_rows, domain, radius, norm_spec, x0, f0, step, termination, shrink,
    directions, budget, events,
):
    """One direction at a time, each trial a one-row batch; ``events``
    counts the tied, out-of-ball, budget-cut and NaN cases it meets.

    A NaN trial never wins, and a NaN incumbent reads +inf, so that any
    finite trial improves on it."""
    x, fx = np.asarray(x0, dtype=float), float(f0)
    ball_tol = 1e-12 * max(1.0, radius)
    while step > termination:
        best_x, best_f = None, math.inf if math.isnan(fx) else fx
        for d in directions:
            trial = domain.project_rows((x + step * d)[None, :])
            if norms_of_rows(trial, norm_spec)[0] > radius + ball_tol:
                events["outside"] += 1
                continue
            if budget.take() < 1:
                events["cut"] += 1
                return x, fx
            ft = float(objective_rows(trial)[0])
            if math.isnan(ft):
                events["nan"] += 1
                continue
            events["tie"] += best_x is not None and ft == best_f
            if ft < best_f:
                best_x, best_f = trial[0], ft
        if best_x is None:
            step *= shrink
        else:
            x, fx = best_x, best_f
    return x, fx


def random_rows_objective(rng, n):
    """A shifted weighted quadratic plus an l1 kink, quantized on half of
    the draws so that trial values tie often."""
    center = rng.uniform(-1.5, 1.5, n)
    weights = rng.uniform(0.5, 2.0, n)
    kink = float(rng.uniform(0.0, 1.0))
    quantum = float(rng.choice([0.0, 0.125]))

    def rows(X):
        v = (weights * (X - center) ** 2).sum(axis=1) + kink * np.abs(X).sum(axis=1)
        return np.floor(v / quantum) * quantum if quantum else v

    return rows


def random_domain(rng, n):
    kind = int(rng.integers(3))
    if kind == 0:
        return FullSpace(n)
    if kind == 1:
        return Orthant(n, lower=tuple(rng.uniform(-1.0, 0.0, n)))
    return HalfSpace(n, normal=tuple(rng.uniform(-1.0, 1.0, n)), offset=float(rng.uniform(-1, 0)))


def test_pattern_search_matches_per_direction_loop_bitwise():
    rng = np.random.default_rng(2024)
    events = {"tie": 0, "outside": 0, "cut": 0}
    for case in range(150):
        n = int(rng.integers(2, 4))
        domain = random_domain(rng, n)
        spec = NormSpec(n, (1.0, 2.0, INF)[case % 3])
        rows = random_rows_objective(rng, n)
        radius = float(rng.uniform(1.0, 3.0))
        x0 = domain.project_rows(rng.uniform(-radius, radius, (1, n)))[0]
        if norm(x0, spec) > radius:
            continue
        f0 = float(rows(x0[None, :])[0])
        dirs = direction_set(n, ("axes", "auto")[case % 2])
        step = float(rng.uniform(0.2, 1.0))
        limit = int(rng.integers(1, 120)) if case % 3 == 0 else 10**6
        args = (rows, domain, radius, spec, x0, f0, step, 1e-6, 0.5, dirs)
        mine_budget, ref_budget = _Budget(limit), _Budget(limit)
        X, FX = pattern_search(*args[:4], x0[None, :], [f0], *args[6:], mine_budget)
        x_ref, fx_ref = reference_pattern_search(*args, ref_budget, events)
        assert X[0].tobytes() == x_ref.tobytes(), case
        assert FX[0].tobytes() == np.float64(fx_ref).tobytes(), case
        assert mine_budget.used == ref_budget.used, case
        assert mine_budget.exhausted == ref_budget.exhausted, case
        if mine_budget.exhausted:
            assert mine_budget.used == limit
    assert min(events.values()) >= 5, events


def test_lockstep_pattern_search_matches_separate_searches_bitwise():
    # S starts in one call end exactly where S searches one start at a time
    # end, because every kernel gives a row the same value in any batch.
    rng = np.random.default_rng(7)
    events = {"tie": 0, "outside": 0, "cut": 0}
    for case in range(32):
        n = int(rng.integers(1, 4))
        domain = random_domain(rng, n)
        spec = NormSpec(n, (1.0, 2.0, INF)[case % 3])
        rows = random_rows_objective(rng, n)
        radius = float(rng.uniform(1.0, 3.0))
        S = 1 + case % 8
        X0 = np.empty((0, n))
        while len(X0) < S:  # S starts inside the ball
            Z = domain.project_rows(rng.uniform(-radius, radius, (S, n)))
            X0 = np.vstack([X0, Z[norms_of_rows(Z, spec) <= radius]])[:S]
        F0 = rows(X0)
        dirs = direction_set(n, ("axes", "auto", "full")[case % 3])
        step = float(rng.uniform(0.2, 1.0))
        budget, ref_budget = _Budget(10**6), _Budget(10**6)
        X, FX = pattern_search(
            rows, domain, radius, spec, X0, F0, step, 1e-6, 0.5, dirs, budget
        )
        assert X.shape == X0.shape and FX.shape == F0.shape, case
        for i, (x0, f0) in enumerate(zip(X0, F0)):
            x_ref, fx_ref = reference_pattern_search(
                rows, domain, radius, spec, x0, f0, step, 1e-6, 0.5, dirs,
                ref_budget, events,
            )
            assert X[i].tobytes() == x_ref.tobytes(), (case, i)
            assert FX[i].tobytes() == np.float64(fx_ref).tobytes(), (case, i)
        assert budget.used == ref_budget.used, case
        assert not budget.exhausted
    assert events["tie"] >= 5 and events["outside"] >= 5, events


def nan_half_space_objective(rng, n):
    """``random_rows_objective``, but NaN on a random half-space that cuts
    the ball."""
    rows = random_rows_objective(rng, n)
    normal = rng.normal(size=n)
    offset = float(rng.uniform(-0.5, 0.5))

    def nan_rows(X):
        return np.where((X * normal).sum(axis=1) > offset, np.nan, rows(X))

    return nan_rows


def test_lockstep_pattern_search_matches_the_reference_with_nan_values_bitwise():
    # Up to 16 starts in 3-D with all 26 sign directions, where the
    # objective is NaN on a half-space: NaN trials, NaN incumbents and
    # out-of-ball trials meet in one batch, and every start still ends
    # where the one-direction-at-a-time reference ends.  Starts alone also
    # run under budgets that bind.
    rng = np.random.default_rng(14)
    events = collections.Counter()
    dirs = direction_set(3, "full")
    for case in range(48):
        domain = random_domain(rng, 3)
        spec = NormSpec(3, (1.0, 2.0, INF)[case % 3])
        rows = nan_half_space_objective(rng, 3)
        radius = float(rng.uniform(1.0, 3.0))
        S = 1 if case % 4 == 0 else 1 + case % 16
        X0 = np.empty((0, 3))
        while len(X0) < S:  # S starts inside the ball
            Z = domain.project_rows(rng.uniform(-radius, radius, (S, 3)))
            X0 = np.vstack([X0, Z[norms_of_rows(Z, spec) <= radius]])[:S]
        F0 = rows(X0)
        step = float(rng.uniform(0.2, 1.0))
        limit = int(rng.integers(1, 1500)) if S == 1 else 10**6
        budget, ref_budget = _Budget(limit), _Budget(limit)
        X, FX = pattern_search(
            rows, domain, radius, spec, X0, F0, step, 1e-4, 0.5, dirs, budget
        )
        for i in range(S):
            x_ref, fx_ref = reference_pattern_search(
                rows, domain, radius, spec, X0[i], F0[i], step, 1e-4, 0.5, dirs,
                ref_budget, events,
            )
            assert X[i].tobytes() == x_ref.tobytes(), (case, i)
            assert FX[i].tobytes() == np.float64(fx_ref).tobytes(), (case, i)
        assert budget.used == ref_budget.used, case
        assert budget.exhausted == ref_budget.exhausted, case
        events["nan_start"] += int(np.isnan(F0).sum())
        events["nan_start_moved"] += int((np.isnan(F0) & ~np.isnan(FX)).sum())
    assert events["nan"] >= 5 and events["outside"] >= 5 and events["cut"] >= 2, events
    assert events["nan_start"] >= 5 and events["nan_start_moved"] >= 3, events


@pytest.mark.parametrize("paired", [False, True])
def test_pattern_search_with_zero_starts_returns_empty_arrays_and_charges_nothing(paired):
    budget = _Budget(10)
    extra = {"partners": np.empty((0, 3))} if paired else {}
    X, FX = pattern_search(
        lambda X, *partner: (X * X).sum(axis=1), FullSpace(3), 2.0, NormSpec(3, 2.0),
        np.empty((0, 3)), np.empty(0), 0.5, 1e-6, 0.5, direction_set(3, "full"),
        budget, **extra,
    )
    assert X.shape == (0, 3) and FX.shape == (0,)
    assert budget.used == 0 and not budget.exhausted


def test_a_binding_budget_ends_every_start_at_its_current_point():
    rng = np.random.default_rng(11)
    rows = random_rows_objective(rng, 2)
    dirs = direction_set(2, "auto")
    X0 = rng.uniform(-1.0, 1.0, (6, 2))
    F0 = rows(X0)
    for limit in (1, 7, 50, 333):
        budget = _Budget(limit)
        X, FX = pattern_search(
            rows, FullSpace(2), 3.0, NormSpec(2, 2.0), X0, F0, 0.5, 1e-9, 0.5,
            dirs, budget,
        )
        assert budget.exhausted and budget.used == limit
        assert np.all(FX <= F0)
        assert np.array_equal(rows(X), FX)  # each endpoint carries its value
    assert np.any(FX < F0)  # the larger budgets moved some start


def test_a_budget_that_binds_inside_refinement_is_reported():
    # 33 grid points and 4 random starts leave 23 evaluations for the
    # refinement, whose first batch alone is 8 trials (4 starts x 2 axes).
    cfg = OptimizeConfig(coarse_grid=33, multistart=4, budget=60, seed=0)
    grid_and_starts = OptimizeConfig(coarse_grid=33, multistart=4, budget=37, seed=0)
    res = global_minimize(double_well, FullSpace(1), 2.0, cfg)
    assert res.status is SearchStatus.BUDGET_EXHAUSTED
    assert res.evaluations == cfg.budget
    before = global_minimize(double_well, FullSpace(1), 2.0, grid_and_starts)
    assert before.evaluations == 37 and before.status is SearchStatus.BUDGET_EXHAUSTED
    assert res.global_value <= before.global_value


@pytest.mark.parametrize("step", [np.inf, np.nan, 0.0, -1.0])
def test_pattern_search_rejects_a_step_that_is_not_finite_and_positive(step):
    # An infinite step never shrinks below the termination step, so without
    # the check the search would loop for ever; the alarm ends such a hang.
    def hang(signum, frame):
        raise TimeoutError("pattern_search did not return")

    previous = signal.signal(signal.SIGALRM, hang)
    signal.alarm(5)
    try:
        with pytest.raises(ValueError, match="initial_step"):
            pattern_search(
                lambda X: (X * X).sum(axis=1), FullSpace(1), 4.0, NormSpec(1, 2.0),
                np.ones((1, 1)), [1.0], step, 1e-9, 0.5, direction_set(1), _Budget(10 ** 18),
            )
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("bad", [np.inf, np.nan, 0.0, -1.0])
def test_pattern_search_rejects_a_step_array_with_an_entry_that_is_not_finite_and_positive(bad):
    def hang(signum, frame):
        raise TimeoutError("pattern_search did not return")

    previous = signal.signal(signal.SIGALRM, hang)
    signal.alarm(5)
    try:
        with pytest.raises(ValueError, match="initial_step"):
            pattern_search(
                lambda X: (X * X).sum(axis=1), FullSpace(1), 4.0, NormSpec(1, 2.0),
                np.ones((3, 1)), [1.0] * 3, np.array([0.5, bad, 0.25]), 1e-9, 0.5,
                direction_set(1), _Budget(10 ** 18),
            )
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@given(
    st.integers(0, 17).filter(lambda index: index % 3 < 2),  # dimensions 1 and 2
    st.integers(1, 6),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_partnered_lockstep_matches_one_start_calls_bitwise_hypothesis(index, S, seed):
    # Every start minimizes J(., y) for its own partner y from its own step;
    # one partnered call ends each start where a call on it alone ends.
    F = affine_instance(index)
    radius = 3.0
    rng = np.random.default_rng(seed)
    window = SampleDomain(F.domain, F.norm, radius, 3)
    X0, partners = window.random_points(S, rng), window.random_points(S, rng)
    S = min(len(X0), len(partners))
    X0, partners = X0[:S], partners[:S]
    steps = rng.uniform(0.05, 1.0, S)
    F0 = F.pairs(X0, partners)
    dirs = direction_set(F.dimension)
    args = (F.pairs, F.domain, radius, F.norm)
    budget = _Budget(10**9)
    X, FX = pattern_search(
        *args, X0, F0, steps, 1e-7, 0.5, dirs, budget, partners=partners
    )
    used = 0
    for i in range(S):
        alone = _Budget(10**9)
        x, fx = pattern_search(
            *args, X0[i : i + 1], F0[i : i + 1], float(steps[i]), 1e-7, 0.5, dirs,
            alone, partners=partners[i : i + 1],
        )
        assert X[i].tobytes() == x[0].tobytes(), i
        assert FX[i].tobytes() == fx[0].tobytes(), i
        used += alone.used
    assert budget.used == used


def _owned_rows(objectives):
    """A partnered objective: row i takes the objective ``owners[i]``."""

    def rows(X, owners):
        out = np.empty(len(X))
        for g, f in enumerate(objectives):
            mine = owners == g
            if mine.any():
                out[mine] = f(X[mine])
        return out

    return rows


def _starts_in_ball(rng, domain, spec, radius, S):
    X0 = np.empty((0, domain.dimension))
    while len(X0) < S:
        Z = domain.project_rows(rng.uniform(-radius, radius, (S, domain.dimension)))
        X0 = np.vstack([X0, Z[norms_of_rows(Z, spec) <= radius]])[:S]
    return X0


def test_grouped_pattern_search_matches_one_search_per_group_bitwise():
    # Starts that share a budget form a group; each group has its own
    # objective (through its partners), radius per start and steps.  One
    # call in dimensions 1-4, with the groups' starts interleaved, ends
    # every start where a search of its group alone ends.  Budgets that bind
    # mid-refinement end their own group only, with used == limit; a group
    # whose starts begin below the termination step is charged nothing.
    rng = np.random.default_rng(21)
    events = collections.Counter()
    for case in range(40):
        n = 1 + case % 4
        domain = random_domain(rng, n)
        spec = NormSpec(n, (1.0, 2.0, INF)[case % 3])
        dirs = direction_set(n, "auto")
        groups = []
        for g in range(1 + case % 4):
            S = int(rng.integers(1, 5))
            radius = float(rng.uniform(1.0, 3.0))
            X0 = _starts_in_ball(rng, domain, spec, radius, S)
            rows = random_rows_objective(rng, n)
            steps = rng.uniform(0.2, 1.0, S) if g != 3 else np.full(S, 1e-7)
            limit = int(rng.integers(1, 300)) if rng.uniform() < 0.5 else 10**6
            radii = np.full(S, radius) if g % 2 else rng.uniform(1.0, 3.0, S) + radius
            groups.append((X0, rows(X0), rows, steps, radii, limit))
        owners = np.concatenate([np.full(len(g[0]), k) for k, g in enumerate(groups)])
        order = rng.permutation(len(owners))  # interleave the groups
        owners = owners[order]
        budgets = [_Budget(g[5]) for g in groups]
        pick = lambda k: np.concatenate([g[k] for g in groups])[order]
        X, FX = pattern_search(
            _owned_rows([g[2] for g in groups]), domain, pick(4), spec, pick(0), pick(1),
            pick(3), 1e-6, 0.5, dirs, [budgets[k] for k in owners], partners=owners,
        )
        for k, (X0, F0, rows, steps, radii, limit) in enumerate(groups):
            alone = _Budget(limit)
            x, fx = pattern_search(rows, domain, radii, spec, X0, F0, steps, 1e-6, 0.5, dirs, alone)
            mine = owners == k
            assert X[mine][np.argsort(order[mine])].tobytes() == x.tobytes(), (case, k)
            assert FX[mine][np.argsort(order[mine])].tobytes() == fx.tobytes(), (case, k)
            assert (budgets[k].used, budgets[k].exhausted) == (alone.used, alone.exhausted)
            if alone.exhausted:
                assert alone.used == limit
            events["cut" if alone.exhausted else "whole"] += 1
            events["idle"] += alone.used == 0
        events["mixed"] += len({b.exhausted for b in budgets}) == 2
    assert min(events.values()) >= 5, events
    X, FX = pattern_search(
        _owned_rows([]), FullSpace(2), np.empty(0), NormSpec(2, 2.0), np.empty((0, 2)),
        np.empty(0), np.empty(0), 1e-6, 0.5, direction_set(2), [], partners=np.empty(0, int),
    )
    assert X.shape == (0, 2) and FX.shape == (0,)


@given(
    st.integers(1, 3),
    st.integers(1, 4),
    st.sampled_from(["axes", "auto"]),
    st.sampled_from([0.5, 0.3, 0.7]),
    st.booleans(),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_a_search_on_a_counting_budget_ends_where_the_reference_ends_hypothesis(
    n, S, directions, shrink, paired, per_start, seed,
):
    # A budget without a limit lets each start value its next steps in one
    # call, a ladder; every endpoint and value is still bitwise that of the
    # one-direction-at-a-time reference, on objectives with ties and a NaN
    # half-space, also where shrink is no power of two, so that only the
    # reference's own products give the same steps, and where each start
    # has its own objective through its partner.  The budget counts every
    # row the objective saw, the unused ladder rows too, so never fewer
    # than the reference's; so does each start's own counting budget.
    rng = np.random.default_rng(seed)
    domain = random_domain(rng, n)
    spec = NormSpec(n, (1.0, 2.0, INF)[seed % 3])
    objectives = [nan_half_space_objective(rng, n) for _ in range(S if paired else 1)]
    radius = float(rng.uniform(1.0, 3.0))
    X0 = _starts_in_ball(rng, domain, spec, radius, S)
    owners = np.arange(S) if paired else np.zeros(S, int)
    F0 = _owned_rows(objectives)(X0, owners)
    dirs = direction_set(n, directions)
    step = float(rng.uniform(0.2, 1.0))
    seen = []

    def counted(X, *partner):
        seen.append(len(X))
        return _owned_rows(objectives)(X, *partner) if paired else objectives[0](X)

    budgets = [_Budget() for _ in range(S if per_start else 1)]
    ref_budgets = [_Budget() for _ in budgets]
    X, FX = pattern_search(
        counted, domain, radius, spec, X0, F0, step, 1e-6, shrink, dirs,
        budgets if per_start else budgets[0], partners=owners if paired else None,
    )
    for i in range(S):
        x_ref, fx_ref = reference_pattern_search(
            objectives[owners[i]], domain, radius, spec, X0[i], F0[i], step, 1e-6, shrink,
            dirs, ref_budgets[i if per_start else 0], collections.Counter(),
        )
        assert X[i].tobytes() == x_ref.tobytes(), i
        assert FX[i].tobytes() == np.float64(fx_ref).tobytes(), i
    assert sum(b.used for b in budgets) == sum(seen)
    for budget, ref_budget in zip(budgets, ref_budgets):
        assert budget.used >= ref_budget.used and not budget.exhausted


def test_a_ladder_that_raises_goes_on_without_ladders():
    # Two starts in 2-D with the 8 sign directions ladder 4 levels of 16
    # rows each.  The objective raises on the first row the lockstep never
    # evaluates, a deeper ladder level, once three calls have returned: the
    # search goes on from that iteration one level at a time, and ends
    # where the lockstep ends.  The rows of the call that raised stay counted.
    rng = np.random.default_rng(3)
    rows = random_rows_objective(rng, 2)
    X0 = _starts_in_ball(rng, FullSpace(2), NormSpec(2, 2.0), 3.0, 2)
    args = (FullSpace(2), 3.0, NormSpec(2, 2.0), X0, rows(X0), 0.5, 1e-6, 0.5, direction_set(2))
    lockstep_rows = []

    def recording(X):
        lockstep_rows.extend(x.tobytes() for x in X)
        return rows(X)

    lockstep = _Budget(10**18)  # a limit: one level per iteration
    X_ref, F_ref = pattern_search(recording, *args, lockstep)
    known, seen, raised = set(lockstep_rows), [], []

    def fussy(X):
        seen.append(len(X))
        unseen = [x for x in X if x.tobytes() not in known]
        if len(seen) > 3 and unseen:
            raised.append(len(seen))
            raise RangeViolation("a row the lockstep never evaluates", point=unseen[0])
        return rows(X)

    budget = _Budget()
    X, FX = pattern_search(fussy, *args, budget)
    assert X.tobytes() == X_ref.tobytes() and FX.tobytes() == F_ref.tobytes()
    assert raised == [4] and min(seen[:4]) > 16  # three ladder calls, then the raise
    assert budget.used == sum(seen) and lockstep.used == len(lockstep_rows)


def test_a_ladder_that_raises_at_its_first_level_raises_the_lockstep_error():
    # The objective raises on the first row of its batch in a band.  The
    # lockstep's first batch, 0.5 +- 1 and 3 +- 1, meets it at 4; the
    # ladder's first batch meets it earlier, at 0.5 - 0.25 in the first
    # start's third level.  Without ladders the search values the lockstep's batch again
    # and raises its error, with the same point, value and violation.
    raised = []

    def banded(X):
        for x in X:
            if 0.2 <= x[0] <= 0.3 or 3.9 <= x[0] <= 4.1:
                raised.append(float(x[0]))
                raise RangeViolation("in the band", point=x, value=2 * x, violation=x[0] - 0.2)
        return (X[:, 0] - 2.0) ** 2

    args = (banded, FullSpace(1), 10.0, NormSpec(1, 2.0), np.array([[0.5], [3.0]]),
            np.array([2.25, 1.0]), 1.0, 1e-6, 0.5, direction_set(1))
    errors = []
    for budget in (_Budget(10**18), _Budget()):
        with pytest.raises(RangeViolation) as info:
            pattern_search(*args, budget)
        errors.append(info.value)
    assert raised == [4.0, 0.25, 4.0]
    (lockstep, ladder) = errors
    assert str(ladder) == str(lockstep)
    for name in ("point", "value", "violation"):
        assert np.array(getattr(ladder, name)).tobytes() == np.array(
            getattr(lockstep, name)).tobytes(), name


def test_batched_global_minimize_matches_one_call_per_problem_bitwise(monkeypatch):
    # Problems with their own objective and radius, in dimensions 1-4: one
    # batched call gives each problem the endpoints, clusters, evaluations
    # and status of a call of its own.  The budget binds inside the
    # refinement of the longer searches only, and the others are untouched.
    import tiltlab.optimize as optimize

    ends = []

    def recording(*args, **kwargs):
        out = search(*args, **kwargs)
        ends.append(out)
        return out

    search = optimize.pattern_search
    monkeypatch.setattr(optimize, "pattern_search", recording)
    rng = np.random.default_rng(5)
    events = collections.Counter()
    for n in (1, 2, 3, 4):
        domain = random_domain(rng, n)
        spec = NormSpec(n, (1.0, 2.0, INF, 1.5)[n - 1])
        objectives = [random_rows_objective(rng, n) for _ in range(3)] + [double_well]
        radii = rng.uniform(1.0, 3.0, 4)
        roomy = OptimizeConfig(coarse_grid={1: 33, 2: 9, 3: 5, 4: 3}[n], multistart=4, seed=n)
        used = sorted(global_minimize(f, domain, r, roomy, spec).evaluations
                      for f, r in zip(objectives, radii))
        tight = replace(roomy, budget=(used[0] + used[-1]) // 2)
        for cfg in (roomy, tight):
            ends.clear()
            solo = [global_minimize(f, domain, r, cfg, spec) for f, r in zip(objectives, radii)]
            solo_ends = list(ends)
            ends.clear()
            batch = global_minimize_batch(_owned_rows(objectives), domain, radii, cfg, spec)
            (X, FX), = ends
            owners = np.repeat(np.arange(4), [len(x) for x, _ in solo_ends])
            for k, (a, b) in enumerate(zip(batch, solo)):
                assert a == b, (n, k)
                assert [c.point for c in a.clusters] == [c.point for c in b.clusters]
                assert np.array([c.value for c in a.clusters]).tobytes() == np.array(
                    [c.value for c in b.clusters]).tobytes()
                assert X[owners == k].tobytes() == solo_ends[k][0].tobytes()
                assert FX[owners == k].tobytes() == solo_ends[k][1].tobytes()
                events[b.status.value] += cfg is tight
    assert events["budget_exhausted"] >= 4 and events["ok"] >= 4, events


def test_batched_set_up_is_two_objective_calls(monkeypatch):
    # Every problem's grid rows are one objective call and every problem's
    # random starts one more, before the refinement starts; each result
    # stays that of the problem searched alone.
    import tiltlab.optimize as optimize

    calls, entered = [], []

    def recording(*args, **kwargs):
        entered.append(len(calls))
        return search(*args, **kwargs)

    search = optimize.pattern_search
    monkeypatch.setattr(optimize, "pattern_search", recording)
    rng = np.random.default_rng(11)
    for n in (1, 2, 3):
        domain = random_domain(rng, n)
        spec = NormSpec(n, (1.5, 2.0, INF)[n - 1])
        objectives = [random_rows_objective(rng, n) for _ in range(4)]
        radii = rng.uniform(1.0, 3.0, 4)
        cfg = OptimizeConfig(coarse_grid={1: 17, 2: 7, 3: 4}[n], multistart=3, seed=n)
        rows = _owned_rows(objectives)

        def objective(X, owners):
            calls.append(owners.tolist())
            return rows(X, owners)

        calls.clear()
        entered.clear()
        batch = global_minimize_batch(objective, domain, radii, cfg, spec)
        assert entered == [2], n
        assert [sorted(set(owners)) for owners in calls[:2]] == [[0, 1, 2, 3]] * 2
        for f, r, result in zip(objectives, radii, batch):
            assert result == global_minimize(f, domain, r, cfg, spec)


def test_batched_set_up_raises_what_one_problem_at_a_time_raises():
    # Problems 1 and 2 raise on every row; the batched grid call raises
    # problem 2's error, but problem 1's grid comes first one problem at a
    # time.  A refused radius raises after the problems before it are
    # valued, grid then random starts.
    calls = []

    def objective(X, owners):
        calls.append(sorted(set(owners.tolist())))
        for p in (2, 1):
            if p in owners:
                raise RuntimeError(f"problem {p}")
        return double_well(X)

    cfg = OptimizeConfig(coarse_grid=9, multistart=2)
    with pytest.raises(RuntimeError, match="problem 1"):
        global_minimize_batch(objective, FullSpace(1), [1.0, 2.0, 3.0], cfg)
    assert calls == [[0, 1, 2], [0], [0], [1]]
    calls.clear()
    with pytest.raises(ValueError, match="radius must be positive"):
        global_minimize_batch(objective, FullSpace(1), [1.0, -1.0, 3.0], cfg)
    assert calls == [[0], [0]]


def _first_error_one_problem_at_a_time(objective, domain, radii, cfg):
    """The exception of the first problem that raises when each is
    searched alone, in order, with its own owner index."""
    for p, radius in enumerate(radii):
        rows = lambda X, owners, p=p: objective(X, owners + p)
        try:
            global_minimize_batch(rows, domain, [radius], cfg)
        except Exception as exc:
            return exc
    raise AssertionError("no problem raised")


@pytest.mark.parametrize("domain", [HalfSpace(1, normal=(1.0,), offset=2.5),
                                    Orthant(1, lower=(2.5,))])
@pytest.mark.parametrize("radii, raising", [
    ([3.0, 3.5, 2.0, 4.0], ()),  # problem 2's grid is empty
    ([3.0, 3.5, 2.0, -1.0], ()),  # and problem 3's radius is refused
    ([3.0, np.inf, 2.0], ()),  # problem 1's radius is refused
    ([3.0, 2.0], (0,)),  # problem 0's objective raises first
    ([3.0, 3.5, 2.0], (1,)),  # problem 1's does, before problem 2's grid
])
def test_a_batch_raises_what_its_first_failing_problem_raises_alone(domain, radii, raising):
    # On x >= 2.5 a window of radius 2 has no grid point; the batched
    # windows pass raises, or refuses the empty grid, and the problems are
    # then scanned and valued one at a time.
    calls = []

    def objective(X, owners):
        calls.append(sorted(set(owners.tolist())))
        for p in raising:
            if p in owners:
                raise RuntimeError(f"problem {p}")
        return double_well(X)

    cfg = OptimizeConfig(coarse_grid=9, multistart=2)
    alone = _first_error_one_problem_at_a_time(objective, domain, radii, cfg)
    calls.clear()
    with pytest.raises(type(alone)) as batched:
        global_minimize_batch(objective, domain, radii, cfg)
    assert str(batched.value) == str(alone)
    failing = next(p for p in range(len(radii)) if p in raising or not 2.5 <= radii[p] < np.inf)
    valued = [[p] for p in range(failing) for _ in (0, 1)] + [[failing]] * (failing in raising)
    assert calls[len(calls) - len(valued):] == valued


def test_a_nan_incumbent_moves_to_a_finite_trial():
    # f is NaN left of 0; from -0.05 the trial 0.45 is finite, so the start
    # must move, where comparing against a NaN incumbent kept it in place.
    def rows(X):
        x = X[:, 0]
        return np.where(x < 0.0, np.nan, (x - 1.0) ** 2)

    x0 = np.array([[-0.05]])
    X, FX = pattern_search(
        rows, FullSpace(1), 4.0, NormSpec(1, 2.0), x0, rows(x0), 0.5, 1e-9, 0.5,
        direction_set(1), _Budget(10_000),
    )
    assert X[0, 0] == pytest.approx(1.0, abs=1e-8)
    assert FX[0] == rows(X)[0] and np.isfinite(FX[0])


def test_pattern_search_nan_trials_never_win_nor_hide_improvement():
    dirs = direction_set(2, "full")  # first direction is (-1, -1)
    center = np.array([1.0, 1.0])

    def rows(X):
        v = ((X - center) ** 2).sum(axis=1)
        return np.where(X[:, 1] < 0.0, np.nan, v)

    x0 = np.zeros((1, 2))
    X, FX = pattern_search(
        rows, FullSpace(2), 4.0, NormSpec(2, 2.0), x0, [2.0], 1.0, 1e-9, 0.5, dirs,
        _Budget(10_000),
    )
    assert np.array_equal(X[0], center) and FX[0] == 0.0

    def all_nan(X):
        return np.full(len(X), np.nan)

    budget = _Budget(10_000)
    X, FX = pattern_search(
        all_nan, FullSpace(2), 4.0, NormSpec(2, 2.0), x0, [2.0], 1.0, 1e-3, 0.5, dirs,
        budget,
    )
    assert np.array_equal(X, x0) and FX[0] == 2.0
    assert budget.used == 8 * 10  # ten shrinks from 1 to below 1e-3


def test_global_minimize_with_rows_makes_no_scalar_calls():
    F = TiltedFunctional(
        NormSpec(2, 2.0),
        Orthant(2),
        AffineMap(2, matrix=((0.3, 0.1), (0.0, 0.2)), offset=(1.0, 0.5)),
    )
    shapes = []

    def rows(X):
        shapes.append(X.shape)
        return F.displacements(X)

    res = global_minimize(rows, F.domain, 6.0, CFG, norm_spec=F.norm)
    # Every call is a (k, 2) batch, and every row it holds is charged.
    assert shapes and all(len(s) == 2 and s[1] == 2 for s in shapes)
    assert sum(s[0] for s in shapes) == res.evaluations > 0
    assert np.allclose(res.best_point, analytic_fixed_point(F.mapping), atol=1e-6)


def test_determinism_bitwise():
    cfg = OptimizeConfig(coarse_grid=17, multistart=6, seed=42)
    a = global_minimize(double_well, FullSpace(1), 2.0, cfg)
    b = global_minimize(double_well, FullSpace(1), 2.0, cfg)
    assert a == b
    c = global_minimize(
        quarter_tilt(1.0), Orthant(1), 3.0, cfg, norm_spec=NormSpec(1, 2.0)
    )
    d = global_minimize(
        quarter_tilt(1.0), Orthant(1), 3.0, cfg, norm_spec=NormSpec(1, 2.0)
    )
    assert c == d


def test_feasibility_of_representatives():
    cfg = OptimizeConfig(coarse_grid=17, multistart=6, seed=1)
    dom = Orthant(2)
    spec = NormSpec(2, 1.0)
    res = global_minimize(
        rows_of(lambda x: float((x[0] - 3.0) ** 2 + (x[1] - 3.0) ** 2)),
        dom,
        2.0,
        cfg,
        norm_spec=spec,
    )
    for c in res.clusters:
        p = c.point_array
        assert contains(dom, p, 1e-9)
        assert norm(p, spec) <= res.radius + 1e-9


def test_cluster_soundness_recheck():
    cfg = OptimizeConfig(coarse_grid=33, multistart=12, seed=11)
    res = global_minimize(double_well, FullSpace(1), 2.0, cfg)
    best = res.global_value
    spec = NormSpec(1, 2.0)
    for c in res.clusters:
        assert c.value <= best + cfg.value_tolerance
    pts = [c.point_array for c in res.clusters]
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            assert norm(pts[i] - pts[j], spec) >= cfg.separation


def test_budget_exhaustion_status():
    cfg = OptimizeConfig(coarse_grid=33, multistart=4, budget=40, seed=0)
    res = global_minimize(double_well, FullSpace(1), 2.0, cfg)
    assert res.status is SearchStatus.BUDGET_EXHAUSTED
    assert res.evaluations <= 40
    assert res.cluster_count >= 1


def test_no_minimum_suspected_on_boundary_drift():
    # objective decreasing outward: the incumbent lands on the shell
    cfg = OptimizeConfig(coarse_grid=17, multistart=4, seed=0)
    res = global_minimize(rows_of(lambda x: -abs(float(x[0]))), FullSpace(1), 5.0, cfg)
    assert res.status is SearchStatus.NO_MINIMUM_SUSPECTED


def test_infeasible_truncation():
    far = Orthant(1, lower=(10.0,))
    with pytest.raises(InfeasibleTruncation):
        global_minimize(rows_of(lambda x: 0.0), far, 1.0, CFG)
    with pytest.raises(InfeasibleTruncation):
        brute_force_minima(lambda x: 0.0, far, 1.0, 101)


def test_oracle_agreement_spot():
    # 1-D instances at oracle resolution 4001, 2-D at 401
    cfg = OptimizeConfig(coarse_grid=33, multistart=8, seed=5)
    cases = [
        (double_well, FullSpace(1), 2.0),
        (quarter_tilt(4.0), FullSpace(1), 2.0),
        (quarter_tilt(-2.0), FullSpace(1), 3.0),
    ]
    for obj, dom, radius in cases:
        mine = global_minimize(obj, dom, radius, cfg)
        oracle = brute_force_minima(None, dom, radius, 4001, objective_rows=obj)
        spacing = 2 * radius / 4000
        assert mine.cluster_count == oracle.cluster_count
        assert abs(mine.global_value - oracle.global_value) <= max(1e-6, 10 * spacing)


def test_planted_double_well_shape():
    g = planted_double_well(2, spread=2.0)
    values = g(np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 0.0], [1.0, 0.5]]))
    assert values.tolist()[:2] == [0.0, 0.0]
    assert np.all(values[2:] > 0.0)
    with pytest.raises(DimensionMismatch):
        g(np.zeros((4, 3)))


def test_rows_plant_matches_the_scalar_formula():
    # The plant as it was written per point, kept as the reference.
    def scalar_plant(x, spread):
        d = np.asarray(x, dtype=float) - np.zeros(len(x))
        rest = float(np.dot(d[1:], d[1:]))
        half = spread / 2.0
        return (d[0] * d[0] - half * half) ** 2 + rest

    rng = np.random.default_rng(4)
    for n in (1, 2, 3, 4):
        for spread in (1.0, 2.0):
            X = rng.uniform(-2.0, 2.0, (500, n))
            rows = planted_double_well(n, spread)(X)
            reference = np.array([scalar_plant(x, spread) for x in X])
            assert np.all(np.abs(rows - reference) <= 4 * np.spacing(reference))
            wells = np.zeros((2, n))
            wells[:, 0] = (-spread / 2.0, spread / 2.0)
            assert planted_double_well(n, spread)(wells).tolist() == [0.0, 0.0]


def test_direction_sets():
    axes = direction_set(3, "axes")
    assert axes.shape == (6, 3)
    full = direction_set(2, "full")
    assert full.shape == (8, 2)
    auto5 = direction_set(5, "auto")  # 3^5 - 1 = 242 > 80: axes + diagonals
    assert len(auto5) == 2 * 5 + 4 * 10


def test_config_validation():
    with pytest.raises(ValueError):
        OptimizeConfig(shrink=1.5)
    with pytest.raises(ValueError):
        OptimizeConfig(separation=1e-10, termination_step=1e-9)
    with pytest.raises(ValueError):
        OptimizeConfig(seed=-1)
    with pytest.raises(ValueError):
        OptimizeConfig(directions="spiral")


@pytest.mark.parametrize(
    "field", ["initial_step", "termination_step", "value_tolerance", "separation"]
)
def test_config_rejects_an_infinite_float(field):
    with pytest.raises(ValueError, match=field):
        OptimizeConfig(**{field: np.inf})


def _cluster_reference(points, values, value_tolerance, separation, norm_spec):
    """Clusters by one norm pass per endpoint within tolerance, against the
    representatives taken so far."""
    order = sorted((i for i, v in enumerate(values) if not math.isnan(v)),
                   key=lambda i: (values[i], i))
    best, reps = values[order[0]], []
    for i in order:
        if values[i] > best + value_tolerance:
            break
        held = np.array([x for x, _ in reps]).reshape(-1, norm_spec.dimension)
        if not reps or (norms_of_rows(points[i] - held, norm_spec) >= separation).all():
            reps.append((points[i], values[i]))
    return tuple((tuple(float(v) for v in x), float(fv)) for x, fv in reps)


@given(st.integers(1, 3), st.sampled_from((1.0, 1.5, 2.0, INF)), st.integers(0, 2**32 - 1),
       st.sampled_from((0.0, 0.5, 1.0)), st.sampled_from((0.5, 1.0, 2.0)))
@settings(max_examples=200, deadline=None)
def test_cluster_equals_the_per_endpoint_loop_hypothesis(n, p, seed, tolerance, separation):
    # Endpoints on a coarse lattice, so pairs sit exactly at the separation,
    # with tied values and NaN values.
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, 24))
    points = rng.integers(-2, 3, size=(k, n)) * 0.5
    values = rng.choice([0.0, 0.25, 0.5, 1.0, np.nan], size=k)
    if np.isnan(values).all():
        values[0] = 0.5
    spec = NormSpec(n, p)
    got = _cluster(points, values, tolerance, separation, spec)
    want = _cluster_reference(points, values, tolerance, separation, spec)
    assert [(c.point, c.value) for c in got] == list(want)
    assert _cluster(list(points), values.tolist(), tolerance, separation, spec) == got


def test_nan_values_never_form_a_cluster():
    # NaN away from the double well's right minimum: only x = 1 is a minimum.
    objective = lambda X: np.where(X[:, 0] > 0.0, double_well(X), np.nan)
    res = global_minimize(objective, FullSpace(1), 2.0, CFG)
    assert res.cluster_count == 1
    assert res.clusters[0].point[0] == pytest.approx(1.0, abs=1e-6)
    assert all(np.isfinite(c.value) for c in res.clusters)
    oracle = brute_force_minima(None, FullSpace(1), 2.0, 401, objective_rows=objective)
    assert [c.point[0] for c in oracle.clusters] == pytest.approx([1.0], abs=1e-2)


def test_an_objective_that_is_nan_everywhere_has_no_minimum():
    nan_everywhere = lambda x: np.nan
    with pytest.raises(ValueError, match="every objective value is NaN"):
        global_minimize(rows_of(nan_everywhere), FullSpace(1), 1.0, CFG)
    with pytest.raises(ValueError, match="every objective value is NaN"):
        brute_force_minima(nan_everywhere, FullSpace(1), 1.0, 11)


def test_first_argmin_skips_nan():
    from tiltlab.optimize import first_argmin

    assert first_argmin(np.array([np.nan, 2.0, 1.0, 1.0])) == 2
    assert first_argmin(np.array([3.0, -np.inf, np.nan])) == 1
    assert first_argmin(np.array([np.nan, np.nan])) == 0


def test_a_nan_value_does_not_stop_the_oracle_pruning_its_candidates(monkeypatch):
    import tiltlab.optimize as optimize

    counts = []
    cluster = optimize._cluster

    def counting_cluster(points, values, *args):
        counts.append(len(points))
        return cluster(points, values, *args)

    monkeypatch.setattr(optimize, "_cluster", counting_cluster)
    bowl = lambda X: (X[:, 0] - 0.3) ** 2
    holed = lambda X: np.where(np.abs(X[:, 0] + 0.9) < 1e-9, np.nan, bowl(X))
    for rows in (bowl, holed):
        res = brute_force_minima(None, FullSpace(1), 1.0, 2001, objective_rows=rows)
        assert res.cluster_count == 1
    # Without pruning, the NaN at x = -0.9 kept all 2000 other grid points.
    assert counts[1] == counts[0] <= 2


@pytest.mark.parametrize(
    "bad, shape",
    [
        (lambda X: X ** 2, "(7, 1)"),  # a column, not one value per row
        (lambda x: (x[0] ** 2 - 1.0) ** 2, "(1,)"),  # a scalar objective
    ],
    ids=["column", "scalar"],
)
def test_a_rows_objective_of_the_wrong_shape_is_refused(bad, shape):
    # Both searches see 7 grid rows first, and name the shape they got.
    message = r"one value per row, shape \(7,\), got shape " + re.escape(shape)
    cfg = OptimizeConfig(coarse_grid=7, multistart=2, seed=0)
    with pytest.raises(ValueError, match=message):
        global_minimize(bad, FullSpace(1), 1.0, cfg)
    with pytest.raises(ValueError, match=message):
        brute_force_minima(None, FullSpace(1), 1.0, 7, objective_rows=bad)


def _full_mesh_scan(F: TiltedFunctional, radius, resolution, tolerance, separation,
                    path="rows"):
    """The oracle written as one pass over the whole mesh: every grid point in
    index order, the members of the set inside the ball, Phi on them, and
    the points within ``tolerance`` of the least value clustered.  Phi is
    ``F.displacements`` of the rows, or under ``path="mesh"``, where the
    oracle's mesh form applies, the mesh kernel's over the whole mesh as
    one block."""
    n = F.norm.dimension
    axis = np.linspace(-radius, radius, resolution)
    mesh = np.meshgrid(*[axis] * n, indexing="ij")
    pts = np.stack([g.ravel() for g in mesh], axis=1)
    inside = (F.domain.violations_of_rows(pts) <= 1e-12) & (
        norms_of_rows(pts, F.norm) <= radius + 1e-12 * max(1.0, radius)
    )
    if path == "mesh" and F.mesh_form:
        block = MeshBlock((), [axis] * n, slice(0, resolution),
                          inside.reshape((resolution,) * n), None)
        [(_, phi)] = mesh_displacements(F, [block])
        vals = phi.ravel()[inside]
    else:
        vals = F.displacements(pts[inside])
    pts = pts[inside]
    near = vals <= np.nanmin(vals) + tolerance
    clusters = _cluster(list(pts[near]), vals[near].tolist(), tolerance, separation, F.norm)
    return len(pts), clusters


# The oracle's two paths for Phi: rows, taken for any callable but F's own
# displacements, and the mesh form, taken for F.displacements where it applies.
_PATHS = {"rows": lambda F: (lambda X: F.displacements(X)), "mesh": lambda F: F.displacements}


def _oracle(F: TiltedFunctional, radius, resolution, path, **kwargs):
    return brute_force_minima(None, F.domain, radius, resolution, norm_spec=F.norm,
                              objective_rows=_PATHS[path](F), **kwargs)


def _oracle_instance(n, p, orthant, seed, lower=None):
    """An affine J on full space or on the orthant x >= ``lower`` (0 when
    omitted), whose map sends the orthant into itself."""
    rng = np.random.default_rng(seed)
    A = rng.uniform(-0.3, 0.3, (n, n)) / n
    b = rng.uniform(-1.0, 1.0, n)
    if orthant:
        A, b = np.abs(A), np.abs(b)
    if lower is not None:  # f(x) >= A lower + b = lower + |b| for x >= lower
        b = b + np.array(lower) - A @ np.array(lower)
    mapping = AffineMap(n, matrix=tuple(map(tuple, A)), offset=tuple(b))
    domain = Orthant(n, lower=lower or ()) if orthant else FullSpace(n)
    return TiltedFunctional(norm=NormSpec(n, p), domain=domain, mapping=mapping)


@given(
    st.integers(1, 3),
    st.sampled_from((1.0, 1.5, 2.0, INF)),
    st.booleans(),
    st.integers(0, 2**32 - 1),
    st.integers(1, 7).map(lambda k: 2 * k + 1),  # odd, so the origin is a grid point
    st.floats(0.5, 3.0),
)
@settings(max_examples=60, deadline=None)
@pytest.mark.parametrize("path", list(_PATHS))
def test_brute_force_equals_a_full_mesh_scan_hypothesis(
    path, n, p, orthant, seed, resolution, radius
):
    F = _oracle_instance(n, p, orthant, seed)
    res = _oracle(F, radius, resolution, path)
    evaluations, clusters = _full_mesh_scan(F, radius, resolution, 1e-6, 1e-3, path)
    assert res.evaluations == evaluations
    assert res.global_value == clusters[0].value
    assert res.clusters == clusters


@pytest.mark.parametrize("orthant", [False, True])
@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, INF])
@pytest.mark.parametrize("path", list(_PATHS))
def test_brute_force_equals_a_full_mesh_scan_over_many_chunks(path, p, orthant):
    # 41^3 grid points: a tail mesh of two axes, 41 blocks.  On full space
    # and orthants each block's ball mask under l1 and l2 is the mesh form,
    # continued from its leading value's term; the max norm clips the axes.
    F = _oracle_instance(3, p, orthant, 11)
    res = _oracle(F, 2.0, 41, path, value_tolerance=1e-3)
    evaluations, clusters = _full_mesh_scan(F, 2.0, 41, 1e-3, 1e-3, path)
    assert (res.evaluations, res.global_value) == (evaluations, clusters[0].value)
    assert res.clusters == clusters


@pytest.mark.parametrize("value_tolerance", [1e-6, 1e-3])
@pytest.mark.parametrize("path", list(_PATHS))
def test_brute_force_equals_a_full_mesh_scan_across_slices_of_one_axis(path, value_tolerance):
    # 70,001 points on one axis make two slices of 65,536 and 4,465 rows;
    # Phi = |x - x*| / 2 puts x* on the slice edge, so with the wider
    # tolerance the candidates straddle it.
    edge = -1.5 + 65536 * 3.0 / 70000
    F = TiltedFunctional(NormSpec(1, 2.0), FullSpace(1),
                         AffineMap(1, matrix=((0.5,),), offset=(0.5 * edge,)))
    res = _oracle(F, 1.5, 70001, path, value_tolerance=value_tolerance)
    evaluations, clusters = _full_mesh_scan(F, 1.5, 70001, value_tolerance, 1e-3, path)
    assert evaluations == 70001
    assert (res.evaluations, res.global_value) == (evaluations, clusters[0].value)
    assert res.clusters == clusters
    if value_tolerance == 1e-3:
        assert min(c.point[0] for c in clusters) < edge < max(c.point[0] for c in clusters)


def _half_space_and_cone(n):
    normal = (1.0, -0.5, 0.25, 0.5)[:n]
    half = HalfSpace(n, normal=normal, offset=-0.3)
    other = HalfSpace(n, normal=(0.25, 1.0, -0.5, 0.25)[:n], offset=-0.6)
    cone = ConeIntersection(n, constraints=(half, other), ray=(1.0, 1.0, 1.0, 1.0)[:n])
    return half, cone


def _projected_onto(F: TiltedFunctional, domain) -> TiltedFunctional:
    """F's map followed by the projection onto ``domain``, J over ``domain``."""
    return replace(F, domain=domain, mapping=ProjectedMap(F.dimension, inner=F.mapping))


@pytest.mark.parametrize("variant", ["half_space", "cone"])
@pytest.mark.parametrize("p", [1.5, INF])
@pytest.mark.parametrize("path", list(_PATHS))
def test_brute_force_equals_a_full_mesh_scan_on_half_spaces_and_cones(path, p, variant):
    # 41^3 points: a tail mesh of two axes, 41 blocks.
    half, cone = _half_space_and_cone(3)
    F = _projected_onto(_oracle_instance(3, p, False, 13),
                        half if variant == "half_space" else cone)
    res = _oracle(F, 2.0, 41, path, value_tolerance=1e-3)
    evaluations, clusters = _full_mesh_scan(F, 2.0, 41, 1e-3, 1e-3, path)
    assert 0 < evaluations < 41 ** 3
    assert (res.evaluations, res.global_value) == (evaluations, clusters[0].value)
    assert res.clusters == clusters


@pytest.mark.parametrize(
    "domain, resolution",
    [("full_space", 13), ("orthant", 13), ("cone", 13), ("orthant", 26), ("full_space", 26)],
)
@pytest.mark.parametrize("path", list(_PATHS))
def test_brute_force_equals_a_full_mesh_scan_in_four_dimensions(path, domain, resolution):
    # 13^3 <= 65536 // 4 < 13^4: a tail mesh of three axes, 13 blocks;
    # 26^2 <= 65536 // 4 < 26^3: two axes, and two leading columns per block.
    # The orthant keeps the 7 and 13 nonnegative values of each axis, whose
    # meshes need a tail of four and of three axes.
    F = _oracle_instance(4, 2.0, domain == "orthant", 17)
    if domain == "cone":
        F = _projected_onto(F, _half_space_and_cone(4)[1])
    res = _oracle(F, 1.5, resolution, path, value_tolerance=1e-2)
    evaluations, clusters = _full_mesh_scan(F, 1.5, resolution, 1e-2, 1e-3, path)
    assert (res.evaluations, res.global_value) == (evaluations, clusters[0].value)
    assert res.clusters == clusters


@pytest.mark.parametrize(
    "p, orthant",
    [(1.0, True), (2.0, True), (INF, True), (1.0, False), (2.0, False), (INF, False)],
    ids=["1.0", "2.0", "MaxNorm.INF", "1.0-full_space", "2.0-full_space", "inf-full_space"],
)
@pytest.mark.parametrize("path", list(_PATHS))
def test_brute_force_equals_a_full_mesh_scan_under_a_weighted_norm(path, p, orthant):
    # 301^2 > 65536 // 2: a tail mesh of one axis, 301 blocks.  Under the
    # max norm the weight 3 cuts the second axis to |y| <= 2.5 / 3, so the
    # clipped mesh holds fewer rows than the members of the set.
    F = _oracle_instance(2, p, orthant, 19)
    F = replace(F, norm=NormSpec(2, p, weights=(0.5, 3.0)))
    res = _oracle(F, 2.5, 301, path, value_tolerance=1e-3)
    evaluations, clusters = _full_mesh_scan(F, 2.5, 301, 1e-3, 1e-3, path)
    assert (res.evaluations, res.global_value) == (evaluations, clusters[0].value)
    assert res.clusters == clusters
    if p is INF and not orthant:
        assert evaluations == 301 * 101


# On the axis of 33 points over [-2, 2] (spacing 1/8), bounds on nodes,
# between nodes, and negative.
_LOWER_BOUNDS = {
    "on_nodes": (0.5, -1.0, 0.0),
    "between_nodes": (0.3, -0.7, 0.1),
    "negative": (-1.2, -0.45, -2.0),
}


@pytest.mark.parametrize("lower", list(_LOWER_BOUNDS))
@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, INF])
@pytest.mark.parametrize("path", list(_PATHS))
def test_brute_force_equals_a_full_mesh_scan_on_orthants_with_lower_bounds(path, p, lower):
    F = _oracle_instance(3, p, True, 23, lower=_LOWER_BOUNDS[lower])
    res = _oracle(F, 2.0, 33, path, value_tolerance=1e-3)
    evaluations, clusters = _full_mesh_scan(F, 2.0, 33, 1e-3, 1e-3, path)
    assert 0 < evaluations < 33 ** 3
    assert (res.evaluations, res.global_value) == (evaluations, clusters[0].value)
    assert res.clusters == clusters


@pytest.mark.parametrize("lower", list(_LOWER_BOUNDS))
@pytest.mark.parametrize("path", list(_PATHS))
def test_brute_force_equals_a_full_mesh_scan_on_orthants_under_a_weighted_norm(path, lower):
    F = _oracle_instance(3, 1.5, True, 29, lower=_LOWER_BOUNDS[lower])
    F = replace(F, norm=NormSpec(3, 1.5, weights=(0.5, 3.0, 1.25)))
    res = _oracle(F, 2.0, 33, path, value_tolerance=1e-3)
    evaluations, clusters = _full_mesh_scan(F, 2.0, 33, 1e-3, 1e-3, path)
    assert (res.evaluations, res.global_value) == (evaluations, clusters[0].value)
    assert res.clusters == clusters


def test_brute_force_refuses_an_orthant_with_a_bound_beyond_the_radius():
    # No grid value of the second axis reaches 2.5: no point is a member.
    F = _oracle_instance(3, 2.0, True, 31, lower=(0.25, 2.5, 0.0))
    message = r"^no feasible grid point inside the ball of radius 2\.0$"
    with pytest.raises(InfeasibleTruncation, match=message):
        brute_force_minima(None, F.domain, 2.0, 33, norm_spec=F.norm,
                           objective_rows=F.displacements)
    with pytest.raises(InfeasibleTruncation, match=message):
        brute_force_minima(lambda x: 0.0, F.domain, 2.0, 33)


@pytest.mark.parametrize("weights", [None, (1.0, 2.0)])
@pytest.mark.parametrize("variant", ["full_space", "orthant", "half_space", "cone"])
def test_brute_force_refuses_a_norm_of_another_dimension(variant, weights):
    # A 2-D norm on a 3-D set is refused before any row is scanned.
    half, cone = _half_space_and_cone(3)
    domain = {"full_space": FullSpace(3), "orthant": Orthant(3),
              "half_space": half, "cone": cone}[variant]
    calls = []
    with pytest.raises(DimensionMismatch, match=r"^set and norm dimensions disagree$"):
        brute_force_minima(None, domain, 2.0, 9, norm_spec=NormSpec(2, 2.0, weights=weights),
                           objective_rows=lambda X: calls.append(len(X)) or np.zeros(len(X)))
    assert calls == []


def test_brute_force_evaluations_repeat_per_call():
    F = _oracle_instance(3, 2.0, True, 23, lower=_LOWER_BOUNDS["between_nodes"])
    first, again = (
        brute_force_minima(None, F.domain, 2.0, 33, norm_spec=F.norm,
                           objective_rows=F.displacements)
        for _ in range(2)
    )
    assert first == again


def _refuse(*args, **kwargs):
    raise AssertionError("this path must not run")


@pytest.mark.parametrize("case", ["lambda", "bounded", "projected", "p=1.5", "cone", "kernels"])
def test_the_oracle_keeps_the_row_path_outside_the_mesh_form(case, monkeypatch):
    # Any callable but F's own displacements, a map of another family, a
    # norm outside p in {1, 2, inf}, a set that is not a box and an F whose
    # kernels are its own are scanned by rows, as before: the mesh kernel is
    # never called, and counts and bits equal the row reference.
    import tiltlab.optimize as optimize

    F = _oracle_instance(3, 2.0, False, 37)
    if case == "bounded":
        F = replace(F, mapping=BoundedPerturbedMap(
            3, matrix=F.mapping.matrix, offset=F.mapping.offset, amplitude=0.05))
    elif case == "projected":
        F = replace(F, mapping=ProjectedMap(3, inner=F.mapping))
    elif case == "p=1.5":
        F = replace(F, norm=NormSpec(3, 1.5))
    elif case == "cone":
        F = _projected_onto(F, _half_space_and_cone(3)[1])
    elif case == "kernels":
        F = kernel_functional(F.pairs, F.row_sup, like=F)
    evaluations, clusters = _full_mesh_scan(F, 2.0, 25, 1e-3, 1e-3)
    monkeypatch.setattr(optimize, "mesh_displacements", _refuse)
    res = _oracle(F, 2.0, 25, "rows" if case == "lambda" else "mesh", value_tolerance=1e-3)
    assert (res.evaluations, res.global_value) == (evaluations, clusters[0].value)
    assert res.clusters == clusters


@pytest.mark.parametrize("orthant", [False, True])
@pytest.mark.parametrize("family", ["affine", "constant"])
def test_the_mesh_path_builds_no_rows(family, orthant, monkeypatch):
    # F's own displacements with an affine or constant map on a box set are
    # scanned in mesh form: neither the map's rows nor a block's rows are
    # built, and the result is the one-block mesh reference's, bit for bit.
    F = _oracle_instance(3, 1.0, orthant, 41, lower=[0.25, -0.5, 0.0] if orthant else None)
    if family == "constant":
        F = replace(F, mapping=ConstantMap(3, value=(0.5, 0.25, 1.0)))
    evaluations, clusters = _full_mesh_scan(F, 2.0, 33, 1e-3, 1e-3, "mesh")
    for cls in (AffineMap, ConstantMap, MeshBlock):
        monkeypatch.setattr(cls, "rows" if cls is MeshBlock else "raw_rows", _refuse)
    res = _oracle(F, 2.0, 33, "mesh", value_tolerance=1e-3)
    assert (res.evaluations, res.global_value) == (evaluations, clusters[0].value)
    assert res.clusters == clusters


def _first_range_violation(F, radius, resolution):
    """The worst member of the first block of the oracle's walk whose map
    value leaves the set, as ``(point, value, violation)`` from rows."""
    n = F.dimension
    axis = np.linspace(-radius, radius, resolution)
    axes = [axis[axis >= lo - 1e-12] for lo in F.domain.ray_base]
    for block in mesh_blocks(axes, radius, F.norm, MESH_BLOCK_FLOATS // n):
        X = block.rows()
        FX = F.mapping.raw_rows(X, F.domain)
        violations = F.domain.violations_of_rows(FX)
        if len(X) and violations.max() > MEMBERSHIP_TOL:
            worst = int(np.argmax(violations))
            return X[worst].copy(), FX[worst], float(violations[worst])
    raise AssertionError("the map never leaves the set")


@pytest.mark.parametrize("p", [1.0, 2.0, INF])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_the_oracle_paths_raise_the_same_range_violation(n, p):
    # f_1(x) = 0.9 x_0 + 0.3 x_1 - 1 falls below the bound -0.5 where x_0
    # and x_1 are small: both paths raise the rows' RangeViolation for the
    # worst member of the first failing block, bit for bit.
    lower = np.array((0.25, -0.5, 0.0, 0.1)[:n])
    A = 0.3 * np.eye(n)
    A[1, 0] = 0.9
    b = lower - A @ lower + 0.1
    b[1] = -1.0
    F = TiltedFunctional(NormSpec(n, p), Orthant(n, lower=tuple(lower)),
                         AffineMap(n, matrix=tuple(map(tuple, A)), offset=tuple(b)))
    resolution = {2: 301, 3: 41, 4: 13}[n]
    point, value, violation = _first_range_violation(F, 2.0, resolution)
    for path in _PATHS:
        with pytest.raises(RangeViolation) as caught:
            _oracle(F, 2.0, resolution, path)
        got = caught.value
        assert _bits(got.point) == _bits(point)
        assert (_bits(got.value), got.violation) == (_bits(value), violation)


@pytest.mark.parametrize("n", [2, 3])
def test_the_oracle_paths_agree_at_the_edge_of_the_range_check(n):
    # lower_0 is the least bound at which the rows' least f_0 over the grid
    # fails the range check, or the float below it, where it passes.  The
    # mesh form sums f in another order than the rows' BLAS product, so its
    # least f_0 may differ in the last bits; the paths must still raise on
    # the same instances, with the same payload, bit for bit.
    radius, resolution = 1.0, 9
    axis = np.linspace(-radius, radius, resolution)
    X = np.stack([g.ravel() for g in np.meshgrid(*[axis] * n, indexing="ij")], axis=1)
    raised = 0
    for seed in range(40):
        rng = np.random.default_rng(seed)
        A, b = rng.uniform(-1.0, 1.0, (n, n)), rng.uniform(-1.0, 1.0, n)
        b[0] -= 5.0  # f_0 < -1, so lower_0 cuts no grid value
        aff = AffineMap(n, matrix=tuple(map(tuple, A)), offset=tuple(b))
        least = float(aff.raw_rows(X, FullSpace(n))[:, 0].min())
        edge = least + MEMBERSHIP_TOL
        while not edge - least > MEMBERSHIP_TOL:
            edge = np.nextafter(edge, np.inf)
        while np.nextafter(edge, -np.inf) - least > MEMBERSHIP_TOL:
            edge = np.nextafter(edge, -np.inf)
        for lower_0 in (edge, np.nextafter(edge, -np.inf)):
            lower = (float(lower_0),) + (-100.0,) * (n - 1)
            F = TiltedFunctional(NormSpec(n, INF), Orthant(n, lower=lower), aff)
            outcomes = []
            for path in _PATHS:
                try:
                    outcomes.append(_oracle(F, radius, resolution, path).evaluations)
                except RangeViolation as got:
                    outcomes.append((_bits(got.point), _bits(got.value), got.violation))
            assert outcomes[0] == outcomes[1]
            raised += isinstance(outcomes[0], tuple)
    assert raised == 40


def _bits(a) -> bytes:
    return np.ascontiguousarray(a, dtype=float).tobytes()
