import numpy as np
import pytest

from helpers import affine_instance, feasible_cloud, instance_growth

from tiltlab import (
    INF,
    AffineMap,
    BoundedPerturbedMap,
    ConeIntersection,
    ConstantMap,
    FullSpace,
    GrowthConditionNotMet,
    HalfSpace,
    MembershipViolation,
    NormSpec,
    Orthant,
    ProjectedMap,
    RangeViolation,
    TiltedFunctional,
    coercivity_radius,
    displacement,
    evaluate,
    norm,
    norms_of_rows,
    tilted_value,
)
from tiltlab.experiments import effective_growth_bound


def quarter_map():
    return TiltedFunctional(
        norm=NormSpec(1, 2.0),
        domain=FullSpace(1),
        mapping=AffineMap(1, matrix=((0.25,),), offset=(0.0,)),
    )


def test_tilted_value_examples():
    F = quarter_map()
    assert tilted_value(F, [0.0], [4.0]) == -4.0
    assert tilted_value(F, [4.0], [0.0]) == 2.0
    assert tilted_value(F, [1.3], [1.3]) == 0.0


def test_displacement_examples():
    F = quarter_map()
    assert displacement(F, [4.0]) == 3.0
    c = ConstantMap(2, value=(1.0, 2.0))
    Fc = TiltedFunctional(NormSpec(2, 2.0), FullSpace(2), c)
    assert displacement(Fc, [1.0, 2.0]) == 0.0
    aff = AffineMap(2, matrix=((0.3, 0.0), (0.0, 0.2)), offset=(1.0, 1.0))
    F1 = TiltedFunctional(NormSpec(2, 1.0), FullSpace(2), aff)
    assert displacement(F1, [0.0, 0.0]) == 2.0


def test_membership_preconditions():
    F = TiltedFunctional(
        NormSpec(1, 2.0), Orthant(1), AffineMap(1, matrix=((0.25,),), offset=(1.0,))
    )
    with pytest.raises(MembershipViolation):
        tilted_value(F, [-1.0], [0.0])
    with pytest.raises(MembershipViolation):
        tilted_value(F, [0.0], [-1.0])
    with pytest.raises(MembershipViolation):
        displacement(F, [-1.0])


def test_coercivity_radius_examples():
    F = quarter_map()
    assert coercivity_radius(F, [4.0], 0.25, 0.0, -4.0, 1.0) == 2.0
    # derived check: J(x, 4) >= 0.5|x| - 4 > -4 for |x| >= 2
    for x in np.linspace(2.0, 50.0, 481):
        for s in (-1.0, 1.0):
            assert tilted_value(F, [s * x], [4.0]) > -4.0
    Fc = TiltedFunctional(
        NormSpec(1, 2.0), FullSpace(1), ConstantMap(1, value=(0.5,))
    )
    assert coercivity_radius(Fc, [1.0], 0.0, 0.0, 0.0, 1.0) == 2.0
    assert coercivity_radius(F, [1.0], 0.4, 0.0, 0.5, 0.1) == pytest.approx(8.0)


def test_coercivity_radius_validation():
    F = quarter_map()
    with pytest.raises(GrowthConditionNotMet):
        coercivity_radius(F, [1.0], 0.5, 0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        coercivity_radius(F, [1.0], 0.25, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        coercivity_radius(F, [1.0], 0.25, -1.0, 0.0, 1.0)


INSTANCES = [affine_instance(i) for i in range(8)]


@pytest.mark.parametrize("index", range(8))
def test_zero_diagonal_exact(index):
    F = INSTANCES[index]
    pts = feasible_cloud(F, 6.0, 125, seed=index)
    for x in pts:
        assert tilted_value(F, x, x) == 0.0


@pytest.mark.parametrize("index", range(8))
def test_two_sided_bound(index):
    F = INSTANCES[index]
    pts = feasible_cloud(F, 6.0, 250, seed=100 + index)
    half = len(pts) // 2
    for x, y in zip(pts[:half], pts[half : 2 * half]):
        assert abs(tilted_value(F, x, y)) <= norm(x - y, F.norm) + 1e-12


@pytest.mark.parametrize("index", range(8))
def test_midpoint_concavity_in_y(index):
    F = INSTANCES[index]
    pts = feasible_cloud(F, 6.0, 375, seed=200 + index)
    third = len(pts) // 3
    xs, y1s, y2s = pts[:third], pts[third : 2 * third], pts[2 * third : 3 * third]
    for x, y1, y2 in zip(xs, y1s, y2s):
        mid = 0.5 * (y1 + y2)
        assert F.domain.violation(mid) <= 1e-9
        left = tilted_value(F, x, mid)
        right = 0.5 * (tilted_value(F, x, y1) + tilted_value(F, x, y2))
        assert left >= right - 1e-12


@pytest.mark.parametrize("index", range(8))
def test_sup_identity(index):
    F = INSTANCES[index]
    pts = feasible_cloud(F, 6.0, 40, seed=300 + index)
    ys = feasible_cloud(F, 6.0, 400, seed=301 + index)
    for x in pts[:20]:
        phi = displacement(F, x)
        assert float(F.values_for_ys(x, ys).max()) <= phi + 1e-12
        from tiltlab import evaluate

        fx = evaluate(F.mapping, x, F.domain)
        if F.domain.violation(fx) <= 1e-9:
            assert tilted_value(F, x, fx) == phi


@pytest.mark.parametrize("index", range(8))
def test_displacement_nonnegative_zero_iff_fixed(index):
    F = INSTANCES[index]
    pts = feasible_cloud(F, 6.0, 200, seed=400 + index)
    vals = F.displacements(pts)
    assert np.all(vals >= 0.0)
    from tiltlab import analytic_fixed_point

    x_hat = analytic_fixed_point(F.mapping)
    if x_hat is not None and F.domain.violation(x_hat) <= 1e-9:
        assert displacement(F, x_hat) <= 1e-12


@pytest.mark.parametrize("index", range(8))
def test_coercivity_certificate_on_sphere(index):
    F = INSTANCES[index]
    growth = instance_growth(F)
    kappa_eff, r0 = effective_growth_bound(growth)
    rng = np.random.default_rng(500 + index)
    y = feasible_cloud(F, 3.0, 1, seed=500 + index)[0]
    best_known = min(
        0.0, float(F.values_for_xs(feasible_cloud(F, 4.0, 32, seed=501 + index), y).min())
    )
    radius = max(coercivity_radius(F, y, kappa_eff, r0, best_known, 1.0), 1.0)
    checked = 0
    for _ in range(600):
        u = rng.standard_normal(F.dimension)
        size = norm(u, F.norm)
        if size == 0.0:
            continue
        x = radius * u / size
        if F.domain.violation(x) <= 1e-12:
            assert tilted_value(F, x, y) > best_known
            checked += 1
        if checked >= 100:
            break
    assert checked >= 30


def test_bifunctional_wrapper_flags_and_batches():
    F = INSTANCES[0]
    J = F.as_bifunctional()
    assert J.zero_diagonal and J.concave_in_y
    pts = feasible_cloud(F, 5.0, 50, seed=900)
    x = pts[0]
    rows = J.row_values(x, pts)
    cols = J.column_values(pts, x)
    for i in range(len(pts)):
        assert rows[i] == pytest.approx(tilted_value(F, x, pts[i]), abs=1e-12)
        assert cols[i] == pytest.approx(tilted_value(F, pts[i], x), abs=1e-12)
        fast = J.column_values(pts[i][None, :], x)[0]
        assert fast == pytest.approx(cols[i], abs=1e-12)
    diag = [abs(J.value(p, p)) for p in pts[:25]]
    assert max(diag) <= 1e-12


def test_effective_growth_bound_certifies_ratio():
    rng = np.random.default_rng(77)
    for index in range(6):
        F = INSTANCES[index]
        growth = instance_growth(F)
        kappa_eff, r0 = effective_growth_bound(growth)
        assert kappa_eff < 0.5
        for _ in range(100):
            u = rng.standard_normal(F.dimension)
            size = norm(u, F.norm)
            if size == 0.0:
                continue
            radius = float(rng.uniform(max(r0, 1e-6), 4 * max(r0, 1.0)))
            if radius < r0:
                continue
            x = radius * u / size
            if F.domain.violation(x) > 1e-12:
                continue
            fx = F.mapping.raw_rows(x[None, :], F.domain)[0]
            assert norm(fx, F.norm) <= kappa_eff * norm(x, F.norm) + 1e-9


def _bits(v) -> bytes:
    return np.float64(v).tobytes()


def _self_map_instances():
    """One functional per (set variant, map family, norm) whose map sends
    the set into itself: raw families on the full space, a nonnegative
    affine map on the orthant, constant and projected maps everywhere."""
    rng = np.random.default_rng(314)
    A = rng.uniform(-0.4, 0.4, (2, 2))
    b = rng.uniform(-1.0, 1.0, 2)
    affine = AffineMap(2, matrix=tuple(map(tuple, A)), offset=tuple(b))
    bounded = BoundedPerturbedMap(
        2, matrix=tuple(map(tuple, A)), offset=tuple(b), field="sine", amplitude=0.3
    )
    cone = ConeIntersection(
        2,
        constraints=(
            HalfSpace(2, normal=(1.0, 0.0), offset=-0.5),
            HalfSpace(2, normal=(1.0, 1.0), offset=0.0),
        ),
        ray=(1.0, 0.0),
    )
    sets = (FullSpace(2), Orthant(2), HalfSpace(2, normal=(1.0, 2.0), offset=-1.0), cone)
    for domain in sets:
        maps = [
            ConstantMap(2, value=tuple(domain.project(b))),
            ProjectedMap(2, inner=affine),
            ProjectedMap(2, inner=bounded),
        ]
        if isinstance(domain, FullSpace):
            maps += [affine, bounded]
        if isinstance(domain, Orthant):
            maps.append(AffineMap(2, matrix=tuple(map(tuple, abs(A))), offset=tuple(abs(b))))
        for mapping in maps:
            for p in (1.0, 3.0, INF):
                yield TiltedFunctional(NormSpec(2, p), domain, mapping)


def test_scalar_evaluations_are_rows_of_the_kernels():
    # J and Phi at one point equal the rows of the batched kernels bit for
    # bit, so a value never depends on how it was asked for.
    checked = 0
    for seed, F in enumerate(_self_map_instances()):
        X = feasible_cloud(F, 4.0, 12, seed=1000 + seed)
        y = X[0]
        row = F.values_for_ys(y, X)
        column = F.values_for_xs(X, y)
        phi = F.displacements(X)
        tilt, disp = F.tilt_objective(y), F.displacement_objective()
        for i, x in enumerate(X):
            assert _bits(tilted_value(F, y, x)) == _bits(row[i])
            assert _bits(tilted_value(F, x, y)) == _bits(column[i])
            assert _bits(displacement(F, x)) == _bits(phi[i])
            assert _bits(tilt(x)) == _bits(column[i])
            assert _bits(disp(x)) == _bits(phi[i])
            checked += 1
    assert checked >= 400


def test_kernels_raise_range_violation_with_the_worst_row():
    aff = AffineMap(2, matrix=((0.5, 0.0), (0.0, 0.5)), offset=(-1.0, -1.0))
    F = TiltedFunctional(NormSpec(2, 2.0), Orthant(2), aff)
    # images (1, 1), (-0.5, 0.5), (-1, -1), (0.5, -0.5): the third is worst
    X = np.array([[4.0, 4.0], [1.0, 3.0], [0.0, 0.0], [3.0, 1.0]])
    calls = (
        lambda: F.values_for_xs(X, X[0]),
        lambda: F.displacements(X),
        lambda: F.values_for_ys(X[2], X),
        lambda: evaluate(aff, X[2], F.domain),
    )
    for call in calls:
        with pytest.raises(RangeViolation) as caught:
            call()
        assert list(caught.value.point) == [0.0, 0.0]
        assert list(caught.value.value) == [-1.0, -1.0]
        assert caught.value.violation == 1.0
    assert F.values_for_xs(X[:1], X[0]).tolist() == [0.0]
