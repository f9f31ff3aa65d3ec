import numpy as np
import pytest

from helpers import affine_instance, feasible_cloud, instance_growth

from tiltlab import (
    INF,
    AffineMap,
    Bifunctional,
    ConstantMap,
    EntryVerdict,
    FixedPointNotLocated,
    FullSpace,
    GrowthConditionNotMet,
    GrowthEstimate,
    GrowthMethod,
    NormSpec,
    OptimizeConfig,
    TiltedFunctional,
    Verdict,
    analytic_fixed_point,
    certify_uniqueness,
    find_fixed_point,
    growth_coefficient,
    minimax_gap,
    norm,
    planted_double_well,
    tilted_value,
    verify_saddle,
)

CFG = OptimizeConfig(coarse_grid=33, multistart=8, seed=2)


def quarter():
    return TiltedFunctional(
        NormSpec(1, 2.0), FullSpace(1), AffineMap(1, matrix=((0.25,),), offset=(0.0,))
    )


def test_certify_quarter_unique_on_samples():
    F = quarter()
    growth = growth_coefficient(F.mapping, F.norm)
    report = certify_uniqueness(F, [[-4.0], [0.0], [4.0]], growth, CFG)
    assert report.verdict is Verdict.UNIQUE_ON_SAMPLES
    for entry in report.entries:
        assert entry.verdict is EntryVerdict.UNIQUE
        assert entry.result.cluster_count == 1
        assert abs(entry.result.clusters[0].point[0]) <= 1e-5
        assert entry.result.clusters[0].value == pytest.approx(
            -abs(entry.y[0]), abs=1e-9
        )
    assert report.kappa_method == "analytic"


def test_certify_constant_map_norm_tilt():
    c = ConstantMap(2, value=(0.0, 0.0))
    F = TiltedFunctional(NormSpec(2, 2.0), FullSpace(2), c)
    growth = growth_coefficient(c, F.norm)
    ys = [[1.0, 0.0], [0.0, 2.0], [-1.0, -1.0], [2.0, 1.0]]
    report = certify_uniqueness(F, ys, growth, CFG)
    assert report.verdict is Verdict.UNIQUE_ON_SAMPLES
    for entry in report.entries:
        assert norm(entry.result.best_point, F.norm) <= 1e-5


def test_certify_planted_double_well_detected():
    F = quarter()
    growth = growth_coefficient(F.mapping, F.norm)
    report = certify_uniqueness(
        F,
        [[0.0]],
        growth,
        CFG,
        objective_override=planted_double_well(1, spread=2.0),
        radius_override=2.0,
    )
    assert report.verdict is Verdict.MULTIPLE_FOUND
    entry = report.entries[0]
    assert entry.verdict is EntryVerdict.MULTIPLE
    pts = sorted(c.point[0] for c in entry.result.clusters)
    assert pts == pytest.approx([-1.0, 1.0], abs=1e-6)
    assert report.kappa_method == "planted"


def test_certify_unbounded_objective_reported_vacuous():
    # kappa = 0.8: J(., y) decreases without bound, the incumbent lands on
    # the truncation shell and the report records non-attainment
    mapping = AffineMap(1, matrix=((0.8,),), offset=(0.0,))
    F = TiltedFunctional(NormSpec(1, 2.0), FullSpace(1), mapping)
    growth = growth_coefficient(mapping, F.norm)
    assert not growth.satisfied
    for kwargs in ({"fallback_radius": 5.0}, {"radius_override": 10.0}):
        report = certify_uniqueness(F, [[1.0]], growth, CFG, **kwargs)
        assert report.verdict is Verdict.VACUOUS
        assert report.entries[0].verdict is EntryVerdict.NO_MINIMUM


def test_certify_unsatisfied_growth_capped_inconclusive():
    # a pessimistic (unsatisfied) growth estimate on a well-behaved map:
    # the probe finds a clean single cluster but no coercive radius backs
    # it, so the overall verdict cannot exceed INCONCLUSIVE
    F = quarter()
    pessimistic = GrowthEstimate(
        kappa_hat=0.6,
        method=GrowthMethod.SAMPLED,
        radii=(100.0,),
        satisfied=False,
        offset_bound=0.0,
    )
    report = certify_uniqueness(F, [[1.0]], pessimistic, CFG, fallback_radius=5.0)
    assert report.verdict is Verdict.INCONCLUSIVE
    assert report.entries[0].verdict is EntryVerdict.UNIQUE
    assert report.kappa_method == "sampled+fallback"
    # an explicit override lifts the cap
    report2 = certify_uniqueness(F, [[1.0]], pessimistic, CFG, radius_override=5.0)
    assert report2.verdict is Verdict.UNIQUE_ON_SAMPLES
    assert report2.kappa_method == "sampled+override"


def test_certify_rejects_infeasible_probe():
    from tiltlab import MembershipViolation, Orthant

    F = TiltedFunctional(
        NormSpec(1, 2.0), Orthant(1), AffineMap(1, matrix=((0.25,),), offset=(1.0,))
    )
    growth = growth_coefficient(F.mapping, F.norm)
    with pytest.raises(MembershipViolation):
        certify_uniqueness(F, [[-1.0]], growth, CFG)


def test_find_fixed_point_quarter():
    F = quarter()
    growth = growth_coefficient(F.mapping, F.norm)
    report = find_fixed_point(F, growth, CFG)
    assert abs(report.x_star[0]) <= 1e-6
    assert report.residual <= 1e-6
    assert report.row_max <= 1e-6
    assert report.strict_min > 0.0
    assert report.proximity_min > 0.0
    assert report.criterion_gap_max <= 1e-12
    assert report.residual_ok and report.row_ok and report.strict_ok
    assert report.proximity_ok and report.criterion_ok


def test_find_fixed_point_matches_analytic():
    F = TiltedFunctional(
        NormSpec(2, 2.0),
        FullSpace(2),
        AffineMap(2, matrix=((0.3, 0.0), (0.0, 0.2)), offset=(1.0, 1.0)),
    )
    growth = growth_coefficient(F.mapping, F.norm)
    report = find_fixed_point(F, growth, CFG)
    x_hat = analytic_fixed_point(F.mapping)
    assert norm(np.array(report.x_star) - x_hat, F.norm) <= 1e-5
    assert report.residual <= 1e-6


def test_find_fixed_point_constant_map():
    c = ConstantMap(2, value=(1.5, -0.5))
    F = TiltedFunctional(NormSpec(2, INF), FullSpace(2), c)
    growth = growth_coefficient(c, F.norm)
    report = find_fixed_point(F, growth, CFG)
    assert np.allclose(report.x_star, (1.5, -0.5), atol=1e-6)
    assert report.residual <= 1e-9
    assert report.row_max <= 0.0  # J(c, y) = -||y - c||


def test_find_fixed_point_requires_growth_bound():
    mapping = AffineMap(1, matrix=((0.9,),), offset=(0.0,))
    F = TiltedFunctional(NormSpec(1, 2.0), FullSpace(1), mapping)
    growth = growth_coefficient(mapping, F.norm)
    with pytest.raises(GrowthConditionNotMet):
        find_fixed_point(F, growth, CFG)


def test_find_fixed_point_residual_cap():
    # force a hopeless budget so the residual stays large
    mapping = AffineMap(2, matrix=((0.3, 0.1), (0.0, 0.2)), offset=(1.0, 1.0))
    F = TiltedFunctional(NormSpec(2, 2.0), FullSpace(2), mapping)
    growth = growth_coefficient(mapping, F.norm)
    tiny = OptimizeConfig(coarse_grid=3, multistart=1, budget=12, seed=0)
    with pytest.raises(FixedPointNotLocated) as err:
        find_fixed_point(F, growth, tiny)
    assert err.value.report is not None
    assert err.value.report.residual > 1e-4


def test_verify_saddle_quarter():
    F = quarter()
    J = F.as_bifunctional()
    grid = np.linspace(-4, 4, 801).reshape(-1, 1)
    check = verify_saddle(J, [0.0], grid, grid, 1e-9, separation=1e-3, norm_spec=F.norm)
    assert check.row_ok            # J(0, y) = -|y| <= 0
    assert check.column_nonneg_ok  # J(x, 0) = 0.5|x| >= 0
    assert check.column_strict_ok
    assert check.row_max == 0.0
    assert check.strict_min > 0.0


def test_verify_saddle_zero_bifunctional_nonstrict():
    J = Bifunctional(value=lambda x, y: 0.0, domain=FullSpace(1), zero_diagonal=True)
    grid = np.linspace(-1, 1, 101).reshape(-1, 1)
    check = verify_saddle(J, [0.0], grid, grid, 1e-9)
    assert check.row_ok and check.column_nonneg_ok
    assert not check.column_strict_ok


def test_verify_saddle_planted_quadratic():
    J = Bifunctional(
        value=lambda x, y: float(x @ x - y @ y),
        domain=FullSpace(2),
        zero_diagonal=True,
    )
    rng = np.random.default_rng(3)
    grid = rng.uniform(-2, 2, (500, 2))
    check = verify_saddle(J, [0.0, 0.0], grid, grid, 1e-12)
    assert check.row_ok and check.column_nonneg_ok and check.column_strict_ok


def test_verify_saddle_requires_zero_diagonal_flag():
    J = Bifunctional(value=lambda x, y: 1.0, domain=FullSpace(1), zero_diagonal=False)
    grid = np.zeros((1, 1))
    with pytest.raises(ValueError, match="zero-diagonal"):
        verify_saddle(J, [0.0], grid, grid, 1e-9)


def test_minimax_quarter():
    F = quarter()
    report = minimax_gap(F.as_bifunctional(), 8.0, 17, norm_spec=F.norm)
    assert abs(report.upper) <= 1e-4
    assert abs(report.gap) <= 1e-4
    assert report.lower <= report.upper
    assert not report.boundary_max_flag
    assert report.witness_distance <= 1e-3


def test_minimax_bilinear_saddle():
    J = Bifunctional(
        value=lambda x, y: float(x[0] * y[0]), domain=FullSpace(1), zero_diagonal=True
    )
    report = minimax_gap(J, 1.0, 9)
    assert report.lower == pytest.approx(0.0, abs=1e-7)
    assert report.upper == pytest.approx(0.0, abs=1e-7)


def test_minimax_identically_zero():
    J = Bifunctional(value=lambda x, y: 0.0, domain=FullSpace(1), zero_diagonal=True)
    report = minimax_gap(J, 1.0, 9)
    assert report.lower == 0.0 and report.upper == 0.0 and report.gap == 0.0


def test_minimax_weak_duality_planted_antisymmetric():
    # even on a skew instance with no zero diagonal structure for the grid,
    # the harvested-matrix construction keeps lower <= upper exactly
    J = Bifunctional(
        value=lambda x, y: float(np.sin(3 * x[0]) - np.sin(3 * y[0]) + 0.3 * x[0] * y[0]),
        domain=FullSpace(1),
        zero_diagonal=False,
    )
    cfg = OptimizeConfig(coarse_grid=9, multistart=2, termination_step=1e-5, seed=1)
    report = minimax_gap(J, 2.0, 9, config=cfg)
    assert report.lower <= report.upper


def test_criterion_identity_on_samples():
    for index in range(6):
        F = affine_instance(index)
        pts = feasible_cloud(F, 8.0, 200, seed=40 + index)
        from tiltlab import evaluate

        for x in pts[:50]:
            fx = evaluate(F.mapping, x, F.domain)
            lhs = tilted_value(F, fx, x)
            assert lhs <= F.displacement(x) + 1e-12


def test_find_fixed_point_on_seeded_instances():
    for index in (0, 1, 4):
        F = affine_instance(index)
        growth = instance_growth(F)
        cfg = OptimizeConfig(
            coarse_grid={1: 65, 2: 21, 3: 9}[F.dimension],
            multistart=8,
            budget=400_000,
            seed=9,
        )
        report = find_fixed_point(F, growth, cfg)
        x_hat = analytic_fixed_point(F.mapping)
        assert norm(np.array(report.x_star) - x_hat, F.norm) <= 1e-5
        assert report.residual <= 1e-6
        assert report.strict_min > 0.0 and report.proximity_min > 0.0


def test_reports_are_deterministic():
    F = quarter()
    growth = growth_coefficient(F.mapping, F.norm)
    a = find_fixed_point(F, growth, CFG)
    b = find_fixed_point(F, growth, CFG)
    assert a == b
    ra = certify_uniqueness(F, [[1.0], [-2.0]], growth, CFG)
    rb = certify_uniqueness(F, [[1.0], [-2.0]], growth, CFG)
    assert ra == rb
    ma = minimax_gap(F.as_bifunctional(), 4.0, 9, norm_spec=F.norm)
    mb = minimax_gap(F.as_bifunctional(), 4.0, 9, norm_spec=F.norm)
    assert ma == mb


def _scalar_prescan_reference(F, y, seed, index):
    """The prescan incumbent as one J(x, y) call per probe point."""
    from tiltlab import SampleDomain
    from tiltlab.experiments import _PRESCAN_COUNT, _STREAM_PRESCAN
    from tiltlab.maps import MEMBERSHIP_TOL

    window = SampleDomain(F.domain, F.norm, max(1.0, 2.0 * norm(y, F.norm)), 3)
    rng = np.random.default_rng(np.random.SeedSequence([seed, _STREAM_PRESCAN, index]))
    values = [0.0]
    for x in [F.domain.ray_base, *window.random_points(_PRESCAN_COUNT, rng)]:
        if F.domain.violation(x) <= MEMBERSHIP_TOL:
            values.append(tilted_value(F, x, y))
    return min(values)


def test_prescan_incumbent_matches_scalar_reference_loop():
    from tiltlab.experiments import _prescan_incumbent

    below_zero = 0
    for index in range(18):
        F = affine_instance(index)
        for k, y in enumerate(feasible_cloud(F, 6.0, 4, seed=40 + index)):
            got = _prescan_incumbent(F, y, index, k)
            want = _scalar_prescan_reference(F, y, index, k)
            assert np.float64(got).tobytes() == np.float64(want).tobytes()
            below_zero += got < 0.0
    assert below_zero >= 20
