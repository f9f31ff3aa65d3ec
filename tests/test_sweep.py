import numpy as np
import pytest

from tiltlab import (
    INF,
    FullSpace,
    MapFamily,
    MembershipViolation,
    NormSpec,
    OptimizeConfig,
    Orthant,
    SampleDomain,
    TiltedFunctional,
    certify_uniqueness,
    growth_coefficient,
    search_counterexample,
)
from tiltlab.sweep import FAMILY_BUILDERS, planted_double_well

CFG = OptimizeConfig(coarse_grid=21, multistart=6, budget=200_000, seed=4)


def y_grid(domain, p, radius, per_axis):
    window = SampleDomain(domain, NormSpec(domain.dimension, p), radius, per_axis)
    return window.grid_points()


def test_family_instantiation():
    fam = MapFamily(
        kind="rotation_scale",
        dimension=2,
        parameters=(("theta", (0.2, 0.4)), ("phi", (0.0, 0.5))),
    )
    points = fam.parameter_points()
    assert len(points) == 4
    spec = fam.instantiate(points[0])
    A = np.array(spec.matrix)
    assert np.allclose(A, 0.2 * np.eye(2))
    spec2 = fam.instantiate((("theta", 0.3), ("phi", np.pi / 2)))
    A2 = np.array(spec2.matrix)
    assert np.allclose(A2, 0.3 * np.array([[0.0, -1.0], [1.0, 0.0]]), atol=1e-12)
    with pytest.raises(ValueError, match="unknown family"):
        MapFamily(kind="spiral", dimension=2, parameters=(("a", (1.0,)),))


def test_scaled_identity_sweep_no_candidates():
    fam = MapFamily(
        kind="scaled_identity",
        dimension=2,
        parameters=(("theta", (0.1, 0.25, 0.45)),),
    )
    domain = FullSpace(2)
    ys = y_grid(domain, 2.0, 4.0, 3)
    result = search_counterexample(fam, [2.0], domain, ys, CFG)
    assert result.cells_total == 3 * len(ys)
    assert result.cells_screened_out == 0
    assert result.candidates == ()
    for s in result.summaries:
        assert s.cluster_count == 1


def test_screening_counts_unsatisfied_cells():
    fam = MapFamily(
        kind="scaled_identity",
        dimension=2,
        parameters=(("theta", (0.3, 0.8)),),
    )
    domain = FullSpace(2)
    ys = y_grid(domain, 2.0, 2.0, 3)
    result = search_counterexample(fam, [2.0], domain, ys, CFG)
    assert result.cells_screened_out == len(ys)
    screened = [s for s in result.summaries if s.screened_out]
    assert all(dict(s.params)["theta"] == 0.8 for s in screened)


def test_planted_cell_yields_exactly_one_candidate():
    fam = MapFamily(
        kind="scaled_identity",
        dimension=2,
        parameters=(("theta", (0.2, 0.35)),),
    )
    domain = FullSpace(2)
    ys = y_grid(domain, 2.0, 2.0, 3)
    result = search_counterexample(
        fam, [2.0], domain, ys, CFG, planted_cell=3, fallback_radius=3.0
    )
    assert len(result.candidates) == 1
    cand = result.candidates[0]
    assert cand.cell_index == 3
    assert cand.status == "confirmed_at_4x"
    assert len(cand.clusters) == 2
    pts = sorted(c.point[0] for c in cand.clusters)
    assert pts == pytest.approx([-1.0, 1.0], abs=1e-6)
    assert cand.separation >= 10 * CFG.separation
    assert cand.score > 0


def test_sweep_cells_run_the_certify_uniqueness_probe_step():
    # A cell's probe step is certify_uniqueness's: the last entry of a run
    # over cell.index + 1 copies of y has the same prescan index, so the same
    # incumbent, radius and minimization.
    fam = MapFamily(
        kind="scaled_identity",
        dimension=2,
        parameters=(("theta", (0.3, 0.8)),),
        offset=(0.5, -0.25),
    )
    domain = FullSpace(2)
    ys = y_grid(domain, INF, 2.0, 2)
    small = OptimizeConfig(coarse_grid=9, multistart=4, budget=100_000, seed=3)
    planted = 3 * len(ys) + 1
    result = search_counterexample(
        fam, [2.0, INF], domain, ys, small, planted_cell=planted, fallback_radius=3.0
    )
    checked = 0
    for cell in result.summaries:
        if cell.screened_out:
            continue
        F = TiltedFunctional(
            norm=NormSpec(2, cell.norm_p),
            domain=domain,
            mapping=fam.instantiate(cell.params),
        )
        probes = [cell.y] * (cell.index + 1)
        if cell.index == planted:
            report = certify_uniqueness(
                F, probes, None, small, fallback_radius=3.0,
                objective_override=planted_double_well(2, spread=2.0),
            )
        else:
            # Affine maps under l2 and l-inf get analytic growth estimates, so
            # the sweep's growth seed and direction count do not matter here.
            growth = growth_coefficient(F.mapping, F.norm, domain=domain)
            report = certify_uniqueness(F, probes, growth, small)
        entry = report.entries[-1]
        assert cell.radius == entry.radius
        assert cell.cluster_count == entry.result.cluster_count
        assert cell.best_value == entry.result.global_value
        checked += 1
    assert checked == 2 * len(ys) + 1


def test_sweep_deterministic_and_parallel_equal():
    fam = MapFamily(
        kind="rotation_scale",
        dimension=2,
        parameters=(("theta", (0.2, 0.4)), ("phi", (0.0,))),
    )
    domain = FullSpace(2)
    ys = y_grid(domain, INF, 2.0, 3)
    small = OptimizeConfig(coarse_grid=9, multistart=4, budget=100_000, seed=7)
    serial = search_counterexample(fam, [INF], domain, ys, small, planted_cell=2)
    again = search_counterexample(fam, [INF], domain, ys, small, planted_cell=2)
    assert serial == again
    parallel = search_counterexample(
        fam, [INF], domain, ys, small, planted_cell=2, jobs=2
    )
    assert serial == parallel


def test_sweep_orthant_domain():
    fam = MapFamily(
        kind="scaled_identity",
        dimension=2,
        parameters=(("theta", (0.3,)),),
        offset=(0.5, 0.5),
    )
    domain = Orthant(2)
    ys = y_grid(domain, 2.0, 2.0, 3)
    assert len(ys) > 0
    result = search_counterexample(fam, [2.0], domain, ys, CFG)
    assert result.candidates == ()
    assert all(not s.screened_out for s in result.summaries)


def test_family_builders_cover_kinds():
    assert set(FAMILY_BUILDERS) == {"scaled_identity", "rotation_scale", "diagonal"}
    fam = MapFamily(
        kind="diagonal",
        dimension=2,
        parameters=(("d0", (0.1,)), ("d1", (0.2,))),
    )
    spec = fam.instantiate(fam.parameter_points()[0])
    assert np.allclose(np.array(spec.matrix), np.diag([0.1, 0.2]))


def test_planted_cell_outside_the_sweep_is_rejected():
    fam = MapFamily(kind="scaled_identity", dimension=1, parameters=(("theta", (0.2,)),))
    domain = FullSpace(1)
    ys = np.array([[0.0], [1.0]])
    for planted in (2, 999, -1):
        with pytest.raises(ValueError, match=f"planted_cell {planted} .* 2 cells"):
            search_counterexample(fam, [2.0], domain, ys, CFG, planted_cell=planted)


def test_probe_outside_the_set_is_rejected():
    fam = MapFamily(kind="scaled_identity", dimension=1, parameters=(("theta", (0.2,)),))
    with pytest.raises(MembershipViolation):
        search_counterexample(fam, [2.0], Orthant(1), np.array([[1.0], [-1.0]]), CFG)
