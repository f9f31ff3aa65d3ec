import concurrent.futures

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


@pytest.mark.parametrize("jobs", [0, -3, 1.5, True])
def test_search_counterexample_refuses_a_worker_count_below_one(jobs):
    fam = MapFamily(kind="scaled_identity", dimension=1, parameters=(("theta", (0.2,)),))
    with pytest.raises(ValueError, match="jobs"):
        search_counterexample(fam, [2.0], FullSpace(1), [[1.0]], CFG, jobs=jobs)


@pytest.mark.parametrize("count", [2.5, 0, -1, True])
def test_search_counterexample_refuses_a_growth_direction_count_that_is_not_an_integer(count):
    # 2.5 used to be truncated to 2.
    fam = MapFamily(kind="scaled_identity", dimension=1, parameters=(("theta", (0.2,)),))
    with pytest.raises(ValueError, match="growth_directions must be an integer >= 1"):
        search_counterexample(fam, [1.5], FullSpace(1), [[1.0]], CFG, growth_directions=count)


def test_sweep_pool_never_has_more_workers_than_cells(monkeypatch):
    # A stand-in pool records its worker count and maps in this process, so
    # no worker is started however large the requested count.  The sweep
    # imports the pool where it starts one, so the stand-in replaces it in
    # concurrent.futures.
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables, chunksize=1):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    fam = MapFamily(kind="scaled_identity", dimension=1, parameters=(("theta", (0.2, 0.3)),))
    small = OptimizeConfig(coarse_grid=9, multistart=2, budget=100_000, seed=1)
    ys = [[1.0], [-1.0]]
    serial = search_counterexample(fam, [2.0], FullSpace(1), ys, small)
    assert search_counterexample(fam, [2.0], FullSpace(1), ys, small, jobs=5000) == serial
    assert sizes == [4]  # two parameter points times two probes
    search_counterexample(fam, [2.0], FullSpace(1), ys[:1], small, jobs=5000)
    fam_one = MapFamily(kind="scaled_identity", dimension=1, parameters=(("theta", (0.2,)),))
    search_counterexample(fam_one, [2.0], FullSpace(1), ys[:1], small, jobs=5000)
    assert sizes == [4, 2]  # and a one-cell sweep runs without a pool


def _diagonal_sweep():
    """A 4-D diagonal family at two parameter points, three probes."""
    fam = MapFamily(
        kind="diagonal",
        dimension=4,
        parameters=(("d0", (0.1, 0.3)), ("d1", (0.2,)), ("d2", (-0.25,)), ("d3", (0.15,))),
        offset=(0.5, -0.25, 0.0, 0.125),
    )
    ys = [[1.0, 0.0, -0.5, 0.25], [0.0, 0.0, 0.0, 0.0], [-1.0, 0.5, 0.5, -0.75]]
    small = OptimizeConfig(coarse_grid=3, multistart=2, budget=100_000, seed=5)
    return fam, ys, small


def test_sweep_refines_each_norms_cells_in_one_search(monkeypatch):
    # One pattern search per norm refines every unscreened cell of that norm,
    # across parameter points; one more re-verifies the planted cell's norm.
    import tiltlab.optimize as optimize

    owners = []
    search = optimize.pattern_search
    monkeypatch.setattr(optimize, "pattern_search", lambda *a, **k: owners.append(
        sorted(set(k["partners"].tolist()))) or search(*a, **k))
    fam, ys, small = _diagonal_sweep()
    result = search_counterexample(fam, [1.5, INF], FullSpace(4), ys, small, planted_cell=4)
    assert [s.norm_p for s in result.summaries] == [1.5] * 3 + [INF] * 3 + [1.5] * 3 + [INF] * 3
    assert not any(s.screened_out for s in result.summaries)
    assert [c.cell_index for c in result.candidates] == [4]
    assert owners == [list(range(6)), list(range(6)), [0]]  # 1.5, inf, the plant's re-verify


def test_sweep_units_are_runs_of_one_norms_cells(monkeypatch):
    # Under --jobs, a unit of work is a contiguous run of one norm's cells,
    # and the merged result is the serial one; a stand-in pool maps in this
    # process.
    units = []

    class RecordingPool:
        def __init__(self, max_workers):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, ctxs, work):
            work = list(work)
            units.extend([s.index for s, _, _ in unit] for unit in work)
            return map(fn, ctxs, work)

    fam, ys, small = _diagonal_sweep()
    serial = search_counterexample(fam, [1.5, INF], FullSpace(4), ys, small, planted_cell=9)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    chunked = search_counterexample(
        fam, [1.5, INF], FullSpace(4), ys, small, planted_cell=9, jobs=3
    )
    assert chunked == serial
    assert units == [[0, 1], [2, 6], [7, 8], [3, 4], [5, 9], [10, 11]]


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


def test_growth_estimates_of_distinct_pairs_never_mix():
    # Pairs (0, 1009) and (1, 0) share a growth seed: cell 1010 (theta 0.3,
    # a contraction) must keep its own estimate, not theta 0.6's.
    fam = MapFamily("scaled_identity", 1, (("theta", (0.6, 0.3)),))
    result = search_counterexample(
        fam, [2.0] * 1010, FullSpace(1), np.array([[0.5]]),
        OptimizeConfig(coarse_grid=5, multistart=1),
    )
    assert result.cells_screened_out == 1010
    cell = result.summaries[1010]
    assert dict(cell.params)["theta"] == 0.3
    assert not cell.screened_out
    assert cell.kappa_hat == 0.3


@pytest.mark.parametrize(
    "kind, dimension, parameters, match",
    [
        ("rotation_scale", 2, (("phi", (0.0,)),), r"\['phi', 'theta'\] once, got \['phi'\]"),
        ("rotation_scale", 2, (("theta", (0.2,)), ("phi", (0.0,)), ("psi", (1.0, 2.0))),
         r"got \['theta', 'phi', 'psi'\]"),
        ("diagonal", 2, (("d0", (0.1,)),), r"\['d0', 'd1'\] once, got \['d0'\]"),
        ("scaled_identity", 1, (("theta", (0.2,)), ("theta", (0.7, 0.9))),
         r"got \['theta', 'theta'\]"),
        ("rotation_scale", 3, (("theta", (0.2,)), ("phi", (0.0,))), "two-dimensional"),
    ],
    ids=["missing", "unknown", "missing_diagonal", "twice", "dimension"],
)
def test_map_family_refuses_parameters_and_dimensions_it_cannot_build(
    kind, dimension, parameters, match
):
    with pytest.raises(ValueError, match=match):
        MapFamily(kind, dimension, parameters)


@pytest.mark.parametrize(
    "norms, match", [([], "at least one p"), ([2.0, 0.5], "0.5")], ids=["empty", "below_one"]
)
def test_search_counterexample_refuses_empty_or_invalid_norms(norms, match):
    fam = MapFamily(kind="scaled_identity", dimension=1, parameters=(("theta", (0.2,)),))
    with pytest.raises(ValueError, match=match):
        search_counterexample(fam, norms, FullSpace(1), np.array([[0.0]]), CFG)


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


def test_each_pair_has_one_growth_estimate_seeded_by_the_pair(monkeypatch):
    # At p = 1.5 growth is sampled, so kappa_hat depends on the seed: every
    # cell carries the estimate of its (parameter point, norm) pair, drawn
    # once per pair with the seed config.seed + 7919 * (pi * 1009 + ni).
    import tiltlab.sweep as sweep_module

    fam = MapFamily("diagonal", 2, (("d0", (0.2, 0.45)), ("d1", (0.1,))))
    norms = [1.5, 3.0]
    ys = np.array([[0.5, 0.0], [0.0, -0.5]])
    small = OptimizeConfig(coarse_grid=9, multistart=2, budget=100_000, seed=5)
    radii, directions = (100.0, 1_000.0), 8
    seeds = []

    def counted(*args, **kwargs):
        seeds.append(kwargs["seed"])
        return growth_coefficient(*args, **kwargs)

    monkeypatch.setattr(sweep_module, "growth_coefficient", counted)
    for planted in (None, 5):
        seeds.clear()
        result = search_counterexample(
            fam, norms, FullSpace(2), ys, small, growth_radii=radii,
            growth_directions=directions, planted_cell=planted, fallback_radius=3.0,
        )
        pair_seeds = [5 + 7919 * (pi * 1009 + ni) for pi in (0, 1) for ni in (0, 1)]
        assert sorted(seeds) == pair_seeds
        for cell in result.summaries:
            pi, ni = divmod(cell.index // len(ys), len(norms))
            expected = growth_coefficient(
                fam.instantiate(fam.parameter_points()[pi]), NormSpec(2, norms[ni]),
                radii, directions, seed=5 + 7919 * (pi * 1009 + ni), domain=FullSpace(2),
            )
            assert expected.method.value == "sampled"
            if cell.index == planted:
                assert cell.kappa_hat is None
            else:
                assert cell.kappa_hat == expected.kappa_hat
