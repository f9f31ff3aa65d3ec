import collections
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import affine_instance, feasible_cloud, instance_growth, kernel_functional

from tiltlab import (
    INF,
    AffineMap,
    ConeIntersection,
    ConstantMap,
    EntryVerdict,
    FixedPointNotLocated,
    FullSpace,
    GrowthConditionNotMet,
    GrowthEstimate,
    GrowthMethod,
    HalfSpace,
    NormSpec,
    OptimizeConfig,
    Orthant,
    RangeViolation,
    SaddleCheck,
    SampleDomain,
    TiltedFunctional,
    Verdict,
    analytic_fixed_point,
    certify_uniqueness,
    find_fixed_point,
    global_minimize,
    growth_coefficient,
    induced_operator_norm,
    minimax_gap,
    norm,
    norms_of_rows,
    planted_double_well,
    tilted_value,
    verify_saddle,
)
from tiltlab import experiments
from tiltlab.experiments import Probe, _certify_probes, effective_growth_bound
from tiltlab.maps import affine_parts
from tiltlab.spaces import MESH_BLOCK_FLOATS

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


def test_planted_probe_incumbent_is_the_plant_at_y_or_the_base_witness():
    # The orthant's base witness is its corner (0.3, 0.2); the map keeps it.
    F = TiltedFunctional(
        NormSpec(2, 2.0),
        Orthant(2, lower=(0.3, 0.2)),
        AffineMap(2, matrix=((0.25, 0.0), (0.0, 0.25)), offset=(0.3, 0.2)),
    )
    plant = planted_double_well(2, spread=2.0)
    base = F.domain.ray_base
    assert base.tolist() == [0.3, 0.2]
    for y in ([2.0, 1.0], [1.0, 0.2], [0.3, 0.2]):
        y = np.array(y)
        (entry,) = _certify_probes([Probe(F, y, 0, None, plant)], CFG, 1.0, 3.0)
        expected = min(plant(y[None, :])[0], plant(base[None, :])[0])
        assert entry.incumbent == expected
        assert entry.radius == 3.0


def _two_maps(n, p, orthant, seed):
    """Two affine Js on one norm and set, with growth 0.2 and 0.35: two
    parameter points of one sweep norm."""
    rng = np.random.default_rng(seed)
    spec = NormSpec(n, p)
    domain = Orthant(n) if orthant else FullSpace(n)
    Fs = []
    for target in (0.2, 0.35):
        M = rng.uniform(-1.0, 1.0, (n, n))
        M = np.abs(M) if orthant else M
        A = M * (target / induced_operator_norm(M, spec))
        b = rng.uniform(0.2, 1.0, n) if orthant else rng.uniform(-1.0, 1.0, n)
        mapping = AffineMap(n, matrix=tuple(map(tuple, A)), offset=tuple(b))
        Fs.append(TiltedFunctional(spec, domain, mapping))
    return Fs


def _assert_same_bits(a, b):
    assert a == b
    for field in ("point", "value"):
        bits = lambda r: np.array([getattr(c, field) for c in r.clusters]).tobytes()
        assert bits(a) == bits(b)


def test_batched_probes_match_one_search_per_probe_bitwise():
    # Probes of two Js, each with its own coercive radius, plus a planted
    # probe at the fixed radius, in dimensions 1-4: one batched step gives
    # every probe the entry of a step of its own and the result of its own
    # global_minimize call.  Under a budget that binds inside the longer
    # searches, those probes alone end inconclusive.
    events = collections.Counter()
    for n in (1, 2, 3, 4):
        Fs = _two_maps(n, (2.0, 1.0, INF, 2.0)[n - 1], n % 2 == 0, seed=n)
        ys = feasible_cloud(Fs[0], 2.5, 3, seed=n)
        probes = [
            Probe(F, y, index, effective_growth_bound(instance_growth(F)))
            for F in Fs for index, y in enumerate(ys)
        ]
        probes.append(Probe(Fs[1], ys[0], 7, None, planted_double_well(n, 2.0)))
        roomy = OptimizeConfig(coarse_grid={1: 33, 2: 9, 3: 5, 4: 3}[n], multistart=4, seed=n)
        used = sorted(e.result.evaluations for e in _certify_probes(probes, roomy, 1.0, 3.0))
        tight = replace(roomy, budget=(used[0] + used[-1]) // 2)
        for cfg in (roomy, tight):
            for probe, entry in zip(probes, _certify_probes(probes, cfg, 1.0, 3.0)):
                (alone,) = _certify_probes([probe], cfg, 1.0, 3.0)
                assert entry == alone
                _assert_same_bits(entry.result, alone.result)
                F, y = probe.F, probe.y
                rows = probe.objective or (lambda X: F.pairs(X, y[None, :]))
                own = global_minimize(rows, F.domain, entry.radius, cfg, F.norm)
                _assert_same_bits(entry.result, own)
                events[(cfg is tight, entry.verdict)] += 1
        assert len({e.radius for e in _certify_probes(probes, roomy, 1.0, 3.0)}) >= 3
    assert events[(True, EntryVerdict.INCONCLUSIVE)] >= 4, events
    assert events[(True, EntryVerdict.UNIQUE)] >= 4, events
    assert events[(False, EntryVerdict.MULTIPLE)] >= 2, events  # the plant, in 1-D and 2-D


def _cone_and_maps(n):
    """The cone x_0 >= 0, x_0 + ... + x_{n-1} >= 0 in R^n under p = 2.5, two
    affine maps of it into itself, and the map -x, which leaves it."""
    e0 = (1.0,) + (0.0,) * (n - 1)
    domain = ConeIntersection(n, constraints=(
        HalfSpace(n, normal=e0, offset=0.0), HalfSpace(n, normal=(1.0,) * n, offset=0.0),
    ), ray=(1.0,) * n)
    affine = lambda scale, shift: AffineMap(
        n, matrix=tuple(map(tuple, scale * np.eye(n))), offset=(shift,) * n
    )
    spec = NormSpec(n, 2.5)
    Fs = [TiltedFunctional(spec, domain, affine(*a)) for a in ((0.2, 0.5), (0.35, 0.25))]
    return Fs, TiltedFunctional(spec, domain, affine(-1.0, 0.0))


def _own_pairs(F, calls=None):
    """A J on F's norm, set and map whose class has its own ``pairs``, not
    the tilted formula; each kernel call appends its row count to
    ``calls``."""

    def pairs(X, Y):
        if calls is not None:
            calls.append(max(len(X), len(Y)))
        return (X * X).sum(axis=1) - (Y * np.cos(X)).sum(axis=1)

    return kernel_functional(pairs, like=F)


def test_probe_rows_give_each_row_its_own_probe_bits():
    # Probes of two maps, a planted override and a J with its own pairs,
    # interleaved in the owners in runs of varied length: the batched
    # objective evaluates each map once per run, the own pairs once per run
    # with each row's y, and J's norms once per call, and each row keeps the
    # bits of its own probe's F.pairs, or of the override.
    for n in (1, 2, 3, 4):
        rng = np.random.default_rng(n)
        Fs, _ = _cone_and_maps(n)
        domain = Fs[0].domain
        ys = domain.project_rows(rng.normal(scale=2.0, size=(3, n)))
        plant, calls = planted_double_well(n, 2.0), []
        probes = [
            Probe(Fs[0], ys[0], 0), Probe(Fs[1], ys[1], 1), Probe(Fs[0], ys[2], 2),
            Probe(Fs[1], ys[0], 3, None, plant), Probe(_own_pairs(Fs[0], calls), ys[1], 4),
        ]
        rows = experiments._probe_rows(probes)
        owners = rng.integers(0, 5, 60)
        X = domain.project_rows(rng.normal(scale=3.0, size=(60, n)))
        got = rows(X, owners)
        own = np.diff(np.flatnonzero(np.diff(np.r_[0, owners == 4, 0])))[::2]
        assert calls == own.tolist()
        for i, o in enumerate(owners.tolist()):
            p = probes[o]
            want = p.objective or (lambda X, F=p.F, y=p.y: F.pairs(X, y[None, :]))
            assert _bits(got[i]) == _bits(want(X[i : i + 1])[0]), (n, i)
        J = owners < 3  # a batch with map rows only
        assert _bits(rows(X[J], owners[J])) == _bits(got[J])


def test_probe_rows_raise_the_range_violation_of_a_per_map_call():
    # The first run of the map that leaves the set raises, as its own
    # F.pairs call over that run does: the same point, value and violation.
    for n in (1, 2, 3, 4):
        rng = np.random.default_rng(10 + n)
        Fs, leaving = _cone_and_maps(n)
        domain = leaving.domain
        ys = domain.project_rows(rng.normal(scale=2.0, size=(3, n)))
        probes = [Probe(Fs[0], ys[0], 0), Probe(leaving, ys[1], 1), Probe(Fs[1], ys[2], 2)]
        owners = np.array([0, 0, 2, 1, 1, 1, 1, 0, 1, 1, 2])
        X = domain.project_rows(rng.normal(scale=3.0, size=(len(owners), n))) + domain.ray
        with pytest.raises(RangeViolation) as fused:
            experiments._probe_rows(probes)(X, owners)
        with pytest.raises(RangeViolation) as alone:
            leaving.pairs(X[3:7], ys[1][None, :])
        assert str(fused.value) == str(alone.value)
        for name in ("point", "value", "violation"):
            assert _bits(getattr(fused.value, name)) == _bits(getattr(alone.value, name))


class _NanAt1(AffineMap):
    """An affine map whose value at the second row of every call is NaN."""

    def raw_rows(self, X, domain):
        values = super().raw_rows(X, domain).copy()
        values[1:2] = np.nan
        return values


@pytest.mark.parametrize("failing", ["leaving", "nan"])
@pytest.mark.parametrize("later", ["map", "raising override"])
def test_probe_rows_raise_the_range_violation_of_the_second_run(failing, later):
    # The second run's map leaves the cone, or is NaN at one row; a later
    # run is a fitting map, or an override that raises.  The one range
    # check of the call fails, or the raw walk raises, and the call raises
    # what the second run's own F.pairs call raises.
    def raising(X):
        raise RuntimeError("a later run")

    for n in (1, 2, 3):
        rng = np.random.default_rng(40 + n)
        Fs, leaving = _cone_and_maps(n)
        if failing == "nan":
            leaving = TiltedFunctional(leaving.norm, leaving.domain,
                                       _NanAt1(n, matrix=Fs[0].mapping.matrix, offset=(0.5,) * n))
        ys = leaving.domain.project_rows(rng.normal(scale=2.0, size=(3, n)))
        plant = raising if later == "raising override" else None
        probes = [Probe(Fs[0], ys[0], 0), Probe(leaving, ys[1], 1), Probe(Fs[1], ys[2], 2, None, plant)]
        owners = np.array([0, 0, 1, 1, 1, 2, 2, 0])
        X = leaving.domain.project_rows(rng.normal(scale=3.0, size=(len(owners), n))) + 0.5
        with pytest.raises(RangeViolation) as fused:
            experiments._probe_rows(probes)(X, owners)
        with pytest.raises(RangeViolation) as alone:
            leaving.pairs(X[2:5], ys[1][None, :])
        assert str(fused.value) == str(alone.value)
        for name in ("point", "value", "violation"):
            assert _bits(getattr(fused.value, name)) == _bits(getattr(alone.value, name))


def test_a_sweep_unit_snaps_its_set_up_windows_in_one_pass_per_round(monkeypatch):
    # A sweep_cone-shaped unit: eight probes of two scaled identities on the
    # cone x0 >= 0, x0 + x1 >= 0 at p = 2.5.  Before the search starts, the
    # cone projects once per draw round of the prescan windows and once per
    # round of the grids and random starts, the first round with the grids'
    # meshes: as many rounds as the slowest window draws alone.
    import tiltlab.optimize as optimize
    from helpers import window_samples_reference
    from tiltlab.experiments import _PRESCAN_COUNT, _STREAM_PRESCAN
    from tiltlab.optimize import _STREAM_STARTS

    counts, entered = [0], []
    project, search = ConeIntersection.project_rows, optimize.pattern_search

    def counting(self, Z):
        counts[0] += 1
        return project(self, Z)

    def recording(*args, **kwargs):
        entered.append(counts[0])
        return search(*args, **kwargs)

    monkeypatch.setattr(ConeIntersection, "project_rows", counting)
    monkeypatch.setattr(optimize, "pattern_search", recording)
    domain = ConeIntersection(2, constraints=(
        HalfSpace(2, normal=(1.0, 0.0), offset=0.0), HalfSpace(2, normal=(1.0, 1.0), offset=0.0),
    ), ray=(1.0, 0.0))
    spec = NormSpec(2, 2.5)
    ys = np.array([[0.0, 0.0], [1.5, -1.5], [0.5, 1.0], [2.0, 0.5]])
    probes = []
    for theta in (0.15, 0.4):
        F = TiltedFunctional(spec, domain, AffineMap(2, matrix=((theta, 0.0), (0.0, theta)),
                                                     offset=(0.0, 0.0)))
        bound = effective_growth_bound(instance_growth(F))
        probes += [Probe(F, y, len(probes), bound) for y in ys]
    cfg = OptimizeConfig(coarse_grid=9, multistart=2, seed=3)
    counts[0] = 0  # the growth estimates project too
    entries = _certify_probes(probes, cfg, 1.0, 3.0)
    prescan = max(window_samples_reference(
        SampleDomain(domain, spec, max(1.0, 2.0 * norm(p.y, spec)), 3), _PRESCAN_COUNT,
        np.random.default_rng(np.random.SeedSequence([cfg.seed, _STREAM_PRESCAN, p.index])))[1]
        for p in probes)
    scan = max(window_samples_reference(
        SampleDomain(domain, spec, e.radius, cfg.coarse_grid), cfg.multistart,
        np.random.default_rng(np.random.SeedSequence([cfg.seed, _STREAM_STARTS])))[1]
        for e in entries)
    assert entered == [prescan + scan] and prescan + scan <= 6, (entered, prescan, scan)


def test_certify_uniqueness_refines_every_probe_in_one_search(monkeypatch):
    import tiltlab.optimize as optimize

    calls = []
    search = optimize.pattern_search
    monkeypatch.setattr(
        optimize, "pattern_search", lambda *a, **k: calls.append(len(a[4])) or search(*a, **k)
    )
    F = quarter()
    report = certify_uniqueness(
        F, [[-4.0], [0.0], [4.0]], growth_coefficient(F.mapping, F.norm), CFG
    )
    assert report.verdict is Verdict.UNIQUE_ON_SAMPLES
    assert calls == [3 * 2 * CFG.multistart]  # 8 grid and 8 random starts per probe


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


def test_certify_probes_value_every_prescan_in_one_call(monkeypatch):
    # Probes of two maps, a plant and a J with its own pairs on a cone at
    # p = 2.5: the prescan is one objective call, the search's set-up two
    # more, and then the refinement starts; every entry is that of the
    # probe's own step, bit for bit.
    import tiltlab.optimize as optimize

    calls, entered = [], []
    probe_rows, search = experiments._probe_rows, optimize.pattern_search

    def counting(probes):
        rows = probe_rows(probes)

        def counted(X, owners):
            calls.append(len(X))
            return rows(X, owners)

        return counted

    def recording(*args, **kwargs):
        entered.append(len(calls))
        return search(*args, **kwargs)

    monkeypatch.setattr(experiments, "_probe_rows", counting)
    monkeypatch.setattr(optimize, "pattern_search", recording)
    for n in (1, 2, 3):
        rng = np.random.default_rng(20 + n)
        Fs, _ = _cone_and_maps(n)
        ys = Fs[0].domain.project_rows(rng.normal(scale=2.0, size=(3, n)))
        bounds = [effective_growth_bound(instance_growth(F)) for F in Fs]
        probes = [
            Probe(Fs[0], ys[0], 0, bounds[0]), Probe(Fs[1], ys[1], 1, bounds[1]),
            Probe(Fs[0], ys[2], 2, bounds[0]), Probe(Fs[1], ys[0], 3, None,
                                                     planted_double_well(n, 2.0)),
            Probe(_own_pairs(Fs[0]), ys[1], 4),
        ]
        cfg = OptimizeConfig(coarse_grid={1: 17, 2: 7, 3: 4}[n], multistart=3, seed=n)
        calls.clear()
        entered.clear()
        entries = _certify_probes(probes, cfg, 1.0, 3.0)
        assert entered == [3], n
        assert calls[0] == sum(len(_prescan_points(p, n)) for p in probes)
        for probe, entry in zip(probes, entries):
            (alone,) = _certify_probes([probe], cfg, 1.0, 3.0)
            assert entry == alone
            _assert_same_bits(entry.result, alone.result)


def test_certify_probes_raise_the_prescan_range_violation_of_a_per_probe_call():
    # Two adjacent probes of a map that leaves the cone: their prescan rows
    # form one run of the batched call, whose worst row may be the second
    # probe's.  The step raises what the first probe's own F.pairs call
    # over its prescan points raises: message, point, value and violation.
    fused_differs = 0
    for n in (1, 2, 3, 4):
        rng = np.random.default_rng(30 + n)
        Fs, leaving = _cone_and_maps(n)
        ys = leaving.domain.project_rows(rng.normal(scale=2.0, size=(3, n)))
        probes = [Probe(Fs[0], ys[0], 0), Probe(leaving, ys[1], 1), Probe(leaving, ys[2], 2)]
        with pytest.raises(RangeViolation) as stepped:
            _certify_probes(probes, CFG, 1.0, 3.0)
        with pytest.raises(RangeViolation) as alone:
            leaving.pairs(_prescan_points(probes[1], CFG.seed), ys[1][None, :])
        assert str(stepped.value) == str(alone.value)
        for name in ("point", "value", "violation"):
            assert _bits(getattr(stepped.value, name)) == _bits(getattr(alone.value, name))
        X = [_prescan_points(p, CFG.seed) for p in probes]
        owners = np.repeat(np.arange(3), [len(x) for x in X])
        with pytest.raises(RangeViolation) as fused:
            experiments._probe_rows(probes)(np.vstack(X), owners)
        fused_differs += _bits(fused.value.point) != _bits(alone.value.point)
    assert fused_differs >= 1


def test_prescan_incumbent_passes_over_nan_values_as_the_scalar_loop():
    # J is NaN wherever f overflows, at most prescan points of these
    # probes; the batched prescan keeps the incumbent of the one-point
    # loop, which passes over NaN values, and J(0, y) = -|y| is finite.
    F = TiltedFunctional(
        NormSpec(1, 2.5), FullSpace(1), AffineMap(1, matrix=((1e154,),), offset=(0.0,))
    )
    probes = [Probe(F, np.array([s * 1e154]), k) for k, s in enumerate((1.0, -2.0, 3.0))]
    nan_seen = 0
    with np.errstate(over="ignore", invalid="ignore"):
        entries = _certify_probes(probes, CFG, 1.0, 3.0)
        for probe, entry in zip(probes, entries):
            want = _scalar_prescan_reference(F, probe.y, CFG.seed, probe.index)
            assert np.float64(entry.incumbent).tobytes() == np.float64(want).tobytes()
            assert entry.incumbent < 0.0
            X = _prescan_points(probe, CFG.seed)
            nan_seen += bool(np.isnan(F.pairs(X, probe.y[None, :])).any())
    assert nan_seen == len(probes)


def test_certify_uniqueness_searches_a_pairs_override_on_its_own_pairs():
    # J = 7 everywhere: every value the search reads comes from J's own
    # pairs, not from the tilted formula on its map, whose least value in
    # the ball is about -0.629.
    J = kernel_functional(lambda X, Y: np.full(max(len(X), len(Y)), 7.0), like=affine_instance(0))
    report = certify_uniqueness(J, [[0.5]], None, OptimizeConfig(), radius_override=2.0)
    assert report.entries[0].result.global_value == 7.0


def test_prescan_of_a_pairs_override_reads_its_own_pairs():
    # A subclass's J is 7 everywhere: its prescan incumbent is min(0, 7),
    # from its own pairs, as one call per probe gives it.
    F = affine_instance(0)
    J = kernel_functional(lambda X, Y: np.full(max(len(X), len(Y)), 7.0), like=F)
    probes = [Probe(J, np.array([y]), k) for k, y in enumerate((0.5, -1.0))]
    for entry in _certify_probes(probes, CFG, 1.0, 2.0):
        assert np.float64(entry.incumbent).tobytes() == np.float64(0.0).tobytes()


def _prescan_points(probe, seed):
    """A probe's prescan points: for J(., y) the base witness and the
    seeded window samples that lie in the set, for a plant y and the base
    witness."""
    from tiltlab.experiments import _PRESCAN_COUNT, _STREAM_PRESCAN
    from tiltlab.maps import MEMBERSHIP_TOL

    F, y = probe.F, probe.y
    if probe.objective is not None:
        return np.vstack((y, F.domain.ray_base))
    window = SampleDomain(F.domain, F.norm, max(1.0, 2.0 * norm(y, F.norm)), 3)
    rng = np.random.default_rng(np.random.SeedSequence([seed, _STREAM_PRESCAN, probe.index]))
    X = [F.domain.ray_base, *window.random_points(_PRESCAN_COUNT, rng)]
    return np.array([x for x in X if F.domain.violation(x) <= MEMBERSHIP_TOL])


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
    grid = np.linspace(-4, 4, 801).reshape(-1, 1)
    check = verify_saddle(F, [0.0], grid, grid, 1e-9, separation=1e-3)
    assert check.row_ok            # J(0, y) = -|y| <= 0
    assert check.column_nonneg_ok  # J(x, 0) = 0.5|x| >= 0
    assert check.column_strict_ok
    assert check.row_max == 0.0
    assert check.strict_min > 0.0


def _zeros(X, Y):
    return np.zeros(max(len(X), len(Y)))


def test_verify_saddle_zero_bifunctional_nonstrict():
    J = kernel_functional(_zeros)
    grid = np.linspace(-1, 1, 101).reshape(-1, 1)
    check = verify_saddle(J, [0.0], grid, grid, 1e-9)
    assert check.row_ok and check.column_nonneg_ok
    assert not check.column_strict_ok


def test_verify_saddle_planted_quadratic():
    plane = TiltedFunctional(NormSpec(2), FullSpace(2), ConstantMap(2, value=(0.0, 0.0)))
    J = kernel_functional(lambda X, Y: (X * X).sum(axis=1) - (Y * Y).sum(axis=1), like=plane)
    rng = np.random.default_rng(3)
    grid = rng.uniform(-2, 2, (500, 2))
    check = verify_saddle(J, [0.0, 0.0], grid, grid, 1e-12)
    assert check.row_ok and check.column_nonneg_ok and check.column_strict_ok


@pytest.mark.parametrize("tol", [float("nan"), -1.0, float("inf")])
def test_verify_saddle_rejects_a_tolerance_that_is_not_finite_and_nonnegative(tol):
    grid = np.linspace(-1.0, 1.0, 5)[:, None]
    with pytest.raises(ValueError, match="tol"):
        verify_saddle(quarter(), [0.0], grid, grid, tol)


@pytest.mark.parametrize("separation", [float("nan"), -1.0, 0.0, float("inf")])
def test_verify_saddle_refuses_a_separation_outside_zero_to_inf(separation):
    # A NaN or +inf would drop the strict check, and 0 or less would count
    # x_star itself as far; refused before any evaluation.
    def pairs(X, Y):
        raise AssertionError("evaluated")

    grid = np.linspace(-1.0, 1.0, 5)[:, None]
    with pytest.raises(ValueError, match=r"^separation must be positive and finite"):
        verify_saddle(kernel_functional(pairs), [0.0], grid, grid, 1e-6, separation)


def test_verify_saddle_measures_the_separation_in_fs_norm():
    # Under the max norm (0.75, 0.75) lies within 1 of x_star = 0, so the
    # strict minimum is at (2, 0); under l2 it would be far, and least.
    box = TiltedFunctional(NormSpec(2, INF), FullSpace(2), ConstantMap(2, value=(0.0, 0.0)))
    J = kernel_functional(lambda X, Y: (X * X).sum(axis=1) - (Y * Y).sum(axis=1), like=box)
    grid = np.array([[0.75, 0.75], [2.0, 0.0]])
    check = verify_saddle(J, [0.0, 0.0], grid, grid, 1e-9, separation=1.0)
    assert (check.column_min, check.column_witness) == (1.125, (0.75, 0.75))
    assert (check.strict_min, check.strict_witness) == (4.0, (2.0, 0.0))


def _bits(values):
    return np.asarray(values, dtype=float).tobytes()


def test_minimax_quarter():
    F = quarter()
    report = minimax_gap(F, 8.0, 17)
    assert abs(report.upper) <= 1e-4
    assert abs(report.gap) <= 1e-4
    assert report.lower <= report.upper
    assert not report.boundary_max_flag
    assert report.witness_distance <= 1e-3


def test_minimax_identically_zero():
    J = kernel_functional(_zeros, lambda X: (np.zeros(len(X)), X))
    report = minimax_gap(J, 1.0, 9)
    assert report.lower == 0.0 and report.upper == 0.0 and report.gap == 0.0


def _weak_duality_instances():
    """Tilted instances whose truncation ball misses the fixed point or
    whose map is not affine, under p in {1, 1.5, 2, 3, inf}."""
    from tiltlab import BoundedPerturbedMap

    cases = []
    for index in range(6):
        F = affine_instance(index)
        cases.append(pytest.param(F, 0.25, id=f"affine-{index}-small-ball"))
    for k, (n, p) in enumerate([(1, 1.5), (2, 3.0), (2, 1.0)]):
        rng = np.random.default_rng(np.random.SeedSequence([0x3D, k]))
        mapping = BoundedPerturbedMap(
            n, matrix=tuple(map(tuple, rng.uniform(-0.4, 0.4, (n, n)))),
            offset=tuple(rng.uniform(-2.0, 2.0, n)), field="sine", amplitude=1.5,
        )
        F = TiltedFunctional(NormSpec(n, p), FullSpace(n), mapping)
        cases.append(pytest.param(F, 1.0, id=f"sine-{n}d-p{p}"))
    return cases


@pytest.mark.parametrize("F, radius", _weak_duality_instances())
def test_minimax_weak_duality_is_exact_on_tilted_instances(F, radius):
    # A coarse search in a ball that need not hold a saddle point leaves
    # lower and upper apart; the shared-matrix construction still keeps
    # lower <= upper exactly, with upper the envelope at its witness.
    from tiltlab import displacement

    cfg = OptimizeConfig(coarse_grid=5, multistart=2, termination_step=1e-4, seed=1)
    report = minimax_gap(F, radius, 5, config=cfg)
    assert report.lower <= report.upper
    assert report.gap == report.upper - report.lower
    assert _bits(report.upper) == _bits(displacement(F, report.x_witness))


def test_minimax_orders_a_nan_envelope_last_and_reads_a_nan_entry_as_minus_inf_in_its_column(
    monkeypatch,
):
    # J = x^2 - y^2 is NaN where |x| < 0.3 and |y - 0.25| < 0.05, and its
    # row envelope, x^2 at y = 0, is NaN on the rows |x| < 0.3 that hold a
    # NaN.  With one start per grid point, every NaN envelope row starts
    # after the finite ones, with the grid's own envelope values, and upper
    # reads it as +inf although S_x holds it.  The column y = 0.25 is NaN
    # at x = 0 and would read 0.3^2 - 0.25^2 > 0 if its NaNs were skipped;
    # it reads -inf, so lower stays at the column y = 0.
    calls, upper_starts = [], []
    upper_phase = experiments._minimize_row_sup

    def recording_upper(J, starts, start_values, *rest):
        upper_starts.append((np.array(starts), np.array(start_values)))
        return upper_phase(J, starts, start_values, *rest)

    monkeypatch.setattr(experiments, "_minimize_row_sup", recording_upper)

    def pairs(X, Y):
        values = (X * X).sum(axis=1) - (Y * Y).sum(axis=1)
        return np.where((np.abs(X[:, 0]) < 0.3) & (np.abs(Y[:, 0] - 0.25) < 0.05), np.nan, values)

    def row_sup(X):
        calls.append(np.array(X))
        return np.where(np.abs(X[:, 0]) < 0.3, np.nan, (X * X).sum(axis=1)), np.zeros_like(X)

    J = kernel_functional(pairs, row_sup)
    cfg = OptimizeConfig(coarse_grid=9, multistart=9, termination_step=1e-5, seed=1)
    report = minimax_gap(J, 1.0, 9, config=cfg)
    (grid, S_x), ((starts, start_values),) = (calls[0], calls[-1]), upper_starts
    assert len(grid) == len(starts) == 9
    assert _bits(start_values) == _bits(row_sup(starts)[0])
    nan = np.isnan(start_values)
    assert nan.any() and not (nan[:-1] & ~nan[1:]).any()
    assert np.isnan(row_sup(S_x)[0]).any()
    assert abs(report.x_witness[0]) >= 0.3
    assert _bits(report.upper) == _bits(report.x_witness[0] ** 2)
    assert report.lower == 0.0 and report.y_witness == (0.0,)


def test_minimax_refuses_a_bifunctional_that_is_nan_everywhere():
    J = kernel_functional(lambda X, Y: _zeros(X, Y) + np.nan,
                          lambda X: (np.full(len(X), np.nan), X))
    with pytest.raises(ValueError, match="NaN"):
        minimax_gap(J, 1.0, 9)


def test_minimax_refuses_a_norm_other_than_fs_before_evaluating():
    # norm_spec may only restate F's norm; any other is refused before a
    # kernel call, and F's own is the default.
    F = affine_instance(4)
    n, calls = F.dimension, []
    for other in (NormSpec(n, 1.5), NormSpec(n, F.norm.p, weights=(1.0, 2.0)), NormSpec(n + 1)):
        with pytest.raises(ValueError, match="^minimax_gap measures in F's norm"):
            minimax_gap(_recording(F, calls), 4.0, 7, norm_spec=other)
    assert calls == []
    cfg = OptimizeConfig(coarse_grid=7, multistart=2, termination_step=1e-6, seed=3)
    assert minimax_gap(F, 4.0, 7, norm_spec=F.norm, config=cfg) == minimax_gap(F, 4.0, 7, config=cfg)


def _recording(F, calls):
    """F behind kernels that append (kind, X, Y, values) to ``calls`` for
    every call of its pair kernel and row envelope; Y is None for an
    envelope call."""

    def pairs(X, Y):
        values = F.pairs(X, Y)
        calls.append(("pairs", np.array(X), np.array(Y), values))
        return values

    def row_sup(X):
        values, maximisers = F.row_sup(X)
        calls.append(("row_sup", np.array(X), None, values))
        return values, maximisers

    return kernel_functional(pairs, row_sup, like=F)


def test_minimax_evaluations_are_the_rows_its_kernel_saw():
    F = affine_instance(4)
    calls = []
    cfg = OptimizeConfig(coarse_grid=7, multistart=2, termination_step=1e-6, seed=3)
    report = minimax_gap(_recording(F, calls), 4.0, 7, config=cfg)
    assert report.evaluations == sum(len(values) for *_, values in calls) > 0
    assert {kind for kind, *_ in calls} == {"pairs", "row_sup"}
    assert report == minimax_gap(F, 4.0, 7, config=cfg)


@pytest.mark.parametrize("index", [2, 3, 4])
def test_minimax_s_x_holds_the_lower_phase_endpoints_at_its_y_candidates(index):
    # The lower phase's partnered search runs at Y_c, the upper phase's y
    # candidates then the m grid points of least envelope, and S_x holds
    # every endpoint it reaches, so its refined xs enter ``lower``.  On
    # these instances some endpoints are neither grid points nor upper
    # endpoints, so S_x would miss them without the lower phase.
    from tiltlab import SampleDomain

    F = affine_instance(index)
    radius, resolution, m = 4.0, 9, 2
    cfg = OptimizeConfig(coarse_grid=resolution, multistart=m, termination_step=1e-8, seed=3)
    calls, searches = [], []
    J = _recording(F, calls)
    upper_phase, lower_phase = experiments._minimize_row_sup, experiments._minimize_columns

    def recording_upper(*args):
        searches.append(upper_phase(*args))
        return searches[-1]

    def recording_lower(K, pool, Y, *rest):
        X, values = lower_phase(K, pool, Y, *rest)
        searches.append((np.array(Y), X))
        return X, values

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(experiments, "_minimize_row_sup", recording_upper)
        mp.setattr(experiments, "_minimize_columns", recording_lower)
        minimax_gap(J, radius, resolution, config=cfg)
    (x_ends, y_fins), (Y_c, x_fins) = searches
    G = SampleDomain(F.domain, F.norm, radius, resolution).require_grid()
    best = np.argsort(F.row_sup(G)[0], kind="stable")
    assert _bits(Y_c) == _bits(np.vstack([*y_fins, G[best[:m]]]))
    S_x = [X for kind, X, *_ in calls if kind == "row_sup"][-1]
    assert {x.tobytes() for x in x_fins} <= {x.tobytes() for x in S_x}
    assert {x.tobytes() for x in x_fins} - {x.tobytes() for x in [*G, *x_ends]}


def _matrix_phase(F, radius, resolution, cfg):
    """minimax_gap on F behind recording kernels, with the matrix phase read
    back from the calls: S_x and Phi(S_x) from the last envelope call, and
    the shared matrix from the last value matrix, whose pairs calls are the
    ones right before it."""
    calls, matrices = [], []
    J = _recording(F, calls)
    value_matrix = experiments._value_matrix

    def recording_matrix(K, X, Y, budget):
        start = len(calls)
        M = value_matrix(K, X, Y, budget)
        matrices.append((start, len(calls), np.array(X), np.array(Y), M))
        return M

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(experiments, "_value_matrix", recording_matrix)
        report = minimax_gap(J, radius, resolution, config=cfg)
    last = max(i for i, (kind, *_) in enumerate(calls) if kind == "row_sup")
    _, S_x, _, phi = calls[last]
    start, end, X, S_y, M = [m for m in matrices if m[1] <= last][-1]
    rows = calls[start:end]
    assert end == last and [kind for kind, *_ in rows] == ["pairs"] * len(rows)
    assert _bits(X) == _bits(S_x)
    seen = np.concatenate([X for _, X, _, _ in rows])
    assert _bits(seen) == _bits(np.repeat(S_x, len(S_y), axis=0))
    assert _bits(np.concatenate([values for *_, values in rows])) == _bits(M.ravel())
    return report, S_x, phi, S_y, M


def _envelope_cases():
    from test_acceptance import quarter_functional, seeded_2d_functional

    cases = [pytest.param(quarter_functional(), 8.0, 33, id="criterion-3-quarter")]
    for k in range(3):
        F = seeded_2d_functional(k)
        cases.append(pytest.param(F, _coercive_radius(F), 17, id=f"criterion-3-seeded-2d-{k}"))
    for index in range(6):
        F = affine_instance(index)
        resolution = {1: 33, 2: 17, 3: 7}[F.dimension]
        variant = "orthant" if index % 2 else "full-space"
        cases.append(pytest.param(F, _coercive_radius(F), resolution, id=f"affine-{index}-{variant}"))
    return cases


def _coercive_radius(F):
    from tiltlab import coercivity_radius, effective_growth_bound

    kappa, r0 = effective_growth_bound(instance_growth(F))
    base = F.domain.ray_base
    return max(coercivity_radius(F, base, kappa, r0, F.displacement(base), 1.0), 1.0)


@pytest.mark.parametrize("F, radius, resolution", _envelope_cases())
def test_minimax_upper_is_the_displacement_at_its_witness(F, radius, resolution):
    from tiltlab import displacement

    cfg = OptimizeConfig(coarse_grid=resolution, multistart=2, termination_step=1e-8, seed=5)
    report, S_x, phi, S_y, M = _matrix_phase(F, radius, resolution, cfg)
    assert _bits(report.upper) == _bits(displacement(F, report.x_witness))
    assert _bits(report.upper) == _bits(phi.min())
    assert (M <= phi[:, None]).all()
    assert report.lower == M.min(axis=0).max()
    assert report.lower <= report.upper
    assert abs(report.upper) <= 1e-4 and abs(report.gap) <= 1e-4


def test_minimax_drops_envelope_witnesses_outside_the_ball():
    # f(x) = x/4 + 1.8 leaves the ball of radius 2 for x > 0.8, and its fixed
    # point 2.4 lies outside: the truncated inf of Phi is Phi(2) = 0.3.
    F = TiltedFunctional(
        NormSpec(1, 2.0), FullSpace(1), AffineMap(1, matrix=((0.25,),), offset=(1.8,))
    )
    cfg = OptimizeConfig(coarse_grid=17, multistart=2, termination_step=1e-8, seed=1)
    report, S_x, phi, S_y, M = _matrix_phase(F, 2.0, 17, cfg)
    assert (np.abs(S_y) <= 2.0).all()
    assert (np.abs(S_x) <= 2.0).all()
    assert (phi >= M.max(axis=1)).all()
    assert report.upper >= M.max(axis=1).min()
    assert report.upper == pytest.approx(0.3, abs=1e-6)
    assert report.lower <= report.upper
    # upper bounds J(x_witness, y) over a dense grid of the truncated set
    ys = np.linspace(-2.0, 2.0, 4001)[:, None]
    assert F.pairs(np.array([report.x_witness]), ys).max() <= report.upper


def test_verify_saddle_refuses_an_empty_grid():
    from tiltlab import InfeasibleTruncation

    J = quarter()
    grid = np.linspace(-1.0, 1.0, 5)[:, None]
    empty = np.empty((0, 1))
    with pytest.raises(InfeasibleTruncation, match="y grid has 0"):
        verify_saddle(J, [0.0], empty, grid, 1e-9)
    with pytest.raises(InfeasibleTruncation, match="x grid 0"):
        verify_saddle(J, [0.0], grid, empty, 1e-9)


def _whole_grid_saddle_check(J, x_star, y_grid, x_grid, tol, separation, norm_spec):
    """verify_saddle's fields from one kernel call per side over the whole
    grids: the first witness of each extreme wins."""
    row = J.pairs(x_star[None, :], y_grid)
    col = J.pairs(x_grid, x_star[None, :])
    far = norms_of_rows(x_grid - x_star[None, :], norm_spec) >= separation
    iy, ix = int(np.argmax(row)), int(np.argmin(col))
    k = int(np.argmin(col[far]))
    return SaddleCheck(
        row_max=float(row[iy]),
        row_witness=tuple(y_grid[iy].tolist()),
        column_min=float(col[ix]),
        column_witness=tuple(x_grid[ix].tolist()),
        strict_min=float(col[far][k]),
        strict_witness=tuple(x_grid[far][k].tolist()),
        row_ok=bool(row[iy] <= tol),
        column_nonneg_ok=bool(col[ix] > -tol),
        column_strict_ok=bool(col[far][k] > 0.0),
        tolerance=tol,
        separation=separation,
    )


def test_verify_saddle_ties_across_block_edges_keep_the_first_witness():
    # J(x, y) = h(x) - h(y) from a table of h on the grid values, h(x*) = 0.
    # The y grid spans three blocks and the x grid three, of other lengths;
    # the row maximum ties across the first block edge, the column minimum
    # (two x near x*) too, and the strict minimum across the second.
    B = MESH_BLOCK_FLOATS  # rows per block of a 1-D grid
    x_star = np.array([-1.0])
    y_t = 10.0 + 0.5 * np.arange(2 * B + 37)
    y_h = 1.0 + 0.125 * (np.arange(len(y_t)) % 7)
    y_h[[B - 1, B]] = -0.75
    x_t = 100.0 + 0.001 * np.arange(3 * B - 5)
    x_t[[B - 1, B]] = -1.0 + 1e-4, -1.0 + 2e-4
    x_h = 1.0 + 0.125 * (np.arange(len(x_t)) % 5)
    x_h[[B - 1, B]] = -0.5
    x_h[[2 * B - 1, 2 * B, 3 * B - 6]] = 0.25
    h = dict(zip(np.concatenate((y_t, x_t, x_star)).tolist(),
                 np.concatenate((y_h, x_h, [0.0])).tolist()))

    def pairs(X, Y):
        X, Y = np.broadcast_arrays(X, Y)
        return np.array([h[x] - h[y] for x, y in zip(X[:, 0].tolist(), Y[:, 0].tolist())])

    J = kernel_functional(pairs)
    y_grid, x_grid = y_t[:, None], x_t[:, None]
    assert len(y_grid) > 2 * B and len(x_grid) > 2 * B
    check = verify_saddle(J, x_star, y_grid, x_grid, 1e-6, 1e-3)
    assert check == _whole_grid_saddle_check(J, x_star, y_grid, x_grid, 1e-6, 1e-3, J.norm)
    assert (check.row_max, check.row_witness) == (0.75, (y_t[B - 1],))
    assert (check.column_min, check.column_witness) == (-0.5, (x_t[B - 1],))
    assert (check.strict_min, check.strict_witness) == (0.25, (x_t[2 * B - 1],))
    assert not check.row_ok and not check.column_nonneg_ok and check.column_strict_ok


def test_verify_saddle_blocks_read_a_nan_as_the_whole_grid_does(monkeypatch):
    # In blocks of four rows, a NaN is the extreme that argmax and argmin
    # take over the whole grid: the first NaN, before a larger number in a
    # later block and after a smaller one in an earlier block.
    y_h = np.array([0.0, 1.0, 2.0, 3.0, np.nan, 5.0, 6.0, 7.0, 8.0, np.nan])
    x_h = np.array([5.0, 4.0, 3.0, 2.0, 1.0, 0.5, np.nan, 0.25, -1.0, np.nan])
    h = dict(zip(range(1, 11), y_h.tolist())) | dict(zip(range(11, 21), x_h.tolist())) | {0: 0.0}

    def pairs(X, Y):
        X, Y = np.broadcast_arrays(X, Y)
        return np.array([h[int(x)] - h[int(y)] for x, y in zip(X[:, 0], Y[:, 0])])

    J = kernel_functional(pairs)
    y_grid, x_grid = np.arange(1.0, 11.0)[:, None], np.arange(11.0, 21.0)[:, None]
    monkeypatch.setattr(experiments, "MESH_BLOCK_FLOATS", 4)
    check = verify_saddle(J, [0.0], y_grid, x_grid, 1e-6)
    whole = _whole_grid_saddle_check(J, np.zeros(1), y_grid, x_grid, 1e-6, 1e-3, NormSpec(1))
    assert _bits([check.row_max, check.column_min, check.strict_min]) == _bits(
        [whole.row_max, whole.column_min, whole.strict_min])
    assert (check.row_witness, check.column_witness) == ((5.0,), (17.0,))
    assert (check.row_witness, check.column_witness, check.strict_witness) == (
        whole.row_witness, whole.column_witness, whole.strict_witness)


def _rows_path(F: TiltedFunctional) -> TiltedFunctional:
    """F's J behind a kernel of its own, which has no mesh form, so
    verify_saddle values it by rows."""
    return kernel_functional(F.pairs, like=F)


@st.composite
def _saddle_windows(draw):
    """An affine or constant J on full space or an orthant (its lower bound
    on the grid nodes or off them), under p in {1, 2, inf}, weighted or
    not; a window on its set and a member x_star; a separation; and a cap of floats per block that gives one block or several."""
    n = draw(st.integers(1, 3))
    p = draw(st.sampled_from((1.0, 2.0, INF)))
    weights = draw(st.none() | st.lists(st.floats(0.25, 4.0), min_size=n, max_size=n))
    variant = draw(st.sampled_from(("full_space", "orthant", "off_node")))
    lower = np.zeros(n)
    if variant == "off_node":
        lower = np.array(draw(st.lists(st.floats(-1.0, 0.5), min_size=n, max_size=n)))
    entries = st.floats(-0.4, 0.4) if variant == "full_space" else st.floats(0.0, 0.4)
    A = np.array(draw(st.lists(entries, min_size=n * n, max_size=n * n))).reshape(n, n)
    lift = np.array(draw(st.lists(st.floats(0.0, 2.0), min_size=n, max_size=n)))
    if draw(st.booleans()):  # A >= 0 sends x >= lower to A lower + b = lower + lift
        mapping = AffineMap(n, matrix=tuple(map(tuple, A)), offset=tuple(lower + lift - A @ lower))
    else:
        mapping = ConstantMap(n, value=tuple(lower + lift))
    domain = FullSpace(n) if variant == "full_space" else Orthant(n, lower=tuple(lower))
    F = TiltedFunctional(NormSpec(n, p, weights=weights), domain, mapping)
    window = SampleDomain(domain, F.norm, draw(st.floats(1.0, 4.0)),
                          draw(st.integers(2, {1: 60, 2: 24, 3: 13}[n])))
    x_star = lower + np.array(draw(st.lists(st.floats(0.0, 2.0), min_size=n, max_size=n)))
    return F, window, x_star, draw(st.sampled_from((1e-3, 0.5, 50.0))), \
        draw(st.sampled_from((8, 64, 512, MESH_BLOCK_FLOATS)))


def _assert_the_window_matches_the_rows(F, window, x_star, separation, cap):
    """The mesh path against verify_saddle on the window's grid rows with F
    behind a wrapper: the row side and the distances are folds of the same
    terms, so the row maximum, its witness and every flag are the rows'
    bits; the column side's f is summed in another order, so its minima
    are within 8 (n + 1) ulps of the rows' scale ``||x|| + || |x| |A| || +
    ||b|| + ||x_star||``.  The blocks hold at most ``cap // n`` points."""
    n = F.dimension
    grid = window.grid_points()
    if len(grid) == 0:
        return
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(experiments, "MESH_BLOCK_FLOATS", cap)
        mp.setattr(SampleDomain, "grid_points", None)  # the mesh path builds no grid
        mesh = verify_saddle(F, x_star, window, window, 1e-9, separation)
        rows = verify_saddle(_rows_path(F), x_star, grid, grid, 1e-9, separation)
    assert _bits(mesh.row_max) == _bits(rows.row_max)
    assert mesh.row_witness == rows.row_witness
    flags = ("row_ok", "column_nonneg_ok", "column_strict_ok")
    assert [getattr(mesh, k) for k in flags] == [getattr(rows, k) for k in flags]
    At, b = affine_parts(F.mapping)
    scale = (norms_of_rows(grid, F.norm) + norms_of_rows(np.abs(grid) @ np.abs(At), F.norm)
             + norm(b, F.norm) + norm(x_star, F.norm)).max()
    slack = 8 * (n + 1) * np.finfo(float).eps * scale
    assert abs(mesh.column_min - rows.column_min) <= slack
    assert (mesh.strict_min is None) == (rows.strict_min is None)
    if rows.strict_min is not None:
        assert abs(mesh.strict_min - rows.strict_min) <= slack


@given(_saddle_windows())
@settings(max_examples=200, deadline=None)
def test_verify_saddle_on_a_window_matches_the_rows_hypothesis(case):
    _assert_the_window_matches_the_rows(*case)


def test_verify_saddle_values_a_kernel_of_its_own_on_a_window_by_rows():
    # An affine J under l2 on full space has a mesh form; behind a kernel of
    # its own it has none, so verify_saddle values the window's grid through
    # that kernel, never in mesh form, bit for bit as on the grid's array.
    F = TiltedFunctional(NormSpec(2), FullSpace(2), AffineMap(
        2, matrix=((0.25, 0.125), (0.0, 0.25)), offset=(0.5, -0.5)))
    calls = []
    J = kernel_functional(lambda X, Y: calls.append(max(len(X), len(Y))) or F.pairs(X, Y), like=F)
    assert F.mesh_form and not J.mesh_form
    window = SampleDomain(F.domain, F.norm, 3.0, 15)
    grid, x_star = window.grid_points(), np.array([0.5, -0.75])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(experiments, "mesh_images", None)
        check = verify_saddle(J, x_star, window, window, 1e-9, 0.5)
    assert calls == [len(grid)] * 2
    assert check == verify_saddle(J, x_star, grid, grid, 1e-9, 0.5)


@pytest.mark.parametrize("resolution, cap", [(25, MESH_BLOCK_FLOATS), (49, 9000)])
def test_verify_saddle_on_a_sparse_window_matches_the_rows(resolution, cap):
    # The l1 ball fills less than a third of the octant's one block at
    # resolution 25, which is valued as rows; at 49, in blocks of 3,000
    # points, it fills more of each but the last, which are valued in mesh
    # form.
    lower = np.array([0.0, -0.5, 0.25])
    A = np.array([[0.25, 0.125, 0.0], [0.0, 0.25, 0.125], [0.125, 0.0, 0.25]])
    F = TiltedFunctional(NormSpec(3, 1.0), Orthant(3, lower=tuple(lower)), AffineMap(
        3, matrix=tuple(map(tuple, A)), offset=tuple(lower + 0.5 - A @ lower)))
    window = SampleDomain(F.domain, F.norm, 6.0, resolution)
    blocks = list(window.blocks(cap // 3, hull=True))
    sparse = [3 * np.count_nonzero(b.inside) < b.inside.size for b in blocks]
    assert sparse == ([True] if resolution == 25 else [False] * 5 + [True])
    for separation in (1e-3, 0.5, 50.0):
        _assert_the_window_matches_the_rows(F, window, np.array([1.0, 2.0, 0.5]), separation, cap)
    # Only the sparse block's members go through pairs, once per side.
    valued, pairs = [], TiltedFunctional.pairs
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(experiments, "MESH_BLOCK_FLOATS", cap)
        mp.setattr(TiltedFunctional, "pairs",
                   lambda self, X, Y: valued.append(max(len(X), len(Y))) or pairs(self, X, Y))
        verify_saddle(F, [1.0, 2.0, 0.5], window, window, 1e-9)
    assert valued == [np.count_nonzero(blocks[-1].inside)] * 2


def test_verify_saddle_on_a_window_keeps_the_first_witness_across_a_block_edge(monkeypatch):
    # f = 1/2 on the grid -4, -3, ..., 4, in blocks of five points: 0 and 1
    # tie as the y nearest f (the row maximum) and as the x of least
    # J(x, x_star) = |x - 1/2| - 9/2, on either side of the first block edge.
    F = TiltedFunctional(NormSpec(1, 2.0), FullSpace(1), ConstantMap(1, value=(0.5,)))
    window = SampleDomain(F.domain, F.norm, 4.0, 9)
    grid = window.grid_points()
    monkeypatch.setattr(experiments, "MESH_BLOCK_FLOATS", 5)
    assert [len(b.axes[0]) for b in window.blocks(5, hull=True)] == [5, 4]
    monkeypatch.setattr(SampleDomain, "grid_points", None)
    check = verify_saddle(F, [-4.0], window, window, 1e-6, 0.5)
    assert check == verify_saddle(_rows_path(F), [-4.0], grid, grid, 1e-6, 0.5)
    assert (check.row_max, check.row_witness) == (4.0, (0.0,))
    assert (check.column_min, check.column_witness) == (-4.0, (0.0,))
    assert (check.strict_min, check.strict_witness) == (-4.0, (0.0,))


@pytest.mark.parametrize("n, p", [(2, 2.0), (3, 1.0)])
def test_verify_saddle_on_a_window_raises_the_rows_range_violation(n, p):
    # f(x) = x / 2 - 1 leaves the orthant near 0 while f(x_star) stays in
    # it: both paths raise for the worst grid point, the origin.  Under l2
    # the quarter disc fills its block, which the mesh form values; under
    # l1 the octant of the octahedron fills less than a third of its box,
    # which is valued as rows.
    F = TiltedFunctional(NormSpec(n, p), Orthant(n), AffineMap(
        n, matrix=tuple(map(tuple, 0.5 * np.eye(n))), offset=(-1.0,) * n))
    window = SampleDomain(F.domain, F.norm, 6.0, 13)
    [block] = window.blocks(MESH_BLOCK_FLOATS // n, hull=True)
    assert (3 * np.count_nonzero(block.inside) < block.inside.size) == (p == 1.0)
    x_star, grid = np.full(n, 4.0), window.grid_points()
    for J, probes in ((F, window), (_rows_path(F), grid)):
        with pytest.raises(RangeViolation) as caught:
            verify_saddle(J, x_star, probes, probes, 1e-6)
        assert list(caught.value.point) == [0.0] * n
        assert list(caught.value.value) == [-1.0] * n
        assert caught.value.violation == 1.0


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
    ma = minimax_gap(F, 4.0, 9)
    mb = minimax_gap(F, 4.0, 9)
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
    from tiltlab.experiments import _incumbent

    below_zero = 0
    for index in range(18):
        F = affine_instance(index)
        for k, y in enumerate(feasible_cloud(F, 6.0, 4, seed=40 + index)):
            got = _incumbent(Probe(F, y, k), index)
            want = _scalar_prescan_reference(F, y, index, k)
            assert np.float64(got).tobytes() == np.float64(want).tobytes()
            below_zero += got < 0.0
    assert below_zero >= 20


def test_column_search_never_starts_from_a_nan_pool_value():
    from tiltlab.experiments import _minimize_columns
    from tiltlab.optimize import _Budget

    # inf_x (x - 1)^2 = 0 at x = 1; J is NaN for x < -0.5, which holds for
    # the first pool points, so a start taken as the first NaN never moves.
    J = kernel_functional(lambda X, Y: np.where(X[:, 0] < -0.5, np.nan, (X[:, 0] - 1.0) ** 2))
    pool = np.linspace(-2.0, 2.0, 9)[:, None]
    (x,), (value,) = _minimize_columns(
        J, pool, np.zeros((1, 1)), 2.0, CFG, _Budget(10**6)
    )
    assert x[0] == pytest.approx(1.0, abs=1e-6)
    assert value == pytest.approx(0.0, abs=1e-9)


@pytest.mark.parametrize("index", [0, 1, 3, 4, 8])
def test_column_search_rows_match_one_row_searches_bitwise(index):
    """The lower phase's column search on affine instance ``index``, from
    the grid pool: each y of one call ends where a call with that y alone
    does, bit for bit, and the budgets add up."""
    from tiltlab import SampleDomain
    from tiltlab.experiments import _minimize_columns
    from tiltlab.optimize import _Budget

    F = affine_instance(index)
    radius = 4.0
    pool = SampleDomain(F.domain, F.norm, radius, 7).require_grid()
    Y = feasible_cloud(F, radius, 5, seed=index)
    cfg = OptimizeConfig(coarse_grid=7, multistart=2, termination_step=1e-7, seed=0)

    def search(rows, budget):
        return _minimize_columns(F, pool, rows, radius, cfg, budget)

    together = _Budget(10**18)
    X, V = search(Y, together)
    assert X.shape == Y.shape and V.shape == (len(Y),)
    used = 0
    for i in range(len(Y)):
        alone = _Budget(10**18)
        x, v = search(Y[i : i + 1], alone)
        assert X[i].tobytes() == x[0].tobytes(), i
        assert V[i].tobytes() == v[0].tobytes(), i
        used += alone.used
    assert together.used == used


@pytest.mark.parametrize("index", [0, 1, 3, 4, 8])
def test_row_sup_search_rows_match_one_row_searches_bitwise(index):
    """The upper phase's envelope search on affine instance ``index``: each
    start of one call ends where a call with that start alone does, bit for
    bit, its maximiser too, and the budgets add up."""
    from tiltlab.experiments import _minimize_row_sup
    from tiltlab.optimize import _Budget

    F = affine_instance(index)
    radius = 4.0
    starts = feasible_cloud(F, radius, 5, seed=index)
    cfg = OptimizeConfig(coarse_grid=7, multistart=2, termination_step=1e-7, seed=0)

    def search(rows, budget):
        return _minimize_row_sup(F, rows, F.row_sup(rows)[0], radius, cfg, budget)

    together = _Budget(10**18)
    X, _ = search(starts, together)
    assert len(X) == len(starts)
    used = 0
    for i in range(len(starts)):
        alone = _Budget(10**18)
        (x,), _ = search(starts[i : i + 1], alone)
        assert X[i].tobytes() == x.tobytes(), i
        used += alone.used
    assert together.used == used
    # minimax_gap's counting budget ladders, and a ladder's depth depends
    # on how many starts are active, so only the endpoints add up.
    X, _ = search(starts, _Budget())
    for i in range(len(starts)):
        (x,), _ = search(starts[i : i + 1], _Budget())
        assert X[i].tobytes() == x.tobytes(), i


def test_row_sup_search_answers_from_the_envelope_and_charges_each_row():
    # The endpoints' maximisers are row_sup's own at the endpoints, those
    # outside the ball dropped, and the budget holds every envelope row.
    from tiltlab.experiments import _minimize_row_sup
    from tiltlab.optimize import _Budget

    F = TiltedFunctional(
        NormSpec(1, 2.0), FullSpace(1), AffineMap(1, matrix=((0.25,),), offset=(1.8,))
    )
    calls = []
    J = _recording(F, calls)
    starts = np.array([[-2.0], [-0.5], [1.0], [2.0]])
    # A termination step above the first step of 0.2 keeps the starts, whose
    # maximisers f(x) = x/4 + 1.8 leave the ball for x > 0.8.
    cfg = OptimizeConfig(coarse_grid=17, multistart=2, termination_step=0.5, separation=1.0, seed=1)
    budget = _Budget(10**6)
    X, Y = _minimize_row_sup(J, starts, F.row_sup(starts)[0], 2.0, cfg, budget)
    assert {kind for kind, *_ in calls} == {"row_sup"}
    assert budget.used == sum(len(values) for *_, values in calls)
    assert np.array_equal(calls[-1][1], np.array(X))
    maximisers = F.row_sup(np.array(X))[1]
    inside = np.abs(maximisers[:, 0]) <= 2.0
    assert np.array_equal(np.array(X), starts)
    assert inside.tolist() == [True, True, False, False]
    assert np.array(Y).tobytes() == maximisers[inside].tobytes()


def test_certify_uniqueness_does_not_count_nan_endpoints_as_clusters():
    # A map whose J is NaN off the origin: every refined endpoint but x = 0
    # has a NaN value, which used to make each one a cluster of its own.
    from dataclasses import dataclass

    from tiltlab import MapSpec

    @dataclass(frozen=True)
    class NanOffOrigin(MapSpec):
        @property
        def family(self) -> str:
            return "nan_off_origin"

        def raw_rows(self, X, domain):
            return np.where(X == 0.0, 0.0, np.nan)

    F = TiltedFunctional(NormSpec(1, 2.0), FullSpace(1), NanOffOrigin(1))
    report = certify_uniqueness(F, [[1.0], [-2.0]], None, CFG)
    assert report.verdict is Verdict.INCONCLUSIVE
    for entry in report.entries:
        assert entry.result.cluster_count == 1
        assert entry.result.best_point[0] == 0.0
        assert np.isfinite(entry.result.global_value)
