"""Acceptance suite: every shipping criterion at its stated tolerance,
one printed pass/fail line per criterion."""

import time
from dataclasses import replace

import numpy as np
import pytest

from helpers import affine_instance, instance_growth, rows_of, suite_config

import tiltlab as tl
from tiltlab import (
    INF,
    AffineMap,
    ConstantMap,
    FullSpace,
    MapFamily,
    NormSpec,
    OptimizeConfig,
    Orthant,
    SampleDomain,
    TiltedFunctional,
    Verdict,
    analytic_fixed_point,
    brute_force_minima,
    certify_uniqueness,
    coercivity_radius,
    find_fixed_point,
    global_minimize,
    growth_coefficient,
    minimax_gap,
    norm,
    planted_double_well,
    search_counterexample,
    tilted_value,
    verify_saddle,
)
from tiltlab.cli import main as cli_main
from tiltlab.experiments import effective_growth_bound


def conclude(number: int, name: str, failures: list[str], detail: str = "") -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"\nACCEPTANCE {number} ({name}): {status} {detail}".rstrip(), flush=True)
    assert not failures, f"criterion {number} ({name}): " + "; ".join(failures[:10])


def quarter_functional() -> TiltedFunctional:
    return TiltedFunctional(
        NormSpec(1, 2.0), FullSpace(1), AffineMap(1, matrix=((0.25,),), offset=(0.0,))
    )


def seeded_2d_functional(k: int) -> TiltedFunctional:
    rng = np.random.default_rng(np.random.SeedSequence([424242, k]))
    spec = NormSpec(2, 2.0)
    M = rng.uniform(-1, 1, (2, 2))
    M *= (0.2 + 0.2 * rng.uniform()) / tl.induced_operator_norm(M, spec)
    b = rng.uniform(-1, 1, 2)
    return TiltedFunctional(
        spec, FullSpace(2), AffineMap(2, matrix=tuple(map(tuple, M)), offset=tuple(b))
    )


@pytest.fixture(scope="module")
def affine_suite():
    """The 20 seeded affine fixed-point instances with their reports."""
    t0 = time.perf_counter()
    items = []
    for i in range(20):
        F = affine_instance(i)
        growth = instance_growth(F)
        cfg = suite_config(F.dimension, seed=17)
        report = find_fixed_point(F, growth, cfg, check_samples=200, seed=31)
        items.append((i, F, report))
    return items, time.perf_counter() - t0


def test_criterion_1_affine_fixed_point_suite(affine_suite):
    items, elapsed = affine_suite
    failures = []
    for i, F, report in items:
        x_hat = analytic_fixed_point(F.mapping)
        dist = norm(np.array(report.x_star) - x_hat, F.norm)
        if dist > 1e-5:
            failures.append(f"[{i}] fixed point off by {dist:.2e}")
        if report.residual > 1e-6:
            failures.append(f"[{i}] residual {report.residual:.2e}")
        if report.samples_used < 200:
            failures.append(f"[{i}] only {report.samples_used} probe samples")
        if not report.proximity_min > 0.0:
            failures.append(f"[{i}] strict proximity violated: {report.proximity_min:.2e}")
    if elapsed > 60.0:
        failures.append(f"runtime {elapsed:.1f}s > 60s")
    conclude(1, "affine fixed-point suite", failures, f"[{elapsed:.1f}s, 20 instances]")


def test_criterion_2_saddle_inequality_suite(affine_suite):
    items, _ = affine_suite
    failures = []
    for i, F, report in items:
        window = SampleDomain(F.domain, F.norm, report.radius, 3)
        y_set = window.low_discrepancy_points(1000, seed=1000 + i)
        x_set = window.low_discrepancy_points(1000, seed=2000 + i)
        if len(y_set) < 1000 or len(x_set) < 1000:
            failures.append(f"[{i}] could not draw 1000 probes")
            continue
        check = verify_saddle(
            F,
            np.array(report.x_star),
            y_set,
            x_set,
            tol=1e-6,
            separation=1e-3,
        )
        if not check.row_ok:
            failures.append(f"[{i}] max_y J(x*, y) = {check.row_max:.2e} > 1e-6")
        if not check.column_strict_ok:
            failures.append(f"[{i}] strict column check failed: {check.strict_min}")
    conclude(2, "saddle inequality suite", failures, "[20 instances, 1000-point grids]")


def test_criterion_3_minimax_equality():
    t0 = time.perf_counter()
    failures = []
    cases = []
    F1 = quarter_functional()
    cases.append(("quarter 1-D", F1, 8.0, 33))
    for k in range(3):
        F = seeded_2d_functional(k)
        growth = growth_coefficient(F.mapping, F.norm)
        kappa_eff, r0 = effective_growth_bound(growth)
        base = F.domain.ray_base
        radius = max(
            coercivity_radius(F, base, kappa_eff, r0, F.displacement(base), 1.0), 1.0
        )
        cases.append((f"seeded 2-D #{k}", F, radius, 17))
    for name, F, radius, resolution in cases:
        cfg = OptimizeConfig(
            coarse_grid=resolution, multistart=2, termination_step=1e-8, seed=5
        )
        mm = minimax_gap(F, radius, resolution, config=cfg)
        if abs(mm.gap) > 1e-4:
            failures.append(f"{name}: |gap| = {abs(mm.gap):.2e}")
        if abs(mm.upper) > 1e-4:
            failures.append(f"{name}: |upper| = {abs(mm.upper):.2e}")
        if mm.lower > mm.upper:
            failures.append(f"{name}: weak duality broken")
    elapsed = time.perf_counter() - t0
    if elapsed > 60.0:
        failures.append(f"runtime {elapsed:.1f}s > 60s")
    conclude(3, "minimax equality", failures, f"[{elapsed:.1f}s, 4 instances]")


def test_criterion_4_oracle_equivalence():
    t0 = time.perf_counter()
    failures = []
    q = quarter_functional()
    F2 = seeded_2d_functional(0)
    Finf = TiltedFunctional(
        NormSpec(2, INF),
        FullSpace(2),
        AffineMap(2, matrix=((0.2, 0.15), (-0.1, 0.3)), offset=(0.4, -0.6)),
    )
    F1o = TiltedFunctional(
        NormSpec(2, 1.0),
        Orthant(2),
        AffineMap(2, matrix=((0.3, 0.1), (0.05, 0.2)), offset=(0.5, 0.7)),
    )
    half = ConstantMap(1, value=(0.5,))
    Fc = TiltedFunctional(NormSpec(1, 2.0), FullSpace(1), half)
    affine1d = TiltedFunctional(
        NormSpec(1, 2.0), FullSpace(1), AffineMap(1, matrix=((0.4,),), offset=(0.7,))
    )
    cases = [
        ("double well 1-D", planted_double_well(1, spread=2.0), FullSpace(1), 2.0, 4001, None),
        ("quarter tilt y=4", lambda X: q.pairs(X, [[4.0]]), FullSpace(1), 2.0, 4001, q.norm),
        ("quarter tilt y=-2", lambda X: q.pairs(X, [[-2.0]]), FullSpace(1), 3.0, 4001, q.norm),
        ("affine displacement 1-D", affine1d.displacements, FullSpace(1), 5.0, 4001, affine1d.norm),
        ("constant tilt", lambda X: Fc.pairs(X, [[1.0]]), FullSpace(1), 2.0, 4001, Fc.norm),
        ("double well 2-D", planted_double_well(2, spread=2.0), FullSpace(2), 2.0, 401, None),
        ("displacement 2-D lp2", F2.displacements, FullSpace(2), 4.0, 401, F2.norm),
        ("displacement 2-D lpinf", Finf.displacements, FullSpace(2), 4.0, 401, Finf.norm),
        ("l1 norm on orthant", rows_of(lambda x: float(np.abs(x).sum())), Orthant(2), 1.0, 401, NormSpec(2, 2.0)),
        ("displacement 2-D lp1 orthant", F1o.displacements, Orthant(2), 4.0, 401, F1o.norm),
    ]
    cfg = OptimizeConfig(coarse_grid=33, multistart=8, seed=13)
    for name, rows, domain, radius, resolution, spec in cases:
        mine = global_minimize(rows, domain, radius, cfg, norm_spec=spec)
        oracle = brute_force_minima(
            None, domain, radius, resolution, norm_spec=spec, objective_rows=rows
        )
        spacing = 2.0 * radius / (resolution - 1)
        tolerance = max(1e-6, 10.0 * spacing)
        if mine.cluster_count != oracle.cluster_count:
            failures.append(
                f"{name}: clusters {mine.cluster_count} != oracle {oracle.cluster_count}"
            )
        if abs(mine.global_value - oracle.global_value) > tolerance:
            failures.append(
                f"{name}: values differ by "
                f"{abs(mine.global_value - oracle.global_value):.2e} > {tolerance:.2e}"
            )
    elapsed = time.perf_counter() - t0
    if elapsed > 120.0:
        failures.append(f"runtime {elapsed:.1f}s > 120s")
    conclude(4, "oracle equivalence", failures, f"[{elapsed:.1f}s, 10 instances]")


def test_criterion_5_certifier_soundness_and_completeness():
    failures = []
    cfg = OptimizeConfig(coarse_grid=33, multistart=8, seed=19)
    q = quarter_functional()
    growth_q = growth_coefficient(q.mapping, q.norm)

    # soundness: planted tied double wells must be reported MULTIPLE_FOUND
    for dim, spread in ((1, 2.0), (2, 2.0)):
        F = (
            q
            if dim == 1
            else TiltedFunctional(
                NormSpec(2, 2.0),
                FullSpace(2),
                AffineMap(2, matrix=((0.25, 0.0), (0.0, 0.25)), offset=(0.0, 0.0)),
            )
        )
        report = certify_uniqueness(
            F,
            [np.zeros(dim)],
            None,
            cfg,
            objective_override=planted_double_well(dim, spread=spread),
            radius_override=2.0,
        )
        if report.verdict is not Verdict.MULTIPLE_FOUND:
            failures.append(f"planted {dim}-D not detected: {report.verdict}")
        else:
            pts = sorted(c.point[0] for c in report.entries[0].result.clusters)
            if abs(pts[0] + 1.0) > 1e-6 or abs(pts[1] - 1.0) > 1e-6:
                failures.append(f"planted {dim}-D clusters off: {pts}")

    # completeness: quarter map, 25 probes, single cluster at the origin
    window = SampleDomain(q.domain, q.norm, 10.0, 3)
    ys = window.low_discrepancy_points(25, seed=77)
    report = certify_uniqueness(q, ys, growth_q, cfg)
    if report.verdict is not Verdict.UNIQUE_ON_SAMPLES:
        failures.append(f"quarter verdict {report.verdict}")
    for entry in report.entries:
        if entry.result.cluster_count != 1:
            failures.append(f"quarter probe {entry.y}: {entry.result.cluster_count} clusters")
        elif abs(entry.result.clusters[0].point[0]) > 1e-5:
            failures.append(f"quarter probe {entry.y}: minimizer {entry.result.clusters[0].point}")

    # completeness: constant map, minimizer at the constant
    c = (0.5, -0.25)
    Fc = TiltedFunctional(NormSpec(2, 2.0), FullSpace(2), ConstantMap(2, value=c))
    growth_c = growth_coefficient(Fc.mapping, Fc.norm)
    window_c = SampleDomain(Fc.domain, Fc.norm, 10.0, 3)
    ys_c = window_c.low_discrepancy_points(25, seed=78)
    report_c = certify_uniqueness(Fc, ys_c, growth_c, cfg)
    if report_c.verdict is not Verdict.UNIQUE_ON_SAMPLES:
        failures.append(f"constant verdict {report_c.verdict}")
    for entry in report_c.entries:
        off = norm(entry.result.best_point - np.array(c), Fc.norm)
        if entry.result.cluster_count != 1 or off > 1e-5:
            failures.append(f"constant probe {entry.y}: off by {off:.2e}")
    conclude(5, "certifier soundness/completeness", failures, "[2 plants + 50 probes]")


def test_criterion_6_invariant_suites():
    failures = []
    instances = [affine_instance(i) for i in range(10)]
    clouds = {}
    for idx, F in enumerate(instances):
        window = SampleDomain(F.domain, F.norm, 8.0, 3)
        rng = np.random.default_rng(np.random.SeedSequence([606, idx]))
        clouds[idx] = window.random_points(320, rng)

    # zero diagonal, exact
    checked = 0
    for idx, F in enumerate(instances):
        for x in clouds[idx][:110]:
            if tilted_value(F, x, x) != 0.0:
                failures.append(f"diagonal not zero at instance {idx}")
            checked += 1
    assert checked >= 1000

    # |J(x, y)| <= ||x - y|| + 1e-12, both directions of the triangle bound
    checked = 0
    for idx, F in enumerate(instances):
        pts = clouds[idx]
        for x, y in zip(pts[:110], pts[110:220]):
            if abs(tilted_value(F, x, y)) > norm(x - y, F.norm) + 1e-12:
                failures.append(f"two-sided bound broken at instance {idx}")
            checked += 1
    assert checked >= 1000

    # midpoint concavity in y
    checked = 0
    for idx, F in enumerate(instances):
        pts = clouds[idx]
        for x, y1, y2 in zip(pts[:110], pts[110:220], pts[220:320]):
            mid = 0.5 * (y1 + y2)
            lhs = tilted_value(F, x, mid)
            rhs = 0.5 * (tilted_value(F, x, y1) + tilted_value(F, x, y2))
            if lhs < rhs - 1e-12:
                failures.append(f"concavity broken at instance {idx}")
            checked += 1
    assert checked >= 1000

    # fixed-point criterion identity J(f(x), x) <= Phi(x) + 1e-12
    checked = 0
    for idx, F in enumerate(instances):
        for x in clouds[idx][:110]:
            fx = tl.evaluate(F.mapping, x, F.domain)
            if tilted_value(F, fx, x) > F.displacement(x) + 1e-12:
                failures.append(f"criterion identity broken at instance {idx}")
            checked += 1
    assert checked >= 1000

    # coercivity certificate: J(x, y) > best_known on the truncation sphere
    checked = 0
    for idx, F in enumerate(instances):
        growth = instance_growth(F)
        kappa_eff, r0 = effective_growth_bound(growth)
        rng = np.random.default_rng(np.random.SeedSequence([607, idx]))
        y = clouds[idx][0]
        best_known = min(
            0.0, float(F.pairs(clouds[idx][:64], y[None, :]).min())
        )
        radius = max(coercivity_radius(F, y, kappa_eff, r0, best_known, 1.0), 1.0)
        done = 0
        for _ in range(2000):
            u = rng.standard_normal(F.dimension)
            size = norm(u, F.norm)
            if size == 0.0:
                continue
            x = radius * u / size
            if F.domain.violation(x) > 1e-12:
                continue
            if not tilted_value(F, x, y) > best_known:
                failures.append(f"coercivity certificate broken at instance {idx}")
            done += 1
            if done >= 100:
                break
        checked += done
    assert checked >= 1000

    # weak duality of the minimax envelopes
    cheap = OptimizeConfig(
        coarse_grid=5, multistart=1, termination_step=1e-3, separation=1e-2, seed=0
    )
    rng = np.random.default_rng(608)
    checked = 0
    for _ in range(1000):
        a = float(rng.uniform(-0.45, 0.45))
        b = float(rng.uniform(-1.0, 1.0))
        p = (1.0, 2.0, INF)[checked % 3]
        F = TiltedFunctional(
            NormSpec(1, p), FullSpace(1), AffineMap(1, matrix=((a,),), offset=(b,))
        )
        mm = minimax_gap(F, 6.0, 5, config=cheap)
        if mm.lower > mm.upper + 2e-6:
            failures.append(f"weak duality broken: {mm.lower} > {mm.upper}")
        checked += 1
    assert checked >= 1000

    conclude(6, "invariant suites", failures, "[6 suites x >= 1000 cases]")


BASE_CONFIG = """
kind = {kind}
seed = 23
space.dimension = {dim}
space.p = 2
set.variant = full_space
map.family = affine
map.matrix.shape = {dim} {dim}
map.matrix.data = {matrix}
map.offset = {offset}
optimizer.coarse_grid = 21
optimizer.multistart = 6
optimizer.budget = 200000
sampling.y_count = 6
sampling.y_radius = 4
sampling.check_samples = 64
"""

SWEEP_CONFIG = """
kind = search_counterexample
seed = 29
space.dimension = 2
space.p = 2
set.variant = full_space
sweep.family = rotation_scale
sweep.param.theta = 0.2 0.4
sweep.param.phi = 0
sweep.p_values = inf
sweep.y_grid = 3
sweep.planted_cell = 2
sampling.y_radius = 2
sampling.fallback_radius = 3
optimizer.coarse_grid = 11
optimizer.multistart = 4
optimizer.budget = 150000
"""


def test_criterion_7_bitwise_determinism(tmp_path):
    failures = []

    def run_twice(name, text, verb="run", jobs=None):
        path = tmp_path / f"{name}.cfg"
        path.write_text(text)
        blobs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{name}_{tag}"
            args = [verb, "--config", str(path), "--out", str(out)]
            if jobs is not None and tag == "b":
                args += ["--jobs", str(jobs)]
            code = cli_main(args)
            if code not in (0, 2):
                failures.append(f"{name}: exit code {code}")
            blob = (out / "report.txt").read_bytes().replace(str(out).encode(), b"@")
            for extra in out.glob("*.tsv"):
                blob += extra.read_bytes()
            blobs.append(blob)
        if blobs[0] != blobs[1]:
            failures.append(f"{name}: reports differ between runs")

    run_twice(
        "find",
        BASE_CONFIG.format(kind="find_fixed_point", dim=1, matrix="0.25", offset="0"),
    )
    run_twice(
        "certify",
        BASE_CONFIG.format(
            kind="certify_uniqueness", dim=2, matrix="0.3 0 0 0.2", offset="1 1"
        ),
    )
    run_twice(
        "minimax",
        BASE_CONFIG.format(kind="minimax_gap", dim=1, matrix="0.25", offset="0")
        + "sampling.radius = 6\nsampling.resolution = 9\n",
    )
    run_twice("sweep", SWEEP_CONFIG, verb="sweep", jobs=2)
    conclude(7, "bitwise determinism", failures, "[4 experiment kinds, jobs 1 vs 2]")


def test_criterion_8_counterexample_sweep_smoke():
    failures = []
    family = MapFamily(
        kind="rotation_scale",
        dimension=2,
        parameters=(("theta", (0.15, 0.3)), ("phi", (0.0, np.pi / 12.0))),
    )
    domain = FullSpace(2)
    window = SampleDomain(domain, NormSpec(2, INF), 3.0, 5)
    y_points = window.grid_points()
    assert len(y_points) == 25
    cfg = OptimizeConfig(coarse_grid=21, multistart=6, budget=200_000, seed=37)

    t0 = time.perf_counter()
    result = search_counterexample(family, [INF], domain, y_points, cfg)
    elapsed = time.perf_counter() - t0
    if result.cells_total != 100:
        failures.append(f"expected 100 cells, got {result.cells_total}")
    if elapsed > 300.0:
        failures.append(f"runtime {elapsed:.1f}s > 300s")
    scores = [c.score for c in result.candidates]
    if scores != sorted(scores, reverse=True):
        failures.append("candidate list is not ranked by score")
    for cand in result.candidates:
        if cand.status != "confirmed_at_4x":
            failures.append(f"candidate at cell {cand.cell_index} not re-verified")

    planted = search_counterexample(
        family, [INF], domain, y_points, cfg, planted_cell=42, fallback_radius=3.0
    )
    if len(planted.candidates) != 1:
        failures.append(f"planted validation found {len(planted.candidates)} candidates")
    elif planted.candidates[0].cell_index != 42:
        failures.append("planted candidate at the wrong cell")
    conclude(
        8,
        "counterexample sweep smoke test",
        failures,
        f"[{elapsed:.1f}s, 100 cells, {len(result.candidates)} candidates]",
    )
