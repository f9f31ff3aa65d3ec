"""The four benchmark workloads: seeded inputs, experiment calls and checks.

A workload is a sequence of rounds.  Every round has the same structure (the
same dimensions, norms and sizes in the same order) with fresh seeded
numbers, so rounds cost about the same and any prefix of whole rounds has
the workload's mix.  Every check is a property that any correct tiltlab
satisfies; none compares against bytes that tiltlab printed before.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

import tiltlab as tl
from tiltlab import configfile, reporting
from stats import Verdict

P_CYCLE = (1.0, 2.0, tl.INF)


def lp_norm(v, p) -> float:
    """The lp norm, computed independently of tiltlab."""
    a = np.abs(np.asarray(v, dtype=float))
    if p is tl.INF:
        return float(a.max())
    return float((a ** p).sum() ** (1.0 / p))


def operator_norm(A: np.ndarray, p) -> float:
    return float(np.linalg.norm(A, np.inf if p is tl.INF else p))


def fixed_point_of(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The exact fixed point x = A x + b."""
    return np.linalg.solve(np.eye(len(b)) - A, b)


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, *stream]))


def affine_instance(rng, n: int, p, orthant: bool):
    """Affine contraction shaped like the test suite's: operator norm in
    [0.2, 0.4] under the active norm; on the orthant, A >= 0 and b > 0 so
    that f maps the set into itself."""
    M = rng.uniform(-1.0, 1.0, (n, n))
    if orthant:
        M = np.abs(M)
    A = M * ((0.2 + 0.2 * rng.uniform()) / operator_norm(M, p))
    b = rng.uniform(0.2, 1.0, n) if orthant else rng.uniform(-1.0, 1.0, n)
    domain = tl.Orthant(n) if orthant else tl.FullSpace(n)
    mapping = tl.AffineMap(n, matrix=tuple(map(tuple, A)), offset=tuple(b))
    return tl.TiltedFunctional(norm=tl.NormSpec(n, p), domain=domain, mapping=mapping), A, b


def _fmt_p(p) -> str:
    return "inf" if p is tl.INF else configfile.fmt_float(p)


def _vector(text: str) -> np.ndarray:
    return np.array([float(tok) for tok in text.split()])


def _rendered(outcome) -> str:
    return configfile.render_document(outcome.report) + "".join(
        table.name + "\n" + table.render() for table in outcome.tables)


def _run_config(text: str):
    doc = configfile.parse_document(text)
    return reporting.run_experiment(configfile.build_experiment(doc))


# -- fixed_point ---------------------------------------------------------------

_FP_GRID = {1: 65, 2: 21, 3: 9}


def _fixed_point_verdict(rng, slot: int) -> Verdict:
    n = (1, 2, 3)[slot % 3]
    p = P_CYCLE[(slot // 3) % 3]
    F, A, b = affine_instance(rng, n, p, orthant=slot % 2 == 1)
    config = tl.OptimizeConfig(
        coarse_grid=_FP_GRID[n], multistart=8, budget=400_000, seed=int(rng.integers(1 << 30)))
    probe_seed = int(rng.integers(1 << 30))
    x_hat = fixed_point_of(A, b)

    def call():
        growth = tl.growth_coefficient(F.mapping, F.norm, domain=F.domain)
        return tl.find_fixed_point(F, growth, config, check_samples=200, seed=probe_seed)

    def check(report) -> list[str]:
        problems = []
        off = lp_norm(np.array(report.x_star) - x_hat, p)
        if not off <= 1e-5:
            problems.append(f"x* is {off:.3e} from the exact fixed point")
        if not report.residual <= 1e-6:
            problems.append(f"residual {report.residual:.3e} > 1e-6")
        return problems

    return Verdict(f"fixed_point[n={n},p={_fmt_p(p)}]", call, check, repr)


def fixed_point_round(seed: int, index: int) -> list[Verdict]:
    """18 instances: every (dimension 1-3, p in {1, 2, inf}, full space or
    orthant) combination once."""
    return [_fixed_point_verdict(_rng(seed, 0xF1, index, slot), slot) for slot in range(18)]


# -- minimax -------------------------------------------------------------------

_MM_RESOLUTION = {1: 33, 2: 17}


def _minimax_verdict(rng, n: int, p) -> Verdict:
    if n == 1:
        a = rng.uniform(0.1, 0.45) * rng.choice((-1.0, 1.0))
        F = tl.TiltedFunctional(
            tl.NormSpec(1, p), tl.FullSpace(1),
            tl.AffineMap(1, matrix=((a,),), offset=(rng.uniform(-1.0, 1.0),)))
    else:
        F, _, _ = affine_instance(rng, n, p, orthant=False)
    kappa, r0 = tl.effective_growth_bound(tl.growth_coefficient(F.mapping, F.norm))
    base = F.domain.ray_base
    radius = max(tl.coercivity_radius(F, base, kappa, r0, F.displacement(base), 1.0), 1.0)
    resolution = _MM_RESOLUTION[n]
    config = tl.OptimizeConfig(
        coarse_grid=resolution, multistart=1, termination_step=1e-8,
        seed=int(rng.integers(1 << 30)))

    def call():
        return tl.minimax_gap(F.as_bifunctional(), radius, resolution, norm_spec=F.norm,
                              config=config)

    def check(mm) -> list[str]:
        problems = []
        if not mm.lower <= mm.upper:
            problems.append(f"weak duality broken: lower {mm.lower!r} > upper {mm.upper!r}")
        if not abs(mm.upper) <= 1e-4:
            problems.append(f"|upper| = {abs(mm.upper):.3e} > 1e-4")
        if not abs(mm.gap) <= 1e-4:
            problems.append(f"|gap| = {abs(mm.gap):.3e} > 1e-4")
        return problems

    return Verdict(f"minimax[n={n},p={_fmt_p(p)}]", call, check, repr)


def minimax_round(seed: int, index: int) -> list[Verdict]:
    """24 1-D contractions, eight under each p, then one 2-D contraction
    under l2, which takes about as long as twelve 1-D ones.  A run has far
    fewer than ten 2-D cases, so the tail percentile stays well inside the
    1-D ones instead of jumping between the two groups."""
    cases = [(1, p) for p in P_CYCLE] * 8 + [(2, 2.0)]
    return [_minimax_verdict(_rng(seed, 0x3A, index, slot), n, p)
            for slot, (n, p) in enumerate(cases)]


# -- sweep_cone ------------------------------------------------------------------

# The cone {x >= 0, x + y >= 0}: two half-spaces through the origin.
_SWEEP_CONFIG = """\
kind = search_counterexample
seed = {seed}
space.dimension = 2
set.variant = cone
set.halfspaces = 2
set.halfspace.0.normal = 1 0
set.halfspace.0.offset = 0
set.halfspace.1.normal = 1 1
set.halfspace.1.offset = 0
set.ray = 1 0
sweep.family = scaled_identity
sweep.param.theta = {thetas}
sweep.p_values = {p}
sweep.y_grid = 2
sampling.y_radius = {y_radius}
sampling.growth_directions = 32
optimizer.coarse_grid = 9
optimizer.multistart = 2
optimizer.budget = 200000
"""
_THETA_STRATA = ((0.05, 0.15), (0.15, 0.25), (0.25, 0.35), (0.35, 0.45))
_P_STRATA = ((1.25, 1.75), (2.25, 3.0), (3.0, 4.0), (4.0, 6.0))


def _sweep_verdict(rng, p: float, thetas: list[float]) -> Verdict:
    text = _SWEEP_CONFIG.format(
        seed=int(rng.integers(1 << 30)),
        thetas=" ".join(configfile.fmt_float(t) for t in thetas),
        p=configfile.fmt_float(p),
        y_radius=configfile.fmt_float(rng.uniform(1.0, 3.0)))

    def call():
        return _run_config(text)

    def check(outcome) -> list[str]:
        # For f(x) = theta x with theta < 1/2 on a cone through the origin,
        # J(x, y) >= (1 - 2 theta)||x|| - ||y||, so the origin is the unique
        # minimizer of J(., y) with value -||y||_p.  A value within the
        # window of -||y||_p therefore pins the cluster to the origin.
        report, (cells, _) = outcome.report, outcome.tables
        tolerance = float(report["report.value_tolerance"])
        problems = []
        if outcome.exit_code != 0 or report["report.candidates"] != "0":
            problems.append(f"exit {outcome.exit_code}, {report['report.candidates']} candidates")
        if int(report["report.cells_total"]) != len(cells.rows) or not cells.rows:
            problems.append("cell table does not match cells_total")
        column = {name: i for i, name in enumerate(cells.header)}
        for row in cells.rows:
            if row[column["screened_out"]] != "0":
                problems.append(f"cell {row[0]} screened out with theta < 1/2")
                continue
            y = _vector(row[column["y"]])
            expected = -lp_norm(y, float(row[column["p"]]))
            value = float(row[column["best_value"]])
            if row[column["clusters"]] != "1" or not abs(value - expected) <= tolerance:
                problems.append(
                    f"cell {row[0]}: {row[column['clusters']]} clusters, value {value!r}, "
                    f"expected one at the origin with {expected!r}")
        return problems

    return Verdict(f"sweep_cone[p={p:.3f}]", call, check, _rendered)


def sweep_cone_round(seed: int, index: int) -> list[Verdict]:
    """Four sweeps, one per p stratum outside {1, 2, inf}; each sweeps two
    theta values from distinct strata over the probe grid."""
    rng = _rng(seed, 0x5C, index)
    order = rng.permutation(len(_THETA_STRATA))
    verdicts = []
    for slot, (lo, hi) in enumerate(_P_STRATA):
        pair = (order[slot], order[(slot + 1) % len(order)])
        thetas = [float(rng.uniform(*_THETA_STRATA[k])) for k in pair]
        verdicts.append(_sweep_verdict(rng, float(rng.uniform(lo, hi)), thetas))
    return verdicts


# -- audit -----------------------------------------------------------------------

_SADDLE_CONFIG = """\
kind = verify_saddle
seed = 1
space.dimension = {n}
space.p = {p}
set.variant = {variant}
map.family = affine
map.matrix.shape = {n} {n}
map.matrix.data = {matrix}
map.offset = {offset}
sampling.radius = {radius}
sampling.resolution = {resolution}
saddle.x_star = {x_star}
"""
_SADDLE_RESOLUTION = 61
# The max-norm ball is the whole cube, so its scan evaluates about twice the
# points of the l2 one at the same resolution.  A coarser grid keeps it near
# the l2 scan's cost, so that no lone heavy class sits at the top of the
# latency distribution, where the tail percentile would jump between classes.
_ORACLE_RESOLUTION = {1.0: 121, 2.0: 121, tl.INF: 97}


def _audit_verdicts(rng, p, orthant: bool) -> list[Verdict]:
    n = 3
    F, A, b = affine_instance(rng, n, p, orthant)
    x_star = fixed_point_of(A, b)
    radius = 2.0 * lp_norm(x_star, p) + 1.0
    text = _SADDLE_CONFIG.format(
        n=n, p=_fmt_p(p), variant=F.domain.variant,
        matrix=configfile.fmt_vector(A.ravel()), offset=configfile.fmt_vector(b),
        radius=configfile.fmt_float(radius), resolution=_SADDLE_RESOLUTION,
        x_star=configfile.fmt_vector(x_star))

    def saddle_call():
        return _run_config(text)

    def saddle_check(outcome) -> list[str]:
        # At the exact fixed point J(x*, y) <= ||x* - f(x*)|| = 0, and for
        # x away from x*, J(x, x*) >= (1 - 2 kappa)||x - x*|| > 0.
        report = outcome.report
        return [f"{key} is false" for key in ("report.row_ok", "report.column_strict_ok")
                if report[key] != "true"]

    # Phi is (1 + kappa)-Lipschitz and vanishes at x*; the nearest grid
    # point is within half a spacing of x* in every coordinate.
    resolution = _ORACLE_RESOLUTION[p]
    spacing = 2.0 * radius / (resolution - 1)
    reach = 0.5 * spacing * (1.0 if p is tl.INF else n ** (1.0 / p))
    bound = (1.0 + operator_norm(A, p)) * reach + 1e-12

    def oracle_call():
        return tl.brute_force_minima(
            F.displacement_objective(), F.domain, radius, resolution,
            norm_spec=F.norm, objective_rows=F.displacements)

    def oracle_check(result) -> list[str]:
        if 0.0 <= result.global_value <= bound:
            return []
        return [f"oracle minimum {result.global_value!r} outside [0, {bound!r}]"]

    label = f"p={_fmt_p(p)},{F.domain.variant}"
    return [Verdict(f"audit_saddle[{label}]", saddle_call, saddle_check, _rendered),
            Verdict(f"audit_oracle[{label}]", oracle_call, oracle_check, repr)]


def audit_round(seed: int, index: int) -> list[Verdict]:
    """3-D affine instances under each p, on full space and on the orthant:
    a saddle check over a 61^3 probe grid and an oracle scan each."""
    verdicts = []
    for slot in range(6):
        rng = _rng(seed, 0xA0, index, slot)
        verdicts.extend(_audit_verdicts(rng, P_CYCLE[slot % 3], orthant=slot >= 3))
    return verdicts


class Workload(NamedTuple):
    make_round: Callable[[int, int], list[Verdict]]
    probe: str  # the host-speed probe kind, see hostspeed.PROBES


WORKLOADS = {
    "fixed_point": Workload(fixed_point_round, "loop"),
    "minimax": Workload(minimax_round, "loop"),
    "sweep_cone": Workload(sweep_cone_round, "loop"),
    "audit": Workload(audit_round, "mixed"),
}
