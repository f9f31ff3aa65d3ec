"""The report layout: the ordered ``report.*`` keys of every kind, and the
text each value type is written as (``true``/``false``, ``none``, ``inf``,
17-digit floats, integers, enum values, and ``1``/``0`` for a screened
sweep cell)."""

import pytest

from tiltlab.configfile import build_experiment, parse_document
from tiltlab.reporting import error_outcome, run_experiment

from test_readme import readme_configs

BASE = """
seed = 3
space.dimension = 1
space.p = 2
set.variant = full_space
map.family = affine
map.matrix.shape = 1 1
map.matrix.data = 0.25
map.offset = 0.5
optimizer.coarse_grid = 9
optimizer.multistart = 2
"""

SWEEP = """
kind = search_counterexample
seed = 5
space.dimension = 1
space.p = 2
set.variant = full_space
sweep.family = scaled_identity
sweep.param.theta = 0.3 0.6
sweep.p_values = inf 2
sweep.y_grid = 1
sweep.planted_cell = 0
sampling.y_radius = 2
sampling.fallback_radius = 3
optimizer.coarse_grid = 9
optimizer.multistart = 2
"""

CASES = {
    "find_fixed_point": BASE + "kind = find_fixed_point\nsampling.check_samples = 16\n",
    "certify_uniqueness": BASE
    + "kind = certify_uniqueness\nsampling.y_count = 2\nsampling.y_radius = 2\n",
    "minimax_gap": BASE + "kind = minimax_gap\nsampling.radius = 2\nsampling.resolution = 5\n",
    # Probes reach beyond the separation of x_star: the strict keys are written.
    "verify_saddle_far": BASE + "kind = verify_saddle\nsaddle.x_star = 0.6666666666666666\n"
    "sampling.radius = 2\nsampling.resolution = 5\n",
    # Every probe lies within the separation: the strict keys are left out.
    "verify_saddle_near": BASE.replace("map.offset = 0.5", "map.offset = 0")
    + "kind = verify_saddle\nsaddle.x_star = 0\nsampling.radius = 0.0004\n"
    "sampling.resolution = 3\n",
    "search_counterexample": SWEEP,
}


def _minimization(prefix: str, clusters: int) -> list[str]:
    keys = [f"{prefix}.{name}" for name in
            ("status", "global_value", "evaluations", "radius", "clusters")]
    for i in range(clusters):
        keys += [f"{prefix}.cluster.{i}.point", f"{prefix}.cluster.{i}.value"]
    return keys


def _report(*names: str) -> list[str]:
    return [f"report.{name}" for name in names]


SADDLE_HEAD = _report("kind", "row_max", "row_witness", "column_min", "column_witness")
SADDLE_TAIL = _report(
    "row_ok", "column_nonneg_ok", "column_strict_ok", "tolerance", "separation"
)

KEYS = {
    "find_fixed_point": _report(
        "kind", "x_star", "residual", "radius", "row_max", "row_witness",
        "strict_min", "strict_witness", "proximity_min", "criterion_gap_max",
        "samples_used", "residual_ok", "row_ok", "strict_ok", "proximity_ok",
        "criterion_ok", "kappa_method",
    ) + _minimization("report.minimization", 1),
    "certify_uniqueness": _report(
        "kind", "verdict", "value_tolerance", "separation", "kappa_method",
        "kappa_hat", "margin", "entries",
    ) + [
        key
        for i in range(2)
        for key in _report(f"entry.{i}.y", f"entry.{i}.radius",
                           f"entry.{i}.incumbent", f"entry.{i}.verdict")
        + _minimization(f"report.entry.{i}.minimization", 1)
    ],
    "minimax_gap": _report(
        "kind", "lower", "upper", "gap", "x_witness", "y_witness",
        "boundary_max_flag", "witness_distance", "evaluations", "radius",
        "resolution",
    ),
    "verify_saddle_far": SADDLE_HEAD + _report("strict_min", "strict_witness") + SADDLE_TAIL,
    "verify_saddle_near": SADDLE_HEAD + SADDLE_TAIL,
    "search_counterexample": _report(
        "kind", "cells_total", "cells_screened_out", "findings_raw", "candidates",
        "value_tolerance", "separation",
    ) + _report(*(f"candidate.0.{name}" for name in (
        "cell", "param.theta", "p", "y", "value_gap", "separation", "score",
        "status", "kappa_method", "clusters", "cluster.0.point", "cluster.0.value",
        "cluster.1.point", "cluster.1.value",
    ))),
}

# Keys whose value is a list of floats, a bare word or an integer; every
# other report value is one float.
NOT_ONE_FLOAT = ("witness", "x_star", ".y", "point", "_ok", "flag", "kind",
                 "verdict", "status", "method", "samples_used", "evaluations",
                 "clusters", "entries", "candidates", "cells_", "findings_raw",
                 "resolution", ".cell", ".p")


def _run(name: str):
    return run_experiment(build_experiment(parse_document(CASES[name])))


def _report_keys(report: dict[str, str]) -> list[str]:
    return [key for key in report if not key.startswith("config.")]


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_keys_are_pinned_in_order(name):
    outcome = _run(name)
    assert _report_keys(outcome.report) == KEYS[name]
    for key in KEYS[name]:
        value = outcome.report[key]
        if not any(part in key for part in NOT_ONE_FLOAT):
            assert value == f"{float(value):.17g}", key


def test_value_texts():
    find = _run("find_fixed_point").report
    assert find["report.residual_ok"] == "true"
    assert find["report.samples_used"] == "16"
    assert find["report.kappa_method"] == "analytic"
    assert find["report.minimization.status"] == "ok"
    assert find["report.minimization.clusters"] == "1"
    assert find["report.radius"] == "6"

    certify = _run("certify_uniqueness").report
    assert certify["report.verdict"] == "unique_on_samples"
    assert certify["report.entry.0.verdict"] == "unique"
    assert certify["report.kappa_hat"] == "0.25"
    assert certify["report.value_tolerance"] == "9.9999999999999995e-07"
    assert certify["report.separation"] == "0.001"
    assert certify["report.entries"] == "2"

    minimax = _run("minimax_gap").report
    assert minimax["report.boundary_max_flag"] == "false"
    assert minimax["report.resolution"] == "5"

    assert _run("verify_saddle_far").report["report.column_strict_ok"] == "true"
    assert _run("verify_saddle_near").report["report.column_strict_ok"] == "false"


def test_sweep_texts_and_tables():
    outcome = _run("search_counterexample")
    report = outcome.report
    assert report["report.cells_screened_out"] == "2"
    assert report["report.candidate.0.p"] == "inf"
    assert report["report.candidate.0.param.theta"] == "0.29999999999999999"
    assert report["report.candidate.0.kappa_method"] == "planted"
    assert report["config.sweep.p_values"] == "inf 2"
    cells, candidates = outcome.tables
    rows = cells.render().splitlines()
    assert rows[0] == "cell\ttheta\tp\ty\tscreened_out\tkappa_hat\tclusters\tbest_value"
    columns = [row.split("\t") for row in rows[1:]]
    assert [c[:7] for c in columns] == [
        ["0", "0.29999999999999999", "inf", "-2", "0", "none", "2"],
        ["1", "0.29999999999999999", "2", "-2", "0", "0.29999999999999999", "1"],
        ["2", "0.59999999999999998", "inf", "-2", "1", "0.59999999999999998", "0"],
        ["3", "0.59999999999999998", "2", "-2", "1", "0.59999999999999998", "0"],
    ]
    assert [c[7] for c in columns[2:]] == ["none", "none"]
    assert candidates.render().splitlines()[0] == "cell\tscore\tvalue_gap\tseparation\tstatus"
    assert candidates.rows[0][0] == "0" and candidates.rows[0][4] == "confirmed_at_4x"


def test_error_outcome_layout():
    cfg = build_experiment(parse_document(
        BASE.replace("0.25", "0.8") + "kind = find_fixed_point\n"
    ))
    with pytest.raises(Exception) as info:
        run_experiment(cfg)
    outcome = error_outcome(cfg, info.value)
    assert outcome.exit_code == 1
    assert _report_keys(outcome.report) == [
        "report.kind", "report.status", "error.type", "error.message"
    ]
    assert outcome.report["report.status"] == "error"
    assert outcome.report["error.type"] == "GrowthConditionNotMet"
    assert outcome.report["config.optimizer.initial_step"] == "auto"
    assert outcome.report["config.sampling.growth_radii"] == "100 1000 10000"
    assert "config.sampling.radius_override" not in outcome.report


# The embedded config: each case's ``config.*`` keys in report order.
HEAD = ["kind", "seed", "out", "space.dimension", "space.norm", "space.p"]
OPTIMIZER = [f"optimizer.{name}" for name in (
    "coarse_grid", "multistart", "initial_step", "shrink", "termination_step",
    "value_tolerance", "separation", "budget", "directions",
)]
SAMPLING = [f"sampling.{name}" for name in (
    "y_count", "y_radius", "y_mode", "check_samples", "margin", "fallback_radius",
    "resolution", "radius", "growth_radii", "growth_directions",
)]
TAIL = OPTIMIZER + SAMPLING + ["saddle.tolerance"]
AFFINE = ["map.family", "map.matrix.shape", "map.matrix.data", "map.offset"]
CONE = """
kind = find_fixed_point
space.dimension = 2
set.variant = cone
set.halfspaces = 2
set.halfspace.0.normal = 1 0
set.halfspace.0.offset = 1
set.halfspace.1.normal = 1 1
set.halfspace.1.offset = 0
set.ray = 1 0
map.family = constant
map.value = 2 0
"""
CONE_KEYS = HEAD + [
    "set.variant", "set.halfspaces", "set.halfspace.0.normal", "set.halfspace.0.offset",
    "set.halfspace.1.normal", "set.halfspace.1.offset", "set.ray", "set.base",
    "map.family", "map.value",
] + TAIL

CONFIG_CASES = {
    "readme_fixed_point": (
        readme_configs()[0],
        HEAD + ["set.variant", "set.lower"] + AFFINE + TAIL,
    ),
    "half_space_affine_bounded": (
        """
        kind = certify_uniqueness
        space.dimension = 2
        set.variant = half_space
        set.normal = 0 1
        set.offset = -1
        map.family = affine_bounded
        map.matrix.shape = 2 2
        map.matrix.data = 0.2 0 0 0.2
        map.field = tanh
        map.amplitude = 0.1
        sampling.radius_override = 5
        """,
        HEAD + ["set.variant", "set.normal", "set.offset"] + AFFINE
        + ["map.field", "map.amplitude"] + OPTIMIZER
        + SAMPLING[:5] + ["sampling.radius_override"] + SAMPLING[5:] + ["saddle.tolerance"],
    ),
    "cone_computed_base": (CONE, CONE_KEYS),
    "cone_given_base": (CONE + "set.base = 1 0\n", CONE_KEYS),
    "weighted_constant": (
        """
        kind = minimax_gap
        space.dimension = 2
        space.norm = weighted_lp
        space.p = 3
        space.weights = 1 2
        map.family = constant
        map.value = 1 -1
        """,
        HEAD + ["space.weights", "set.variant", "map.family", "map.value"] + TAIL,
    ),
    "projected_affine": (
        """
        kind = find_fixed_point
        space.dimension = 1
        set.variant = orthant
        map.family = projected
        map.inner.family = affine
        map.inner.matrix.shape = 1 1
        map.inner.matrix.data = -0.5
        """,
        HEAD + ["set.variant", "set.lower", "map.family"]
        + [key.replace("map.", "map.inner.") for key in AFFINE] + TAIL,
    ),
    "sweep": (
        """
        kind = search_counterexample
        space.dimension = 2
        sweep.family = rotation_scale
        sweep.param.theta = 0.2 0.3
        sweep.param.phi = 0 0.5
        sweep.offset = 1 0
        sweep.planted_cell = 1
        """,
        HEAD + ["set.variant", "sweep.family", "sweep.param.phi", "sweep.param.theta",
                "sweep.offset", "sweep.p_values", "sweep.y_grid", "sweep.planted_cell"]
        + TAIL,
    ),
    "verify_saddle": (
        BASE + "kind = verify_saddle\nsaddle.x_star = 0.5\n",
        HEAD + ["set.variant"] + AFFINE + OPTIMIZER + SAMPLING
        + ["saddle.x_star", "saddle.tolerance"],
    ),
}


@pytest.mark.parametrize("name", sorted(CONFIG_CASES))
def test_embedded_config_keys_are_pinned_in_order(name):
    text, keys = CONFIG_CASES[name]
    cfg = build_experiment(parse_document(text))
    report = error_outcome(cfg, RuntimeError("layout only")).report
    assert [key for key in report if key.startswith("config.")] == [
        f"config.{key}" for key in keys
    ]
    if name.startswith("cone"):
        # The base the construction computed (or was given) is written.
        assert report["config.set.base"] == "1 0"
