import math
from dataclasses import fields

import numpy as np
import pytest

from tiltlab import OptimizeConfig
from tiltlab.cli import main
from tiltlab.configfile import (
    SamplingSpec,
    apply_overrides,
    build_experiment,
    config_to_document,
    fmt_float,
    parse_document,
)
from tiltlab.errors import ConfigError
from tiltlab.reporting import embedded_config_document

from test_readme import readme_configs

FIND_CONFIG = """
# quarter-scaling map on the line
kind = find_fixed_point
seed = 11
space.dimension = 1
space.norm = lp
space.p = 2
set.variant = full_space
map.family = affine
map.matrix.shape = 1 1
map.matrix.data = 0.25
map.offset = 0
optimizer.coarse_grid = 33
optimizer.multistart = 6
optimizer.budget = 200000
sampling.check_samples = 64
"""

CERTIFY_CONFIG = """
kind = certify_uniqueness
seed = 3
space.dimension = 1
space.p = 2
set.variant = full_space
map.family = affine
map.matrix.shape = 1 1
map.matrix.data = 0.25
map.offset = 0
optimizer.coarse_grid = 33
optimizer.multistart = 6
sampling.y_count = 5
sampling.y_radius = 4
"""

SWEEP_CONFIG = """
kind = search_counterexample
seed = 5
space.dimension = 2
space.p = 2
set.variant = full_space
sweep.family = scaled_identity
sweep.param.theta = 0.2 0.35
sweep.p_values = 2
sweep.y_grid = 3
sweep.planted_cell = 1
sampling.y_radius = 2
sampling.fallback_radius = 3
optimizer.coarse_grid = 15
optimizer.multistart = 4
optimizer.budget = 150000
"""


def write(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_parse_document_diagnostics():
    with pytest.raises(ConfigError, match="line 2"):
        parse_document("a.b = 1\nnonsense line\n")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_document("a.b = 1\na.b = 2\n")
    doc = parse_document("a.b = 1  # trailing comment\n\n# full comment\n")
    assert doc == {"a.b": "1"}


def test_build_rejects_unknown_keys_and_kinds():
    doc = parse_document(FIND_CONFIG)
    doc["optimizer.typo"] = "1"
    with pytest.raises(ConfigError, match="optimizer.typo"):
        build_experiment(doc)
    doc2 = parse_document(FIND_CONFIG)
    doc2["kind"] = "meditate"
    with pytest.raises(ConfigError, match="unknown experiment kind"):
        build_experiment(doc2)


def test_bounded_box_rejected_as_not_unbounded(tmp_path):
    text = """
kind = find_fixed_point
space.dimension = 1
space.p = 2
set.variant = cone
set.halfspaces = 2
set.halfspace.0.normal = 1
set.halfspace.0.offset = 0
set.halfspace.1.normal = -1
set.halfspace.1.offset = -1
set.ray = 1
map.family = affine
map.matrix.shape = 1 1
map.matrix.data = 0.25
map.offset = 0
"""
    with pytest.raises(ConfigError, match="unbounded"):
        build_experiment(parse_document(text))
    path = write(tmp_path, text)
    code = main(["validate", "--config", str(path)])
    assert code == 1


def test_config_roundtrip_equality():
    doc = parse_document(FIND_CONFIG)
    cfg = build_experiment(doc)
    canonical = config_to_document(cfg)
    cfg2 = build_experiment(dict(canonical))
    assert cfg == cfg2
    assert config_to_document(cfg2) == canonical


def test_seventeen_digit_floats():
    assert fmt_float(0.1) == "0.10000000000000001"
    assert float(fmt_float(np.pi)) == np.pi


def test_overrides():
    doc = parse_document(FIND_CONFIG)
    out = apply_overrides(doc, ["seed=99", "optimizer.multistart = 4"])
    cfg = build_experiment(out)
    assert cfg.seed == 99
    assert cfg.optimizer.multistart == 4
    with pytest.raises(ConfigError, match="key=value"):
        apply_overrides(doc, ["oops"])


def test_validate_verb(tmp_path, capsys):
    path = write(tmp_path, FIND_CONFIG)
    assert main(["validate", "--config", str(path)]) == 0
    assert "ok" in capsys.readouterr().out
    bad = write(tmp_path, FIND_CONFIG + "zzz\n", name="bad.cfg")
    assert main(["validate", "--config", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "line" in err


def test_validate_rejects_non_numeric_initial_step(tmp_path, capsys):
    bad = write(tmp_path, FIND_CONFIG + "optimizer.initial_step = abc\n")
    assert main(["validate", "--config", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "optimizer.initial_step" in err
    assert "not a number" in err
    assert "Traceback" not in err


CONE_SET = """set.variant = cone
set.halfspaces = 1
set.halfspace.0.normal = 1
set.halfspace.0.offset = 0
set.ray = 1
"""


@pytest.mark.parametrize(
    "key, text",
    [
        ("map.ofset", FIND_CONFIG.replace("map.offset = 0", "map.ofset = 1")),
        ("set.lower", FIND_CONFIG + "set.lower = 1\n"),
        ("saddle.x_star", FIND_CONFIG + "saddle.x_star = 0\n"),
        (
            "set.halfspace.5.normal",
            FIND_CONFIG.replace("set.variant = full_space\n", CONE_SET)
            + "set.halfspace.5.normal = 1\n",
        ),
    ],
    ids=["misspelt", "other_variant", "other_kind", "beyond_count"],
)
def test_validate_rejects_keys_nothing_reads(tmp_path, capsys, key, text):
    # A misspelt key, or one of another variant or kind, must not pass with
    # its value silently ignored.
    path = write(tmp_path, text)
    assert main(["validate", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert key in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "key, value",
    [
        ("sampling.resolution", "0"),
        ("sampling.check_samples", "0"),
        ("sampling.y_count", "0"),
        ("sampling.growth_directions", "0"),
        ("sampling.radius", "-1"),
        ("sampling.fallback_radius", "0"),
        ("sampling.margin", "-1"),
        ("sampling.growth_radii", "5 3"),
        ("sampling.radius_override", "0"),
        ("sampling.y_radius", "0"),
        ("map.matrix.shape", "1.9 1.2"),
        ("sweep.y_grid", "0"),
        ("sweep.planted_cell", "-1"),
        ("saddle.tolerance", "nan"),
        ("saddle.tolerance", "-1"),
        ("saddle.tolerance", "inf"),
        ("optimizer.initial_step", "inf"),
        ("optimizer.separation", "inf"),
        ("optimizer.value_tolerance", "inf"),
        ("sampling.margin", "inf"),
        ("sampling.y_radius", "inf"),
        ("sampling.growth_radii", "100 inf"),
        ("saddle.x_star", "nan"),
        ("sweep.p_values", "nan"),
        ("sweep.p_values", "0.5"),
        ("sweep.p_values", "2 -inf"),
        ("sweep.p_values", ""),
    ],
)
def test_validate_rejects_numbers_run_would_reject(tmp_path, capsys, key, value):
    base = SWEEP_CONFIG if key.startswith("sweep.") else FIND_CONFIG
    if key == "saddle.x_star":
        base = base.replace("find_fixed_point", "verify_saddle") + "saddle.x_star = 0\n"
    path = write(tmp_path, base.replace("sampling.check_samples = 64\n", ""))
    ok = main(["validate", "--config", str(path), "--override", f"{key}={value}"])
    assert ok == 1
    err = capsys.readouterr().err
    assert key.split(".", 1)[1] in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "drop, override, culprit",
    [
        ("", "sweep.param.psi=1 2", "psi"),
        ("sweep.param.theta", None, "theta"),
        ("", "space.dimension=3", "two-dimensional"),
    ],
    ids=["unknown_parameter", "missing_parameter", "dimension"],
)
def test_validate_refuses_a_family_it_cannot_build(tmp_path, capsys, drop, override, culprit):
    # README's rotation_scale sweep, with one parameter too many or too few,
    # or in a dimension the family does not have.
    text = readme_configs()[2]
    if drop:
        text = "".join(line for line in text.splitlines(True) if not line.startswith(drop))
    args = ["validate", "--config", str(write(tmp_path, text))]
    if override:
        args += ["--override", override]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: field 'sweep.family'")
    assert culprit in err
    assert "Traceback" not in err


@pytest.mark.parametrize("how", ["flag", "config"])
def test_validate_refuses_a_negative_seed_on_its_key(tmp_path, capsys, how):
    # It used to be blamed on field 'optimizer'.
    text = FIND_CONFIG if how == "flag" else FIND_CONFIG.replace("seed = 11", "seed = -1")
    args = ["validate", "--config", str(write(tmp_path, text))]
    if how == "flag":
        args += ["--seed", "-1"]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err == "error: field 'seed': must be a non-negative integer\n"


# One value per section key that OptimizeConfig or SamplingSpec refuses;
# optimizer.seed is no key, since the seed is read from the top-level key.
SECTION_REFUSALS = {
    "optimizer.coarse_grid": "0",
    "optimizer.multistart": "0",
    "optimizer.budget": "0",
    "optimizer.initial_step": "0",
    "optimizer.shrink": "2",
    "optimizer.termination_step": "0",
    "optimizer.value_tolerance": "0",
    "optimizer.separation": "1e-10",
    "optimizer.directions": "diagonal",
    "sampling.y_count": "0",
    "sampling.y_radius": "0",
    "sampling.y_mode": "sobol",
    "sampling.check_samples": "0",
    "sampling.margin": "0",
    "sampling.radius_override": "0",
    "sampling.fallback_radius": "0",
    "sampling.resolution": "0",
    "sampling.radius": "0",
    "sampling.growth_radii": "5 3",
    "sampling.growth_directions": "0",
}


def test_section_refusals_cover_every_section_key():
    keys = {f"optimizer.{f.name}" for f in fields(OptimizeConfig) if f.name != "seed"}
    keys |= {f"sampling.{f.name}" for f in fields(SamplingSpec)}
    assert set(SECTION_REFUSALS) == keys


@pytest.mark.parametrize("key", sorted(SECTION_REFUSALS))
def test_validate_blames_a_refused_section_value_on_its_key(tmp_path, capsys, key):
    # It used to be blamed on the section, field 'optimizer' or 'sampling'.
    path = write(tmp_path, FIND_CONFIG)
    override = f"{key}={SECTION_REFUSALS[key]}"
    assert main(["validate", "--config", str(path), "--override", override]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: field '{key}': ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("planted", ["100", "999"])
def test_validate_refuses_a_planted_cell_beyond_the_sweep(tmp_path, capsys, planted):
    # README's sweep has 2 x 2 parameter points, one norm and 25 probes:
    # 100 cells, so cell 99 is the last one.
    path = write(tmp_path, readme_configs()[2])
    args = ["validate", "--config", str(path), "--override"]
    assert main(args + ["sweep.planted_cell=99"]) == 0
    capsys.readouterr()
    assert main(args + [f"sweep.planted_cell={planted}"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: field 'sweep.planted_cell'")
    assert f"planted_cell {planted} is not one of the sweep's 100 cells" in err


def test_validate_refuses_a_sweep_with_no_probe(tmp_path, capsys):
    # The orthant x >= (5, 5) misses the y ball of radius 3.
    text = readme_configs()[2].replace(
        "set.variant = full_space\n", "set.variant = orthant\nset.lower = 5 5\n"
    ) + "sweep.offset = 5 5\n"
    assert "sampling.y_radius = 3\n" in text
    path = write(tmp_path, text)
    assert main(["validate", "--config", str(path), "--override", "sampling.y_radius=20"]) == 0
    capsys.readouterr()
    assert main(["validate", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: field 'sweep.y_grid'")
    assert "radius 3.0" in err


CORNERS_SADDLE_CONFIG = """
kind = verify_saddle
space.dimension = 3
space.p = 1
set.variant = full_space
map.family = affine
map.matrix.shape = 3 3
map.matrix.data = 0.25 0 0 0 0.25 0 0 0 0.25
map.offset = 0 0 0
sampling.radius = 6
sampling.resolution = 2
saddle.x_star = 0 0 0
"""


def test_validate_refuses_a_saddle_check_with_no_probe(tmp_path, capsys):
    # At resolution 2 the grid is the box corners, each at l1 norm 18 > 6.
    path = write(tmp_path, CORNERS_SADDLE_CONFIG)
    args = ["validate", "--config", str(path)]
    assert main(args + ["--override", "sampling.resolution=3"]) == 0
    capsys.readouterr()
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err == (
        "error: field 'sampling.resolution': "
        "no feasible grid point inside the ball of radius 6.0\n"
    )


@pytest.mark.parametrize("overrides, builds", [
    ([], 0),  # the mesh form walks the window's blocks
    (["space.p=1.5"], 1),  # the rows: built by the run, not by validation
    (["set.variant=half_space", "set.normal=1 0 0", "set.offset=0"], 1),  # by validation
], ids=["mesh", "rows", "half_space"])
def test_run_builds_the_saddle_grid_at_most_once(tmp_path, monkeypatch, overrides, builds):
    import tiltlab.spaces as spaces

    calls = []
    grid = spaces.SampleDomain.grid_points
    monkeypatch.setattr(spaces.SampleDomain, "grid_points",
                        lambda self: calls.append(self) or grid(self))
    path = write(tmp_path, CORNERS_SADDLE_CONFIG)
    args = ["run", "--config", str(path), "--out", str(tmp_path / "out")]
    for override in ["sampling.resolution=5", *overrides]:
        args += ["--override", override]
    assert main(args) == 0
    assert len(calls) == builds


@pytest.mark.parametrize(
    "overrides, field",
    [
        (["space.dimension=0"], "space.dimension"),
        (["space.dimension=0", "space.norm=weighted_lp", "space.weights=1"],
         "space.dimension"),
        (["space.norm=weighted_lp", "space.weights=-1"], "space.weights"),
    ],
)
def test_validate_blames_the_norm_key_at_fault(tmp_path, capsys, overrides, field):
    path = write(tmp_path, FIND_CONFIG)
    args = ["validate", "--config", str(path)]
    for override in overrides:
        args += ["--override", override]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: field '{field}'")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "field, value",
    [
        ("y_radius", math.inf),
        ("margin", math.inf),
        ("radius_override", math.inf),
        ("fallback_radius", math.inf),
        ("radius", math.inf),
        ("growth_radii", (100.0, math.inf)),
    ],
)
def test_sampling_spec_rejects_an_infinite_number(field, value):
    with pytest.raises(ValueError, match=field):
        SamplingSpec(**{field: value})


def test_halfspace_normal_it_cannot_project_with_is_a_config_error():
    doc = parse_document(FIND_CONFIG)
    doc.update({"set.variant": "half_space", "set.normal": "5e-324", "set.offset": "0"})
    with pytest.raises(ConfigError, match="set.variant"):
        build_experiment(doc)


@pytest.mark.parametrize(
    "set_keys, field",
    [
        ("set.variant = orthant\nset.lower = 0\n", "set.lower"),
        ("set.variant = half_space\nset.normal = 1 nan\nset.offset = 0\n", "set.normal"),
        ("set.variant = cone\nset.halfspace.0.normal = 1 0\nset.halfspace.0.offset = 0\n"
         "set.ray = 1 0\n", "set.halfspaces"),
        ("set.variant = cone\nset.halfspaces = 1\nset.halfspace.0.normal = 1 0\n"
         "set.halfspace.0.offset = 0\nset.ray = 1 0\nset.base = 0 x\n", "set.base"),
        # A value every getter accepts but the set refuses is the variant's fault.
        ("set.variant = half_space\nset.normal = 0 0\nset.offset = 0\n", "set.variant"),
    ],
    ids=["lower_length", "normal_nan", "halfspaces_missing", "base_text", "construction"],
)
def test_a_bad_set_value_is_blamed_on_its_key(set_keys, field):
    text = "kind = find_fixed_point\nspace.dimension = 2\nmap.family = constant\n"
    with pytest.raises(ConfigError) as info:
        build_experiment(parse_document(text + "map.value = 0 0\n" + set_keys))
    assert info.value.field == field
    assert str(info.value).count("field '") == 1, str(info.value)


EMPTY_CONE_CONFIG = """
kind = find_fixed_point
space.dimension = 2
set.variant = cone
set.halfspaces = 2
set.halfspace.0.normal = 1 1
set.halfspace.0.offset = 0
set.halfspace.1.normal = -1 -1
set.halfspace.1.offset = 1
set.ray = -1 1
map.family = constant
map.value = 0 0
"""


def test_validate_rejects_an_empty_cone(tmp_path, capsys):
    # The ray passes the witness check, yet x + y >= 0 and x + y <= -1 share
    # no point.
    path = write(tmp_path, EMPTY_CONE_CONFIG)
    assert main(["validate", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: field 'set.variant'")
    assert "empty" in err
    assert "Traceback" not in err


def test_cone_face_count_over_the_cap_is_a_config_error():
    lines = ["set.halfspaces = 30"]
    for i, t in enumerate(np.linspace(0.0, np.pi / 2, 30)):
        normal = f"{fmt_float(np.cos(t))} {fmt_float(np.sin(t))} 0"
        lines.append(f"set.halfspace.{i}.normal = {normal}")
        lines.append(f"set.halfspace.{i}.offset = -1")
    text = (
        "kind = find_fixed_point\nspace.dimension = 3\nset.variant = cone\n"
        + "\n".join(lines)
        + "\nset.ray = 1 1 0\nmap.family = constant\nmap.value = 0 0 0\n"
    )
    with pytest.raises(ConfigError, match="set.variant.*4526 candidate faces"):
        build_experiment(parse_document(text))


def test_run_find_fixed_point(tmp_path):
    path = write(tmp_path, FIND_CONFIG)
    out = tmp_path / "out"
    code = main(["run", "--config", str(path), "--out", str(out)])
    assert code == 0
    report = (out / "report.txt").read_text()
    doc = parse_document(report)
    assert doc["report.kind"] == "find_fixed_point"
    assert abs(float(doc["report.x_star"])) <= 1e-6
    assert float(doc["report.residual"]) <= 1e-6
    assert doc["report.residual_ok"] == "true"
    assert (out / "clusters.tsv").exists()
    header = (out / "clusters.tsv").read_text().splitlines()[0]
    assert header.split("\t") == ["cluster", "value", "x0"]


def test_report_embeds_roundtrippable_config(tmp_path):
    path = write(tmp_path, FIND_CONFIG)
    out = tmp_path / "out"
    main(["run", "--config", str(path), "--out", str(out), "--seed", "21"])
    report = (out / "report.txt").read_text()
    embedded = embedded_config_document(report)
    cfg = build_experiment(embedded)
    assert cfg.seed == 21
    assert cfg.out == str(out)
    # the embedded document is the canonical rendering of the resolved config
    assert config_to_document(cfg) == embedded


def test_run_is_bitwise_deterministic(tmp_path):
    path = write(tmp_path, CERTIFY_CONFIG)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", str(path), "--out", str(out1), "--seed", "8"]) == 0
    assert main(["run", "--config", str(path), "--out", str(out2), "--seed", "8"]) == 0
    r1 = (out1 / "report.txt").read_bytes()
    r2 = (out2 / "report.txt").read_bytes()
    assert r1.replace(str(out1).encode(), b"@") == r2.replace(str(out2).encode(), b"@")
    t1 = (out1 / "per_y.tsv").read_bytes()
    t2 = (out2 / "per_y.tsv").read_bytes()
    assert t1 == t2


@pytest.mark.parametrize("verb", ["run", "sweep"])
@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_cli_refuses_a_worker_count_below_one(tmp_path, capsys, verb, jobs):
    path = write(tmp_path, SWEEP_CONFIG)
    out = tmp_path / "out"
    assert main([verb, "--config", str(path), "--out", str(out), "--jobs", jobs]) == 1
    err = capsys.readouterr().err
    assert "--jobs" in err and jobs in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("verb", ["run", "validate"])
def test_cli_refuses_jobs_above_one_for_a_kind_that_does_not_sweep(tmp_path, capsys, verb):
    # Only a sweep runs in parallel; elsewhere --jobs 4 used to be ignored
    # without a word.  The refusal comes before anything runs or is written.
    path = write(tmp_path, readme_configs()[1])  # README's minimax example
    out = tmp_path / "out"
    assert main([verb, "--config", str(path), "--out", str(out), "--jobs", "4"]) == 1
    err = capsys.readouterr().err
    assert err == "error: --jobs applies only to kind = search_counterexample\n"
    assert not out.exists()


@pytest.mark.parametrize("verb", ["run", "validate"])
def test_cli_accepts_jobs_one_for_every_kind(tmp_path, capsys, verb):
    path = write(tmp_path, FIND_CONFIG)
    out = tmp_path / "out"
    assert main([verb, "--config", str(path), "--out", str(out), "--jobs", "1"]) == 0
    assert capsys.readouterr().err == ""


def test_sweep_exit_code_and_parallel_determinism(tmp_path):
    path = write(tmp_path, SWEEP_CONFIG)
    outs = [tmp_path / f"s{i}" for i in range(3)]
    code1 = main(["sweep", "--config", str(path), "--out", str(outs[0])])
    code2 = main(["sweep", "--config", str(path), "--out", str(outs[1])])
    code3 = main(
        ["sweep", "--config", str(path), "--out", str(outs[2]), "--jobs", "2"]
    )
    assert code1 == code2 == code3 == 2  # the planted cell is a finding
    blobs = []
    for out in outs:
        text = (out / "report.txt").read_bytes()
        blobs.append(text.replace(str(out).encode(), b"@"))
        assert (out / "cells.tsv").exists() and (out / "candidates.tsv").exists()
    assert blobs[0] == blobs[1] == blobs[2]
    doc = parse_document((outs[0] / "report.txt").read_text())
    assert doc["report.candidates"] == "1"
    assert doc["report.candidate.0.cell"] == "1"


def test_sweep_planted_cell_beyond_the_cells_fails_the_run(tmp_path, capsys):
    path = write(tmp_path, SWEEP_CONFIG)
    out = tmp_path / "out"
    args = ["sweep", "--config", str(path), "--out", str(out)]
    assert main(args + ["--override", "sweep.planted_cell=999"]) == 1
    err = capsys.readouterr().err
    assert "planted_cell 999" in err and "10 cells" in err
    doc = parse_document((out / "report.txt").read_text())
    assert doc["report.status"] == "error"


def test_sweep_verb_requires_sweep_kind(tmp_path):
    path = write(tmp_path, FIND_CONFIG)
    assert main(["sweep", "--config", str(path)]) == 1


def test_runtime_error_writes_partial_report(tmp_path):
    # growth ratio 0.8 >= 1/2: find_fixed_point refuses, partial report lands
    text = FIND_CONFIG.replace("map.matrix.data = 0.25", "map.matrix.data = 0.8")
    path = write(tmp_path, text)
    out = tmp_path / "out"
    code = main(["run", "--config", str(path), "--out", str(out)])
    assert code == 1
    doc = parse_document((out / "report.txt").read_text())
    assert doc["report.status"] == "error"
    assert doc["error.type"] == "GrowthConditionNotMet"
    assert doc["config.map.matrix.data"] == "0.80000000000000004"


def test_missing_config_file():
    assert main(["run", "--config", "/nonexistent/x.cfg"]) == 1


def test_config_path_that_is_a_directory(tmp_path, capsys):
    assert main(["validate", "--config", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_config_file_that_is_not_utf8(tmp_path, capsys):
    path = tmp_path / "latin1.cfg"
    path.write_bytes(FIND_CONFIG.replace("quarter", "quart\xe9r").encode("latin-1"))
    assert main(["validate", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "utf-8" in err
    assert "Traceback" not in err
