import numpy as np
import pytest

from tiltlab.cli import main
from tiltlab.configfile import (
    apply_overrides,
    build_experiment,
    config_to_document,
    fmt_float,
    parse_document,
)
from tiltlab.errors import ConfigError
from tiltlab.reporting import embedded_config_document

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
    ],
)
def test_validate_rejects_numbers_run_would_reject(tmp_path, capsys, key, value):
    base = SWEEP_CONFIG if key.startswith("sweep.") else FIND_CONFIG
    path = write(tmp_path, base.replace("sampling.check_samples = 64\n", ""))
    ok = main(["validate", "--config", str(path), "--override", f"{key}={value}"])
    assert ok == 1
    err = capsys.readouterr().err
    assert key.split(".", 1)[1] in err
    assert "Traceback" not in err


def test_halfspace_normal_it_cannot_project_with_is_a_config_error():
    doc = parse_document(FIND_CONFIG)
    doc.update({"set.variant": "half_space", "set.normal": "5e-324", "set.offset": "0"})
    with pytest.raises(ConfigError, match="set.variant"):
        build_experiment(doc)


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
