"""Round-trip and dispatch coverage across set variants and map families."""

import io
import itertools
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tiltlab.cli import main
from tiltlab.configfile import (
    EXPERIMENT_KINDS,
    build_experiment,
    config_to_document,
    fmt_float,
    parse_document,
    render_document,
)

SET_BLOCKS = {
    "full_space": "set.variant = full_space\n",
    "orthant": "set.variant = orthant\nset.lower = -1 0\n",
    "half_space": "set.variant = half_space\nset.normal = 1 1\nset.offset = -3\n",
    "cone": (
        "set.variant = cone\n"
        "set.halfspaces = 2\n"
        "set.halfspace.0.normal = 1 0\n"
        "set.halfspace.0.offset = 0\n"
        "set.halfspace.1.normal = 0 1\n"
        "set.halfspace.1.offset = 0\n"
        "set.ray = 1 1\n"
        "set.base = 0 0\n"
    ),
}

MAP_BLOCKS = {
    "affine": (
        "map.family = affine\n"
        "map.matrix.shape = 2 2\n"
        "map.matrix.data = 0.25 0.1 0 0.3\n"
        "map.offset = 0.5 0.25\n"
    ),
    "constant": "map.family = constant\nmap.value = 0.5 0.25\n",
    "affine_bounded": (
        "map.family = affine_bounded\n"
        "map.matrix.shape = 2 2\n"
        "map.matrix.data = 0.25 0 0 0.3\n"
        "map.offset = 0.5 0.25\n"
        "map.field = tanh\n"
        "map.amplitude = 0.125\n"
    ),
    "projected": (
        "map.family = projected\n"
        "map.inner.family = affine\n"
        "map.inner.matrix.shape = 2 2\n"
        "map.inner.matrix.data = 0.25 0 0 0.3\n"
        "map.inner.offset = 0.5 0.25\n"
    ),
}

NORM_BLOCKS = {
    "lp2": "space.norm = lp\nspace.p = 2\n",
    "lp1": "space.norm = lp\nspace.p = 1\n",
    "lpinf": "space.norm = lp\nspace.p = inf\n",
    "weighted": "space.norm = weighted_lp\nspace.p = 2\nspace.weights = 1 2\n",
}


@pytest.mark.parametrize(
    "set_name,map_name,norm_name",
    list(
        itertools.product(SET_BLOCKS, MAP_BLOCKS, ["lp2"])
    )
    + list(itertools.product(["full_space"], ["affine"], NORM_BLOCKS)),
)
def test_roundtrip_matrix(set_name, map_name, norm_name):
    text = (
        "kind = certify_uniqueness\nseed = 1\nspace.dimension = 2\n"
        + NORM_BLOCKS[norm_name]
        + SET_BLOCKS[set_name]
        + MAP_BLOCKS[map_name]
    )
    cfg = build_experiment(parse_document(text))
    doc = config_to_document(cfg)
    cfg2 = build_experiment(dict(doc))
    assert cfg == cfg2
    assert config_to_document(cfg2) == doc


VERIFY_SADDLE_CONFIG = """
kind = verify_saddle
seed = 2
space.dimension = 1
space.p = 2
set.variant = full_space
map.family = affine
map.matrix.shape = 1 1
map.matrix.data = 0.25
map.offset = 0
saddle.x_star = 0
saddle.tolerance = 1e-9
sampling.radius = 4
sampling.resolution = 81
"""


def test_cli_verify_saddle(tmp_path):
    path = tmp_path / "vs.cfg"
    path.write_text(VERIFY_SADDLE_CONFIG)
    out = tmp_path / "out"
    code = main(["run", "--config", str(path), "--out", str(out)])
    assert code == 0
    doc = parse_document((out / "report.txt").read_text())
    assert doc["report.row_ok"] == "true"
    assert doc["report.column_nonneg_ok"] == "true"
    assert doc["report.column_strict_ok"] == "true"
    assert float(doc["report.row_max"]) <= 1e-9
    assert (out / "extremes.tsv").exists()


EMPTY_GRID_SADDLE_CONFIG = """
kind = verify_saddle
seed = 1
space.dimension = 1
space.p = 2
set.variant = half_space
set.normal = 1
set.offset = 5
map.family = constant
map.value = 5
saddle.x_star = 5
sampling.radius = 1
"""


def test_cli_verify_saddle_refuses_a_set_outside_the_sampling_ball(tmp_path, capsys):
    # The half-space x >= 5 misses the ball of radius 1, so no probe is left;
    # the build refuses the config on the key that sets the grid.
    path = tmp_path / "vs.cfg"
    path.write_text(EMPTY_GRID_SADDLE_CONFIG)
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: field 'sampling.resolution': ")
    assert "no feasible grid point inside the ball of radius 1.0" in err
    assert "Traceback" not in err
    doc = parse_document((out / "report.txt").read_text())
    assert doc["error.type"] == "ConfigError"


MINIMAX_CONFIG = """
kind = minimax_gap
seed = 2
space.dimension = 1
space.p = 2
set.variant = full_space
map.family = affine
map.matrix.shape = 1 1
map.matrix.data = 0.25
map.offset = 0
optimizer.multistart = 2
sampling.radius = 8
sampling.resolution = 17
"""


def test_cli_minimax(tmp_path):
    path = tmp_path / "mm.cfg"
    path.write_text(MINIMAX_CONFIG)
    out = tmp_path / "out"
    code = main(["run", "--config", str(path), "--out", str(out)])
    assert code == 0
    doc = parse_document((out / "report.txt").read_text())
    assert abs(float(doc["report.upper"])) <= 1e-4
    assert abs(float(doc["report.gap"])) <= 1e-4
    assert doc["report.boundary_max_flag"] == "false"


def test_cli_weighted_norm_run(tmp_path):
    text = (
        "kind = find_fixed_point\nseed = 4\nspace.dimension = 2\n"
        + NORM_BLOCKS["weighted"]
        + "set.variant = full_space\n"
        + MAP_BLOCKS["affine"]
        + "optimizer.coarse_grid = 15\noptimizer.multistart = 4\n"
        + "sampling.check_samples = 32\n"
    )
    path = tmp_path / "w.cfg"
    path.write_text(text)
    out = tmp_path / "out"
    code = main(["run", "--config", str(path), "--out", str(out)])
    assert code == 0
    doc = parse_document((out / "report.txt").read_text())
    assert float(doc["report.residual"]) <= 1e-6
    assert doc["report.kappa_method"] == "sampled"


def _numbers(values) -> str:
    return " ".join(fmt_float(v) for v in values)


@st.composite
def _config_texts(draw):
    """A valid config over any set variant, map family and kind; a cone is
    built around a point it contains and a ray every normal accepts.  A
    sweep's or saddle check's probe window reaches the set: its radius
    (``sampling.y_radius`` or ``sampling.radius``) exceeds
    max(1, max weight) * sqrt(n) * |q|_2 for a point q of the set (the
    orthant's lower corner, the half-space's nearest point, the cone's
    inside point), which bounds the active norm of the set's projection of
    the origin, a point of every odd probe grid."""
    n = draw(st.integers(1, 3))
    coord = st.floats(-5.0, 5.0, allow_nan=False)
    vec = st.lists(coord, min_size=n, max_size=n)
    normal = vec.filter(lambda a: np.dot(a, a) > 1e-6)
    lines = [
        f"kind = {draw(st.sampled_from(EXPERIMENT_KINDS))}",
        f"seed = {draw(st.integers(0, 2**31))}",
        f"space.dimension = {n}",
        f"space.p = {draw(st.sampled_from(['1', '2', '3.5', 'inf']))}",
    ]
    weights = [1.0]
    if draw(st.booleans()):
        weights = draw(st.lists(st.floats(0.1, 10.0), min_size=n, max_size=n))
        lines += ["space.norm = weighted_lp", f"space.weights = {_numbers(weights)}"]
    variant = draw(st.sampled_from(["full_space", "orthant", "half_space", "cone"]))
    lines.append(f"set.variant = {variant}")
    member = np.zeros(n)  # a point of the set
    if variant == "orthant":
        member = np.array(draw(vec))
        lines.append(f"set.lower = {_numbers(member)}")
    elif variant == "half_space":
        a, offset = np.array(draw(normal)), draw(coord)
        member = a * max(offset, 0.0) / (a @ a)
        lines += [f"set.normal = {_numbers(a)}", f"set.offset = {fmt_float(offset)}"]
    elif variant == "cone":
        ray = np.array(draw(normal))
        inside = member = np.array(draw(vec))
        count = draw(st.integers(1, 4))
        lines.append(f"set.halfspaces = {count}")
        for i in range(count):
            a = np.array(draw(normal))
            a = -a if a @ ray < 0.0 else a
            slack = draw(st.floats(0.0, 3.0))
            lines += [
                f"set.halfspace.{i}.normal = {_numbers(a)}",
                f"set.halfspace.{i}.offset = {fmt_float(a @ inside - slack)}",
            ]
        lines.append(f"set.ray = {_numbers(ray)}")
    reach = max(1.0, *weights) * np.sqrt(n) * np.linalg.norm(member)
    if lines[0] == "kind = search_counterexample":
        thetas = draw(st.lists(st.floats(0.0, 0.45), min_size=1, max_size=3))
        lines += ["sweep.family = scaled_identity", f"sweep.param.theta = {_numbers(thetas)}"]
        lines.append(f"sampling.y_radius = {fmt_float(1.0 + reach)}")
    else:
        family = draw(st.sampled_from(["constant", "affine", "projected"]))
        if family == "constant":
            lines += ["map.family = constant", f"map.value = {_numbers(draw(vec))}"]
        else:
            prefix = "map"
            if family == "projected":
                lines.append("map.family = projected")
                prefix = "map.inner"
            data = draw(st.lists(st.floats(-1.0, 1.0), min_size=n * n, max_size=n * n))
            lines += [
                f"{prefix}.family = affine",
                f"{prefix}.matrix.shape = {n} {n}",
                f"{prefix}.matrix.data = {_numbers(data)}",
                f"{prefix}.offset = {_numbers(draw(vec))}",
            ]
    if lines[0] == "kind = verify_saddle":
        lines.append(f"saddle.x_star = {_numbers(draw(vec))}")
        lines.append(f"sampling.radius = {fmt_float(1.0 + reach)}")
    return "\n".join(lines) + "\n"


@given(_config_texts())
@settings(max_examples=150, deadline=None)
def test_parse_build_render_parse_roundtrip_hypothesis(text):
    cfg = build_experiment(parse_document(text))
    rendered = render_document(config_to_document(cfg))
    cfg2 = build_experiment(parse_document(rendered))
    assert cfg == cfg2
    assert render_document(config_to_document(cfg2)) == rendered


def _validate(text: str) -> tuple[int, str]:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.cfg"
        path.write_text(text)
        err = io.StringIO()
        with redirect_stderr(err), redirect_stdout(io.StringIO()):
            code = main(["validate", "--config", str(path)])
    return code, err.getvalue()


# Printable ASCII without '#', so a garbage value is never cut short.
_GARBAGE = st.text(
    st.characters(min_codepoint=32, max_codepoint=126, blacklist_characters="#")
)


@st.composite
def _malformed_texts(draw):
    """A valid config broken in one way that no reading can accept."""
    lines = draw(_config_texts()).splitlines()
    i = draw(st.integers(0, len(lines) - 1))
    key, value = (part.strip() for part in lines[i].split("=", 1))
    how = draw(st.sampled_from(
        ["garbage", "extra_number", "drop_required", "unknown_key", "no_equals", "duplicate"]
    ))
    if how == "extra_number" and not key.startswith("sweep.param."):
        # One number too many: a length mismatch, or a list where one is read.
        lines[i] = f"{key} = {value} 1"
    elif how == "drop_required":
        lines = [line for line in lines if not line.startswith(("kind ", "space.dimension "))]
    elif how == "unknown_key":
        lines.insert(i, f"zz.{key} = {value}")
    elif how == "no_equals":
        lines.insert(i, key)
    elif how == "duplicate":
        lines.insert(i, lines[i])
    else:
        lines[i] = f"{key} = x{draw(_GARBAGE)}"
    return "\n".join(lines) + "\n"


def _assert_diagnosed(code: int, err: str) -> None:
    assert code == 1
    assert err.startswith("error: ") and err.endswith("\n")
    assert "Traceback" not in err


@given(_malformed_texts())
@settings(max_examples=200, deadline=None)
def test_malformed_config_exits_1_with_a_diagnostic_hypothesis(text):
    code, err = _validate(text)
    _assert_diagnosed(code, err)


@given(st.lists(_GARBAGE, max_size=6))
@settings(max_examples=200, deadline=None)
def test_random_text_config_exits_1_with_a_diagnostic_hypothesis(lines):
    code, err = _validate("\n".join(lines))
    _assert_diagnosed(code, err)
