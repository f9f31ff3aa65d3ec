"""The config examples in README.md build, so the documented schema
cannot drift from the code."""

import re
from pathlib import Path

import pytest

from tiltlab.configfile import build_experiment, parse_document

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_configs() -> list[str]:
    """The fenced blocks of README.md that are configs (they set a kind)."""
    blocks = re.findall(r"^```\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)
    return [b for b in blocks if b.startswith("kind = ")]


def test_readme_has_the_fixed_point_and_sweep_examples():
    kinds = [parse_document(text)["kind"] for text in readme_configs()]
    assert kinds == ["find_fixed_point", "minimax_gap", "search_counterexample"]


@pytest.mark.parametrize("index", [0, 1, 2], ids=["fixed_point", "minimax", "sweep"])
def test_readme_config_builds(index):
    text = readme_configs()[index]
    cfg = build_experiment(parse_document(text))
    assert cfg.kind == parse_document(text)["kind"]
