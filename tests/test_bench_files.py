"""Every committed benchmark record (BENCH_*.json at the repository root)
speaks the vocabulary of BENCHMARK.json: it names only declared workloads
and end-to-end metrics, and holds parent and change medians of each
declared metric for every workload it lists."""

import json
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = {w["name"] for w in BENCHMARK["workloads"]}
METRICS = {m["name"] for m in BENCHMARK["end_to_end"]}
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def test_there_is_a_benchmark_record():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_bench_record_holds_declared_medians(path):
    record = json.loads(path.read_text(encoding="utf-8"))
    workloads = record["workloads"]
    assert workloads and set(workloads) <= WORKLOADS, sorted(set(workloads) - WORKLOADS)
    for name, entry in workloads.items():
        for side in ("parent", "change"):
            median = entry[side]["median"]
            assert set(median) == METRICS, (name, side, sorted(set(median) ^ METRICS))
            for metric, value in median.items():
                assert isinstance(value, (int, float)) and math.isfinite(value), (
                    name, side, metric, value)
