"""The benchmark harness (``perfbench/``) still fits the package: one round
of each workload BENCHMARK.json declares runs every verdict under the
harness's tracer, as its traced runs do, and every verdict passes its
check.  A name the harness calls or wraps that the package dropped fails
here, not only in a benchmark run."""

import json
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_a_traced_round_of_each_workload_passes_its_checks(workload, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import layers
    import workloads
    from stats import Tally, run_verdict
    from tracing import Tracer

    verdicts = workloads.WORKLOADS[workload].make_round(1, 0)
    tally, tracer = Tally(), Tracer()
    layers.install(tracer)
    try:
        for verdict in verdicts:
            run_verdict(verdict, tally, time.perf_counter)
    finally:
        restored = tracer.restore()
    assert restored
    assert tally.attempted == len(verdicts) > 0
    assert tally.failed == 0, tally.problems
