"""tiltlab benchmark: time-to-verdict on four workloads, plus a traced run.

Run from the repository root:

    python3 perfbench/run.py --workload fixed_point --seed 1 --seconds 10 --trace 0

One process calls tiltlab's public API in a closed loop: the next call
starts only after the previous one returned and was checked.  With
``--trace 0`` it measures the end-to-end metrics for ``--seconds`` seconds;
with ``--trace 1`` it runs the first round of inputs untraced, then twice
traced, and reports the per-layer metrics.  The last line of standard
output is one JSON object with the result.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 9
WALL_CAP = 2.5
WARM_UP_SEED = 0

END_TO_END_UNITS = {
    "verdicts_per_s": "1/s",
    "verdict_p50_s": "s",
    "verdict_tail_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import, generate inputs, make one warm-up call, exit")
    return parser.parse_args(argv)


def _prepare(workload: str, seed: int):
    """Set-up: imports, the first round's inputs and a warm-up call.  Later
    rounds are generated between rounds, outside the timed verdicts.  The
    warm-up instance does not depend on the seed, so that set-up time does
    not either."""
    from stats import Tally, run_verdict
    import workloads

    make_round = workloads.WORKLOADS[workload].make_round
    first = make_round(seed, 0)
    run_verdict(make_round(WARM_UP_SEED, 0)[0], Tally(), time.perf_counter)
    return itertools.chain([first], (make_round(seed, i) for i in itertools.count(1)))


def _setup_seconds(args) -> list[float]:
    """Complete set-ups, each in a fresh interpreter, at reference host speed."""
    from hostspeed import at_reference_speed, probe

    command = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    clock = time.perf_counter

    def sample():
        return clock(), statistics.median(probe("mixed") for _ in range(5))

    intervals, samples = [], [sample()]
    for _ in range(SETUP_REPEATS):
        start = clock()
        subprocess.run(command, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        intervals.append((start, clock()))
        samples.append(sample())
    return at_reference_speed(intervals, samples, "mixed")


def _environment(args) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "pinned_cpu": min(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
    }


def _timed(rounds, seconds: float, probe_kind: str) -> tuple[dict, object, dict]:
    """Closed loop over whole rounds until ``seconds`` have passed at the
    reference host speed, with every latency scaled to that speed (see
    hostspeed.py).  So a run does about the same work however busy the host
    is, unless the host is so slow that ``WALL_CAP`` times ``seconds`` of
    wall time pass first; then the loop stops after the current verdict."""
    from hostspeed import IntervalProbe, at_reference_speed
    from stats import Tally, run_verdict, tail_latency

    tally = Tally()
    clock = time.perf_counter
    intervals: list[tuple[float, float]] = []
    with IntervalProbe(probe_kind) as probes:
        start = clock()
        for verdicts in rounds:
            for verdict in verdicts:
                intervals.append(run_verdict(verdict, tally, clock)[:2])
                if clock() - start >= WALL_CAP * seconds:
                    break
            wall_s = clock() - start
            if probes.reference_seconds(wall_s) >= seconds or wall_s >= WALL_CAP * seconds:
                break
    latencies = at_reference_speed(intervals, probes.samples, probe_kind)
    tail = tail_latency(latencies)
    if tail is None:
        raise SystemExit(f"only {len(latencies)} verdicts ran; raise --seconds")
    values = {
        "verdicts_per_s": len(latencies) / sum(latencies),
        "verdict_p50_s": statistics.median(latencies),
        "verdict_tail_s": tail.value,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    raw = [end - start for start, end in intervals]
    detail = {
        "verdicts": len(latencies),
        "wall_s": wall_s,
        "reference_s": probes.reference_seconds(wall_s),
        "tail_percentile": tail.percentile,
        "tail_samples": tail.samples,
        "tail_beyond": tail.beyond,
        "probes": len(probes.samples),
        "probe_median_s": statistics.median(d for _, d in probes.samples),
        "unscaled": {"verdicts_per_s": len(raw) / sum(raw),
                     "verdict_p50_s": statistics.median(raw)},
    }
    return values, tally, detail


def _pass(verdicts, tally, tracer=None) -> tuple[float, list]:
    """Run ``verdicts`` once, traced when a tracer is given."""
    from layers import install
    from stats import run_verdict

    if tracer is not None:
        install(tracer)
    clock = time.perf_counter
    start = clock()
    try:
        digests = [run_verdict(v, tally, clock)[2] for v in verdicts]
    finally:
        elapsed = clock() - start
        restored = tracer.restore() if tracer is not None else True
    if not restored:
        raise SystemExit("a traced tiltlab function was not restored")
    return elapsed, digests


def _traced(verdicts) -> tuple[dict, object, bool, dict]:
    """Untraced pass, then two traced passes over the same verdicts."""
    from layers import EXACT_COUNTS, metrics
    from stats import Tally
    from tracing import Tracer

    tally = Tally()
    untraced_s, plain = _pass(verdicts, tally)
    first, second = Tracer(), Tracer()
    traced_s, digests_1 = _pass(verdicts, tally, first)
    traced_again_s, digests_2 = _pass(verdicts, tally, second)
    values = metrics(first, untraced_s, traced_s)
    again = metrics(second, untraced_s, traced_again_s)
    unequal = [n for n in EXACT_COUNTS if values[n] != again[n]]
    identical = None not in plain and plain == digests_1 == digests_2
    detail = {
        "verdicts": len(verdicts),
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "spans": len(first.spans),
        "outputs_identical": identical,
        "counts_not_repeated": unequal,
    }
    return values, tally, identical and not unequal, detail


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "tiltlab" / "__init__.py").is_file():
        print(f"perfbench: no tiltlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    # One CPU for the harness, its set-up children and its host-speed probes,
    # so that the probes measure the CPU the timed work runs on.
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    sys.path.insert(0, str(ROOT / "src"))
    import tiltlab

    if not Path(tiltlab.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"perfbench: imported tiltlab from {tiltlab.__file__}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    if args.setup_only:
        _prepare(args.workload, args.seed)
        return 0

    from layers import PER_LAYER

    env = _environment(args)
    if args.trace:
        rounds = _prepare(args.workload, args.seed)
        values, tally, consistent, detail = _traced(next(rounds))
        units = {name: unit for name, unit, _ in PER_LAYER}
    else:
        setups = _setup_seconds(args)
        rounds = _prepare(args.workload, args.seed)
        values, tally, detail = _timed(rounds, args.seconds, WORKLOADS[args.workload].probe)
        values["setup_s"] = statistics.median(setups)
        detail["setup_runs_s"] = setups
        consistent = True
        units = END_TO_END_UNITS
    detail["failed_frac"] = tally.failed_frac
    print(json.dumps({"environment": env}))
    print(json.dumps({"detail": detail}))
    for problem in tally.problems[:20]:
        print(f"FAILED {problem}")
    result = {
        "correct": tally.failed == 0 and consistent,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
