"""Summary statistics and verdict bookkeeping for the benchmark harness."""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Callable

TAIL_BEYOND = 10


@dataclass(frozen=True)
class Tail:
    """The highest latency percentile with at least ``beyond`` samples above it."""

    value: float
    percentile: float
    samples: int
    beyond: int


def tail_latency(latencies: list[float], beyond: int = TAIL_BEYOND) -> Tail | None:
    """Highest sample value that at least ``beyond`` samples strictly exceed.

    Its percentile is the share of samples at or below it.  With ties the
    rule walks down until enough samples lie strictly above; ``None`` means
    there are too few samples for any percentile to qualify.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    for i in range(n - beyond - 1, -1, -1):
        above = n - bisect_right(ordered, ordered[i])
        if above >= beyond:
            return Tail(ordered[i], 100.0 * (n - above) / n, n, above)
    return None


@dataclass(frozen=True)
class Verdict:
    """One public experiment call plus the property checks on its output.

    ``call`` is the timed part.  ``check`` returns the list of violated
    properties, empty when the output is correct.  ``digest`` renders the
    output exactly, so that two passes over the same inputs can be compared.
    """

    label: str
    call: Callable[[], object]
    check: Callable[[object], list[str]]
    digest: Callable[[object], str]


@dataclass
class Tally:
    """Verdicts attempted and failed; an exception counts as a failure."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems)


def run_verdict(verdict: Verdict, tally: Tally, clock) -> tuple[float, float, str | None]:
    """Run one verdict; returns the call's (start, end) times and the output's
    digest, or None for the digest when the call or its check raised."""
    start = clock()
    try:
        output = verdict.call()
    except Exception as exc:  # a library error is a failed verdict, not a crash
        end = clock()
        tally.record(verdict.label, [f"raised {type(exc).__name__}: {exc}"])
        return start, end, None
    end = clock()
    try:
        problems = verdict.check(output)
        digest = verdict.digest(output)
    except Exception as exc:
        tally.record(verdict.label, [f"check raised {type(exc).__name__}: {exc}"])
        return start, end, None
    tally.record(verdict.label, problems)
    return start, end, digest
