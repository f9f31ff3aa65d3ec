"""Host-speed probes, and latencies scaled to a reference host speed.

The benchmark runs on a shared 2-vCPU VM.  Identical work takes from 1x to 3x as long,
in bursts of seconds and in stretches of minutes, and CPU time moves with
wall time, so neither clock alone gives steady figures.  A probe is a fixed
piece of work, independent of tiltlab, whose time tracks the host's speed;
a latency is scaled by the probes run around and during it.
"""

from __future__ import annotations

import signal
from time import perf_counter

import numpy as np

PROBE_INTERVAL_S = 0.05

# Each probe kind: (loop iterations, rows of the vectorized pass, seconds it
# takes on a quiet 2-vCPU shared VM, Python 3.11 and numpy 2.4, which defines
# the reference speed).  A workload uses the kind whose mix is like its own: the Python
# loop tracks interpreter-bound work, the pass over a few MB tracks work
# bound by memory bandwidth, which neighbours slow down separately.
PROBES = {
    "loop": (500, 0, 0.0020),
    "mixed": (250, 100_000, 0.0027),
}


def probe(kind: str) -> float:
    """Seconds for a Python loop over small numpy operations, like the
    optimizer's inner loop, then, for the mixed kind, a vectorized pass over
    a 2.4 MB array, like a grid scan."""
    loops, rows, _ = PROBES[kind]
    start = perf_counter()
    v = np.linspace(-1.0, 1.0, 3)
    A = 0.3 * np.eye(3)
    acc = 0.0
    for _ in range(loops):
        acc += float(np.abs(v - (A @ v + 0.1)).max())
    if rows:
        grid = np.linspace(-1.0, 1.0, 3 * rows).reshape(-1, 3)
        acc += float(np.sqrt((grid * grid).sum(axis=1)).max())
    return perf_counter() - start


class IntervalProbe:
    """Runs :func:`probe` on entry, from a SIGALRM handler every
    ``PROBE_INTERVAL_S`` seconds of wall time while the context is open, and
    on exit, recording (start, seconds) of each."""

    def __init__(self, kind: str):
        self.kind = kind
        self.samples: list[tuple[float, float]] = []
        self._previous = None

    def sample(self, *signal_args) -> None:
        start = perf_counter()
        self.samples.append((start, probe(self.kind)))

    def reference_seconds(self, wall: float) -> float:
        """``wall`` seconds converted to the reference host speed, by the
        mean of the probes so far."""
        reference = PROBES[self.kind][2]
        return wall * reference * len(self.samples) / sum(d for _, d in self.samples)

    def __enter__(self):
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()


def at_reference_speed(
    intervals: list[tuple[float, float]], samples: list[tuple[float, float]], kind: str
) -> list[float]:
    """Latency of each (start, end) interval at the reference host speed.

    Probe time inside an interval is taken out of it.  The interval is then
    scaled by the probe's reference time over the mean of the probes inside
    it and the nearest probe on either side.
    """
    reference = PROBES[kind][2]
    starts = [s for s, _ in samples]
    out = []
    j = 0
    for start, end in intervals:
        while j < len(samples) and starts[j] < start:
            j += 1
        k = j
        while k < len(samples) and starts[k] <= end:
            k += 1
        inside = [d for _, d in samples[j:k]]
        local = inside + [d for _, d in samples[max(j - 1, 0):j] + samples[k:k + 1]]
        if not local:
            raise ValueError("no probe sample near a timed interval")
        out.append((end - start - sum(inside)) * reference * len(local) / sum(local))
    return out
