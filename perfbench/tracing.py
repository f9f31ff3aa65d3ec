"""In-memory tracer that observes tiltlab from outside.

It wraps public functions and methods by rebinding their names inside each
``tiltlab.*`` module namespace where they are looked up, and on classes for
methods, and puts every original back on :meth:`Tracer.restore`.

Experiment and batched calls get spans (name, start, end, parent).  Per-point
scalar calls run about 10^6 times in a pass, so they get counts only; the
projection is also timed, and that time is taken out of the self time of
the span it ran in, so that self times partition the traced wall time.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter


@dataclass(frozen=True)
class Span:
    name: str
    parent: int | None  # index of the enclosing span in the tracer's list
    start: float
    end: float


def union_length(intervals, lo: float, hi: float) -> float:
    """Total length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    run_start = run_end = None
    for s, e in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        if e <= s:
            continue
        if run_end is None or s > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = s, e
        else:
            run_end = max(run_end, e)
    if run_end is not None:
        total += run_end - run_start
    return total


def self_times(spans: list[Span], inner: dict[int, float] | None = None) -> list[float]:
    """Each span's duration minus the union of its children's spans, minus
    the time ``inner`` records for timed point calls made directly in it."""
    inner = inner or {}
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return [
        s.end - s.start - union_length(children[i], s.start, s.end) - inner.get(i, 0.0)
        for i, s in enumerate(spans)
    ]


def _subclasses(cls):
    yield cls
    for sub in cls.__subclasses__():
        yield from _subclasses(sub)


class Tracer:
    """Spans, counts and point timers for one traced pass."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.point_seconds: dict[str, float] = defaultdict(float)
        self.inner: dict[int, float] = defaultdict(float)
        self._open: list[int] = []
        self._depth: dict[str, int] = defaultdict(int)
        self._patches: list[tuple[object, str, object]] = []

    # -- wrappers -----------------------------------------------------------

    def span(self, name, fn, after=None, before=None):
        """Wrap ``fn`` in a span; ``after(args, kwargs, result, token)`` records
        counts from the call, ``token`` being what ``before(args, kwargs)``
        returned."""
        spans, open_ = self.spans, self._open

        def wrapper(*args, **kwargs):
            token = before(args, kwargs) if before is not None else None
            index = len(spans)
            spans.append(None)
            open_.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                open_.pop()
                spans[index] = Span(name, open_[-1] if open_ else None, start, end)
            if after is not None:
                after(args, kwargs, result, token)
            return result

        return wrapper

    def point(self, group, fn, timed=False, also=None):
        """Count calls of ``fn`` under ``group`` (outermost calls only, so a
        group member calling another is one call).  ``also`` names a counter
        bumped on every call, nested or not."""
        counts, depth, open_ = self.counts, self._depth, self._open
        point_seconds, inner = self.point_seconds, self.inner

        def wrapper(*args, **kwargs):
            if also is not None:
                counts[also] += 1
            if depth[group]:
                return fn(*args, **kwargs)
            counts[group] += 1
            if not timed:
                depth[group] += 1
                try:
                    return fn(*args, **kwargs)
                finally:
                    depth[group] -= 1
            depth[group] += 1
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                depth[group] -= 1
                point_seconds[group] += elapsed
                if open_:
                    inner[open_[-1]] += elapsed

        return wrapper

    # -- installation -------------------------------------------------------

    def rebind(self, home, name: str, make) -> None:
        """Replace ``home.name`` in every tiltlab namespace that holds it; a
        name the package no longer has is skipped and its metrics read 0."""
        original = getattr(home, name, None)
        if original is None:
            return
        wrapper = make(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "tiltlab" or mod_name.startswith("tiltlab.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def patch(self, cls, name: str, make) -> None:
        """Replace method ``name`` on ``cls`` and on every subclass that
        defines its own."""
        for owner in _subclasses(cls):
            if name in vars(owner):
                original = vars(owner)[name]
                self._patches.append((owner, name, original))
                setattr(owner, name, make(original, owner))

    def restore(self) -> bool:
        """Put every original back; true when each one is in place again."""
        patches, self._patches = self._patches, []
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)
        return all(getattr(owner, attr) is original for owner, attr, original in patches)

    # -- results ------------------------------------------------------------

    def self_seconds(self) -> dict[str, float]:
        """Summed self time per span name."""
        out: dict[str, float] = defaultdict(float)
        for s, t in zip(self.spans, self_times(self.spans, self.inner)):
            out[s.name] += t
        return out

    def calls_under(self, name: str, ancestor: str) -> int:
        """Number of ``name`` spans with an ``ancestor`` span above them."""
        spans = self.spans
        found = 0
        for s in spans:
            if s.name != name:
                continue
            parent = s.parent
            while parent is not None:
                if spans[parent].name == ancestor:
                    found += 1
                    break
                parent = spans[parent].parent
        return found
