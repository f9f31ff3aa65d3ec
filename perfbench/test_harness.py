"""Self-tests for the harness's own math and bookkeeping.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

import numpy as np
import pytest

import tiltlab
from stats import Tally, Verdict, run_verdict, tail_latency
from tracing import Span, Tracer, self_times, union_length


def test_tail_is_the_highest_value_with_ten_samples_above():
    tail = tail_latency([float(v) for v in range(1, 101)])
    assert (tail.value, tail.percentile, tail.beyond, tail.samples) == (90.0, 90.0, 10, 100)


def test_tail_needs_eleven_samples():
    assert tail_latency([float(v) for v in range(10)]) is None
    assert tail_latency([1.0] * 10 + [2.0]) is None
    tail = tail_latency([float(v) for v in range(11)])
    assert (tail.value, tail.beyond) == (0.0, 10)


def test_tail_walks_below_ties():
    # 20 samples tie at the top, so only the value below them has ten or
    # more samples strictly beyond it.
    tail = tail_latency([1.0] * 5 + [2.0] * 20)
    assert (tail.value, tail.beyond, tail.percentile) == (1.0, 20, 20.0)
    assert tail_latency([2.0] * 25) is None


def test_union_merges_overlapping_children_and_clips_to_parent():
    assert union_length([(1.0, 3.0), (2.0, 5.0), (7.0, 8.0)], 0.0, 10.0) == 5.0
    assert union_length([(-2.0, 1.0), (9.0, 12.0)], 0.0, 10.0) == 2.0
    assert union_length([], 0.0, 10.0) == 0.0


def test_self_time_is_span_minus_union_of_children():
    spans = [
        Span("outer", None, 0.0, 10.0),
        Span("search", 0, 1.0, 3.0),
        Span("search", 0, 2.0, 5.0),
        Span("kernel", 2, 2.5, 3.0),
        Span("search", 0, 7.0, 8.0),
    ]
    own = self_times(spans, {0: 0.5})
    assert own == pytest.approx([10.0 - 5.0 - 0.5, 2.0, 2.5, 0.5, 1.0])


def test_failed_frac_counts_an_exception_as_a_failure():
    def boom():
        raise ValueError("library error")

    tally = Tally()
    good = Verdict("good", lambda: 1, lambda out: [], repr)
    wrong = Verdict("wrong", lambda: 2, lambda out: ["output is 2"], repr)
    raising = Verdict("raising", boom, lambda out: [], repr)
    for verdict in (good, wrong, raising, good):
        run_verdict(verdict, tally, iter(range(100)).__next__)
    assert (tally.attempted, tally.failed, tally.failed_frac) == (4, 2, 0.5)
    assert run_verdict(raising, Tally(), iter(range(100)).__next__) == (0, 1, None)


def test_tracer_restores_every_original_and_only_observes():
    from layers import install
    from tiltlab import optimize, spaces

    originals = (tiltlab.norms_of_rows, spaces.HalfSpace.project, optimize.pattern_search)
    X = np.array([[3.0, -4.0], [1.0, 1.0]])
    plain = tiltlab.norms_of_rows(X, tiltlab.NormSpec(2, 2.0))
    tracer = Tracer()
    install(tracer)
    assert tiltlab.norms_of_rows is not originals[0]
    traced = tiltlab.norms_of_rows(X, tiltlab.NormSpec(2, 2.0))
    half = spaces.HalfSpace(2, normal=(1.0, 0.0), offset=0.0)
    half.project(np.array([-1.0, 2.0]))
    assert tracer.restore()
    assert (tiltlab.norms_of_rows, spaces.HalfSpace.project, optimize.pattern_search) == originals
    assert np.array_equal(plain, traced)
    assert tracer.counts["spaces.norms_of_rows.rows"] == 2
    assert tracer.counts["spaces.project.calls"] == 1
    assert tracer.counts["spaces.halfspace_project.calls"] == 1
    assert [s.name for s in tracer.spans] == ["spaces.norms_of_rows"]


def test_latency_loses_probe_time_and_scales_by_nearby_probes():
    from hostspeed import PROBES, at_reference_speed

    slow = 2.0 * PROBES["loop"][2]  # a host at half the reference speed
    samples = [(9.5, slow), (10.5, slow), (11.5, slow), (30.0, 4.0 * slow)]
    # One probe inside [10, 11], one on either side; the far one is ignored.
    assert at_reference_speed([(10.0, 11.0)], samples, "loop") == pytest.approx([(1.0 - slow) / 2.0])
    # No probe inside: the nearest on either side set the speed.
    assert at_reference_speed([(11.6, 12.6)], samples, "loop") == pytest.approx([1.0 / 5.0])
