"""Tests for the harness's own arithmetic: tail percentiles, span self
time, the self-time sum check, and failure counting.

Run with ``python3 -m pytest perfbench/test_harness.py`` or
``python3 perfbench/test_harness.py``.
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import spans  # noqa: E402
import stats  # noqa: E402


def _raises(exc, fn, *args):
    try:
        fn(*args)
    except exc:
        return
    raise AssertionError(f"{fn.__name__}{args} did not raise {exc.__name__}")


def test_percentile_is_nearest_rank():
    xs = list(range(1, 101))
    assert stats.percentile(xs, 90) == 90
    assert stats.percentile(xs, 50) == 50
    assert stats.percentile(xs, 100) == 100
    assert stats.percentile([3.0, 1.0, 2.0], 50) == 2.0
    _raises(ValueError, stats.percentile, [], 50)
    _raises(ValueError, stats.percentile, xs, 0)


def test_tail_percentile_has_ten_samples_beyond():
    value, beyond = stats.tail_percentile(range(1, 101), 90)
    assert (value, beyond) == (90, 10)
    # 99 samples: p90 is the 90th value and only 9 lie beyond it
    _raises(ValueError, stats.tail_percentile, range(1, 100), 90)
    # ties at the percentile do not count as beyond it
    _raises(ValueError, stats.tail_percentile, [1.0] * 95 + [2.0] * 5, 90)
    value, beyond = stats.tail_percentile([1.0] * 80 + [2.0] * 20, 50)
    assert (value, beyond) == (1.0, 20)


def test_median():
    assert stats.median([4, 1, 3]) == 3
    assert stats.median([4, 1, 3, 2]) == 2.5
    _raises(ValueError, stats.median, [])


def test_self_time_subtracts_covered_part_once():
    assert stats.self_time(0.0, 10.0, []) == 10.0
    # overlapping children count once; the part past the parent is clipped
    assert stats.self_time(0.0, 10.0, [(1, 3), (2, 4), (9, 12)]) == 6.0
    assert stats.self_time(0.0, 10.0, [(0, 10)]) == 0.0
    assert stats.self_time(5.0, 6.0, [(0, 1), (7, 8)]) == 1.0


def test_relative_spread():
    assert stats.relative_spread([10.0] * 10) == 0.0
    # exclusive quartiles of ten values: 9.75 and 10.25 around median 10
    spread = stats.relative_spread([8, 9, 10, 10, 10, 10, 10, 10, 11, 12])
    assert abs(spread - 0.05) < 1e-12


def test_tally_counts_every_attempt_once():
    t = stats.Tally()
    for outcome in ("ok", "ok", "ok", "error", "typed_error", "unverified"):
        t.record(outcome)
    assert (t.attempted, t.failed) == (6, 3)
    assert t.failed_ratio == 0.5
    _raises(ValueError, t.record, "maybe")
    assert stats.Tally().failed_ratio == 0.0


def _tracer_with_clock(ticks):
    clock = iter(ticks)
    saved = spans.time.perf_counter
    spans.time.perf_counter = lambda: float(next(clock))
    return saved


def test_nested_spans_self_times_sum_to_root():
    tracer = spans.Tracer()
    saved = _tracer_with_clock([0, 1, 2, 3, 4, 6, 7, 10])
    try:
        with tracer.span("root"):          # [0, 10]
            with tracer.span("a"):         # [1, 4]
                with tracer.span("b"):     # [2, 3]
                    pass
            with tracer.span("a"):         # [6, 7]
                pass
    finally:
        spans.time.perf_counter = saved
    snap = tracer.snapshot()
    assert snap["totals"]["root"] == [1, 10.0, 6.0]
    assert snap["totals"]["a"] == [2, 4.0, 3.0]
    assert snap["totals"]["b"] == [1, 1.0, 1.0]
    assert snap["root_inclusive"] == 10.0
    assert spans.check_sums(snap) == 10.0
    assert tracer.open_spans() == 0


def test_check_sums_rejects_lost_or_double_counted_time():
    snap = {"totals": {"root": [1, 10.0, 6.0], "a": [1, 4.0, 3.0]},
            "root_inclusive": 10.0, "counters": {}}
    _raises(AssertionError, spans.check_sums, snap)
    snap["totals"]["a"] = [1, 4.0, -1.0]
    _raises(AssertionError, spans.check_sums, snap)


def test_wrap_times_the_call_and_runs_the_hook_after():
    tracer = spans.Tracer()
    seen = []

    def hook(tr, out, args, kwargs):
        assert tr.open_spans() == 0
        seen.append((out, args, kwargs))

    wrapped = tracer.wrap(lambda x, y=1: x + y, "add", after=hook)
    assert wrapped(2, y=3) == 5
    named = tracer.wrap(lambda x: x, lambda args, kwargs: f"id.{args[0]}")
    named("q")
    assert seen == [(5, (2,), {"y": 3})]
    assert tracer.totals["add"][0] == 1
    assert tracer.totals["id.q"][0] == 1


def test_span_closed_out_of_order_is_an_error():
    tracer = spans.Tracer()
    outer = tracer.enter("outer")
    tracer.enter("inner")
    _raises(RuntimeError, tracer.exit, outer)


if __name__ == "__main__":
    tests = [v for k, v in sorted(globals().items()) if k.startswith("test_")]
    for test in tests:
        test()
    print(f"{len(tests)} harness tests passed")
