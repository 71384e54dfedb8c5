"""Self-time arithmetic, patching and export of the span recorder."""

from __future__ import annotations

import asyncio
import threading

import pytest

from perfbench.spans import SpanRecorder


def fake_clock(*ticks):
    """A clock returning ``ticks`` (nanoseconds) one call at a time."""
    values = iter(ticks)
    return lambda: next(values)


def test_self_time_subtracts_direct_children_once():
    # outer [0, 100) > mid [10, 70) > leaf [20, 50)
    rec = SpanRecorder(clock=fake_clock(0, 10, 20, 50, 70, 100))
    leaf = rec.wrap(lambda: None, "leaf")
    mid = rec.wrap(lambda: leaf(), "mid")
    outer = rec.wrap(lambda: mid(), "outer")
    outer()
    totals = rec.totals()
    assert totals["leaf"]["self_s"] == pytest.approx(30e-9)
    assert totals["mid"]["s"] == pytest.approx(60e-9)
    assert totals["mid"]["self_s"] == pytest.approx(30e-9)
    assert totals["outer"]["s"] == pytest.approx(100e-9)
    assert totals["outer"]["self_s"] == pytest.approx(40e-9)


def test_siblings_and_repeated_calls_accumulate():
    # outer [0, 100) encloses inner [10, 30) and inner [40, 45)
    rec = SpanRecorder(clock=fake_clock(0, 10, 30, 40, 45, 100))
    inner = rec.wrap(lambda: None, "inner", sample=True)

    def body():
        inner()
        inner()

    rec.wrap(body, "outer")()
    totals = rec.totals()
    assert totals["inner"]["calls"] == 2
    assert totals["inner"]["s"] == pytest.approx(25e-9)
    assert totals["outer"]["self_s"] == pytest.approx(75e-9)
    assert rec.samples("inner") == pytest.approx([20e-9, 5e-9])


def test_failing_call_still_closes_its_span():
    rec = SpanRecorder(clock=fake_clock(0, 10, 20, 100))

    def boom():
        raise ValueError("x")

    inner = rec.wrap(boom, "inner")

    def outer():
        with pytest.raises(ValueError):
            inner()

    rec.wrap(outer, "outer")()
    assert rec.totals()["outer"]["self_s"] == pytest.approx(90e-9)


def test_threads_do_not_nest_into_each_other():
    rec = SpanRecorder()
    inner = rec.wrap(lambda: None, "inner")
    entered, release = threading.Event(), threading.Event()

    def hold():
        entered.set()
        release.wait(timeout=10)

    outer = rec.wrap(hold, "outer")
    thread = threading.Thread(target=outer)
    thread.start()
    assert entered.wait(timeout=10)
    inner()
    release.set()
    thread.join(timeout=10)
    assert not thread.is_alive()
    totals = rec.totals()
    assert totals["outer"]["self_s"] == pytest.approx(totals["outer"]["s"])


def test_async_wrapper_records_inclusive_time_and_result():
    rec = SpanRecorder()
    seen = []

    async def work(value):
        await asyncio.sleep(0)
        return value * 2

    wrapped = rec.wrap_async(
        work, "work", sample=True,
        on_exit=lambda args, kwargs, result, start, end: seen.append(result),
    )
    assert asyncio.run(wrapped(21)) == 42
    assert seen == [42]
    totals = rec.totals()["work"]
    assert totals["calls"] == 1
    assert totals["self_s"] == totals["s"] > 0


class Base:
    def method(self):
        return "base"


class Child(Base):
    pass


def helper():
    return "helper"


def test_patch_and_restore_leave_owners_as_they_were():
    import sys

    module = sys.modules[__name__]
    rec = SpanRecorder()
    rec.instrument(Child, "method", "child.method")
    rec.instrument(module, "helper", "helper")
    assert Child().method() == "base"
    assert module.helper() == "helper"
    assert "method" in vars(Child)
    rec.restore()
    assert "method" not in vars(Child)
    assert module.helper is vars(module)["helper"]
    assert module.helper.__name__ == "helper"
    assert not hasattr(module.helper, "__wrapped__")
    assert rec.totals()["child.method"]["calls"] == 1


def test_chrome_trace_holds_kept_spans_and_counts_dropped():
    rec = SpanRecorder(keep=2)
    fn = rec.wrap(lambda: None, "layer.call")
    for __ in range(5):
        fn()
    doc = rec.chrome_trace({"workload": "x"})
    spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    assert len(spans) == 2
    assert all(e["name"] == "layer.call" and e["cat"] == "layer" for e in spans)
    assert min(e["ts"] for e in spans) == 0
    assert doc["otherData"] == {
        "workload": "x", "spans_kept": 2, "spans_dropped": 3,
    }
    assert rec.totals()["layer.call"]["calls"] == 5
