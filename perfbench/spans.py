"""Span recording around the program's public calls, from outside.

A :class:`SpanRecorder` wraps functions and methods of the program for
the duration of a traced run (:meth:`SpanRecorder.patch`) and restores
the originals afterwards.  Every wrapped call records one span.  Self
time is computed as the call is closed: the span's duration minus the
durations of the spans it directly encloses on the same thread, so
nested layers never double count.

Per thread the recorder keeps a stack of open spans, per-name
aggregates (calls, total time, self time), optional duration samples and
named counters; nothing is shared between threads until :meth:`totals`
merges them.  The first ``keep`` spans of each thread are kept in memory
for the Chrome trace export; aggregates always cover every call.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from typing import Any, Callable, Optional

#: Spans kept per thread for the Chrome trace export (aggregates cover
#: every call).
DEFAULT_KEEP = 100_000


class _ThreadState:
    __slots__ = (
        "tid", "name", "stack", "agg", "samples", "counts", "spans",
        "dropped",
    )

    def __init__(self, tid: int, name: str):
        self.tid = tid
        self.name = name
        # One mutable [child_ns] cell per open span.
        self.stack: list[list[int]] = []
        # name -> [calls, total_ns, self_ns]
        self.agg: dict[str, list[int]] = {}
        self.samples: dict[str, list[int]] = {}
        self.counts: dict[str, float] = {}
        self.spans: list[tuple[str, int, int]] = []
        self.dropped = 0


class SpanRecorder:
    """Records spans of wrapped calls; see the module docstring."""

    def __init__(
        self,
        clock: Callable[[], int] = time.perf_counter_ns,
        keep: int = DEFAULT_KEEP,
    ):
        self.clock = clock
        self.keep = keep
        self._local = threading.local()
        self._threads: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._restore: list[tuple[Any, str, bool, Any]] = []

    # -- per-thread state ----------------------------------------------------

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            thread = threading.current_thread()
            with self._lock:
                state = _ThreadState(len(self._threads) + 1, thread.name)
                self._threads.append(state)
            self._local.state = state
        return state

    def _close(
        self,
        state: _ThreadState,
        name: str,
        start: int,
        end: int,
        child_ns: int,
        sample: bool,
    ) -> None:
        duration = end - start
        if state.stack:
            state.stack[-1][0] += duration
        agg = state.agg.get(name)
        if agg is None:
            agg = state.agg[name] = [0, 0, 0]
        agg[0] += 1
        agg[1] += duration
        agg[2] += duration - child_ns
        if sample:
            state.samples.setdefault(name, []).append(duration)
        if len(state.spans) < self.keep:
            state.spans.append((name, start, end))
        else:
            state.dropped += 1

    # -- recording -----------------------------------------------------------

    def count(self, key: str, amount: float = 1) -> None:
        """Add ``amount`` to a named counter on the calling thread."""
        counts = self._state().counts
        counts[key] = counts.get(key, 0) + amount

    def wrap(
        self,
        fn: Callable,
        name: str,
        *,
        sample: bool = False,
        on_exit: Optional[Callable[..., None]] = None,
    ) -> Callable:
        """``fn`` recording one span named ``name`` per call.

        ``sample`` keeps every duration (for percentiles); ``on_exit``
        is called as ``on_exit(args, kwargs, result, start_ns, end_ns)``
        after a call that returned.
        """
        clock = self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = self._state()
            frame = [0]
            state.stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                state.stack.pop()
                self._close(state, name, start, end, frame[0], sample)
            if on_exit is not None:
                on_exit(args, kwargs, result, start, end)
            return result

        return wrapper

    def wrap_async(
        self,
        fn: Callable,
        name: str,
        *,
        sample: bool = False,
        on_exit: Optional[Callable[..., None]] = None,
    ) -> Callable:
        """Coroutine-function counterpart of :meth:`wrap`.

        Other coroutines may run on the thread while the call awaits, so
        the span does not join the thread's stack: its self time is its
        inclusive time, and the spans inside it are top-level.
        """
        clock = self.clock

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            start = clock()
            try:
                result = await fn(*args, **kwargs)
            finally:
                end = clock()
                self._close(self._state(), name, start, end, 0, sample)
            if on_exit is not None:
                on_exit(args, kwargs, result, start, end)
            return result

        return wrapper

    # -- patching ------------------------------------------------------------

    def patch(self, owner: Any, attr: str, replacement: Callable) -> None:
        """Replace ``owner.attr`` until :meth:`restore`."""
        own = attr in vars(owner)
        self._restore.append((owner, attr, own, vars(owner).get(attr)))
        setattr(owner, attr, replacement)

    def instrument(
        self, owner: Any, attr: str, name: str, *, is_async: bool = False,
        **options,
    ) -> None:
        """Patch ``owner.attr`` with a span-recording wrapper."""
        wrap = self.wrap_async if is_async else self.wrap
        self.patch(owner, attr, wrap(getattr(owner, attr), name, **options))

    def restore(self) -> None:
        """Put every patched attribute back, newest first."""
        while self._restore:
            owner, attr, own, original = self._restore.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # -- results -------------------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """Per-name ``{"calls", "s", "self_s"}`` summed over threads."""
        merged: dict[str, list[int]] = {}
        for state in self._threads:
            for name, (calls, total, own) in state.agg.items():
                into = merged.setdefault(name, [0, 0, 0])
                into[0] += calls
                into[1] += total
                into[2] += own
        return {
            name: {"calls": calls, "s": total / 1e9, "self_s": own / 1e9}
            for name, (calls, total, own) in merged.items()
        }

    def samples(self, name: str) -> list[float]:
        """Every recorded duration of ``name``, in seconds."""
        return [
            ns / 1e9
            for state in self._threads
            for ns in state.samples.get(name, ())
        ]

    def counts(self) -> dict[str, float]:
        merged: dict[str, float] = {}
        for state in self._threads:
            for key, value in state.counts.items():
                merged[key] = merged.get(key, 0) + value
        return merged

    def chrome_trace(self, metadata: Optional[dict] = None) -> dict:
        """The kept spans as a Chrome/Perfetto trace-event document."""
        events: list[dict] = []
        origin = min(
            (span[1] for state in self._threads for span in state.spans),
            default=0,
        )
        for state in self._threads:
            events.append({
                "name": "thread_name", "ph": "M", "pid": 1,
                "tid": state.tid, "args": {"name": state.name},
            })
            for name, start, end in state.spans:
                events.append({
                    "name": name,
                    "cat": name.split(".", 1)[0],
                    "ph": "X",
                    "pid": 1,
                    "tid": state.tid,
                    "ts": (start - origin) / 1000.0,
                    "dur": (end - start) / 1000.0,
                })
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {
                **(metadata or {}),
                "spans_kept": sum(len(s.spans) for s in self._threads),
                "spans_dropped": sum(s.dropped for s in self._threads),
            },
        }

    def write_chrome_trace(self, path: str, metadata: Optional[dict] = None) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.chrome_trace(metadata), handle)

