"""The host-speed reference that end-to-end times are read against.

A shared host does not run at one speed: over minutes its speed can
halve and recover, and every wall time measured on it moves with it.
The benchmark therefore times a fixed pure-Python loop, the *reference*,
in the quiet gaps between operations and reports each operation's time
in reference units (``ru``): its wall time over the reference time taken
at that moment.  The loop mimics the program's kind of work (small
objects with slots, dict look-ups keyed by set index, Manhattan-distance
arithmetic, a short bounded list), so host slowdowns stretch both alike,
and it calls nothing from the program, so a change to the program moves
every ``ru`` figure as much as it moves wall time.

On a 2-core shared VM, over a 6-minute series of model_2d rounds, the
median round per 30-s window swung 1.7x in wall time (0.33–0.61 s)
while the same rounds in reference units stayed within 33.5–35.4 ru.
"""

from __future__ import annotations

import statistics
import time

_SETS = 512
_STEPS = 12_000


class _Line:
    __slots__ = ("tag", "hits", "owner")

    def __init__(self, tag: int, owner: int):
        self.tag = tag
        self.hits = 0
        self.owner = owner


def _touch(sets: dict, key: int, tag: int, owner: int) -> int:
    line = sets.get(key)
    if line is None or line.tag != tag:
        sets[key] = _Line(tag, owner)
        return 1
    line.hits += 1
    return 0


def _loop() -> int:
    sets: dict[int, _Line] = {}
    recent: list[tuple[int, int]] = []
    x = 12345
    misses = distance = 0
    for step in range(_STEPS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        key = x % _SETS
        misses += _touch(sets, key, x >> 26, step & 7)
        distance += abs((key & 7) - (step & 7)) + abs(
            ((key >> 3) & 7) - ((step >> 3) & 7)
        )
        recent.append((key, distance))
        if len(recent) > 16:
            recent.pop(0)
    return misses + distance


def reference_s(repeats: int = 1) -> float:
    """Seconds for one run of the reference loop (median of ``repeats``)."""
    times = []
    for __ in range(repeats):
        start = time.perf_counter()
        _loop()
        times.append(time.perf_counter() - start)
    return statistics.median(times)
