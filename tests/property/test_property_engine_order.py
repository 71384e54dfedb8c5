"""Property: the activity-tracked kernel ticks exactly the active set.

The tracked kernel keeps its tick order incrementally (survivors of the
retire pass stay in order, wakes are merged in at the next step), so
two things must hold for any schedule of work, wakes and membership
changes:

* every step evaluates exactly the components a plain model of the
  activity contract calls active, in registration order; and
* the final component state and cycle equal the naive kernel's.

Components stay busy for ``k`` cycles, hand each other work (and wake
each other) from ``evaluate``/``advance``, get work from outside
between ``run``/``run_until`` calls, and are unregistered and
re-registered mid-step.  Membership changes happen in ``advance`` only,
after every ``evaluate`` of the step, so the evaluated list of a step
is exactly the active set it started with.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.sim.engine import ClockedComponent, Engine

MAX_COMPONENTS = 6


class Shadow:
    """The activity contract written out plainly: who should tick next."""

    def __init__(self):
        self.active: set = set()
        self.index: dict = {}
        self._next_index = 0

    def registered(self, component):
        self.index[component] = self._next_index
        self._next_index += 1
        self.active.add(component)

    def retired(self, component):
        self.active.discard(component)

    def woken(self, component):
        self.active.add(component)

    def order(self) -> list:
        return sorted(self.active, key=self.index.__getitem__)


class CheckedEngine(Engine):
    """Tracked engine asserting each step's evaluations against a Shadow."""

    def __init__(self, shadow: Shadow, log: list):
        super().__init__(activity_tracking=True)
        self.shadow = shadow
        self.log = log

    def step(self):
        expected = self.shadow.order()
        start = len(self.log)
        super().step()
        assert self.log[start:] == expected, self.cycle - 1
        for component in expected:
            if component._engine is self and component.is_idle():
                self.shadow.retired(component)


class Worker(ClockedComponent):
    """Busy for a number of cycles; hands out work on its n-th busy cycle.

    Work handed over during a step becomes visible from the next cycle,
    so an idle worker's ticks are pure no-ops (the activity contract)
    under both kernels.
    """

    def __init__(self, name, world):
        self.name = name
        self.world = world
        self.busy = 0
        self.done = 0
        self.worked: list[int] = []
        self.arrivals: list[tuple[int, int]] = []  # (visible_from, cycles)
        self.triggers: dict = {}  # (done, phase) -> [(kind, target, k)]

    def __repr__(self):
        return f"Worker({self.name})"

    def give(self, cycles: int, visible_from: int) -> None:
        self.arrivals.append((visible_from, cycles))
        self.wake()

    def wake(self):
        if self._engine is not None:
            self.world.shadow.woken(self)
        super().wake()

    def evaluate(self, cycle):
        self.world.log.append(self)
        if self.arrivals:
            ready = [a for a in self.arrivals if a[0] <= cycle]
            if ready:
                self.arrivals = [a for a in self.arrivals if a[0] > cycle]
                self.busy += sum(cycles for __, cycles in ready)
        if self.busy:
            self._fire("evaluate", cycle)

    def advance(self, cycle):
        if self.busy:
            self._fire("advance", cycle)
            self.busy -= 1
            self.done += 1
            self.worked.append(cycle)

    def is_idle(self):
        return self.busy == 0 and not self.arrivals

    def _fire(self, phase, cycle):
        for kind, target, k in self.triggers.get((self.done, phase), ()):
            other = self.world.workers[target]
            if kind == "give":
                other.give(k, cycle + 1)
            elif kind == "unregister":
                self.world.unregister(other)
            else:  # "reregister"
                self.world.unregister(other)
                self.world.register(other)


class World:
    def __init__(self, tracking: bool, initial, triggers):
        self.shadow = Shadow()
        self.log: list = []
        self.engine = (
            CheckedEngine(self.shadow, self.log) if tracking
            else Engine(activity_tracking=False)
        )
        self.workers = [Worker(i, self) for i in range(len(initial))]
        for worker, cycles in zip(self.workers, initial):
            worker.busy = cycles
        for actor, at_done, phase, kind, target, k in triggers:
            if kind != "give":
                # Membership changes after every evaluate of the step.
                phase = "advance"
            worker = self.workers[actor % len(self.workers)]
            worker.triggers.setdefault((at_done, phase), []).append(
                (kind, target % len(self.workers), k)
            )
        for worker in self.workers:
            self.register(worker)

    def register(self, worker):
        if worker._engine is None:
            self.engine.register(worker)
            self.shadow.registered(worker)

    def unregister(self, worker):
        if worker._engine is self.engine:
            self.engine.unregister(worker)
            self.shadow.retired(worker)

    def all_idle(self) -> bool:
        return all(
            w.is_idle() for w in self.workers if w._engine is self.engine
        )

    def play(self, outside) -> tuple:
        for kind, target, amount in outside:
            worker = self.workers[target % len(self.workers)]
            if kind == "run":
                self.engine.run(amount)
            elif kind == "run_until":
                self.engine.run_until(self.all_idle, max_cycles=100_000)
            elif kind == "give":
                worker.give(amount, self.engine.cycle)
            elif kind == "unregister":
                self.unregister(worker)
            else:  # "register"
                self.register(worker)
        self.engine.run_until(self.all_idle, max_cycles=100_000)
        return (
            self.engine.cycle,
            [
                (w.busy, w.done, w.worked, w.arrivals,
                 w._engine is self.engine)
                for w in self.workers
            ],
        )


triggers = st.lists(
    st.tuples(
        st.integers(0, MAX_COMPONENTS - 1),            # actor
        st.integers(0, 6),                             # on its n-th busy cycle
        st.sampled_from(["evaluate", "advance"]),
        st.sampled_from(["give", "give", "unregister", "reregister"]),
        st.integers(0, MAX_COMPONENTS - 1),            # target
        st.integers(1, 4),                             # cycles of work
    ),
    max_size=14,
)

outside = st.lists(
    st.tuples(
        st.sampled_from(["run", "run_until", "give", "unregister", "register"]),
        st.integers(0, MAX_COMPONENTS - 1),
        st.integers(1, 8),
    ),
    max_size=10,
)


@settings(max_examples=200, deadline=None)
@given(
    initial=st.lists(st.integers(0, 4), min_size=2, max_size=MAX_COMPONENTS),
    triggers=triggers,
    outside=outside,
)
def test_tracked_kernel_ticks_active_set_in_order_and_matches_naive(
    initial, triggers, outside
):
    tracked = World(True, initial, triggers).play(outside)
    naive = World(False, initial, triggers).play(outside)
    assert tracked == naive
