"""Contention-aware analytic network latency model.

Flit-level simulation of the paper's multi-billion-cycle runs is infeasible
in Python, so the system-level simulator (``mode="model"``) prices each
packet with this model instead of injecting flits.  The model mirrors the
cycle-accurate fabric's zero-load behaviour exactly and approximates
contention with M/D/1-style queueing terms driven by online load estimates:

* **zero-load**: one cycle per mesh hop (single-stage router with the link
  folded in, as in the cycle simulator), a fixed injection/ejection
  overhead, wormhole serialization of ``size - 1`` flits, and two extra
  cycles for a vertical bus crossing (transceiver + bus slot).
* **mesh contention**: per-hop queueing wait of
  ``q_mesh * rho / (1 - rho)`` where ``rho`` is the estimated flit-hop
  utilization of the mesh.
* **pillar contention**: the bus serves one flit per cycle shared by all
  active clients; at utilization ``rho_b`` the head flit waits
  ``q_bus * rho_b / (1 - rho_b)`` and serialization across the bus
  stretches by ``1 / (1 - rho_b)``.

The q-constants are calibrated against the cycle-accurate simulator
(``tests/integration/test_model_calibration.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, TYPE_CHECKING

from repro.noc.routing import Coord, best_pillar
from repro.core.chip import ChipTopology

if TYPE_CHECKING:
    from repro.faults.state import FaultState

# Floor of a lone packet's "worst trip": below any latency.
_NO_FLOOR = float("-inf")


@dataclass
class LatencyModelConfig:
    """Tunables of the analytic latency model."""

    hop_cycles: float = 2.0          # per mesh hop (1 router + 1 wire)
    injection_overhead: float = 1.0  # NIC inject + eject, measured
    bus_overhead: float = 2.0        # transceiver hand-off + slot grant
    q_mesh: float = 0.7              # mesh queueing weight (calibrated)
    q_bus: float = 1.0               # bus queueing weight (calibrated)
    mesh_capacity_factor: float = 0.40   # saturation flits/node/cycle
    load_window: float = 2048.0      # cycles of EMA memory for load
    max_utilization: float = 0.95    # clamp to keep waits finite


class LatencyModel:
    """Prices packets on the Network-in-Memory fabric.

    The model is stateful: callers report every packet they send via
    :meth:`note_packet` so utilization estimates track the offered load.
    """

    def __init__(self, topology: ChipTopology, config: Optional[LatencyModelConfig] = None):
        self.topology = topology
        self.config = config or LatencyModelConfig()
        width, height = topology.config.mesh_dims
        self._num_nodes = width * height * topology.config.num_layers
        # Load accounting: decaying rates, advanced lazily per report.
        self._last_cycle = 0.0
        self._mesh_rate = 0.0                     # flit-hops per cycle
        self._bus_rate: dict[tuple[int, int], float] = {
            xy: 0.0 for xy in topology.pillar_xys
        }
        self.flit_hops_total = 0.0
        self.bus_flits_total = 0.0
        self.bus_flits_by_pillar: dict[tuple[int, int], float] = {
            xy: 0.0 for xy in topology.pillar_xys
        }
        # Pillar faults: the alive-pillar tuple is re-derived lazily,
        # keyed by the fault state's epoch (None = fault-free).
        self._faults: Optional["FaultState"] = None
        self._alive_pillars = tuple(topology.pillar_xys)
        self._alive_epoch = -1
        # Route memo, (src, dest) -> (hops, pillar): filled lazily by
        # path(), dropped whenever the fault epoch changes the pool.  An
        # eager all-pairs table would cost every cell tens of thousands
        # of best_pillar calls up front for pairs it never prices.
        self._routes: dict[tuple[Coord, Coord], tuple] = {}
        # Leg plans, dropped with the route memo: (src, dest, size_flits)
        # -> one packet's leg, (node, targets, size_flits) -> a query
        # round's legs (a Coord never equals a tuple of Coords).  Each
        # leg is (hops, pillar, flit_hops, mesh_increment,
        # bus_increment, closes), so pricing a leg only does the
        # load-dependent arithmetic.
        self._plans: dict[tuple, tuple] = {}

    def attach_fault_state(self, state: "FaultState") -> None:
        """Bind pillar-fault state; dead pillars leave the route pool."""
        self._faults = state

    def _pillar_pool(self) -> tuple[tuple[int, int], ...]:
        faults = self._faults
        if faults is None:
            return self._alive_pillars
        if faults.epoch != self._alive_epoch:
            self._alive_pillars = tuple(
                xy for xy in self.topology.pillar_xys
                if xy not in faults.dead_pillars
            )
            self._alive_epoch = faults.epoch
            self._routes.clear()
            self._plans.clear()
        return self._alive_pillars

    # -- geometry -------------------------------------------------------------

    def path(self, src: Coord, dest: Coord) -> tuple[int, Optional[tuple[int, int]]]:
        """(mesh hops, pillar used or None) for the dimension-order path.

        Memoized per ``(src, dest)`` until the alive-pillar pool changes.
        """
        pool = self._pillar_pool()
        route = self._routes.get((src, dest))
        if route is not None:
            return route
        if src.z == dest.z:
            route = src.manhattan_2d(dest), None
        else:
            pillar = best_pillar(src, dest, pool)
            px, py = pillar
            hops = (
                abs(src.x - px) + abs(src.y - py)
                + abs(dest.x - px) + abs(dest.y - py)
            )
            route = hops, pillar
        self._routes[(src, dest)] = route
        return route

    def _leg(self, src: Coord, dest: Coord, size_flits: int, closes: bool) -> tuple:
        """One planned leg; ``closes`` ends a trip (see :meth:`_price`)."""
        hops, pillar = self.path(src, dest)
        flit_hops = hops * size_flits
        window = self.config.load_window
        # ln(2) factor makes the half-life equal to the window length.
        return (
            hops, pillar, flit_hops, flit_hops * 0.693 / window,
            size_flits * 0.693 / window, closes,
        )

    def _packet_plan(self, src: Coord, dest: Coord, size_flits: int) -> tuple:
        self._pillar_pool()
        key = (src, dest, size_flits)
        plan = self._plans.get(key)
        if plan is None:
            plan = self._plans[key] = (self._leg(src, dest, size_flits, True),)
        return plan

    def _round_plan(
        self, node: Coord, targets: tuple[Coord, ...], size_flits: int
    ) -> tuple:
        """Request out, reply back, for each target other than ``node``."""
        self._pillar_pool()
        key = (node, targets, size_flits)
        plan = self._plans.get(key)
        if plan is None:
            legs = []
            for target in targets:
                if target != node:
                    legs += (
                        self._leg(node, target, size_flits, False),
                        self._leg(target, node, size_flits, True),
                    )
            plan = self._plans[key] = tuple(legs)
        return plan

    # -- load tracking ----------------------------------------------------------

    def _decay_to(self, cycle: float) -> None:
        """Exponentially age the rate estimates up to ``cycle``."""
        elapsed = cycle - self._last_cycle
        if elapsed <= 0:
            return
        decay = 0.5 ** (elapsed / self.config.load_window)
        self._mesh_rate *= decay
        for xy in self._bus_rate:
            self._bus_rate[xy] *= decay
        self._last_cycle = cycle

    def note_packet(self, src: Coord, dest: Coord, size_flits: int, cycle: float) -> None:
        """Record a packet's traffic contribution for load estimation.

        The EMA update adds the packet's flit-hops amortized over the load
        window, so ``_mesh_rate`` approximates flit-hops per cycle.
        """
        self._decay_to(cycle)
        self._note_legs(self._packet_plan(src, dest, size_flits), size_flits)

    def _note_legs(self, legs: tuple, size_flits: int) -> None:
        """Add planned legs, in order, to the load estimates."""
        for hops, pillar, flit_hops, mesh_increment, bus_increment, _ in legs:
            self._mesh_rate += mesh_increment
            self.flit_hops_total += flit_hops
            if pillar is not None:
                self._bus_rate[pillar] += bus_increment
                self.bus_flits_total += size_flits
                self.bus_flits_by_pillar[pillar] += size_flits

    def mesh_utilization(self) -> float:
        """Estimated fraction of mesh forwarding capacity in use."""
        capacity = self._num_nodes * self.config.mesh_capacity_factor
        rho = self._mesh_rate / capacity if capacity else 0.0
        return min(rho, self.config.max_utilization)

    def bus_utilization(self, pillar: tuple[int, int]) -> float:
        """Estimated fraction of one pillar's bus bandwidth in use."""
        rho = self._bus_rate.get(pillar, 0.0)
        return min(rho, self.config.max_utilization)

    # -- latency ---------------------------------------------------------------

    def packet_latency(
        self,
        src: Coord,
        dest: Coord,
        size_flits: int,
        cycle: Optional[float] = None,
        record: bool = True,
    ) -> float:
        """End-to-end latency of one packet under the current load."""
        if src == dest:
            return 0.0
        return self._price(
            self._packet_plan(src, dest, size_flits), size_flits, cycle,
            record, _NO_FLOOR, 0,
        )

    def query_round(
        self,
        node: Coord,
        targets: Sequence[Coord],
        size_flits: int,
        tag_latency: int,
        cycle: float,
    ) -> float:
        """Worst round trip of a parallel tag-query round from ``node``.

        Each target costs a request out, ``tag_latency`` and a reply
        back.  The round costs at least ``tag_latency``, the direct probe
        of the local tag array; a target at ``node`` itself adds nothing.
        """
        plan = self._round_plan(node, tuple(targets), size_flits)
        if not plan:
            # Nothing priced, nothing aged: decaying in two steps rounds
            # differently from decaying once.
            return float(tag_latency)
        return self._price(
            plan, size_flits, cycle, True, float(tag_latency), tag_latency
        )

    def note_round(
        self,
        node: Coord,
        targets: Sequence[Coord],
        size_flits: int,
        cycle: float,
    ) -> None:
        """Record the requests of a tag-query round nobody waits on.

        The same load as calling :meth:`note_packet` from ``node`` to
        each target in turn; the replies are not noted.
        """
        if not targets:
            # No packet, no decay (see query_round).
            return
        self._decay_to(cycle)
        plan = self._round_plan(node, tuple(targets), size_flits)
        # Even legs are the requests out; a target at ``node`` adds zero.
        self._note_legs(plan[::2], size_flits)

    def _price(
        self,
        plan: tuple,
        size_flits: int,
        cycle: Optional[float],
        record: bool,
        worst: float,
        tag_latency: int,
    ) -> float:
        """Price each leg of ``plan`` in turn; return the worst trip.

        A trip is one closing leg, or an opening leg, ``tag_latency`` and
        the closing leg after it; the result is the largest of ``worst``
        and every trip.  With ``record`` and a ``cycle``, each leg is
        noted before the next is priced, because each note moves the
        load estimate.
        """
        cfg = self.config
        injection_overhead = cfg.injection_overhead
        hop_cycles = cfg.hop_cycles
        q_mesh = cfg.q_mesh
        q_bus = cfg.q_bus
        bus_overhead = cfg.bus_overhead
        max_utilization = cfg.max_utilization
        capacity = self._num_nodes * cfg.mesh_capacity_factor
        flits = float(size_flits - 1)
        if cycle is not None:
            self._decay_to(cycle)
        record = record and cycle is not None
        bus_rate = self._bus_rate
        bus_flits_by_pillar = self.bus_flits_by_pillar
        mesh_rate = self._mesh_rate
        flit_hops_total = self.flit_hops_total
        bus_flits_total = self.bus_flits_total
        trip = 0.0
        for hops, pillar, flit_hops, mesh_increment, bus_increment, closes in plan:
            rho = mesh_rate / capacity if capacity else 0.0
            if max_utilization < rho:
                rho = max_utilization
            per_hop_wait = q_mesh * rho / (1.0 - rho)
            latency = injection_overhead
            latency += hops * (hop_cycles + per_hop_wait)
            serialization = flits
            if pillar is not None:
                rho_b = bus_rate[pillar]
                if max_utilization < rho_b:
                    rho_b = max_utilization
                latency += bus_overhead
                latency += q_bus * rho_b / (1.0 - rho_b)
                serialization = serialization / (1.0 - rho_b)
            latency += serialization
            if record:
                mesh_rate += mesh_increment
                flit_hops_total += flit_hops
                if pillar is not None:
                    bus_rate[pillar] += bus_increment
                    bus_flits_total += size_flits
                    bus_flits_by_pillar[pillar] += size_flits
            if closes:
                trip += latency
                if trip > worst:
                    worst = trip
            else:
                trip = latency + tag_latency
        self._mesh_rate = mesh_rate
        self.flit_hops_total = flit_hops_total
        self.bus_flits_total = bus_flits_total
        return worst

    def zero_load_latency(self, src: Coord, dest: Coord, size_flits: int) -> float:
        """Latency ignoring all contention (for tests and sanity checks)."""
        cfg = self.config
        if src == dest:
            return 0.0
        hops, pillar = self.path(src, dest)
        latency = cfg.injection_overhead + hops * cfg.hop_cycles
        latency += size_flits - 1
        if pillar is not None:
            latency += cfg.bus_overhead
        return latency
