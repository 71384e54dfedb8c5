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
        self._note(*self.path(src, dest), size_flits)

    def _note(
        self, hops: int, pillar: Optional[tuple[int, int]], size_flits: int
    ) -> None:
        """Add one packet on a resolved path to the load estimates."""
        flit_hops = hops * size_flits
        window = self.config.load_window
        # ln(2) factor makes the half-life equal to the window length.
        self._mesh_rate += flit_hops * 0.693 / window
        self.flit_hops_total += flit_hops
        if pillar is not None:
            self._bus_rate[pillar] += size_flits * 0.693 / window
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
        return self._send(((src, dest),), size_flits, cycle, record)[0]

    def query_round(
        self,
        node: Coord,
        targets: list[Coord],
        size_flits: int,
        tag_latency: int,
        cycle: float,
    ) -> float:
        """Worst round trip of a parallel tag-query round from ``node``.

        Each target costs a request out, ``tag_latency`` and a reply
        back.  The round costs at least ``tag_latency``, the direct probe
        of the local tag array; a target at ``node`` itself adds nothing.
        """
        legs = []
        for target in targets:
            if target != node:
                legs += ((node, target), (target, node))
        latencies = self._send(legs, size_flits, cycle, True)
        worst = float(tag_latency)
        for i in range(0, len(latencies), 2):
            worst = max(worst, latencies[i] + tag_latency + latencies[i + 1])
        return worst

    def _send(
        self,
        legs: Sequence[tuple[Coord, Coord]],
        size_flits: int,
        cycle: Optional[float],
        record: bool,
    ) -> list[float]:
        """Price each ``(src, dest)`` leg in turn under the current load.

        With ``record`` and a ``cycle``, each leg is noted before the next
        is priced, because each note moves the load estimate.
        """
        if not legs:
            # Nothing priced, nothing aged: decaying in two steps rounds
            # differently from decaying once.
            return []
        self._pillar_pool()
        routes = self._routes
        cfg = self.config
        injection_overhead = cfg.injection_overhead
        hop_cycles = cfg.hop_cycles
        q_mesh = cfg.q_mesh
        q_bus = cfg.q_bus
        bus_overhead = cfg.bus_overhead
        max_utilization = cfg.max_utilization
        capacity = self._num_nodes * cfg.mesh_capacity_factor
        bus_rate = self._bus_rate
        flits = float(size_flits - 1)
        if cycle is not None:
            self._decay_to(cycle)
        record = record and cycle is not None
        latencies = []
        for leg in legs:
            hops, pillar = routes.get(leg) or self.path(*leg)
            rho = self._mesh_rate / capacity if capacity else 0.0
            rho = min(rho, max_utilization)
            per_hop_wait = q_mesh * rho / (1.0 - rho)
            latency = injection_overhead
            latency += hops * (hop_cycles + per_hop_wait)
            serialization = flits
            if pillar is not None:
                rho_b = min(bus_rate.get(pillar, 0.0), max_utilization)
                latency += bus_overhead
                latency += q_bus * rho_b / (1.0 - rho_b)
                serialization = serialization / (1.0 - rho_b)
            latencies.append(latency + serialization)
            if record:
                self._note(hops, pillar, size_flits)
        return latencies

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
