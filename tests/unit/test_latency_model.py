"""Unit tests for the contention-aware analytic latency model."""

import pytest

from repro.core.chip import ChipConfig
from repro.core.placement import build_topology
from repro.core.latency_model import LatencyModel, LatencyModelConfig
from repro.faults.state import FaultState
from repro.noc.routing import Coord, best_pillar


@pytest.fixture()
def model3d():
    return LatencyModel(build_topology(ChipConfig()))


@pytest.fixture()
def model2d():
    return LatencyModel(
        build_topology(ChipConfig(num_layers=1, num_pillars=0))
    )


class TestPath:
    def test_same_layer(self, model2d):
        hops, pillar = model2d.path(Coord(0, 0, 0), Coord(3, 4, 0))
        assert hops == 7 and pillar is None

    def test_cross_layer_uses_best_pillar(self, model3d):
        hops, pillar = model3d.path(Coord(2, 2, 0), Coord(2, 2, 1))
        assert pillar == (2, 2)
        assert hops == 0

    def test_cross_layer_hops_include_detour(self, model3d):
        hops, pillar = model3d.path(Coord(0, 0, 0), Coord(0, 0, 1))
        px, py = pillar
        assert hops == 2 * (abs(px) + abs(py))


class TestRouteMemo:
    def test_dead_pillar_invalidates_cached_route(self, model3d):
        state = FaultState()
        model3d.attach_fault_state(state)
        src, dest = Coord(0, 0, 0), Coord(5, 7, 1)
        cached = model3d.path(src, dest)
        assert model3d.path(src, dest) == cached
        state.fail_pillar(cached[1])
        hops, pillar = model3d.path(src, dest)
        alive = [xy for xy in model3d.topology.pillar_xys if xy != cached[1]]
        assert pillar == best_pillar(src, dest, alive) != cached[1]
        px, py = pillar
        assert hops == (
            abs(src.x - px) + abs(src.y - py)
            + abs(dest.x - px) + abs(dest.y - py)
        )


class TestQueryRound:
    def test_matches_packet_by_packet_pricing(self, model3d):
        """One pass prices and notes exactly like packet_latency calls."""
        twin = LatencyModel(model3d.topology)
        node = Coord(1, 1, 0)
        targets = [Coord(9, 3, 1), node, Coord(4, 6, 0), Coord(14, 7, 1)]
        tag = 3
        for cycle in (0.0, 40.0, 40.0, 95.5, 30.0):
            for model in (model3d, twin):
                model.note_packet(node, Coord(12, 5, 1), 5, cycle)
            worst = float(tag)
            for target in targets:
                out = twin.packet_latency(node, target, 1, cycle)
                back = twin.packet_latency(target, node, 1, cycle)
                worst = max(worst, out + tag + back)
            assert model3d.query_round(node, targets, 1, tag, cycle) == worst
        for attr in ("_mesh_rate", "_bus_rate", "_last_cycle",
                     "flit_hops_total", "bus_flits_total",
                     "bus_flits_by_pillar"):
            assert getattr(model3d, attr) == getattr(twin, attr)

    def test_local_targets_cost_the_tag_probe(self, model3d):
        node = Coord(1, 1, 0)
        assert model3d.query_round(node, [node], 1, 3, 10.0) == 3.0
        assert model3d.flit_hops_total == 0


class TestZeroLoad:
    def test_formula_same_layer(self, model2d):
        cfg = model2d.config
        latency = model2d.zero_load_latency(Coord(0, 0, 0), Coord(5, 0, 0), 4)
        assert latency == cfg.injection_overhead + 5 * cfg.hop_cycles + 3

    def test_bus_overhead_added_cross_layer(self, model3d):
        cfg = model3d.config
        latency = model3d.zero_load_latency(Coord(2, 2, 0), Coord(2, 2, 1), 1)
        assert latency == cfg.injection_overhead + cfg.bus_overhead

    def test_zero_for_same_node(self, model3d):
        assert model3d.zero_load_latency(Coord(1, 1, 0), Coord(1, 1, 0), 4) == 0


class TestLoadTracking:
    def test_rate_estimate_converges(self, model2d):
        # Needs several window half-lives to converge.
        for cycle in range(20_000):
            model2d.note_packet(Coord(0, 0, 0), Coord(5, 5, 0), 4, float(cycle))
        # one packet per cycle x 10 hops x 4 flits = 40 flit-hops/cycle
        assert model2d._mesh_rate == pytest.approx(40.0, rel=0.05)

    def test_rate_decays_when_idle(self, model2d):
        model2d.note_packet(Coord(0, 0, 0), Coord(5, 5, 0), 4, 0.0)
        busy = model2d._mesh_rate
        model2d._decay_to(100_000.0)
        assert model2d._mesh_rate < busy / 100

    def test_utilization_clamped(self, model2d):
        for cycle in range(2000):
            for __ in range(50):
                model2d.note_packet(
                    Coord(0, 0, 0), Coord(15, 15, 0), 4, float(cycle)
                )
        assert model2d.mesh_utilization() <= model2d.config.max_utilization

    def test_bus_rate_tracked_per_pillar(self, model3d):
        pillar = model3d.topology.pillar_xys[0]
        px, py = pillar
        for cycle in range(2000):
            model3d.note_packet(
                Coord(px, py, 0), Coord(px, py, 1), 4, float(cycle)
            )
        assert model3d.bus_utilization(pillar) > 0.5
        other = model3d.topology.pillar_xys[-1]
        assert model3d.bus_utilization(other) == 0.0


class TestContention:
    def test_latency_increases_with_load(self, model2d):
        quiet = model2d.packet_latency(
            Coord(0, 0, 0), Coord(8, 8, 0), 4, cycle=0.0, record=False
        )
        for cycle in range(3000):
            for __ in range(4):
                model2d.note_packet(
                    Coord(0, 0, 0), Coord(15, 15, 0), 4, float(cycle)
                )
        loaded = model2d.packet_latency(
            Coord(0, 0, 0), Coord(8, 8, 0), 4, cycle=3000.0, record=False
        )
        assert loaded > quiet

    def test_bus_contention_stretches_serialization(self, model3d):
        pillar = model3d.topology.pillar_xys[0]
        px, py = pillar
        src, dest = Coord(px, py, 0), Coord(px, py, 1)
        quiet = model3d.packet_latency(src, dest, 4, cycle=0.0, record=False)
        for cycle in range(3000):
            model3d.note_packet(src, dest, 4, float(cycle))
        loaded = model3d.packet_latency(
            src, dest, 4, cycle=3000.0, record=False
        )
        assert loaded > quiet

    def test_record_flag_controls_tracking(self, model2d):
        model2d.packet_latency(
            Coord(0, 0, 0), Coord(5, 5, 0), 4, cycle=1.0, record=False
        )
        assert model2d.flit_hops_total == 0
        model2d.packet_latency(
            Coord(0, 0, 0), Coord(5, 5, 0), 4, cycle=1.0, record=True
        )
        assert model2d.flit_hops_total == 40
