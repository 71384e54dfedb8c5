"""Property-based tests for the cycle-accurate network fabric."""

import copy

import pytest

from hypothesis import given, settings, strategies as st

from repro.core.chip import ChipConfig
from repro.core.latency_model import LatencyModel
from repro.core.placement import build_topology
from repro.faults.state import FaultState
from repro.noc.network import Network, NetworkConfig
from repro.noc.routing import Coord, route_hop_count, best_pillar

PILLARS = ((1, 1), (2, 2))


def make_network():
    return Network(
        NetworkConfig(width=4, height=4, layers=2, pillar_locations=PILLARS)
    )


coords = st.tuples(
    st.integers(0, 3), st.integers(0, 3), st.integers(0, 1)
).map(lambda t: Coord(*t))


@settings(max_examples=25, deadline=None)
@given(pairs=st.lists(st.tuples(coords, coords), min_size=1, max_size=8))
def test_every_packet_is_delivered(pairs):
    """Any batch of packets is fully delivered and the fabric drains."""
    network = make_network()
    packets = []
    for src, dest in pairs:
        if src != dest:
            packets.append(network.send(src, dest))
    network.quiesce(max_cycles=50_000)
    assert network.in_flight == 0
    for packet in packets:
        assert packet.ejected_cycle is not None


@settings(max_examples=25, deadline=None)
@given(src=coords, dest=coords, flits=st.integers(1, 8))
def test_latency_at_least_zero_load(src, dest, flits):
    """A lone packet's latency equals hops*link + serialization + inject."""
    if src == dest:
        return
    network = make_network()
    cfg = network.config
    packet = network.send(src, dest, size_flits=flits)
    network.quiesce(max_cycles=50_000)
    pillar = packet.pillar_xy
    hops = route_hop_count(src, dest, pillar)
    if pillar is not None:
        hops -= 1  # the bus hop is charged separately
    floor = cfg.link_latency * hops + (flits - 1) + 1
    assert packet.latency >= floor
    # A lone packet also has no contention: small bounded overhead.
    assert packet.latency <= floor + 6


@settings(max_examples=15, deadline=None)
@given(
    seeds=st.integers(0, 2**16),
    count=st.integers(2, 12),
)
def test_under_load_latency_never_below_zero_load(seeds, count):
    import random

    rng = random.Random(seeds)
    network = make_network()
    cfg = network.config
    packets = []
    nodes = list(network.coords())
    for __ in range(count):
        src, dest = rng.sample(nodes, 2)
        packets.append(network.send(src, dest))
    network.quiesce(max_cycles=100_000)
    for packet in packets:
        hops = route_hop_count(packet.src, packet.dest, packet.pillar_xy)
        if packet.pillar_xy is not None:
            hops -= 1
        floor = cfg.link_latency * hops + (packet.size_flits - 1) + 1
        assert packet.latency >= floor


@settings(max_examples=50, deadline=None)
@given(src=coords, dest=coords)
def test_best_pillar_minimizes_detour(src, dest):
    pillars = list(PILLARS)
    chosen = best_pillar(src, dest, pillars)
    chosen_cost = (
        abs(src.x - chosen[0]) + abs(src.y - chosen[1])
        + abs(dest.x - chosen[0]) + abs(dest.y - chosen[1])
    )
    for px, py in pillars:
        other = (
            abs(src.x - px) + abs(src.y - py)
            + abs(dest.x - px) + abs(dest.y - py)
        )
        assert chosen_cost <= other


# -- latency-model route memo vs fresh routing ------------------------------

CHIP = build_topology(ChipConfig())
CHIP_PILLARS = tuple(CHIP.pillar_xys)
chip_coords = st.builds(
    Coord,
    st.integers(0, CHIP.config.mesh_dims[0] - 1),
    st.integers(0, CHIP.config.mesh_dims[1] - 1),
    st.integers(0, CHIP.config.num_layers - 1),
)


@settings(max_examples=40, deadline=None)
@given(
    pairs=st.lists(st.tuples(chip_coords, chip_coords), min_size=1, max_size=4),
    steps=st.lists(
        st.tuples(
            st.integers(0, 3),
            st.none() | st.frozensets(
                st.sampled_from(CHIP_PILLARS), max_size=len(CHIP_PILLARS) - 1
            ),
        ),
        min_size=1,
        max_size=30,
    ),
)
def test_memoized_path_matches_fresh_route(pairs, steps):
    """Repeated queries, with dead-pillar sets changing between them, see
    the same route a fresh best_pillar/Manhattan computation gives."""
    model = LatencyModel(CHIP)
    state = FaultState()
    model.attach_fault_state(state)
    for index, dead in steps:
        if dead is not None:
            for xy in CHIP_PILLARS:
                if xy in dead:
                    state.fail_pillar(xy)
                else:
                    state.heal_pillar(xy)
        src, dest = pairs[index % len(pairs)]
        if src.z == dest.z:
            expected = (src.manhattan_2d(dest), None)
        else:
            alive = [xy for xy in CHIP_PILLARS if xy not in state.dead_pillars]
            px, py = best_pillar(src, dest, alive)
            expected = (
                abs(src.x - px) + abs(src.y - py)
                + abs(dest.x - px) + abs(dest.y - py),
                (px, py),
            )
        assert model.path(src, dest) == expected


# -- latency-model round plans vs leg-by-leg pricing -------------------------

LOAD_STATE = (
    "_mesh_rate", "_bus_rate", "_last_cycle",
    "flit_hops_total", "bus_flits_total", "bus_flits_by_pillar",
)


def _memo_free_copy(model):
    """A model with ``model``'s faults and load state and empty memos."""
    fresh = LatencyModel(CHIP)
    fresh.attach_fault_state(model._faults)
    for attr in LOAD_STATE:
        setattr(fresh, attr, copy.copy(getattr(model, attr)))
    return fresh


dead_sets = st.none() | st.frozensets(
    st.sampled_from(CHIP_PILLARS), max_size=len(CHIP_PILLARS) - 1
)


@settings(max_examples=40, deadline=None)
@given(
    preload=st.lists(
        st.tuples(chip_coords, chip_coords, st.sampled_from((1, 5))),
        max_size=12,
    ),
    rounds=st.lists(
        # None stands for the querying node itself.
        st.tuples(chip_coords, st.lists(st.none() | chip_coords, max_size=6)),
        min_size=1,
        max_size=3,
    ),
    steps=st.lists(
        st.tuples(
            st.integers(0, 2),
            st.booleans(),
            st.sampled_from((1, 5)),
            st.sampled_from((0.0, 0.5, 40.0, -10.0, 700.0)),
            dead_sets,
        ),
        min_size=1,
        max_size=12,
    ),
)
def test_round_plans_match_leg_by_leg_pricing(preload, rounds, steps):
    """query_round and note_round, priced from memoized plans, leave the
    same result and load state as pricing or noting each leg in turn on
    a twin model whose memos are empty at every step; pillars die and
    heal between rounds, so a plan kept past its fault epoch fails."""
    state = FaultState()
    model = LatencyModel(CHIP)
    model.attach_fault_state(state)
    twin = _memo_free_copy(model)
    for src, dest, size in preload:
        for m in (model, twin):
            m.note_packet(src, dest, size, 5.0)
    cycle = 5.0
    tag = 3
    for index, query, size, advance, dead in steps:
        if dead is not None:
            for xy in CHIP_PILLARS:
                if xy in dead:
                    state.fail_pillar(xy)
                else:
                    state.heal_pillar(xy)
        cycle += advance
        node, spots = rounds[index % len(rounds)]
        targets = [node if spot is None else spot for spot in spots]
        twin = _memo_free_copy(twin)
        if query:
            worst = float(tag)
            for target in targets:
                if target != node:
                    out = twin.packet_latency(node, target, size, cycle)
                    back = twin.packet_latency(target, node, size, cycle)
                    worst = max(worst, out + tag + back)
            assert model.query_round(node, targets, size, tag, cycle) == worst
        else:
            for target in targets:
                twin.note_packet(node, target, size, cycle)
            model.note_round(node, targets, size, cycle)
        for attr in LOAD_STATE:
            assert getattr(model, attr) == getattr(twin, attr), attr


# -- vector fabric vs object fabric on random small meshes ----------------

mesh_dims = st.tuples(
    st.integers(2, 4),   # width
    st.integers(2, 4),   # height
    st.integers(1, 2),   # layers
)


@settings(max_examples=20, deadline=None)
@given(
    dims=mesh_dims,
    seed=st.integers(0, 2**16),
    count=st.integers(1, 15),
)
def test_vector_delivers_same_count_as_optimized(dims, seed, count):
    """Identical sends on a random mesh: both fabrics deliver everything.

    The vector fabric's arbitration order differs, so per-packet timing
    may diverge — but after a quiesce the delivered count must match the
    object fabric exactly and nothing may remain in flight.
    """
    import random

    pytest.importorskip("numpy")
    width, height, layers = dims
    pillar = (width // 2, height // 2)
    delivered = {}
    for fabric in ("optimized", "vector"):
        rng = random.Random(seed)
        network = Network(
            NetworkConfig(
                width=width, height=height, layers=layers,
                pillar_locations=(pillar,),
            ),
            fabric=fabric,
        )
        nodes = list(network.coords())
        sent = 0
        for __ in range(count):
            src, dest = rng.sample(nodes, 2)
            network.send(src, dest)
            sent += 1
        network.quiesce(max_cycles=200_000)
        assert network.in_flight == 0
        assert network.delivered_fraction() == 1.0
        received = (
            network.stats.scope("nic").counter("packets_received").value
        )
        delivered[fabric] = (sent, received)
    assert delivered["vector"] == delivered["optimized"]
    sent, received = delivered["vector"]
    assert received == sent
