"""Tests for the hierarchical beacon protocol: flood and probe primitives,
the beaconing round, hierarchical forwarding, and the load-balanced variant.

Oracles live next to the tests that use them: hand-traced transmission counts
on path graphs, a deque BFS for distances and stretch denominators, full
state audits (cover completeness, membership/member-list bijection, beacon
separation), and an independent recomputation of identifier-chain termini.
"""

from __future__ import annotations

import hashlib
import io
import math
from collections import deque
from typing import Optional

import numpy as np
import pytest

from beaconsim.acceptance import _audit_round as audit_round
from beaconsim.errors import DeliveryError, ParameterError, ProtocolInvariantError
from beaconsim.geometry import DomainSpec, sample_uniform_positions
from beaconsim.graph import ConnectivityGraph, build_geometric_graph, diameter
from beaconsim.mobility import RandomWalk, step
from beaconsim.protocol import (
    ForwardReceipt,
    Membership,
    ProtocolEngine,
    ProtocolParams,
    RoutingEntry,
    _ring_closest,
    flood,
    probe,
    ring_distance,
)

# ---------------------------------------------------------------------------
# Helpers and oracles
# ---------------------------------------------------------------------------


def path_graph(k: int) -> ConnectivityGraph:
    return ConnectivityGraph.from_edges(k, [(i, i + 1) for i in range(k - 1)])


def cycle_graph(k: int) -> ConnectivityGraph:
    edges = [(i, (i + 1) % k) for i in range(k)]
    return ConnectivityGraph.from_edges(k, edges)


def random_graph(n: int, seed: int) -> ConnectivityGraph:
    domain = DomainSpec(side=math.sqrt(n), boundary_mode="torus", n=n)
    positions = sample_uniform_positions(n, domain, seed)
    r_n = math.sqrt(2.0 * math.log(n))
    g = build_geometric_graph(positions, r_n)
    assert not math.isinf(max(bfs_oracle(g, 0))), "test graph must be connected"
    return g


def bfs_oracle(g: ConnectivityGraph, source: int) -> list[float]:
    dist = [math.inf] * g.n
    dist[source] = 0.0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in g.neighbors(u):
            if math.isinf(dist[v]):
                dist[v] = dist[u] + 1.0
                queue.append(v)
    return dist


def edge_set(g: ConnectivityGraph) -> set[tuple[int, int]]:
    return {(u, v) for u in range(g.n) for v in g.neighbors(u) if u < v}


def assert_route_valid(g: ConnectivityGraph, receipt: ForwardReceipt, source: int, dest: int) -> None:
    route = receipt.route
    assert route[0] == source and route[-1] == dest
    assert len(set(route)) == len(route), f"route revisits a node: {route}"
    edges = edge_set(g)
    for a, b in zip(route, route[1:]):
        assert (min(a, b), max(a, b)) in edges, f"route uses a non-edge {(a, b)}"
    assert receipt.route_hops == len(route) - 1


def make_params(levels: int, kappa: float = 1.0, nu: int = 1) -> ProtocolParams:
    return ProtocolParams(kappa=kappa, levels=levels, nu=nu)


def run_round(g: ConnectivityGraph, levels: int, t: int = 0, seed: int = 0, mode: str = "plain"):
    engine = ProtocolEngine(g.n, make_params(levels), mode=mode)
    report = engine.beaconing_round(g, t=t, seed=seed)
    return engine, report


def audit_cover(engine: ProtocolEngine, g: ConnectivityGraph) -> None:
    """Recheck, from public state only: every node holds exactly one
    membership per level, lists mirror memberships, and beacon levels fit."""
    levels = engine.params.levels
    for u in range(g.n):
        for level in range(levels + 1):
            member = engine.membership(u, level)
            assert member is not None, f"node {u} uncovered at level {level}"
            beacon = member.beacon_id
            assert engine.beacon_level(beacon) >= level
            assert u in engine.member_list(beacon, level)
    for b in range(g.n):
        for level in range(levels + 1):
            for u in engine.member_list(b, level):
                member = engine.membership(u, level)
                assert member is not None and member.beacon_id == b


# ---------------------------------------------------------------------------
# Parameters and packet accounting
# ---------------------------------------------------------------------------


def test_cover_and_flood_radii_follow_powers_of_two():
    params = make_params(levels=3)
    assert [params.cover_radius(i) for i in range(4)] == [1, 2, 4, 8]
    assert [params.flood_radius(i) for i in range(4)] == [3, 6, 12, 24]
    assert [params.lb_flood_radius(i) for i in range(4)] == [5, 10, 20, 40]
    wide = ProtocolParams(kappa=1.5, levels=2)
    assert wide.flood_radius(2) == math.ceil(1.5 * 3 * 4) == 18
    for params in (make_params(3), wide):
        for i in range(params.levels + 1):
            assert params.flood_radius(i) > params.cover_radius(i)
            assert params.lb_flood_radius(i) > params.flood_radius(i)


def test_level_count_derives_from_initial_diameter():
    # Hop diameters 8, 4, and 0 give ceil(log2 d) = 3, 2, and the 0 floor.
    assert ProtocolParams.for_graph(path_graph(9), kappa=1.0).levels == 3
    assert ProtocolParams.for_graph(path_graph(5), kappa=1.0).levels == 2
    assert ProtocolParams.for_graph(path_graph(2), kappa=1.0).levels == 0
    assert ProtocolParams.for_graph(ConnectivityGraph.from_edges(1, []), kappa=1.0).levels == 0
    assert ProtocolParams.for_graph(path_graph(9), kappa=1.0, levels=5).levels == 5


def test_parameter_validation_rejects_bad_values():
    with pytest.raises(ParameterError):
        ProtocolParams(kappa=0.0, levels=2)
    with pytest.raises(ParameterError):
        # Flood radius ceil(0.6) == 1 would not exceed cover radius 1.
        ProtocolParams(kappa=0.2, levels=2)
    with pytest.raises(ParameterError):
        ProtocolParams(kappa=1.0, levels=-1)
    with pytest.raises(ParameterError):
        ProtocolParams(kappa=1.0, levels=2, nu=0)
    with pytest.raises(ParameterError):
        ProtocolParams(kappa=1.0, levels=2, alpha_hat=1.0)


def test_packet_bit_widths_match_field_layout():
    params = make_params(levels=4)
    # n=200: ids and hop counts take 8 bits, the level field takes
    # ceil(log2 5) = 3 bits, the packet type 4 bits, success 1 bit.
    assert params.id_bits(200) == 8
    assert params.level_bits() == 3
    assert params.flood_packet_bits(200) == 4 + 8 + 8 + 3
    assert params.flood_packet_bits(200, lb=True) == 4 + 8 + 8 + 3 + 8
    assert params.membership_packet_bits(200) == 4 + 8 + 8 + 3
    assert params.probe_packet_bits(200) == 4 + 8 + 8 + 1
    tiny = make_params(levels=0)
    assert tiny.flood_packet_bits(2) == 4 + 1 + 1 + 0
    assert tiny.probe_packet_bits(2) == 4 + 1 + 1 + 1


def test_mu_overhead_factor_tracks_alpha_hat():
    params = ProtocolParams(kappa=1.0, levels=3, alpha_hat=4.0)
    assert params.mu == pytest.approx(3.0 ** (2 * math.log2(4.0)))
    stronger = ProtocolParams(kappa=2.0, levels=3, alpha_hat=4.0)
    assert stronger.mu == pytest.approx(12.0 ** 4)


# ---------------------------------------------------------------------------
# Flood
# ---------------------------------------------------------------------------


def test_flood_installs_shortest_path_entries_on_path_graph():
    g = path_graph(5)
    engine = ProtocolEngine(5, make_params(levels=2))
    transmissions = flood(engine, g, origin=0, radius=4, level=1, t=0)
    # Re-broadcasters are the nodes within 3 hops of the origin: 0,1,2,3.
    assert transmissions == 4
    oracle = bfs_oracle(g, 0)
    for v in range(1, 5):
        entries = engine.routing_entries(v)
        assert len(entries) == 1
        entry = entries[0]
        assert entry == RoutingEntry(node_id=0, distance=int(oracle[v]), level=1, next_hop=v - 1)
    assert engine.routing_entries(0) == []


def test_flood_radius_limits_reach_and_transmissions():
    g = path_graph(5)
    engine = ProtocolEngine(5, make_params(levels=2))
    transmissions = flood(engine, g, origin=0, radius=2, level=0, t=0)
    assert transmissions == 2  # nodes 0 and 1 rebroadcast
    assert [len(engine.routing_entries(v)) for v in range(5)] == [0, 1, 1, 0, 0]

    middle = ProtocolEngine(5, make_params(levels=2))
    transmissions = flood(middle, g, origin=2, radius=2, level=0, t=0)
    assert transmissions == 3  # nodes 1, 2, 3 rebroadcast
    assert [len(middle.routing_entries(v)) for v in range(5)] == [1, 1, 0, 1, 1]


def test_flood_single_node_counts_one_transmission():
    g = ConnectivityGraph.from_edges(1, [])
    engine = ProtocolEngine(1, make_params(levels=0))
    assert flood(engine, g, origin=0, radius=1, level=0, t=0) == 1
    assert engine.routing_entries(0) == []


def test_flood_keeps_better_entries_within_same_step():
    ring = cycle_graph(6)
    line = path_graph(6)
    engine = ProtocolEngine(6, make_params(levels=3))
    flood(engine, ring, origin=0, radius=6, level=0, t=0)
    by_node = {e.node_id: e for e in engine.routing_entries(5)}
    assert by_node[0].distance == 1

    # A worse re-flood in the same step must not displace the entry...
    flood(engine, line, origin=0, radius=6, level=0, t=0)
    by_node = {e.node_id: e for e in engine.routing_entries(5)}
    assert by_node[0].distance == 1
    # ...but a fresh step replaces it outright.
    flood(engine, line, origin=0, radius=6, level=0, t=1)
    by_node = {e.node_id: e for e in engine.routing_entries(5)}
    assert by_node[0].distance == 5


def test_flood_reverse_paths_are_shortest_paths():
    g = random_graph(120, seed=3)
    diam = diameter(g).hops
    engine = ProtocolEngine(g.n, ProtocolParams(kappa=1.0, levels=max(1, math.ceil(math.log2(diam)))))
    flood(engine, g, origin=7, radius=diam, level=1, t=0)
    oracle = bfs_oracle(g, 7)
    edges = edge_set(g)
    for v in range(g.n):
        if v == 7:
            continue
        entries = {e.node_id: e for e in engine.routing_entries(v)}
        entry = entries[7]
        assert entry.distance == int(oracle[v])
        walk, node = [v], v
        while node != 7:
            nxt = {e.node_id: e for e in engine.routing_entries(node)}[7].next_hop if node != v else entry.next_hop
            assert (min(node, nxt), max(node, nxt)) in edges
            assert oracle[nxt] == oracle[node] - 1.0
            node = nxt
            walk.append(node)
        assert len(walk) - 1 == int(oracle[v])


# ---------------------------------------------------------------------------
# Probe
# ---------------------------------------------------------------------------


def test_probe_at_source_is_local_and_free():
    g = path_graph(4)
    engine, _ = run_round(g, levels=2)
    result = probe(engine, g, source=0, relay=0, dest=3, max_level=2)
    assert result.path == (0,)
    assert result.transmissions == 0
    assert not result.broken


def test_probe_follows_entries_and_counts_round_trip():
    g = path_graph(5)
    engine = ProtocolEngine(5, make_params(levels=2))
    flood(engine, g, origin=3, radius=4, level=1, t=0)
    result = probe(engine, g, source=0, relay=3, dest=4, max_level=2)
    # Three hops out, a negative answer, three hops back.
    assert result.path == (0, 1, 2, 3)
    assert result.transmissions == 6
    assert not result.success and not result.broken


def test_probe_success_reflects_member_lists():
    g = path_graph(4)
    engine, _ = run_round(g, levels=2)
    oracle_cache = {u: bfs_oracle(g, u) for u in range(4)}
    checked = 0
    for beacon in range(4):
        for level in range(3):
            for dest in engine.member_list(beacon, level):
                for source in range(4):
                    if source == beacon:
                        continue
                    if not any(e.node_id == beacon for e in engine.routing_entries(source)):
                        continue
                    result = probe(engine, g, source=source, relay=beacon, dest=dest, max_level=level)
                    assert result.success and not result.broken
                    assert result.found_level <= level
                    hops = int(oracle_cache[source][beacon])
                    assert result.transmissions == 2 * hops
                    checked += 1
    assert checked >= 3


def test_probe_reports_broken_next_hop_distinctly():
    g = path_graph(4)
    engine = ProtocolEngine(4, make_params(levels=2))
    flood(engine, g, origin=3, radius=3, level=1, t=0)
    intact = probe(engine, g, source=0, relay=3, dest=2, max_level=2)
    assert intact.path == (0, 1, 2, 3) and not intact.broken
    # The walk on g resolved the next hops toward 3; the severed graph must
    # still break the probe where its edge is gone, and g must heal it again.
    severed = ConnectivityGraph.from_edges(4, [(0, 1), (2, 3)])
    result = probe(engine, severed, source=0, relay=3, dest=2, max_level=2)
    assert result.broken and not result.success
    assert result.path == (0, 1)
    assert result.transmissions == 2
    assert probe(engine, g, source=0, relay=3, dest=2, max_level=2) == intact


def test_probe_hop_budget_aborts_long_chases():
    g = path_graph(6)
    engine = ProtocolEngine(6, make_params(levels=3))
    flood(engine, g, origin=5, radius=5, level=1, t=0)
    capped = probe(engine, g, source=0, relay=5, dest=4, max_level=3, budget=3)
    assert capped.broken and not capped.success
    assert capped.path == (0, 1, 2, 3)
    assert capped.transmissions == 6
    roomy = probe(engine, g, source=0, relay=5, dest=4, max_level=3, budget=5)
    assert not roomy.broken
    assert roomy.path == (0, 1, 2, 3, 4, 5)


def test_probe_requires_an_entry_for_the_relay():
    g = path_graph(3)
    engine = ProtocolEngine(3, make_params(levels=1))
    with pytest.raises(ParameterError):
        probe(engine, g, source=0, relay=2, dest=1, max_level=1)


# ---------------------------------------------------------------------------
# Beaconing round
# ---------------------------------------------------------------------------


def test_single_node_is_beacon_at_every_level():
    g = ConnectivityGraph.from_edges(1, [])
    engine = ProtocolEngine(1, make_params(levels=3))
    report = engine.beaconing_round(g, t=0, seed=0)
    assert report.gamma == 3
    assert engine.beacon_level(0) == 3
    assert report.elected == {0: (), 1: (), 2: (), 3: (0,)}
    assert report.beacons == {0: (), 1: (), 2: (), 3: (0,)}
    for level in range(4):
        member = engine.membership(0, level)
        assert member is not None and member.beacon_id == 0 and member.distance == 0
        assert engine.member_list(0, level) == frozenset({0})
    assert report.flood_transmissions == 1
    assert report.membership_packets == 0
    assert report.membership_hops == 0
    assert report.control_packets == 1
    # Flood packet width for n=1, L=3: type 4 + id 0 + hops 0 + level 2.
    assert report.control_bits == 6


def test_two_node_round_elects_one_level_zero_beacon():
    g = path_graph(2)
    engine, report = run_round(g, levels=0)
    elected = report.elected[0]
    assert len(elected) == 1
    beacon = elected[0]
    other = 1 - beacon
    assert engine.member_list(beacon, 0) == frozenset({0, 1})
    assert engine.member_list(other, 0) == frozenset()
    member = engine.membership(other, 0)
    assert member == Membership(beacon_id=beacon, distance=1, time=0)
    # Each flood covers both nodes (f_0 = 3), so both rebroadcast; the lone
    # membership packet travels one hop; every packet is 4+1+1+0 = 6 bits.
    assert report.flood_transmissions == 4
    assert report.membership_packets == 1
    assert report.membership_hops == 1
    assert report.control_packets == 5
    assert report.control_bits == 30


def test_gamma_schedule_follows_binary_cadence():
    g = path_graph(9)
    engine = ProtocolEngine(9, make_params(levels=3))
    gammas = [engine.beaconing_round(g, t=t, seed=1).gamma for t in range(9)]
    assert gammas == [3, 0, 1, 0, 2, 0, 1, 0, 3]


def test_beacons_elected_at_same_level_are_separated():
    g = random_graph(200, seed=11)
    levels = math.ceil(math.log2(diameter(g).hops))
    engine, report = run_round(g, levels=levels, seed=4)
    total_elected = 0
    for level, nodes in report.elected.items():
        radius = 2**level
        for i, u in enumerate(nodes):
            dist = bfs_oracle(g, u)
            for v in nodes[i + 1 :]:
                assert dist[v] > radius, (level, u, v, dist[v])
                total_elected += 1
    assert total_elected > 0
    assert len(report.elected[0]) > 1


def test_cover_completeness_and_single_membership_hold_after_round():
    g = random_graph(200, seed=11)
    levels = math.ceil(math.log2(diameter(g).hops))
    engine, report = run_round(g, levels=levels, seed=4)
    audit_cover(engine, g)
    for u in range(g.n):
        for level in range(levels + 1):
            member = engine.membership(u, level)
            assert member.distance <= 2**level


def test_consecutive_round_with_gamma_zero_keeps_higher_levels():
    g = path_graph(9)
    engine = ProtocolEngine(9, make_params(levels=3))
    engine.beaconing_round(g, t=0, seed=2)
    before = {
        (u, level): engine.membership(u, level) for u in range(9) for level in range(1, 4)
    }
    betas = [engine.beacon_level(u) for u in range(9)]
    report = engine.beaconing_round(g, t=1, seed=2)
    assert report.gamma == 0
    after = {
        (u, level): engine.membership(u, level) for u in range(9) for level in range(1, 4)
    }
    assert before == after
    for u in range(9):
        if betas[u] >= 1:
            assert engine.beacon_level(u) == betas[u]
        refreshed = engine.membership(u, 0)
        assert refreshed is not None and refreshed.time == 1
    for level in range(1, 4):
        assert report.elected[level] == ()


def test_round_reregisters_cleared_levels_only():
    g = random_graph(80, seed=9)
    levels = max(2, math.ceil(math.log2(diameter(g).hops)))
    engine = ProtocolEngine(g.n, make_params(levels=levels))
    engine.beaconing_round(g, t=0, seed=3)
    engine.beaconing_round(g, t=1, seed=3)
    report = engine.beaconing_round(g, t=2, seed=3)
    assert report.gamma == 1
    for u in range(g.n):
        for level in range(levels + 1):
            member = engine.membership(u, level)
            assert member is not None
            if level <= 1:
                assert member.time == 2
            else:
                assert member.time == 0
    audit_cover(engine, g)


def test_every_entry_stays_within_its_flood_radius():
    g = random_graph(150, seed=6)
    levels = math.ceil(math.log2(diameter(g).hops))
    engine = ProtocolEngine(g.n, make_params(levels=levels))
    params = engine.params
    for t in range(3):
        engine.beaconing_round(g, t=t, seed=5)
        for u in range(g.n):
            for entry in engine.routing_entries(u):
                assert entry.distance <= params.flood_radius(entry.level)
            for level in range(levels + 1):
                member = engine.membership(u, level)
                assert member is not None and member.distance <= 2**level


def test_flood_store_keeps_one_row_per_node_across_clears():
    g = random_graph(150, seed=21)
    levels = math.ceil(math.log2(diameter(g).hops))
    engine = ProtocolEngine(g.n, make_params(levels))
    pool = engine._floods
    for t in range(2**levels + 1):  # full clears at t=0 and t=2**levels
        engine.beaconing_round(g, t=t, seed=4)
        live = pool.live()
        # One row per origin, at its beacon level: never an n x n block per level.
        assert sorted(pool.origin[live].tolist()) == list(range(g.n))
        assert all(
            pool.level[row] == engine.beacon_level(int(pool.origin[row])) for row in live
        )
        assert pool.dist.shape == (g.n, g.n)


def test_flood_parent_stays_fixed_until_the_level_is_cleared():
    g = path_graph(5)
    engine = ProtocolEngine(5, make_params(levels=2), mode="load_balanced")
    flood(engine, g, origin=0, radius=3, level=1, t=0, parent=4)
    flood(engine, g, origin=0, radius=3, level=1, t=1, parent=4)
    assert {e.parent for e in engine.routing_entries(2)} == {4}
    with pytest.raises(ParameterError):
        flood(engine, g, origin=0, radius=3, level=1, t=2, parent=3)


def test_round_rejects_mismatched_graph_and_bad_arguments():
    g = path_graph(4)
    engine = ProtocolEngine(4, make_params(levels=2))
    with pytest.raises(ParameterError):
        engine.beaconing_round(path_graph(5), t=0, seed=0)
    with pytest.raises(ParameterError):
        engine.beaconing_round(g, t=-1, seed=0)
    with pytest.raises(ParameterError):
        ProtocolEngine(4, make_params(levels=2), mode="other")


def test_state_snapshot_csv_lists_every_node():
    g = path_graph(5)
    engine, _ = run_round(g, levels=2)
    buffer = io.StringIO()
    engine.dump_state_csv(buffer)
    lines = buffer.getvalue().strip().split("\n")
    assert lines[0] == "node_id,beacon_level,membership_count,table_entries"
    assert len(lines) == 6
    first = lines[1].split(",")
    assert first[0] == "0"
    assert int(first[1]) == engine.beacon_level(0)
    assert int(first[2]) == 3  # one membership per level 0..2
    assert int(first[3]) == len(engine.routing_entries(0))


def test_rounds_are_deterministic_for_fixed_seed():
    g = random_graph(100, seed=21)
    levels = math.ceil(math.log2(diameter(g).hops))
    runs = []
    for _ in range(2):
        engine, report = run_round(g, levels=levels, seed=7)
        receipt = engine.forward(g, source=3, dest=90)
        runs.append((report, receipt, [engine.beacon_level(u) for u in range(g.n)]))
    assert runs[0] == runs[1]


# ---------------------------------------------------------------------------
# Forwarding
# ---------------------------------------------------------------------------


def test_forward_to_self_is_empty():
    g = path_graph(4)
    engine, _ = run_round(g, levels=2)
    receipt = engine.forward(g, source=2, dest=2)
    assert receipt.route == ()
    assert receipt.route_hops == 0
    assert receipt.probe_transmissions == 0
    assert receipt.probes == ()


def test_forward_delivers_between_all_pairs_of_a_path():
    g = path_graph(9)
    engine, _ = run_round(g, levels=3)
    for source in range(9):
        oracle = bfs_oracle(g, source)
        for dest in range(9):
            if source == dest:
                continue
            receipt = engine.forward(g, source=source, dest=dest)
            assert_route_valid(g, receipt, source, dest)
            assert receipt.route_hops <= 6 * oracle[dest]


def test_forward_on_static_random_graph_meets_stretch_bound():
    g = random_graph(300, seed=7)
    levels = math.ceil(math.log2(diameter(g).hops))
    engine, _ = run_round(g, levels=levels, seed=7)
    params = engine.params
    rng = np.random.default_rng(77)
    stretches = []
    for _ in range(250):
        source, dest = (int(x) for x in rng.choice(g.n, size=2, replace=False))
        oracle_d = bfs_oracle(g, source)[dest]
        receipt = engine.forward(g, source=source, dest=dest)
        assert_route_valid(g, receipt, source, dest)
        stretch = receipt.route_hops / oracle_d
        assert stretch <= 6.0  # kappa = 1
        assert receipt.probe_transmissions <= params.mu * 6 * params.kappa * oracle_d
        stretches.append(stretch)
    within = sum(1 for s in stretches if s <= 1.5) / len(stretches)
    assert within >= 0.95


def test_forward_stays_bounded_across_a_mobile_run():
    from beaconsim.mobility import RandomWalk, step

    n = 150
    domain = DomainSpec(side=math.sqrt(n), boundary_mode="torus", n=n)
    positions = sample_uniform_positions(n, domain, seed=14)
    r_n = math.sqrt(2.0 * math.log(n))
    model = RandomWalk(max_speed=1.0)
    g = build_geometric_graph(positions, r_n)
    params = ProtocolParams.for_graph(g, kappa=1.0)
    engine = ProtocolEngine(n, params)
    rng = np.random.default_rng(99)
    checked = 0
    for t in range(10):
        if t > 0:
            positions = step(model, positions, domain, seed=31, t=t)
            g = build_geometric_graph(positions, r_n)
        if math.isinf(max(bfs_oracle(g, 0))):
            continue
        engine.beaconing_round(g, t=t, seed=8)
        for _ in range(20):
            source, dest = (int(x) for x in rng.choice(n, size=2, replace=False))
            oracle_d = bfs_oracle(g, source)[dest]
            receipt = engine.forward(g, source=source, dest=dest)
            assert_route_valid(g, receipt, source, dest)
            assert receipt.route_hops <= 6 * oracle_d
            checked += 1
    assert checked >= 180


def test_first_round_off_the_refresh_grid_completes_and_passes_the_audit():
    """A fresh engine's first round at t=3 clears only level 0 (gamma=0), yet
    every level is empty, so nodes are elected above gamma; their floods must
    reach their own level's radius or the separation check fails."""
    g = random_graph(300, seed=23)
    levels = math.ceil(math.log2(diameter(g).hops))
    engine = ProtocolEngine(g.n, make_params(levels))
    for t in (3, 4, 5):
        report = engine.beaconing_round(g, t=t, seed=37)
        audit_round(engine, g, report)
        if t == 3:
            assert report.gamma == 0 and any(report.elected[level] for level in range(1, levels + 1))


def test_forward_raises_for_unreachable_destination():
    g = ConnectivityGraph.from_edges(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
    engine = ProtocolEngine(6, make_params(levels=2))
    engine.beaconing_round(g, t=0, seed=0)
    receipt = engine.forward(g, source=0, dest=2)
    assert_route_valid(g, receipt, 0, 2)
    with pytest.raises(DeliveryError):
        engine.forward(g, source=0, dest=5)


def test_forward_survives_erased_membership_state_via_search():
    g = random_graph(60, seed=15)
    levels = math.ceil(math.log2(diameter(g).hops))
    engine, _ = run_round(g, levels=levels, seed=3)
    source, dest = 0, int(np.argmax(bfs_oracle(g, 0)))
    # Erase every trace of the destination: member lists and routing entries.
    # The expanding search must still deliver because the destination itself
    # answers once a ring covers it, and the reverse flood path is a shortest
    # path on the current graph.
    engine._beacon[dest] = -1
    assert all(dest not in engine.member_list(b, level) for b in range(g.n) for level in range(levels + 1))
    for u in range(g.n):
        engine._registrations[u].pop(dest, None)
    engine._registered_at = {k: v for k, v in engine._registered_at.items() if k[0] != dest}
    for row in engine._floods.of_origin.get(dest, {}).values():
        engine._floods.dist[row] = engine._floods.unreached
    assert all(e.node_id != dest for u in range(g.n) for e in engine.routing_entries(u))
    receipt = engine.forward(g, source=source, dest=dest)
    assert_route_valid(g, receipt, source, dest)
    assert receipt.route_hops == int(bfs_oracle(g, source)[dest])
    assert any(p.relay == dest and p.success for p in receipt.probes)


# ---------------------------------------------------------------------------
# Load-balanced variant
# ---------------------------------------------------------------------------


def test_ring_distance_prefers_small_cycles_and_low_ids():
    assert ring_distance(3, 9, n=10) == 4
    assert ring_distance(3, 5, n=10) == 2
    assert ring_distance(1, 9, n=10) == 2
    assert ring_distance(0, 9, n=10) == 1
    # Selection by (distance, id): equidistant candidates fall to the lower id.
    candidates = [5, 1]
    best = min(candidates, key=lambda w: (ring_distance(3, w, n=10), w))
    assert best == 1


@pytest.mark.parametrize(
    "holder, ids, target, n",
    [
        (4, [2, 6], 4, 10),  # equidistant on both sides: the lower id wins
        (9, [1, 7], 4, 10),  # equidistant again, the holder farther away
        (5, [0, 1, 9], 8, 10),  # the successor wraps to the slice's first id
        (5, [3, 4, 6], 0, 10),  # the predecessor wraps to the slice's last id
        (7, [], 3, 10),  # an empty slice leaves the holder
        (3, [3], 3, 4),  # the target itself is in the slice
        (2, [0, 4], 6, 8),  # ring distance 2 both ways, across the wrap
    ],
)
def test_ring_closest_cases_match_brute_force(holder, ids, target, n):
    brute = min([holder, *ids], key=lambda w: (ring_distance(target, w, n), w))
    assert _ring_closest(holder, ids, 0, len(ids), target, n) == brute


def test_ring_closest_matches_brute_force_on_random_slices():
    rng = np.random.default_rng(17)
    for _ in range(3000):
        n = int(rng.integers(1, 60))
        ids = sorted(rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False).tolist())
        lo = int(rng.integers(0, len(ids) + 1))
        hi = int(rng.integers(lo, len(ids) + 1))
        holder = int(rng.integers(n))
        target = int(rng.integers(n))
        brute = min([holder, *ids[lo:hi]], key=lambda w: (ring_distance(target, w, n), w))
        assert _ring_closest(holder, ids, lo, hi, target, n) == brute


def chain_oracle(engine: ProtocolEngine, u: int, level: int) -> int:
    """Independent recomputation of the identifier-chain terminus for u's
    level-``level`` registration, from public membership state only."""
    member = engine.membership(u, level)
    assert member is not None
    holder = member.beacon_id
    for lam in range(engine.beacon_level(holder), 0, -1):
        candidates = [
            w
            for w in engine.member_list(holder, lam)
            if engine.beacon_level(w) >= lam - 1 and w != holder
        ]
        candidates.append(holder)
        holder = min(candidates, key=lambda w: (ring_distance(u, w, engine.n), w))
    return holder


def test_lb_round_stores_every_identifier_at_one_terminus():
    g = random_graph(200, seed=13)
    levels = math.ceil(math.log2(diameter(g).hops))
    engine, report = run_round(g, levels=levels, seed=6, mode="load_balanced")
    audit_cover(engine, g)
    seen: dict[tuple[int, int], int] = {}
    for holder in range(g.n):
        for key in engine.lb_store(holder):
            assert key not in seen, f"identifier {key} stored twice"
            seen[key] = holder
    for u in range(g.n):
        for level in range(levels + 1):
            holder = engine.lb_holder(u, level)
            assert seen[(u, level)] == holder
            assert holder == chain_oracle(engine, u, level)
    assert report.registration_hops > 0
    load = engine.membership_load()
    assert load.tolist() == [len(engine.lb_store(u)) for u in range(g.n)]
    assert load.sum() == g.n * (levels + 1)
    plain, _ = run_round(g, levels=levels, seed=6)
    with pytest.raises(ParameterError):
        plain.lb_holder(0, 0)


def test_lb_flood_carries_the_origin_parent():
    g = random_graph(200, seed=13)
    levels = math.ceil(math.log2(diameter(g).hops))
    engine, _ = run_round(g, levels=levels, seed=6, mode="load_balanced")
    checked = 0
    for v in range(g.n):
        for entry in engine.routing_entries(v):
            beacon = entry.node_id
            beta = engine.beacon_level(beacon)
            # Level-0 keys can also come from membership packets, which carry
            # no parent; flood entries at level >= 1 are unambiguous because a
            # node whose beacon level is positive always self-registers there.
            if entry.level != beta or beta == 0:
                continue
            membership = engine.membership(beacon, beta + 1) if beta < levels else None
            expected = membership.beacon_id if membership is not None else None
            assert entry.parent == expected
            checked += 1
    assert checked > 100


def test_lb_probe_is_answered_by_the_terminus_not_the_beacon():
    g = random_graph(200, seed=13)
    levels = math.ceil(math.log2(diameter(g).hops))
    engine, _ = run_round(g, levels=levels, seed=6, mode="load_balanced")
    split = None
    for u in range(g.n):
        for level in range(1, levels + 1):
            holder = engine.lb_holder(u, level)
            beacon = engine.membership(u, level).beacon_id
            if holder != beacon:
                split = (u, level, holder, beacon)
                break
        if split:
            break
    assert split is not None, "expected at least one terminus away from its beacon"
    dest, _, holder, beacon = split
    source = int(np.argmax(bfs_oracle(g, dest)))
    receipt = engine.forward(g, source=source, dest=dest)
    assert_route_valid(g, receipt, source, dest)
    hits = [p for p in receipt.probes if p.success and p.relay == beacon]
    for hit in hits:
        assert hit.terminus != beacon


def test_lb_forward_meets_the_doubled_stretch_bound():
    g = random_graph(250, seed=19)
    levels = math.ceil(math.log2(diameter(g).hops))
    engine, _ = run_round(g, levels=levels, seed=9, mode="load_balanced")
    rng = np.random.default_rng(5)
    for _ in range(150):
        source, dest = (int(x) for x in rng.choice(g.n, size=2, replace=False))
        oracle_d = bfs_oracle(g, source)[dest]
        receipt = engine.forward(g, source=source, dest=dest)
        assert_route_valid(g, receipt, source, dest)
        assert receipt.route_hops <= 2 * 6 * oracle_d


def test_lb_spreads_membership_load_off_the_beacons():
    g = random_graph(500, seed=17)
    levels = math.ceil(math.log2(diameter(g).hops))
    plain, _ = run_round(g, levels=levels, seed=2, mode="plain")
    balanced, _ = run_round(g, levels=levels, seed=2, mode="load_balanced")
    plain_load = max(
        sum(len(plain.member_list(b, level)) for level in range(levels + 1))
        for b in range(g.n)
    )
    lb_load = max(len(balanced.lb_store(u)) for u in range(g.n))
    assert lb_load <= plain_load


# ---------------------------------------------------------------------------
# Resolved next hops and the flood horizon
# ---------------------------------------------------------------------------


def best_entry_oracle(
    engine: ProtocolEngine, g: ConnectivityGraph, node: int, origin: int
) -> Optional[tuple[int, int, int, bool, int]]:
    """The entry ``node`` follows toward ``origin``, scanned cell by cell over
    the origin's flood rows and the node's registrations: fresher stamp,
    then shorter, then lower level. Returns (level, next hop, stamp, is a
    registration, number of candidates), with next hop -1 where it is no
    neighbour on ``g``."""
    pool = engine._floods
    candidates = []
    for level, row in pool.of_origin.get(origin, {}).items():
        distance = int(pool.dist[row, node])
        if distance != pool.unreached:
            stamp = int(pool.stamp[row, node])
            candidates.append(((-stamp, distance, level), int(pool.next_hop[row, node]), False))
    for level, (distance, hop, stamp) in engine._registrations[node].get(origin, {}).items():
        candidates.append(((-stamp, distance, level), hop, True))
    if not candidates:
        return None
    (neg_stamp, _, level), hop, registered = min(candidates)
    if hop not in g.neighbors(node).tolist():
        hop = -1
    return level, hop, -neg_stamp, registered, len(candidates)


def check_resolved_next_hops(
    engine: ProtocolEngine, g: ConnectivityGraph, t: int, gamma: int, seen: dict
) -> None:
    """Compare the engine's resolved entry with the oracle at every (node,
    origin): first the entries that earlier look-ups resolved, which must not
    have gone stale, then the rest. Tallies the kinds of winner met into
    ``seen``."""
    for origin in range(engine.n):
        toward = engine._next_hops_to(g, origin)
        seen["resolved_before"] += len(toward)
        for node in [*toward, *(v for v in range(engine.n) if v not in toward)]:
            expected = best_entry_oracle(engine, g, node, origin)
            got = toward[node]
            assert got == (None if expected is None else expected[:2]), (t, node, origin)
            if expected is None:
                continue
            level, hop, stamp, registered, candidates = expected
            seen["registration"] += registered
            seen["stale_above_gamma"] += stamp < t and level > gamma
            seen["broken"] += hop == -1
            seen["contested"] += candidates > 1


@pytest.mark.parametrize("mode", ["plain", "load_balanced"])
def test_resolved_next_hops_match_the_scalar_key_rule(mode: str) -> None:
    n = 150
    domain = DomainSpec(side=math.sqrt(n), boundary_mode="torus", n=n)
    positions = sample_uniform_positions(n, domain, 23)
    r_n = math.sqrt(2.0 * math.log(n))
    g = build_geometric_graph(positions, r_n)
    levels = math.ceil(math.log2(diameter(g).hops))
    engine = ProtocolEngine(n, make_params(levels), mode=mode)
    model = RandomWalk(max_speed=1.0)
    rng = np.random.default_rng(29)
    seen = dict.fromkeys(("resolved_before", "registration", "stale_above_gamma", "broken"), 0)
    seen["contested"] = 0
    for t in range(2**levels + 2):
        if t > 0:
            positions = step(model, positions, domain, seed=31, t=t)
            g = build_geometric_graph(positions, r_n)
        report = engine.beaconing_round(g, t=t, seed=37)
        for _ in range(5):  # walks resolve entries and leave reverse state behind
            source, dest = (int(x) for x in rng.choice(n, size=2, replace=False))
            if not math.isinf(bfs_oracle(g, source)[dest]):
                engine.forward(g, source=source, dest=dest)
        check_resolved_next_hops(engine, g, t, report.gamma, seen)
    # Each round starts from entries that the last round's checks resolved
    # everywhere, so a resolution kept across a round would show up stale.
    assert seen["resolved_before"], seen
    assert seen["registration"] and seen["stale_above_gamma"] and seen["broken"], seen
    assert seen["contested"], seen


def test_resolved_next_hops_pick_among_several_rows_of_one_origin() -> None:
    g = random_graph(120, seed=3)
    levels = math.ceil(math.log2(diameter(g).hops))
    engine = ProtocolEngine(g.n, make_params(levels))
    for t, origin in ((2, 5), (3, 5), (2, 9), (2, 40)):
        for level in range(levels + 1):
            radius = engine.params.flood_radius(level)
            flood(engine, g, origin=origin, radius=radius - (origin + level) % 3, level=level, t=t)
    engine.beaconing_round(g, t=3, seed=37)
    seen = dict.fromkeys(("resolved_before", "registration", "stale_above_gamma", "broken"), 0)
    seen["contested"] = 0
    severed = ConnectivityGraph.from_edges(g.n, sorted(edge_set(g))[::2])
    for graph in (g, severed):
        check_resolved_next_hops(engine, graph, 3, -1, seen)
    assert seen["contested"] and seen["broken"] and seen["registration"], seen


def test_resolved_next_hops_do_not_outlive_a_round_on_the_same_graph() -> None:
    g = random_graph(120, seed=3)
    levels = math.ceil(math.log2(diameter(g).hops))
    engine = ProtocolEngine(g.n, make_params(levels))
    seen = dict.fromkeys(("resolved_before", "registration", "stale_above_gamma", "broken"), 0)
    seen["contested"] = 0
    for t in range(4):
        report = engine.beaconing_round(g, t=t, seed=37 + t)
        check_resolved_next_hops(engine, g, t, report.gamma, seen)


def test_probe_reverse_state_does_not_outlive_a_round() -> None:
    g = random_graph(120, seed=3)
    levels = math.ceil(math.log2(diameter(g).hops))
    engine, _ = run_round(g, levels=levels, seed=37)
    source = 0
    relay = max(engine.routing_entries(source), key=lambda e: e.distance).node_id
    result = probe(engine, g, source, relay, relay, levels)
    assert not result.broken and len(result.path) >= 3
    # Every node the walk crossed now points back toward the source.
    for back, node in zip(result.path, result.path[1:]):
        assert engine._reverse_entry(node, source) == (-1, back)
    engine.beaconing_round(g, t=1, seed=38)
    assert all(engine._reverse_entry(node, source) is None for node in result.path)


def test_stand_alone_flood_between_forwards_is_seen_by_the_second():
    g = path_graph(5)
    engine = ProtocolEngine(5, make_params(levels=2))
    # No table entry yet: the ring search floods out until 4 answers itself.
    first = engine.forward(g, source=0, dest=4)
    assert [(p.relay, p.success, p.transmissions) for p in first.probes] == [(4, True, 13)]
    flood(engine, g, origin=4, radius=4, level=1, t=0)
    # Now 0 holds an entry for 4, so one direct probe goes there and back.
    second = engine.forward(g, source=0, dest=4)
    assert second.route == (0, 1, 2, 3, 4)
    assert [(p.relay, p.success, p.transmissions) for p in second.probes] == [(4, True, 8)]


def test_first_round_searches_later_chunks_below_the_top_radius(monkeypatch):
    """Every level is empty when the first round starts, so the first chunk
    of re-electing nodes searches to the top level's flood radius; later
    chunks start with most rows filled and must search less far."""
    import beaconsim.protocol as protocol

    g = random_graph(700, seed=5)
    levels = math.ceil(math.log2(diameter(g).hops))
    engine = ProtocolEngine(g.n, make_params(levels))
    chunks: list[list[tuple[float, int]]] = []
    real_dijkstra = protocol.dijkstra
    real_flood_rows = engine._flood_rows

    def recording_dijkstra(csgraph, **kwargs):
        if kwargs.get("return_predecessors"):
            chunks[-1].append((kwargs["limit"], len(kwargs["indices"])))
        return real_dijkstra(csgraph, **kwargs)

    def recording_flood_rows(*args):
        chunks.append([])
        return real_flood_rows(*args)

    monkeypatch.setattr(protocol, "dijkstra", recording_dijkstra)
    monkeypatch.setattr(engine, "_flood_rows", recording_flood_rows)
    engine.beaconing_round(g, t=0, seed=37)
    top = float(engine.params.flood_radius(levels))
    assert len(chunks) == 3
    assert chunks[0] == [(top, 256)]
    for searches in chunks[1:]:
        below = sum(count for limit, count in searches if limit < top)
        assert below > sum(count for limit, count in searches) // 2, searches


# ---------------------------------------------------------------------------
# Equivalence gate: pinned digests of every observable of the engine
# ---------------------------------------------------------------------------

# Digests of the runs below, computed with numpy 2.4 / scipy 1.17. Every next
# hop is a scipy BFS predecessor, whose tie order scipy does not document, so
# a change of BFS source (or of the scipy stack) re-derives these values.
PINNED_DIGESTS = {
    "mobile-plain": "007388cbd6917a7ca8abee5511e601c2eb7f0be37940ed0312e0fe3569a46354",
    "mobile-load_balanced": "399221ed29de1c9e9555e6a6ca329cb46f35d05d6ce9de08320c0fd72be54e8d",
    "mobile-plain-nu2": "b1a87a69ad4d3a17d3974965fb9da582558f6d7c2f827b68cc3c932df725b45b",
    "first-round-at-t3": "d5aefd745ed18748dfa1b917b494d444ca3a09d72f2d80ce69b08f5f5a625c27",
    "same-step-floods": "0f3b26ba96c527dfef081b9e5f5bdc089e265b53bc326fe7fbfd0ccedcec5d8c",
    "floods-then-round": "2c8903353f25546447d2be8091bbab64292f3d24a3b7eb1192db8b5d8244718e",
}


def engine_observables(engine: ProtocolEngine) -> list[str]:
    """Everything the engine exposes, as text: routing tables, the state CSV,
    membership loads, memberships, member lists and load-balanced stores."""
    levels = engine.params.levels
    buf = io.StringIO()
    engine.dump_state_csv(buf)
    parts = [buf.getvalue(), repr(engine.membership_load().tolist())]
    for u in range(engine.n):
        parts.append(
            repr([(e.node_id, e.distance, e.level, e.next_hop, e.parent) for e in engine.routing_entries(u)])
        )
        parts.append(repr([engine.membership(u, level) for level in range(levels + 1)]))
        parts.append(repr([sorted(engine.member_list(u, level)) for level in range(levels + 1)]))
        parts.append(repr(sorted(engine.lb_store(u).items())))
    return parts


def digest(parts: list[str]) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode("utf-8"))
        h.update(b"\0")
    return h.hexdigest()


def hashed_round(engine: ProtocolEngine, g: ConnectivityGraph, t: int, parts: list[str]) -> bool:
    """Run one round and hash its report; on an invariant failure hash the
    error and the state the round left (its checks run after every flood and
    registration) and return False."""
    try:
        parts.append(repr(engine.beaconing_round(g, t=t, seed=37)))
    except ProtocolInvariantError as exc:
        parts.append(repr(exc))
        parts.extend(engine_observables(engine))
        return False
    return True


def mobile_run_digest(mode: str, nu: int = 1, first_t: int = 0, rounds: Optional[int] = None) -> str:
    n = 300
    domain = DomainSpec(side=math.sqrt(n), boundary_mode="torus", n=n)
    positions = sample_uniform_positions(n, domain, 23)
    r_n = math.sqrt(2.0 * math.log(n))
    g = build_geometric_graph(positions, r_n)
    levels = math.ceil(math.log2(diameter(g).hops))
    engine = ProtocolEngine(n, make_params(levels, nu=nu), mode=mode)
    if rounds is None:
        rounds = 2**levels + 2
    model = RandomWalk(max_speed=1.0)
    rng = np.random.default_rng(29)
    parts = [f"levels={levels}"]
    for t in range(first_t, first_t + rounds):
        if t > first_t:
            positions = step(model, positions, domain, seed=31, t=t)
            g = build_geometric_graph(positions, r_n)
        if not hashed_round(engine, g, t, parts):
            break
        for _ in range(12):
            source, dest = (int(x) for x in rng.choice(n, size=2, replace=False))
            if math.isinf(bfs_oracle(g, source)[dest]):
                continue
            parts.append(repr(engine.forward(g, source=source, dest=dest)))
        parts.extend(engine_observables(engine))
    return digest(parts)


def same_step_floods_digest() -> str:
    ring = cycle_graph(40)
    line = path_graph(40)
    chords = ConnectivityGraph.from_edges(
        40, [(i, i + 1) for i in range(39)] + [(0, 20), (10, 30), (5, 35)]
    )
    engine = ProtocolEngine(40, make_params(levels=3))
    parts = []
    for t in range(3):
        for g in (ring, line, chords):
            for origin, radius, level in ((0, 12, 2), (7, 6, 1), (20, 24, 3), (0, 3, 0)):
                parts.append(repr(flood(engine, g, origin=origin, radius=radius, level=level, t=t)))
            parts.extend(engine_observables(engine))
    return digest(parts)


def floods_then_round_digest() -> str:
    """Stand-alone floods at t=2 and t=3 leave rows at levels the engine has
    never cleared; its first rounds, from t=3, then register members against
    them, replacing older cells and losing to same-step ones."""
    g = random_graph(120, seed=3)
    levels = math.ceil(math.log2(diameter(g).hops))
    engine = ProtocolEngine(g.n, make_params(levels))
    parts = []
    for origin in range(0, g.n, 3):
        level = origin % (levels + 1)
        radius = engine.params.flood_radius(level)
        t = 2 if origin < g.n // 2 else 3
        parts.append(repr(flood(engine, g, origin=origin, radius=radius, level=level, t=t)))
    parts.extend(engine_observables(engine))
    for t in (3, 4, 5):
        if not hashed_round(engine, g, t, parts):
            break
        parts.extend(engine_observables(engine))
    return digest(parts)


EQUIVALENCE_RUNS = {
    # 2**L + 2 rounds: full clears at t=0 and t=2**L, partial clears between.
    "mobile-plain": lambda: mobile_run_digest("plain"),
    "mobile-load_balanced": lambda: mobile_run_digest("load_balanced"),
    # nu=2 leaves every odd round with gamma=-1, so no level is cleared.
    "mobile-plain-nu2": lambda: mobile_run_digest("plain", nu=2, rounds=9),
    # The first round at t=3 clears only level 0 of an empty engine, so nodes
    # are elected above gamma and flood to their own level's radius.
    "first-round-at-t3": lambda: mobile_run_digest("plain", first_t=3, rounds=6),
    "same-step-floods": same_step_floods_digest,
    "floods-then-round": floods_then_round_digest,
}


@pytest.mark.parametrize("name", sorted(EQUIVALENCE_RUNS))
def test_engine_observables_match_pinned_digests(name: str) -> None:
    assert EQUIVALENCE_RUNS[name]() == PINNED_DIGESTS[name]
