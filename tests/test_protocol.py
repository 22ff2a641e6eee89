"""Tests for the hierarchical beacon protocol: the entries a round's floods
leave, probes, the beaconing round, hierarchical forwarding, and the
load-balanced variant.

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
from typing import NamedTuple, Optional

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from beaconsim.acceptance import _audit_round as audit_round
from beaconsim.errors import DeliveryError, ParameterError, ProtocolInvariantError
from beaconsim.geometry import DomainSpec, sample_uniform_positions
from beaconsim.graph import ConnectivityGraph, _reach, build_geometric_graph, diameter
from beaconsim.mobility import RandomWalk, step
from beaconsim.protocol import (
    ForwardReceipt,
    Membership,
    ProbeRecord,
    ProtocolEngine,
    ProtocolParams,
    RoundReport,
    _GroundFloods,
    _Table,
    _loop_erase,
    _ring_closest,
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
    domain = DomainSpec(side=math.sqrt(n), n=n)
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


def decode_keys(table: _Table, key):
    """(origin, node, level) of each table ``key``. With ``encode_keys``, the
    one place the tests read how the table packs its keys."""
    cell, level = np.divmod(key, table.width)
    node, origin = np.divmod(cell, table.n)
    return origin, node, level


def encode_keys(table: _Table, origin, node, level):
    """The table key of each (origin, node, level), as ``_Table.run`` packs it."""
    return (node * table.n + origin) * table.width + level


def held_entries(engine: ProtocolEngine, u: int) -> list[tuple[int, int, int, int]]:
    """(origin, distance, level, next hop) of every table entry that ``u``
    holds, in (origin, level) order."""
    table = engine._table
    held, origin, level = table.held_by(u)
    columns = (origin, table.dist[held], level, table.hop[held])
    return list(zip(*(column.tolist() for column in columns)))


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
    # ceil(log2 5) = 3 bits, the packet type 4 bits.
    assert params.id_bits(200) == 8
    assert params.level_bits() == 3
    assert params.flood_packet_bits(200) == 4 + 8 + 8 + 3
    assert params.flood_packet_bits(200, lb=True) == 4 + 8 + 8 + 3 + 8
    assert params.membership_packet_bits(200) == 4 + 8 + 8 + 3
    tiny = make_params(levels=0)
    assert tiny.flood_packet_bits(2) == 4 + 1 + 1 + 0


def test_mu_overhead_factor_tracks_alpha_hat():
    params = ProtocolParams(kappa=1.0, levels=3, alpha_hat=4.0)
    assert params.mu == pytest.approx(3.0 ** (2 * math.log2(4.0)))
    stronger = ProtocolParams(kappa=2.0, levels=3, alpha_hat=4.0)
    assert stronger.mu == pytest.approx(12.0 ** 4)


# ---------------------------------------------------------------------------
# Flood entries
# ---------------------------------------------------------------------------


def test_flood_installs_shortest_path_entries_on_path_graph():
    g = path_graph(5)
    engine, _ = run_round(g, levels=2)
    for v in range(5):
        entries = held_entries(engine, v)
        assert entries
        for origin, distance, _, next_hop in entries:
            assert origin != v  # an origin's own cell is no entry
            assert distance == abs(origin - v)
            assert next_hop == (v - 1 if origin < v else v + 1)


def test_flood_radius_limits_reach_and_transmissions():
    # With level 0 alone every node floods ceil(3 * kappa) hops out and its
    # joiners register one hop away, so a node holds entries toward exactly
    # the nodes within the radius; the nodes within radius - 1 rebroadcast.
    g = path_graph(9)
    pairs = [(u, v) for u in range(9) for v in range(9)]
    for kappa, radius in ((1.0, 3), (2.0, 6)):
        engine = ProtocolEngine(9, make_params(levels=0, kappa=kappa))
        report = engine.beaconing_round(g, t=0, seed=0)
        for v in range(9):
            origins = sorted({origin for origin, *_ in held_entries(engine, v)})
            assert origins == [u for u in range(9) if 0 < abs(u - v) <= radius]
        assert report.flood_transmissions == sum(abs(u - v) < radius for u, v in pairs)


def test_flood_single_node_counts_one_transmission():
    g = ConnectivityGraph.from_edges(1, [])
    engine, report = run_round(g, levels=0)
    assert report.flood_transmissions == 1
    key = engine._table._columns()[0]
    assert key.size == 0  # an origin holds no entry toward itself


def test_flood_keeps_better_entries_within_same_step():
    ring = cycle_graph(6)
    line = path_graph(6)
    engine = ProtocolEngine(6, make_params(levels=3))

    def toward_0_at_level_1() -> list[tuple[int, int, int, int]]:
        return [entry for entry in held_entries(engine, 5) if entry[0] == 0 and entry[2] == 1]

    engine.beaconing_round(ring, t=0, seed=0)
    assert engine.beacon_level(0) == 1  # floods at level 1, 6 hops out, every round
    engine.beaconing_round(ring, t=1, seed=0)  # gamma = 0 keeps level 1
    assert toward_0_at_level_1() == [(0, 1, 1, 0)]
    # A worse re-flood in the same step, from a second round on the line,
    # must not displace the entry...
    engine.beaconing_round(line, t=1, seed=0)
    assert toward_0_at_level_1() == [(0, 1, 1, 0)]
    # ...but a fresh step replaces it outright.
    engine.beaconing_round(line, t=3, seed=0)
    assert toward_0_at_level_1() == [(0, 5, 1, 4)]


def test_flood_reverse_paths_are_shortest_paths():
    """Every entry a round writes, flood cell or registration, holds the BFS
    distance to its origin and a next hop one hop closer to it, so following
    next hops from any node walks a shortest path."""
    g = random_graph(120, seed=3)
    levels = math.ceil(math.log2(diameter(g).hops))
    engine, _ = run_round(g, levels=levels, seed=5)
    key, dist, next_hop, _ = engine._table._columns()
    origin, node, level = decode_keys(engine._table, key)
    assert (level != engine._beacon_level[origin]).any()  # registrations included
    oracle = [bfs_oracle(g, u) for u in range(g.n)]
    edges = edge_set(g)
    columns = (origin, node, dist, next_hop)
    for o, v, distance, hop in zip(*(column.tolist() for column in columns)):
        assert distance == oracle[o][v]
        assert (min(v, hop), max(v, hop)) in edges
        assert oracle[o][hop] == distance - 1


# ---------------------------------------------------------------------------
# Probe
# ---------------------------------------------------------------------------


def probe(
    engine: ProtocolEngine,
    g: ConnectivityGraph,
    source: int,
    relay: int,
    dest: int,
    level: int,
    budget: Optional[int] = None,
) -> tuple[ProbeRecord, Optional[tuple[int, int, list[int]]]]:
    """One probe on ``g`` as a probe stage of one relay sends it: its record
    and what the stage returned. The budget defaults to n hops."""
    engine._edge_keys(g)
    probes: list[ProbeRecord] = []
    hit = engine._probe_stage(
        source, np.array([relay]), dest, level, engine.n if budget is None else budget, probes
    )
    (record,) = probes
    return record, hit


def test_probe_at_source_is_local_and_free():
    g = path_graph(4)
    engine, _ = run_round(g, levels=2)
    # node 0 holds node 3's level-0 flood entry, so it answers for itself
    record, hit = probe(engine, g, source=0, relay=0, dest=3, level=2)
    assert record == ProbeRecord(relay=0, level=2, success=True, broken=False, transmissions=0, terminus=0)
    assert hit == (0, 0, [0])


def test_probe_follows_entries_and_counts_round_trip():
    g = path_graph(9)
    engine, _ = run_round(g, levels=0)
    # 0 holds an entry toward 3 (3 hops), but 3 holds none toward 8 (5 hops,
    # past the level-0 flood radius 3).
    record, hit = probe(engine, g, source=0, relay=3, dest=8, level=0)
    # Three hops out, a negative answer, three hops back.
    assert record.transmissions == 6
    assert not record.success and not record.broken and hit is None


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
                    if engine._table.follow(beacon, source) is None:
                        continue
                    record, hit = probe(engine, g, source=source, relay=beacon, dest=dest, level=level)
                    assert record.success and not record.broken
                    assert hit is not None and hit[0] == beacon and hit[1] <= level
                    hops = int(oracle_cache[source][beacon])
                    assert record.transmissions == 2 * hops == 2 * (len(hit[2]) - 1)
                    checked += 1
    assert checked >= 3


def test_probe_reports_broken_next_hop_distinctly():
    g = path_graph(4)
    engine, _ = run_round(g, levels=2)
    intact, hit = probe(engine, g, source=0, relay=3, dest=2, level=2)
    assert hit is not None and hit[2] == [0, 1, 2, 3] and not intact.broken
    # The walk on g resolved the next hops toward 3; the severed graph must
    # still break the probe where its edge is gone, and g must heal it again.
    severed = ConnectivityGraph.from_edges(4, [(0, 1), (2, 3)])
    record, hit = probe(engine, severed, source=0, relay=3, dest=2, level=2)
    assert record.broken and not record.success and hit is None
    assert engine._walk(0, 3, 4) == (False, [0, 1])
    assert record.transmissions == 2
    assert probe(engine, g, source=0, relay=3, dest=2, level=2)[0] == intact


def test_probe_hop_budget_aborts_long_chases():
    g = path_graph(6)
    # kappa = 2: every level floods at least 6 hops, so 0 holds an entry toward 5
    engine = ProtocolEngine(6, make_params(levels=3, kappa=2.0))
    engine.beaconing_round(g, t=0, seed=0)
    capped, _ = probe(engine, g, source=0, relay=5, dest=4, level=3, budget=3)
    assert capped.broken and not capped.success
    assert engine._walk(0, 5, 3) == (False, [0, 1, 2, 3])
    assert capped.transmissions == 6
    roomy, _ = probe(engine, g, source=0, relay=5, dest=4, level=3, budget=5)
    assert not roomy.broken
    assert engine._walk(0, 5, 5) == (True, [0, 1, 2, 3, 4, 5])


def test_probe_requires_an_entry_for_the_relay():
    g = path_graph(3)
    engine = ProtocolEngine(3, make_params(levels=1))
    with pytest.raises(ProtocolInvariantError, match="no routing entry"):
        probe(engine, g, source=0, relay=2, dest=1, level=1)


@pytest.mark.parametrize("mode", ["plain", "load_balanced"])
def test_a_probe_of_the_destination_answers_at_level_zero(mode: str):
    """The descent may probe the destination among its candidates; it answers
    for itself at level 0 whatever the stage's level, with no chain
    excursion in load-balanced mode."""
    g = path_graph(9)
    engine, _ = run_round(g, levels=3, mode=mode)
    record, hit = probe(engine, g, source=0, relay=4, dest=4, level=2)
    assert hit == (4, 0, [0, 1, 2, 3, 4])
    assert record == ProbeRecord(relay=4, level=2, success=True, broken=False, transmissions=8, terminus=4)


def test_the_upward_stage_skips_the_destination():
    """Node 0 holds node 4's level-3 flood entry, so 4 is among 0's candidates
    at every level. On a graph that cut the entry's path the direct probe
    breaks, and the upward stage then probes relay 1 alone: the destination
    is asked only directly and by the descent."""
    g = path_graph(9)
    engine, _ = run_round(g, levels=3)
    radius = engine._flood_radius
    assert [engine._table.candidates(0, j, radius(j)).tolist() for j in (1, 2, 3)] == [[1, 4], [4], [4]]
    moved = ConnectivityGraph.from_edges(9, [(i, i + 1) for i in range(8) if i != 2] + [(0, 8)])
    receipt = engine.forward(moved, source=0, dest=4)
    assert receipt.route == (0, 8, 7, 6, 5, 4)
    assert receipt.probes[:3] == (
        ProbeRecord(relay=4, level=3, success=False, broken=True, transmissions=4, terminus=4),
        ProbeRecord(relay=1, level=1, success=False, broken=False, transmissions=2, terminus=1),
        # the ring search's answer, which starts the descent
        ProbeRecord(relay=1, level=3, success=True, broken=False, transmissions=7, terminus=1),
    )
    # the descent probes 4 among its candidates, and again once widened
    # because the probe broke
    assert receipt.probes[5:7] == (ProbeRecord(4, 2, False, True, 2, 4),) * 2


def test_a_broken_probe_is_recorded_and_the_stage_goes_on():
    """A relay whose walk breaks is recorded as broken, and the next relay of
    the stage is still asked."""
    g = path_graph(9)
    engine, _ = run_round(g, levels=3)
    assert engine._table.candidates(0, 0, 6).tolist() == [1, 2, 3, 4]
    severed = ConnectivityGraph.from_edges(9, [(i, i + 1) for i in range(8) if i != 2])
    engine._edge_keys(severed)
    probes: list[ProbeRecord] = []
    # relay 4 is walked first and breaks at the missing edge (2, 3); relay 2
    # holds the level-0 flood entry of node 1
    hit = engine._probe_stage(0, np.array([4, 2]), 1, 1, 6, probes)
    assert hit == (2, 0, [0, 1, 2])
    assert [(p.relay, p.success, p.broken, p.transmissions) for p in probes] == [
        (4, False, True, 4),
        (2, True, False, 4),
    ]


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
    radius = np.array([engine.params.flood_radius(level) for level in range(levels + 1)])
    for t in range(3):
        engine.beaconing_round(g, t=t, seed=5)
        key, dist, _, _ = engine._table._columns()
        assert (dist <= radius[decode_keys(engine._table, key)[2]]).all()
        for u in range(g.n):
            for level in range(levels + 1):
                member = engine.membership(u, level)
                assert member is not None and member.distance <= 2**level


def test_table_keys_stay_sorted_and_unique_with_floods_at_beacon_levels():
    g = random_graph(150, seed=21)
    levels = math.ceil(math.log2(diameter(g).hops))
    engine = ProtocolEngine(g.n, make_params(levels))
    for t in range(2**levels + 1):  # full clears at t=0 and t=2**levels
        report = engine.beaconing_round(g, t=t, seed=4)
        key, _, _, stamp = engine._table._columns()
        assert (np.diff(key) > 0).all()  # sorted, and no key twice
        origin, _, level = decode_keys(engine._table, key)
        # Every origin with a neighbour flooded at step t at its own beacon
        # level, so its neighbours hold a stamp-t entry toward it there.
        fresh = (stamp == t) & (level == engine._beacon_level[origin])
        flooded = np.zeros(g.n, dtype=bool)
        flooded[origin[fresh]] = True
        assert flooded[np.diff(g.csr.indptr) > 0].all()
        # Levels up to gamma were cleared, so nothing there is older than t.
        assert (stamp[level <= report.gamma] >= t).all()


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
    key = engine._table._columns()[0]
    assert int(first[3]) == np.count_nonzero(decode_keys(engine._table, key)[1] == 0)


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
    domain = DomainSpec(side=math.sqrt(n), n=n)
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
    table = engine._table
    columns = table._columns()
    kept = decode_keys(table, columns[0])[0] != dest
    table._set(*(column[kept] for column in columns))
    assert origin_state(engine, dest)[0].size == 0
    receipt = engine.forward(g, source=source, dest=dest)
    assert_route_valid(g, receipt, source, dest)
    assert receipt.route_hops == int(bfs_oracle(g, source)[dest])
    assert any(p.relay == dest and p.success for p in receipt.probes)


def test_ring_search_takes_the_lexicographically_first_shortest_path():
    """With no round run, only the destination answers. Node 6 lies 4 hops
    from node 0 along 0-1-4-5-6 and 0-2-3-5-6; the search takes the first in
    id order, which walking back from 6 to the lowest-id closer neighbour
    would miss. Level 1's radius 6 is the first to reach 4 hops, so the cost
    is the 4 hops back plus the balls of radius 3 (nodes 0-5) and 6 (0-8)."""
    edges = [(0, 1), (0, 2), (1, 4), (2, 3), (3, 5), (4, 5), (5, 6), (6, 7), (7, 8), (8, 9)]
    g = ConnectivityGraph.from_edges(10, edges)
    engine = ProtocolEngine(10, make_params(levels=2))
    record, path = engine._ring_search(g, 0, 6, {0})
    assert path == [0, 1, 4, 5, 6]
    assert record == ProbeRecord(relay=6, level=0, success=True, broken=False, transmissions=19, terminus=6)
    assert engine._ring_search(g, 0, 6, {0, 6}) is None


def test_ring_search_does_not_follow_row_order() -> None:
    """The same records and paths on the built graph and on a copy whose CSR
    rows list each node's neighbours in shuffled order."""
    g = random_graph(300, seed=3)
    levels = math.ceil(math.log2(diameter(g).hops))
    engine, _ = run_round(g, levels=levels, seed=37)
    csr = g.csr
    rng = np.random.default_rng(5)
    shuffled = csr.indices.copy()
    for lo, hi in zip(csr.indptr[:-1].tolist(), csr.indptr[1:].tolist()):
        shuffled[lo:hi] = rng.permutation(shuffled[lo:hi])
    row_shuffled = ConnectivityGraph(g.n, csr_matrix((csr.data, shuffled, csr.indptr), shape=csr.shape))
    far = 0
    for start, dest in rng.integers(g.n, size=(40, 2)).tolist():
        if start == dest:
            continue
        found = engine._ring_search(g, start, dest, {start})
        assert found is not None
        assert engine._ring_search(row_shuffled, start, dest, {start}) == found, (start, dest)
        far += len(found[1]) > 2
    assert far  # some answerer lies past a neighbour of the start


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
    termini = [chain_oracle(engine, u, level) for u in range(g.n) for level in range(levels + 1)]
    assert engine._lb_holder.ravel().tolist() == termini
    assert report.registration_hops > 0
    load = engine.membership_load()
    assert load.tolist() == np.bincount(termini, minlength=g.n).tolist()
    assert load.sum() == g.n * (levels + 1)
    plain, _ = run_round(g, levels=levels, seed=6)
    assert (plain._lb_holder < 0).all()  # a plain round stores no identifier


def test_lb_probe_is_answered_by_the_terminus_not_the_beacon():
    g = random_graph(200, seed=13)
    levels = math.ceil(math.log2(diameter(g).hops))
    engine, _ = run_round(g, levels=levels, seed=6, mode="load_balanced")
    split = None
    for u in range(g.n):
        for level in range(1, levels + 1):
            holder = engine._lb_holder.item(u, level)
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
    lb_load = balanced.membership_load().max()
    assert lb_load <= plain_load


# ---------------------------------------------------------------------------
# Resolved next hops and the flood horizon
# ---------------------------------------------------------------------------


def origin_state(engine: ProtocolEngine, origin: int) -> tuple[np.ndarray, np.ndarray]:
    """The positions of the table entries toward ``origin`` and the nodes
    that hold them, found by scanning the whole table."""
    key = engine._table._columns()[0]
    origins, nodes, _ = decode_keys(engine._table, key)
    held = np.flatnonzero(origins == origin)
    return held, nodes[held]


def best_entry_oracle(
    engine: ProtocolEngine, g: ConnectivityGraph, node: int, state: tuple[np.ndarray, np.ndarray]
) -> Optional[tuple[int, int, int, bool, int]]:
    """The entry ``node`` follows toward an origin, scanned entry by entry
    over the origin's entries (its ``origin_state``): fresher stamp, then
    shorter, then lower level. Returns (level, next hop, stamp, is a
    registration, number of candidates), with next hop -1 where it is no
    neighbour on ``g``. A round's floods write only at their origin's beacon
    level, so a winner at another level is a registration (not conversely: a
    non-elected node's level-0 registrations sit at its own beacon level)."""
    key, dist, next_hop, stamp = engine._table._columns()
    held, nodes = state
    mine = held[nodes == node]
    origins, _, levels = decode_keys(engine._table, key[mine])
    candidates = []
    for i, origin, level in zip(mine.tolist(), origins.tolist(), levels.tolist()):
        rule = (-int(stamp[i]), int(dist[i]), level)
        candidates.append((rule, int(next_hop[i]), origin))
    if not candidates:
        return None
    (neg_stamp, _, level), hop, origin = min(candidates)
    if hop not in g.neighbors(node).tolist():
        hop = -1
    registered = level != engine.beacon_level(origin)
    return level, hop, -neg_stamp, registered, len(candidates)


def check_resolved_next_hops(
    engine: ProtocolEngine, g: ConnectivityGraph, t: int, gamma: int, seen: dict
) -> None:
    """Compare the engine's resolved entry with the oracle at every (node,
    origin): first the entries that earlier look-ups resolved, which must not
    have gone stale, then the rest. Tallies the kinds of winner met into
    ``seen``."""
    engine._edge_keys(g)
    for origin in range(engine.n):
        toward = engine._next_hops[origin]
        seen["resolved_before"] += len(toward)
        state = origin_state(engine, origin)
        for node in [*toward, *(v for v in range(engine.n) if v not in toward)]:
            expected = best_entry_oracle(engine, g, node, state)
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
    domain = DomainSpec(side=math.sqrt(n), n=n)
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
        for _ in range(5):  # walks resolve entries
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
    """A full round on one layout, then a gamma-0 round on another: the
    levels above 0 keep the first layout's registrations, stale and at other
    distances, next to the second round's fresh entries of the same origins."""
    g = random_graph(120, seed=3)
    levels = math.ceil(math.log2(diameter(g).hops))
    engine = ProtocolEngine(g.n, make_params(levels))
    engine.beaconing_round(random_graph(120, seed=5), t=0, seed=37)
    report = engine.beaconing_round(g, t=1, seed=37)
    seen = dict.fromkeys(("resolved_before", "registration", "stale_above_gamma", "broken"), 0)
    seen["contested"] = 0
    severed = ConnectivityGraph.from_edges(g.n, sorted(edge_set(g))[::2])
    for graph in (g, severed):
        check_resolved_next_hops(engine, graph, 1, report.gamma, seen)
    assert seen["contested"] and seen["broken"] and seen["registration"], seen
    assert seen["stale_above_gamma"], seen


def test_resolved_next_hops_do_not_outlive_a_round_on_the_same_graph() -> None:
    g = random_graph(120, seed=3)
    levels = math.ceil(math.log2(diameter(g).hops))
    engine = ProtocolEngine(g.n, make_params(levels))
    seen = dict.fromkeys(("resolved_before", "registration", "stale_above_gamma", "broken"), 0)
    seen["contested"] = 0
    for t in range(4):
        report = engine.beaconing_round(g, t=t, seed=37 + t)
        check_resolved_next_hops(engine, g, t, report.gamma, seen)


def candidates_oracle(engine: ProtocolEngine, node: int, min_level: int, max_distance: int) -> list[int]:
    """A stage's candidates, from ``held_entries``: each origin with an entry
    at level >= ``min_level`` within ``max_distance`` hops, by (shortest such
    distance, id)."""
    nearest: dict[int, int] = {}
    for origin, dist, level, _ in held_entries(engine, node):
        if level >= min_level and dist <= max_distance:
            nearest[origin] = min(dist, nearest.get(origin, dist))
    return sorted(nearest, key=lambda origin: (nearest[origin], origin))


def test_stage_candidates_do_not_outlive_a_round_or_a_graph() -> None:
    """Forwards fill the stage candidate lists, which the table keeps; a
    round on the same graph empties them, and every list kept, also across a
    new graph, matches the table it was read from."""
    g = random_graph(120, seed=3)
    levels = math.ceil(math.log2(diameter(g).hops))
    engine = ProtocolEngine(g.n, make_params(levels))
    rng = np.random.default_rng(41)

    def forward_and_check(graph: ConnectivityGraph) -> None:
        for _ in range(40):
            source, dest = (int(x) for x in rng.choice(g.n, size=2, replace=False))
            engine.forward(graph, source=source, dest=dest)
        kept = engine._table._candidates
        assert kept
        for (node, min_level, max_distance), candidates in kept.items():
            assert candidates.tolist() == candidates_oracle(engine, node, min_level, max_distance)

    for t in range(4):
        engine.beaconing_round(g, t=t, seed=37 + t)
        assert not engine._table._candidates, t
        forward_and_check(g)
    forward_and_check(random_graph(120, seed=5))


def static_engines(mode: str, count: int) -> tuple[ConnectivityGraph, list[ProtocolEngine]]:
    """A static layout (n=300, seed 11) and ``count`` fresh engines on it."""
    g = random_graph(300, seed=11)
    levels = ProtocolParams.levels_for_diameter(diameter(g).hops)
    return g, [ProtocolEngine(g.n, make_params(levels), mode=mode) for _ in range(count)]


def seeded_pairs(rng: np.random.Generator, n: int, count: int) -> list[tuple[int, int]]:
    return [tuple(int(x) for x in rng.choice(n, size=2, replace=False)) for _ in range(count)]


@pytest.mark.parametrize("mode", ["plain", "load_balanced"])
def test_no_probe_breaks_on_a_static_graph(mode: str) -> None:
    """On a graph that does not change, the entries a walk follows lead to
    its relay within the walk's budget, so no probe breaks after any round."""
    g, (engine,) = static_engines(mode, 1)
    rng = np.random.default_rng(11)
    for t in range(4):
        engine.beaconing_round(g, t=t, seed=12)
        for source, dest in seeded_pairs(rng, g.n, 500):
            broken = [probe for probe in engine.forward(g, source, dest).probes if probe.broken]
            assert not broken, (t, source, dest, broken)


@pytest.mark.parametrize("mode", ["plain", "load_balanced"])
def test_a_forwards_receipt_does_not_depend_on_the_forwards_before_it(mode: str) -> None:
    """Within a round a forward reads only the round's state and the graph:
    two engines built alike forward one list of pairs in opposite orders
    and give each pair the same receipt."""
    g, (ahead, behind) = static_engines(mode, 2)
    rng = np.random.default_rng(11)
    for t in range(4):
        for engine in (ahead, behind):
            engine.beaconing_round(g, t=t, seed=12)
        pairs = seeded_pairs(rng, g.n, 500)
        want = [ahead.forward(g, source, dest) for source, dest in pairs]
        got = [behind.forward(g, source, dest) for source, dest in reversed(pairs)]
        for pair, receipt, other in zip(pairs, want, reversed(got)):
            assert other == receipt, (t, pair)


@pytest.mark.parametrize("mode", ["plain", "load_balanced"])
def test_each_origin_is_searched_once_at_its_own_flood_radius(monkeypatch, mode: str):
    """A round searches every origin above level 0 once with predecessors,
    at the flood radius of the level it ends the round at, in searches of at
    most ``_BFS_BLOCK`` origins, and no level-0 origin at all: on a first
    round (every level open) and on the rounds after it, where the levels
    above gamma stay put. The table's first read after the round searches
    every level-0 origin once with predecessors at its flood radius, and a
    second read searches nothing. The report counts the level-0
    transmissions on its first read: after the table's first read with no
    search, before it with one search per level-0 origin without
    predecessors to radius - 1 hops (the nodes that rebroadcast), and so
    after a clear dropped the write. An unread round whose table the next
    round clears unread makes no level-0 search of any kind."""
    import beaconsim.graph as graph

    g = random_graph(700, seed=5)
    levels = math.ceil(math.log2(diameter(g).hops))
    engine = ProtocolEngine(g.n, make_params(levels), mode=mode)
    searches: list[tuple[bool, float, list[int]]] = []
    real_dijkstra = graph.dijkstra

    def recording_dijkstra(csgraph, **kwargs):
        sources = np.atleast_1d(kwargs["indices"]).tolist()
        searches.append((bool(kwargs.get("return_predecessors")), kwargs.get("limit"), sources))
        return real_dijkstra(csgraph, **kwargs)

    def level_0_searches(ground: list[int]) -> tuple[list[int], list[int]]:
        """The sources of the recorded searches from level-0 origins at
        their flood radius with predecessors, and at radius - 1 without."""
        written, counted = [], []
        for predecessors, limit, sources in searches:
            if set(sources) <= set(ground):  # the round's own start from nodes above level 0
                assert len(sources) <= graph._BFS_BLOCK
                if predecessors and limit == radius(0):
                    written.extend(sources)
                elif not predecessors and limit == radius(0) - 1:
                    counted.extend(sources)
        return sorted(written), sorted(counted)

    def read_table_twice(ground: list[int]) -> None:
        searches.clear()
        engine.dump_state_csv(io.StringIO())
        assert {(p, limit) for p, limit, _ in searches} == {(True, float(radius(0)))}
        assert level_0_searches(ground) == (ground, [])
        searches.clear()
        engine.dump_state_csv(io.StringIO())
        assert not searches

    def read_report(report: RoundReport, counted: list[int]) -> None:
        searches.clear()
        assert report.flood_transmissions > 0
        assert level_0_searches(counted) == ([], counted)
        assert len(searches) == math.ceil(len(counted) / graph._BFS_BLOCK)
        searches.clear()
        assert report.control_packets > report.flood_transmissions and report.control_bits > 0
        assert not searches

    monkeypatch.setattr(graph, "dijkstra", recording_dijkstra)
    radius = engine.params.lb_flood_radius if mode == "load_balanced" else engine.params.flood_radius
    reports, grounds = [], []
    for t in range(4):
        searches.clear()
        reports.append(engine.beaconing_round(g, t=t, seed=37))
        grounds.append([u for u in range(g.n) if engine.beacon_level(u) == 0])
        above = [u for predecessors, _, sources in searches if predecessors for u in sources]
        for predecessors, limit, sources in searches:
            if predecessors:
                assert 1 <= len(sources) <= graph._BFS_BLOCK
                assert {float(radius(engine.beacon_level(u))) for u in sources} == {limit}
        assert sorted(above) == sorted(set(range(g.n)) - set(grounds[t])), t
        assert level_0_searches(grounds[t]) == ([], []), t
        if t == 0:  # the report first, then the table
            read_report(reports[t], grounds[t])
            read_table_twice(grounds[t])
        elif t == 1:  # the table first, then the report
            read_table_twice(grounds[t])
            read_report(reports[t], [])
        elif t == 3:  # t = 2 was not read and its write is dropped unwritten
            assert level_0_searches(grounds[2]) == ([], []), t
            read_report(reports[2], grounds[2])
    assert len({level for level in map(engine.beacon_level, range(g.n))}) > 2


def deferred_runs():
    """Seeded (name, graphs, nu, steps) runs; a step (t, read) is a round at
    step t on the next graph, followed, where ``read`` is set, by forwards
    and a comparison of the tables."""
    n = 120
    domain = DomainSpec(side=math.sqrt(n), n=n)
    positions = sample_uniform_positions(n, domain, 83)
    r_n = math.sqrt(2.0 * math.log(n))
    mobile = [build_geometric_graph(positions, r_n)]
    for t in range(1, 8):
        positions = step(RandomWalk(max_speed=1.0), positions, domain, seed=89, t=t)
        mobile.append(build_geometric_graph(positions, r_n))
    return [
        # nu = 1: every round clears level 0, so the rounds after the unread
        # rounds 1, 2 and 4 drop their pending writes
        ("nu1", mobile, 1, [(0, True), (1, False), (2, False), (3, True), (4, False), (5, True)]),
        # nu = 2: the odd rounds have gamma = -1 and merge onto the table,
        # after the unread round before them is written at its own step
        ("nu2", mobile, 2, [(0, False), (1, True), (2, False), (3, True), (4, True), (5, False), (6, True)]),
        # two rounds at one step on moved graphs: with gamma = 0 the second
        # drops the first's level-0 cells, with gamma = -1 it merges onto them
        ("same-step", mobile, 1, [(0, True), (1, False), (1, True), (2, True)]),
        ("same-step-nu2", mobile, 2, [(0, True), (1, False), (1, True), (2, True)]),
        # a round that raises before it clears keeps the pending write
        ("raising-round", mobile, 1, [(0, False), (-1, True), (1, False), (1, True)]),
    ]


@pytest.mark.parametrize("mode", ["plain", "load_balanced"])
def test_deferred_level_0_writes_match_a_table_read_after_every_round(mode: str) -> None:
    """An engine whose table and report are read after every round, so each
    round's level-0 flood is counted by a search of the report's own and
    written before the next round, and engines read only after some rounds
    give equal reports (or errors), equal receipts (or errors) and equal
    table columns wherever they are read. Three deferred engines read their
    reports at three points: as the round returns (the report's own count),
    after the round's forwards (counted from the write's cells where there
    were forwards) and after the next round (the write dropped or merged by
    then); each must equal the eager report, by ``==`` and by repr."""

    def round_outcome(engine: ProtocolEngine, g: ConnectivityGraph, t: int):
        try:
            return engine.beaconing_round(g, t=t, seed=101)
        except (ParameterError, ProtocolInvariantError) as exc:
            return exc

    def assert_same(got, want, where) -> None:
        assert repr(got) == repr(want), where
        if isinstance(want, RoundReport):
            assert got == want, where

    for name, graphs, nu, steps in deferred_runs():
        eager, *deferred = (
            ProtocolEngine(graphs[0].n, make_params(3, nu=nu), mode=mode) for _ in range(4)
        )
        rng = np.random.default_rng(97)
        unread = None  # the report of the round before, kept unread
        for i, (t, read) in enumerate(steps):
            g = graphs[i]
            want = round_outcome(eager, g, t)
            repr(want)  # counts with the report's own search, before the write
            eager._table._columns()
            at_once, after_forwards, after_next = (round_outcome(e, g, t) for e in deferred)
            assert_same(at_once, want, (name, i, "at once"))
            if unread is not None:
                assert_same(*unread, (name, i - 1, "after the next round"))
            unread = (after_next, want)
            if read:
                for _ in range(20):
                    source, dest = (int(x) for x in rng.choice(g.n, size=2, replace=False))
                    expected = forward_outcome(lambda: eager.forward(g, source, dest))
                    for engine in deferred:
                        got = forward_outcome(lambda: engine.forward(g, source, dest))
                        assert got == expected, (name, i)
                for engine in deferred:
                    for want_column, column in zip(eager._table._columns(), engine._table._columns()):
                        assert column.dtype == want_column.dtype, (name, i)
                        assert column.tolist() == want_column.tolist(), (name, i)
            assert_same(after_forwards, want, (name, i, "after the forwards"))
        assert_same(*unread, (name, "last", "after the run"))


@pytest.mark.parametrize("mode", ["plain", "load_balanced"])
def test_a_counted_report_lets_go_of_its_rounds_graph(mode: str) -> None:
    """Once a round's report is counted and the table has written or dropped
    the round's level-0 cells, nothing of the engine's or the report's holds
    the round's graph: whether the report counted first (nu = 1) or the
    table's write counted for it (after forwards, or a gamma = -1 round's
    merge with nu = 2, the report still unread). A report dropped unread
    holds no graph past the next round."""
    import gc
    import weakref

    def forward_some(engine: ProtocolEngine, g: ConnectivityGraph) -> None:
        for source, dest in ((0, 60), (7, 101), (33, 2)):
            engine.forward(g, source, dest)

    def dead(ref: weakref.ref) -> bool:
        gc.collect()
        return ref() is None

    engine = ProtocolEngine(120, make_params(3), mode=mode)
    g = random_graph(120, seed=3)
    report, ref = engine.beaconing_round(g, t=0, seed=37), weakref.ref(g)
    assert report.flood_transmissions > 0  # counted before any table read
    g = random_graph(120, seed=5)
    kept = [report]
    report = engine.beaconing_round(g, t=1, seed=37)  # drops t = 0's write
    assert dead(ref)
    forward_some(engine, g)  # writes t = 1's cells, which count the report
    kept.append(report)
    ref = weakref.ref(g)
    g = random_graph(120, seed=7)
    engine.beaconing_round(g, t=2, seed=37)  # its report is dropped unread
    forward_some(engine, g)
    assert dead(ref) and kept[1].flood_transmissions > 0
    ref = weakref.ref(g)
    g = random_graph(120, seed=11)
    engine.beaconing_round(g, t=3, seed=37)
    forward_some(engine, g)
    assert dead(ref)

    engine = ProtocolEngine(120, make_params(3, nu=2), mode=mode)
    g = random_graph(120, seed=3)
    unread, ref = engine.beaconing_round(g, t=0, seed=37), weakref.ref(g)
    g = random_graph(120, seed=5)
    engine.beaconing_round(g, t=1, seed=37)  # gamma = -1 merges t = 0's write
    assert dead(ref) and unread.flood_transmissions > 0


@pytest.mark.parametrize("mode", ["plain", "load_balanced"])
def test_a_round_and_its_first_read_make_one_table_merge(monkeypatch, mode: str) -> None:
    """A round only holds its table write: the table's first read after it
    makes one merge, whose last runs are the round's level-0 cells, and a
    second read makes none. An unread round's write is applied by the next
    round in one merge: with nu = 1 that round clears level 0, so the write
    goes without a level-0 search, and with nu = 2 a gamma = -1 round applies
    it with its level-0 cells."""
    cells: list[tuple[np.ndarray, ...]] = []
    real_cells = _GroundFloods.cells

    def recording_cells(floods: _GroundFloods):
        for block in real_cells(floods):
            cells.append(block)
            yield block

    def recorded_engine(nu: int) -> tuple[ProtocolEngine, list]:
        engine = ProtocolEngine(g.n, make_params(3, nu=nu), mode=mode)
        merges, real_merge = [], engine._table.merge

        def recording_merge(t: int, runs: list) -> None:
            merges.append((t, [run[0].tolist() for run in runs]))
            real_merge(t, runs)

        engine._table.merge = recording_merge
        return engine, merges

    def one_merge(engine: ProtocolEngine, merges: list, t: int, searched: bool) -> None:
        """Since the last check: one merge at step ``t``, ending in the runs
        of the level-0 cells searched, and a level-0 search iff ``searched``."""
        table = engine._table
        ground = [table.run(origin, node, 0, dist, pred)[0].tolist() for origin, node, dist, pred in cells]
        assert [step for step, _ in merges] == [t]
        assert bool(ground) == searched
        runs = merges[0][1]
        assert runs[len(runs) - len(ground) :] == ground
        merges.clear()
        cells.clear()

    monkeypatch.setattr(_GroundFloods, "cells", recording_cells)
    g = random_graph(120, seed=3)
    engine, merges = recorded_engine(nu=1)
    engine.beaconing_round(g, t=0, seed=37)
    assert merges == [] and cells == []
    engine.dump_state_csv(io.StringIO())
    one_merge(engine, merges, 0, searched=True)
    engine.dump_state_csv(io.StringIO())
    assert merges == [] and cells == []
    engine.beaconing_round(g, t=1, seed=37)  # unread
    assert merges == [] and cells == []
    engine.beaconing_round(g, t=2, seed=37)  # gamma = 1 applies t = 1's write
    one_merge(engine, merges, 1, searched=False)
    engine.dump_state_csv(io.StringIO())
    one_merge(engine, merges, 2, searched=True)

    engine, merges = recorded_engine(nu=2)
    engine.beaconing_round(g, t=0, seed=37)  # unread
    engine.beaconing_round(g, t=1, seed=37)  # gamma = -1 applies t = 0's write
    one_merge(engine, merges, 0, searched=True)
    engine.dump_state_csv(io.StringIO())
    one_merge(engine, merges, 1, searched=True)


# ---------------------------------------------------------------------------
# The table merge rule and the BFS tie rule
# ---------------------------------------------------------------------------


def test_table_merge_matches_the_pairwise_fold() -> None:
    """Random held entries (stamps below, at and above t) and several
    writers over a small key space, so that keys meet often and at equal
    distances. The merge must leave what writing one entry at a time leaves:
    a later write replaces the held entry iff that is older than t or the
    write is strictly shorter. The same runs shuffled leave the same table:
    the merge does not depend on the order within a run."""
    rng = np.random.default_rng(61)
    n, levels, t = 5, 2, 4
    keys = np.arange(n * n * (levels + 1))
    seen = dict.fromkeys(("stale_replaced_by_longer", "fresh_kept_on_a_tie", "later_writer_shorter"), 0)
    for _ in range(300):
        table = _Table(n, levels)
        held = np.sort(rng.choice(keys, size=int(rng.integers(0, 40)), replace=False))
        columns = (
            rng.integers(1, 4, held.size),
            rng.integers(0, n, held.size),
            t + rng.integers(-1, 2, held.size),
        )
        table._set(held, *columns)
        shuffled = _Table(n, levels)
        shuffled._set(held, *columns)
        expected = {key: entry for key, *entry in zip(held.tolist(), *(c.tolist() for c in columns))}
        runs = []
        for _ in range(int(rng.integers(1, 5))):
            written = np.sort(rng.choice(keys, size=int(rng.integers(0, 40)), replace=False))
            dist, hop = rng.integers(1, 4, written.size), rng.integers(0, n, written.size)
            runs.append((written, dist, hop))
            for key, d, h in zip(written.tolist(), dist.tolist(), hop.tolist()):
                cur = expected.get(key)
                if cur is None or cur[2] < t or d < cur[0]:
                    if cur is not None:
                        seen["stale_replaced_by_longer"] += cur[2] < t and d > cur[0]
                        seen["later_writer_shorter"] += cur[2] == t and d < cur[0]
                    expected[key] = [d, h, t]
                else:
                    seen["fresh_kept_on_a_tie"] += d == cur[0]
        table.merge(t, runs)
        got = {
            key: list(entry)
            for key, *entry in zip(*(column.tolist() for column in table._columns()))
        }
        assert table.key.tolist() == sorted(expected)
        assert got == expected
        mixed = []
        for run in runs:
            order = rng.permutation(run[0].size)
            mixed.append(tuple(column[order] for column in run))
        shuffled.merge(t, mixed)
        for column, want in zip(shuffled._columns(), table._columns(), strict=True):
            assert column.dtype == want.dtype and column.tolist() == want.tolist()
    assert all(seen.values()), seen


def test_a_table_entry_takes_sixteen_bytes_below_65536_nodes() -> None:
    """Key, distance, next hop and stamp: 8 + 2 + 2 + 4 bytes at n=1000,
    after a round has merged its writes into the table. After forwards and
    a state dump have read it, those columns are still the only arrays the
    table holds, bar its stage-candidate memo: it keeps no derived index."""
    g = random_graph(1000, seed=11)
    engine, _ = run_round(g, levels=math.ceil(math.log2(diameter(g).hops)))
    columns = engine._table._columns()
    assert columns[0].size > 0
    assert sum(column.itemsize for column in columns) == 16
    for source, dest in np.random.default_rng(3).choice(g.n, size=(5, 2), replace=False).tolist():
        engine.forward(g, source, dest)
    engine.dump_state_csv(io.StringIO())
    assert engine._table._candidates  # the forwards read stage candidates

    def arrays(value) -> list[np.ndarray]:
        if isinstance(value, np.ndarray):
            return [value]
        if isinstance(value, (tuple, list)):
            return [array for item in value for array in arrays(item)]
        return []

    held = [
        array
        for name, value in vars(engine._table).items()
        if name != "_candidates"
        for array in arrays(value)
    ]
    assert sum(array.nbytes for array in held) == 16 * engine._table._columns()[0].size


def test_table_rejects_node_counts_whose_merge_ranks_overflow() -> None:
    with pytest.raises(ParameterError, match="overflow"):
        _Table(700_000, 19)  # 2 * 20 * n**3 passes 2**63; raised before any allocation


@pytest.mark.parametrize("limit", [3, 6])
def test_reach_predecessor_is_the_highest_id_neighbour_one_hop_closer(limit: int) -> None:
    """The tie rule every pinned digest relies on: each node that ``_reach``
    finds within ``limit`` hops has the brute-force BFS distance, and its
    predecessor is its highest-id neighbour one hop closer to the source.
    The rule holds on the built graph, whose CSR rows are sorted, and on the
    same graph with each row's column indices shuffled, so it does not
    follow the order of a row."""
    g = random_graph(1000, seed=11)
    csr = g.csr
    rng = np.random.default_rng(limit)
    shuffled = csr.indices.copy()
    for lo, hi in zip(csr.indptr[:-1].tolist(), csr.indptr[1:].tolist()):
        shuffled[lo:hi] = rng.permutation(shuffled[lo:hi])
    assert not np.array_equal(shuffled, csr.indices)
    row_shuffled = ConnectivityGraph(g.n, csr_matrix((csr.data, shuffled, csr.indptr), shape=csr.shape))
    adjacency = [g.neighbors(u).tolist() for u in range(g.n)]
    sources = np.arange(7, g.n, 37)
    expected = {}
    for source in sources.tolist():
        depth = {source: 0}
        frontier = [source]
        for d in range(1, limit + 1):
            reached = []
            for u in frontier:
                for v in adjacency[u]:
                    if v not in depth:
                        depth[v] = d
                        reached.append(v)
            frontier = reached
        for v, d in depth.items():
            closer = [w for w in adjacency[v] if depth.get(w) == d - 1]
            expected[source, v] = (d, max(closer) if closer else None)
    for graph in (g, row_shuffled):
        origin, node, dist, pred = (
            np.concatenate(column) for column in zip(*_reach(graph, sources, limit))
        )
        got = {
            (o, v): (d, p if d else None)
            for o, v, d, p in zip(origin.tolist(), node.tolist(), dist.tolist(), pred.tolist())
        }
        assert got == expected


# ---------------------------------------------------------------------------
# Equivalence gate: pinned digests of every observable of the engine
# ---------------------------------------------------------------------------

# Digests of the runs below, computed with numpy 2.4 / scipy 1.17. Every next
# hop is a scipy BFS predecessor, whose tie order scipy does not document, so
# a change of BFS source (or of the scipy stack) re-derives these values.
PINNED_DIGESTS = {
    "mobile-plain": "f43191238126fd80e7f7718c004f6ae084cb6bfac82429e5291ce5b01d4b8663",
    "mobile-load_balanced": "754405832b2c3f88a2fb304dbcceabc405f465fa23d31f8184a5e3c9814899e1",
    "mobile-plain-nu2": "d408a6c5f7abc3b2f4ef5c5ba0d23d7ffb5f2dbd1aecdc22ab69fe319a005b26",
    "first-round-at-t3": "8077b51e252dc1d4c0850d6c731adc6d2167cf5566582c93b440acc019941f4f",
}


def engine_observables(engine: ProtocolEngine) -> list[str]:
    """The engine's state, as text: routing tables, the state CSV, membership
    loads, memberships, member lists and the (member, level) identifiers each
    node holds in load-balanced mode."""
    levels = engine.params.levels
    buf = io.StringIO()
    engine.dump_state_csv(buf)
    parts = [buf.getvalue(), repr(engine.membership_load().tolist())]
    for u in range(engine.n):
        parts.append(repr(held_entries(engine, u)))
        parts.append(repr([engine.membership(u, level) for level in range(levels + 1)]))
        parts.append(repr([sorted(engine.member_list(u, level)) for level in range(levels + 1)]))
        parts.append(repr([tuple(key) for key in np.argwhere(engine._lb_holder == u).tolist()]))
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
    domain = DomainSpec(side=math.sqrt(n), n=n)
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


EQUIVALENCE_RUNS = {
    # 2**L + 2 rounds: full clears at t=0 and t=2**L, partial clears between.
    "mobile-plain": lambda: mobile_run_digest("plain"),
    "mobile-load_balanced": lambda: mobile_run_digest("load_balanced"),
    # nu=2 leaves every odd round with gamma=-1, so no level is cleared.
    "mobile-plain-nu2": lambda: mobile_run_digest("plain", nu=2, rounds=9),
    # The first round at t=3 clears only level 0 of an empty engine, so nodes
    # are elected above gamma and flood to their own level's radius.
    "first-round-at-t3": lambda: mobile_run_digest("plain", first_t=3, rounds=6),
}


@pytest.mark.parametrize("name", sorted(EQUIVALENCE_RUNS))
def test_engine_observables_match_pinned_digests(name: str) -> None:
    assert EQUIVALENCE_RUNS[name]() == PINNED_DIGESTS[name]


# ---------------------------------------------------------------------------
# Sequential reference: the round with the nodes acting one at a time
# ---------------------------------------------------------------------------


class SequentialRound:
    """The beaconing round as the nodes act one at a time in pi order, on an
    engine's own state: the reference that the closed-form round must
    reproduce.

    Each node in turn takes the highest level still empty in its membership
    row (level 0, not elected, when none is), floods, lets the nodes its
    cover radius reaches join at their empty levels, and walks each join's
    registration back hop by hop. Searches run 256 origins per scipy call,
    each to the flood radius of the highest level still empty in its row
    when its block starts. While a call runs, each node's flood cells and
    registrations are held in one dict keyed (origin, level), written one
    entry at a time, and the dicts are written into the engine's table when
    the call ends.
    """

    CHUNK = 256

    def __init__(self, engine: ProtocolEngine) -> None:
        self.engine = engine
        key, dist, hop, stamp = engine._table._columns()
        # node -> {(origin, level): (distance, next hop, stamp)}
        self.tables: list[dict[tuple[int, int], tuple[int, int, int]]] = [{} for _ in range(engine.n)]
        origin, node, level = decode_keys(engine._table, key)
        columns = (origin, node, level, dist, hop, stamp)
        for o, v, lvl, *entry in zip(*(column.tolist() for column in columns)):
            self.tables[v][o, lvl] = tuple(entry)

    def commit(self) -> None:
        table = self.engine._table
        entries = np.array(
            [
                (encode_keys(table, origin, node, level), *entry)
                for node, held in enumerate(self.tables)
                for (origin, level), entry in held.items()
            ],
            dtype=np.int64,
        ).reshape(-1, 4)
        table._set(*entries[np.argsort(entries[:, 0])].T.copy())

    def post(self, node: int, origin: int, level: int, distance: int, hop: int, t: int) -> None:
        """One write: it replaces the entry that ``node`` holds for (origin,
        level) when that was written before ``t`` or is strictly longer."""
        held = self.tables[node].get((origin, level))
        if held is None or held[2] < t or distance < held[0]:
            self.tables[node][origin, level] = (distance, hop, t)

    # -- the round -------------------------------------------------------

    def round(self, g: ConnectivityGraph, t: int, seed: int = 0) -> RoundReport:
        engine = self.engine
        engine._check_graph(g)
        if t < 0:
            raise ParameterError(f"time step must be >= 0, got {t}")
        params = engine.params
        levels = params.levels
        lb = engine.mode == "load_balanced"
        flood_bits = params.flood_packet_bits(engine.n, lb=lb)
        member_bits = params.membership_packet_bits(engine.n)
        qualifying = [j for j in range(levels + 1) if t % (params.nu << j) == 0]
        gamma = max(qualifying) if qualifying else -1

        engine._next_hops.clear()
        for held in self.tables:
            for key in [key for key in held if key[1] <= gamma]:
                del held[key]
        engine._beacon[:, : gamma + 1] = -1

        rng = np.random.default_rng((seed, t))
        pi = [int(u) for u in rng.permutation(engine.n)]
        elected: dict[int, list[int]] = {level: [] for level in range(levels + 1)}
        cover = np.array([params.cover_radius(level) for level in range(levels + 1)])
        flood_tx = membership_packets = membership_hops = control_bits = 0
        try:
            for start in range(0, engine.n, self.CHUNK):
                chunk = pi[start : start + self.CHUNK]
                rows = self.flood_rows(g, chunk, gamma)
                for u in chunk:
                    beta = engine._beacon_level.item(u)
                    if beta <= gamma:
                        beta = self.highest_empty(u)
                        if beta >= 0:
                            elected[beta].append(u)
                        else:
                            beta = 0  # already a member at every level
                        engine._beacon_level[u] = beta
                    dist_row, pred_row = rows[u]
                    reached, reached_dist, sent = self.post_flood(
                        u, beta, engine._flood_radius(beta), dist_row, pred_row, t
                    )
                    flood_tx += sent
                    control_bits += sent * flood_bits
                    covered = np.searchsorted(reached_dist, params.cover_radius(beta), side="right")
                    cells = reached[:covered]
                    d = reached_dist[:covered].astype(np.int64)
                    join_at, join_level = np.nonzero(
                        (engine._beacon[cells, : beta + 1] < 0) & (d[:, None] <= cover[: beta + 1])
                    )
                    joiners = cells[join_at]
                    join_dist = d[join_at]
                    engine._beacon[joiners, join_level] = u
                    engine._member_dist[joiners, join_level] = join_dist
                    engine._member_step[joiners, join_level] = t
                    hops = int(join_dist.sum())
                    membership_packets += int(np.count_nonzero(join_dist))
                    membership_hops += hops
                    control_bits += hops * member_bits
                    for v, level, distance in zip(joiners.tolist(), join_level.tolist(), join_dist.tolist()):
                        toward = v
                        for hop_count in range(1, distance + 1):
                            w = pred_row.item(toward)
                            self.post(w, v, level, hop_count, toward, t)
                            toward = w
        finally:
            self.commit()

        engine._assert_cover_complete()
        engine._assert_separation(g, elected)
        registration_hops = 0
        if lb:
            registration_hops = engine._rebuild_lb_store(levels)
            control_bits += registration_hops * member_bits
        return RoundReport(
            gamma=gamma,
            elected={level: tuple(sorted(nodes)) for level, nodes in elected.items()},
            control_packets=flood_tx + membership_hops + registration_hops,
            control_bits=control_bits,
            flood_transmissions=flood_tx,
            membership_packets=membership_packets,
            membership_hops=membership_hops,
            registration_hops=registration_hops,
        )

    # -- one origin at a time ------------------------------------------------

    def highest_empty(self, u: int) -> int:
        empty = np.flatnonzero(self.engine._beacon[u] < 0)
        return empty.item(-1) if empty.size else -1

    def flood_rows(self, g: ConnectivityGraph, chunk: list[int], gamma: int) -> dict:
        engine = self.engine
        by_limit: dict[int, list[int]] = {}
        for u in chunk:
            beta = engine._beacon_level.item(u)
            if beta <= gamma:
                beta = max(0, self.highest_empty(u))
            by_limit.setdefault(engine._flood_radius(beta), []).append(u)
        rows = {}
        for limit, sources in by_limit.items():
            dist, pred = dijkstra(
                g.csr, unweighted=True, indices=sources, limit=float(limit), return_predecessors=True
            )
            for row, u in enumerate(sources):
                rows[u] = (dist[row], pred[row])
        return rows

    def post_flood(self, origin, level, radius, dist_row, pred_row, t):
        """Write one flood cell by cell; returns the reached nodes sorted by
        (distance, id), their distances and the transmission count."""
        reached = np.flatnonzero(dist_row <= radius)
        reached_dist = dist_row[reached]
        order = np.argsort(reached_dist, kind="stable")
        reached, reached_dist = reached[order], reached_dist[order]
        for node, distance in zip(reached[1:].tolist(), reached_dist[1:].tolist()):
            self.post(node, origin, level, int(distance), pred_row.item(node), t)
        return reached, reached_dist, int(np.searchsorted(reached_dist, radius - 1, side="right"))


def outcome(call) -> str:
    """The repr of what ``call`` returns, or of the beaconsim error it raises."""
    try:
        return repr(call())
    except (ParameterError, ProtocolInvariantError) as exc:
        return repr(exc)


def differential_runs():
    """Seeded (name, graphs, nu, round seed, steps) cases, run on one graph after
    another. A step is a round ``("round", t)`` or ``("clear", gamma)``, which
    clears the memberships and table entries up to gamma as a round does but
    keeps every beacon level, so kept nodes hold empty cells."""
    n = 120
    domain = DomainSpec(side=math.sqrt(n), n=n)
    positions = sample_uniform_positions(n, domain, 43)
    r_n = math.sqrt(2.0 * math.log(n))
    mobile = [build_geometric_graph(positions, r_n)]
    for t in range(1, 10):
        positions = step(RandomWalk(max_speed=1.0), positions, domain, seed=47, t=t)
        mobile.append(build_geometric_graph(positions, r_n))
    # four components, one an isolated node
    sparse = build_geometric_graph(sample_uniform_positions(n, domain, 53), 0.5 * r_n)
    g = random_graph(90, seed=7)
    same_step = [("round", 0), ("round", 1), ("round", 1)]
    return [
        # t = 0..9 with nu = 1: gamma runs through L, 0, 1, 0, 2, 0, 1, 0, 3, 0
        ("mobile", mobile, 1, 59, [("round", t) for t in range(10)]),
        # nu = 2: every odd round has gamma = -1 and clears nothing
        ("mobile-nu2", mobile, 2, 59, [("round", t) for t in range(7)]),
        ("first-round-at-t3", mobile, 1, 59, [("round", t) for t in range(3, 9)]),
        ("odd-first-round-nu2", mobile, 2, 59, [("round", t) for t in range(1, 5)]),
        ("disconnected", [sparse], 1, 59, [("round", t) for t in range(5)]),
        # kept level-1 and level-2 nodes with empty cells up to level 2, joined
        # by beacons that come before or after them in pi (node 1 at level 1
        # joins a pi-later level-2 beacon)
        ("cleared-levels", mobile, 1, 42, [("round", 0), ("round", 1), ("round", 2), ("clear", 2), ("round", 3)]),
        # a second round at t=1 (gamma = 0): its writes above level 0 meet
        # held entries of their own step, on the same graph and on a moved one
        ("same-step-round", [g], 1, 59, same_step),
        ("same-step-round-mobile", mobile, 1, 59, same_step),
        ("one-node", [ConnectivityGraph.from_edges(1, [])], 1, 59, [("round", t) for t in range(5)]),
        ("two-nodes", [path_graph(2)], 2, 59, [("round", t) for t in range(5)]),
    ]


@pytest.mark.parametrize("mode", ["plain", "load_balanced"])
def test_closed_form_round_matches_the_sequential_reference(mode: str) -> None:
    """Every report and error of the closed-form round equals that of the
    sequential reference, and so does every observable after each round."""
    for name, graphs, nu, seed, steps in differential_runs():
        # three levels: the connected graphs are 5 or 6 hops across
        closed = ProtocolEngine(graphs[0].n, make_params(3, nu=nu), mode=mode)
        reference = ProtocolEngine(graphs[0].n, make_params(3, nu=nu), mode=mode)
        sequential = SequentialRound(reference)
        rounds = 0
        for i, action in enumerate(steps):
            g = graphs[min(rounds, len(graphs) - 1)]
            if action[0] == "clear":
                for engine in (closed, reference):
                    engine._table.clear(action[1])
                    engine._beacon[:, : action[1] + 1] = -1
                sequential = SequentialRound(reference)
                continue
            t = action[1]
            got = outcome(lambda: closed.beaconing_round(g, t=t, seed=seed))
            want = outcome(lambda: sequential.round(g, t=t, seed=seed))
            rounds += 1
            assert got == want, (name, i, action)
            assert engine_observables(closed) == engine_observables(reference), (name, i, action)



# ---------------------------------------------------------------------------
# Per-candidate reference: the forward with one probe call per candidate
# ---------------------------------------------------------------------------


class ProbeResult(NamedTuple):
    success: bool
    broken: bool
    path: tuple[int, ...]
    transmissions: int
    found_level: int
    terminus: int


class PerCandidateForward:
    """The forward as it reads when every candidate is probed on its own, on
    an engine's own state: the reference that ``ProtocolEngine.forward``
    must reproduce, receipt for receipt.

    Each stage sorts the node's table entries afresh, and each candidate is
    walked, asked and recorded through its own calls; the table answers one
    relay at a time. The ring search asks each node as it reaches it. The
    entries that walks follow, the chain steps and the route checks are the
    engine's own. ``seen`` tallies the paths the runs took.
    """

    def __init__(self, engine: ProtocolEngine) -> None:
        self.engine = engine
        self.seen = dict.fromkeys(
            ("broken", "chain_broken", "dest_skipped", "firm_skipped", "widened", "ring_search"), 0
        )

    def forward(self, g: ConnectivityGraph, source: int, dest: int) -> ForwardReceipt:
        engine = self.engine
        engine._check_node(source)
        engine._check_node(dest)
        engine._check_graph(g)
        if source == dest:
            return ForwardReceipt(route=(), route_hops=0, probe_transmissions=0, probes=())
        radius_fn = engine._flood_radius
        levels = engine.params.levels
        probes: list[ProbeRecord] = []
        legs: list[tuple[int, ...]] = []
        holder: Optional[int] = None
        found_level = -1

        own = np.flatnonzero(engine._beacon[dest] == source)
        if own.size:
            holder = source
            found_level = own.item(0)
            legs.append((source,))
        if holder is None:
            direct = self.entry(g, source, dest)
            if direct is not None:
                result = self.probe(g, source, dest, dest, levels, budget=radius_fn(direct[0]))
                probes.append(self.record(result, dest, levels))
                if result.success:
                    holder = dest
                    legs.append(result.path)
        if holder is None:
            for j in range(1, levels + 1):
                for relay in self.stage_candidates(source, j, radius_fn(j), skip=(source, dest)):
                    result = self.probe(g, source, relay, dest, j, budget=radius_fn(j))
                    probes.append(self.record(result, relay, j))
                    if result.success:
                        holder = relay
                        found_level = result.found_level
                        legs.append(result.path)
                        break
                if holder is not None:
                    break
        if holder is None:
            found = self.ring_search(g, source, dest, {source})
            if found is None:
                engine._fail(g, source, dest, "no probed beacon knows the destination")
            record, path = found
            holder, found_level = record.relay, record.level
            probes.append(record)
            legs.append(path)

        transmissions = sum(p.transmissions for p in probes)
        current = holder
        level = found_level
        visited = {source, holder}
        while current != dest:
            direct = self.entry(g, current, dest)
            if direct is not None:
                result = self.probe(g, current, dest, dest, levels, budget=radius_fn(direct[0]))
                probes.append(self.record(result, dest, direct[0]))
                transmissions += result.transmissions
                if result.success:
                    legs.append(result.path)
                    break
            advanced = False
            if level >= 1:
                attempted: dict[int, bool] = {}
                for widen in (False, True):
                    self.seen["widened"] += widen
                    reach = radius_fn(level if widen else level - 1)
                    for relay in self.stage_candidates(current, level - 1, reach, skip=(current,)):
                        if attempted.get(relay, False):
                            self.seen["firm_skipped"] += 1
                            continue
                        result = self.probe(g, current, relay, dest, level - 1, budget=reach)
                        probes.append(self.record(result, relay, level - 1))
                        transmissions += result.transmissions
                        attempted[relay] = not result.broken
                        if result.success:
                            legs.append(result.path)
                            current = relay
                            level = result.found_level
                            advanced = True
                            break
                    if advanced:
                        break
            if advanced:
                continue
            found = self.ring_search(g, current, dest, visited)
            if found is None:
                engine._fail(
                    g, source, dest,
                    f"holder {current} heard no answer for the destination"
                    " at the widest flood radius",
                )
            record, path = found
            probes.append(record)
            transmissions += record.transmissions
            legs.append(path)
            visited.add(record.relay)
            current = record.relay
            level = record.level

        route = _loop_erase(leg_node for leg in legs for leg_node in leg)
        engine._check_route(g, route, source, dest)
        return ForwardReceipt(
            route=route, route_hops=len(route) - 1, probe_transmissions=transmissions, probes=tuple(probes)
        )

    def stage_candidates(
        self, node: int, min_level: int, max_distance: int, skip: tuple[int, ...]
    ) -> list[int]:
        table = self.engine._table
        held, origins, level = table.held_by(node)
        dist = table.dist[held]
        near = (level >= min_level) & (dist <= max_distance)
        origins, dist = origins[near], dist[near]
        origins = origins[np.lexsort((origins, dist))]
        first = np.unique(origins, return_index=True)[1]
        candidates = origins[np.sort(first)].tolist()
        if len(skip) == 2:  # the upward stage's (source, dest)
            self.seen["dest_skipped"] += skip[1] in candidates
        return [origin for origin in candidates if origin not in skip]

    def entry(self, g: ConnectivityGraph, node: int, origin: int) -> Optional[tuple[int, int]]:
        """(level, next hop) of the table entry ``node`` follows toward
        ``origin`` on ``g``."""
        engine = self.engine
        engine._edge_keys(g)
        return engine._next_hops[origin][node]

    def walk(self, g: ConnectivityGraph, source: int, relay: int, budget: Optional[int]) -> tuple[bool, list[int]]:
        engine = self.engine
        engine._edge_keys(g)
        toward = engine._next_hops[relay]
        limit = engine.n if budget is None else min(budget, engine.n)
        path = [source]
        node = source
        while node != relay:
            entry = toward[node]
            if entry is None or entry[1] < 0 or len(path) > limit:
                return False, path
            node = entry[1]
            path.append(node)
        return True, path

    def answer(self, relay: int, dest: int, max_level: int) -> tuple[bool, int]:
        engine = self.engine
        if relay == dest:
            return True, 0
        top = min(max_level, engine.params.levels)
        if engine.mode == "load_balanced":
            held = engine._lb_holder[dest].tolist()
            for lvl in range(top + 1):
                if held[lvl] == relay:
                    return True, lvl
            return False, -1
        table = engine._table
        key = table._columns()[0]
        lo = key.searchsorted(encode_keys(table, dest, relay, 0))
        # the first entry at or after (dest, relay, 0): the lowest level, if relay holds one
        origin, node, level = (column.tolist() for column in decode_keys(table, key[lo : lo + 1]))
        if origin == [dest] and node == [relay] and level[0] <= top:
            return True, level[0]
        return False, -1

    def probe(
        self, g: ConnectivityGraph, source: int, relay: int, dest: int, max_level: int,
        budget: Optional[int] = None,
    ) -> ProbeResult:
        engine = self.engine
        arrived, path = self.walk(g, source, relay, budget)
        if not arrived:
            self.seen["broken"] += 1
            return ProbeResult(False, True, tuple(path), 2 * (len(path) - 1), -1, relay)
        hops = len(path) - 1
        terminus = relay
        if engine.mode == "load_balanced" and relay != dest:
            chain_path = [relay]
            for lam, nxt in engine._chain_steps(relay, dest):
                ok, leg = self.walk(g, chain_path[-1], nxt, engine.params.flood_radius(lam))
                if not ok:
                    self.seen["chain_broken"] += 1
                    total = hops + (len(chain_path) - 1) + (len(leg) - 1)
                    return ProbeResult(False, True, tuple(path), 2 * total, -1, terminus)
                chain_path.extend(leg[1:])
                terminus = nxt
            hops += len(chain_path) - 1
        success, found = self.answer(terminus, dest, max_level)
        return ProbeResult(success, False, tuple(path), 2 * hops, found, terminus)

    @staticmethod
    def record(result: ProbeResult, relay: int, level: int) -> ProbeRecord:
        return ProbeRecord(relay, level, result.success, result.broken, result.transmissions, result.terminus)

    def ring_search(
        self, g: ConnectivityGraph, start: int, dest: int, excluded: set[int]
    ) -> Optional[tuple[ProbeRecord, tuple[int, ...]]]:
        self.seen["ring_search"] += 1
        engine = self.engine
        radius_fn = engine._flood_radius
        levels = engine.params.levels
        stop = radius_fn(levels)
        parent = {start: -1}
        frontier = deque([start])
        ball_at: list[int] = [1]
        answerer: Optional[int] = None
        hit_depth = ring = 0
        depth = 0
        while frontier and depth < stop:
            depth += 1
            nxt: deque[int] = deque()
            for u in frontier:
                for v in map(int, g.neighbors(u)):
                    if v not in parent:
                        parent[v] = u
                        nxt.append(v)
                        if not hit_depth and v not in excluded and self.answer(v, dest, levels)[0]:
                            answerer = v if answerer is None else min(answerer, v)
            frontier = nxt
            ball_at.append(len(parent))
            if answerer is not None and not hit_depth:
                hit_depth = depth
                ring = min(i for i in range(levels + 1) if radius_fn(i) >= hit_depth)
                stop = radius_fn(ring)
        if answerer is None:
            return None
        transmissions = hit_depth + ball_at[min(radius_fn(ring), depth)]
        transmissions += sum(ball_at[min(radius_fn(i), depth)] for i in range(ring))
        path = [answerer]
        while path[-1] != start:
            path.append(parent[path[-1]])
        path.reverse()
        found = self.answer(answerer, dest, levels)[1]
        record = ProbeRecord(answerer, max(found, 0), True, False, transmissions, answerer)
        return record, tuple(path)


def forward_outcome(call) -> str:
    """The repr of the receipt ``call`` returns, or of the error it raises."""
    try:
        return repr(call())
    except (DeliveryError, ProtocolInvariantError) as exc:
        return repr(exc)


def forward_runs():
    """Seeded (name, graphs, forwards per graph) runs: a static layout, and
    a short mobile run whose later graphs carry stale entries above gamma,
    some of them disconnected. Each round runs on one graph and its
    forwards run on it and on the next, the layout the nodes moved to
    before the next round, whose changed edges break probes."""
    n = 150
    domain = DomainSpec(side=math.sqrt(n), n=n)
    positions = sample_uniform_positions(n, domain, 61)
    r_n = math.sqrt(2.0 * math.log(n))
    mobile = [build_geometric_graph(positions, r_n)]
    for t in range(1, 8):
        positions = step(RandomWalk(max_speed=1.0), positions, domain, seed=67, t=t)
        mobile.append(build_geometric_graph(positions, r_n))
    return [("static", [random_graph(200, seed=71)], 200), ("mobile", mobile, 30)]


@pytest.mark.parametrize("mode", ["plain", "load_balanced"])
def test_staged_probes_match_the_per_candidate_reference(mode: str) -> None:
    """Every receipt and error of ``forward`` equals the per-candidate
    reference's."""
    seen: dict[str, int] = {}
    for name, graphs, forwards in forward_runs():
        levels = ProtocolParams.levels_for_diameter(diameter(graphs[0]).hops)
        staged = ProtocolEngine(graphs[0].n, make_params(levels), mode=mode)
        reference = PerCandidateForward(ProtocolEngine(graphs[0].n, make_params(levels), mode=mode))
        rng = np.random.default_rng(73)
        for t, g in enumerate(graphs):
            for engine in (staged, reference.engine):
                engine.beaconing_round(g, t=t, seed=79)
            for moved in graphs[t : t + 2]:
                for _ in range(forwards):
                    source, dest = (int(x) for x in rng.choice(g.n, size=2, replace=False))
                    got = forward_outcome(lambda: staged.forward(moved, source, dest))
                    want = forward_outcome(lambda: reference.forward(moved, source, dest))
                    assert got == want, (name, t, source, dest)
        for key, count in reference.seen.items():
            seen[key] = seen.get(key, 0) + count
    # the runs reach every path of the probe loop and of the ring search
    paths = ("broken", "dest_skipped", "firm_skipped", "widened", "ring_search")
    assert all(seen[path] for path in paths), seen
    assert seen["chain_broken"] or mode == "plain", seen


# ---------------------------------------------------------------------------
# Full refresh: the state a round at a multiple of nu * 2**L leaves
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("nu", [1, 2])
@pytest.mark.parametrize("mode", ["plain", "load_balanced"])
def test_a_full_refresh_leaves_the_state_of_a_fresh_engine(mode: str, nu: int) -> None:
    """An engine that ran rounds 0..P-1 on moving graphs, with forwards
    between them, and then round P = nu * 2**L on graph G holds what a fresh
    engine holds after its one round P on G: the same state, report and
    receipts."""
    n = 100
    domain = DomainSpec(side=math.sqrt(n), n=n)
    positions = sample_uniform_positions(n, domain, 83)
    r_n = math.sqrt(2.0 * math.log(n))
    g = build_geometric_graph(positions, r_n)
    params = make_params(ProtocolParams.levels_for_diameter(diameter(g).hops), nu=nu)
    full = params.refresh_period(params.levels)
    rng = np.random.default_rng(89)
    history = ProtocolEngine(n, params, mode=mode)
    for t in range(full):
        if t > 0:
            positions = step(RandomWalk(max_speed=1.0), positions, domain, seed=97, t=t)
            g = build_geometric_graph(positions, r_n)
        history.beaconing_round(g, t=t, seed=101)
        for _ in range(5):
            source, dest = (int(x) for x in rng.choice(n, size=2, replace=False))
            forward_outcome(lambda: history.forward(g, source, dest))
    positions = step(RandomWalk(max_speed=1.0), positions, domain, seed=97, t=full)
    g = build_geometric_graph(positions, r_n)
    fresh = ProtocolEngine(n, params, mode=mode)
    reports = [repr(engine.beaconing_round(g, t=full, seed=101)) for engine in (history, fresh)]
    assert reports[0] == reports[1]
    assert f"gamma={params.levels}," in reports[0]
    assert engine_observables(history) == engine_observables(fresh)
    pairs = [tuple(int(x) for x in rng.choice(n, size=2, replace=False)) for _ in range(40)]
    for source, dest in pairs:
        got = forward_outcome(lambda: history.forward(g, source, dest))
        assert got == forward_outcome(lambda: fresh.forward(g, source, dest)), (source, dest)
    assert engine_observables(history) == engine_observables(fresh)
