"""Hierarchical beacon routing over dynamic connectivity graphs.

Every node is a beacon at some level and floods its presence each time step;
receivers within the cover radius of a level register as cluster members, so
that after every beaconing round each node belongs to exactly one cluster per
level. Forwarding locates a destination by probing known beacons level by
level upward, then descends the hierarchy until the destination's level-0
beacon hands the packet over. A load-balanced variant spreads member
identifiers from beacons onto chain termini chosen by identifier closeness.

Each piece of protocol state is held once, by the engine. Cluster
memberships are (n, L+1) arrays holding each node's beacon id, join distance
and join step per level, next to a vector of beacon levels; a beacon's
member list is read from its column, which a load-balanced round groups by
beacon once for its chain descent. Flood entries live in one pool of
origin-major arrays: one row per live (origin, level) flood, n columns wide,
holding each node's hop distance to the origin, its next hop toward it, and
the step that wrote the cell; a round merges each flood into its row with
one masked vector update, and clearing a level drops that level's rows.
Forward state left by membership registrations is one node -> member ->
level store, indexed back by (member, level) for the floods that contest
it. Flood rows and registrations never hold the same (origin, level) key at
the same node, so a node's table is their union. In load-balanced mode an
(n, L+1) array names the node that stores each (member, level) identifier,
and one dict keyed the same way holds the beacon chain that led there.
Rounds are expected at non-decreasing steps.

Probes walk the tables hop by hop. The entry a node follows toward an
origin (freshest stamp, then shortest, then lowest level, among the
origin's flood rows and the node's registrations, its next hop checked
against the graph's sorted edge keys) is resolved the first time a look-up
reaches that node and kept in a per-origin dict, so a later hop through the
node is one dict lookup. Resolved entries hold for one table state and one
graph: a beaconing round, a stand-alone ``flood`` and a look-up on another
graph each clear them. Walks still leave reverse entries at the nodes they
cross, one origin -> {node: next hop} dict that each round clears, which a
later walk follows only where a node has no table entry.

Cost accounting is explicit: flood cost is transmissions times the flood
packet width, probe and membership cost is path hops times the respective
packet width, with concrete field widths derived from the node count and
level count.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from typing import IO, NamedTuple, Optional

import numpy as np
from scipy.sparse.csgraph import dijkstra

from .errors import DeliveryError, ParameterError, ProtocolInvariantError
from .graph import ConnectivityGraph, bfs_distances, diameter

__all__ = [
    "ForwardReceipt",
    "Membership",
    "ProbeRecord",
    "ProbeResult",
    "ProtocolEngine",
    "ProtocolParams",
    "RoundReport",
    "RoutingEntry",
    "flood",
    "probe",
    "ring_distance",
]

_MODES = ("plain", "load_balanced")
_CHUNK = 256  # beaconing processes the permutation in blocks of this many floods


def ring_distance(a: int, b: int, n: int) -> int:
    """Cyclic distance between identifiers on the ring [0, n)."""
    if n < 1:
        raise ParameterError(f"ring size must be positive, got {n}")
    return min((a - b) % n, (b - a) % n)


def _ring_closest(holder: int, ids: list[int], lo: int, hi: int, target: int, n: int) -> int:
    """The identifier among ``holder`` and ``ids[lo:hi]`` (ascending) that is
    ring-closest to ``target``, ties to the lower id. Only the slice's ring
    successor and ring predecessor of ``target`` (wrapping at the slice ends)
    can be closest, so they are the only ones compared with ``holder``."""
    candidates = [holder]
    if lo < hi:
        i = bisect_left(ids, target, lo, hi)
        candidates.append(ids[i] if i < hi else ids[lo])
        candidates.append(ids[i - 1] if i > lo else ids[hi - 1])
    return min(candidates, key=lambda w: (ring_distance(target, w, n), w))


# ---------------------------------------------------------------------------
# Parameters
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProtocolParams:
    """Radii schedule and accounting constants.

    Level i covers 2**i hops and floods ceil(kappa * 3 * 2**i) hops
    (ceil(kappa * 5 * 2**i) in load-balanced mode, so sub-beacons also hear
    their parents). ``levels`` fixes the top level L; ``nu`` scales the
    refresh cadence; ``alpha_hat`` feeds the probe-overhead factor ``mu``.
    """

    kappa: float
    levels: int
    nu: int = 1
    alpha_hat: float = 9.0

    def __post_init__(self) -> None:
        if not (self.kappa > 0.0 and math.isfinite(self.kappa)):
            raise ParameterError(f"kappa must be positive and finite, got {self.kappa}")
        if self.levels < 0:
            raise ParameterError(f"level count must be >= 0, got {self.levels}")
        if self.nu < 1:
            raise ParameterError(f"refresh cadence nu must be >= 1, got {self.nu}")
        if not self.alpha_hat > 1.0:
            raise ParameterError(f"alpha_hat must exceed 1, got {self.alpha_hat}")
        for i in range(self.levels + 1):
            if self.flood_radius(i) <= self.cover_radius(i):
                raise ParameterError(
                    f"flood radius {self.flood_radius(i)} must exceed cover radius "
                    f"{self.cover_radius(i)} at level {i}; increase kappa"
                )

    @classmethod
    def for_graph(
        cls,
        g: ConnectivityGraph,
        kappa: float,
        nu: int = 1,
        alpha_hat: float = 9.0,
        levels: Optional[int] = None,
    ) -> "ProtocolParams":
        """Level count from the current hop diameter unless overridden."""
        if levels is None:
            levels = cls.levels_for_diameter(diameter(g).hops)
        return cls(kappa=kappa, levels=levels, nu=nu, alpha_hat=alpha_hat)

    @staticmethod
    def levels_for_diameter(hops: int) -> int:
        """Smallest top level L whose cover radius 2**L spans ``hops``."""
        return max(0, math.ceil(math.log2(max(hops, 1))))

    def cover_radius(self, level: int) -> int:
        return 2**level

    def flood_radius(self, level: int) -> int:
        return math.ceil(self.kappa * 3 * 2**level)

    def lb_flood_radius(self, level: int) -> int:
        return math.ceil(self.kappa * 5 * 2**level)

    @property
    def mu(self) -> float:
        """Probe-overhead factor (3*kappa^2) ** (2 * log2(alpha_hat))."""
        return (3.0 * self.kappa**2) ** (2.0 * math.log2(self.alpha_hat))

    # Packet field widths in bits: type 4, ids and hop counts ceil(log2 n),
    # level ceil(log2(L+1)), success flag 1.

    def id_bits(self, n: int) -> int:
        return math.ceil(math.log2(n)) if n > 1 else 0

    def level_bits(self) -> int:
        return math.ceil(math.log2(self.levels + 1)) if self.levels > 0 else 0

    def flood_packet_bits(self, n: int, lb: bool = False) -> int:
        bits = 4 + 2 * self.id_bits(n) + self.level_bits()
        return bits + self.id_bits(n) if lb else bits

    def membership_packet_bits(self, n: int) -> int:
        return 4 + 2 * self.id_bits(n) + self.level_bits()

    def probe_packet_bits(self, n: int) -> int:
        return 4 + 2 * self.id_bits(n) + 1


# ---------------------------------------------------------------------------
# Records
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RoutingEntry:
    """A table row: who, how far, at which level, and through which neighbor."""

    node_id: int
    distance: int
    level: int
    next_hop: int
    parent: Optional[int] = None


class Membership(NamedTuple):
    beacon_id: int
    distance: int
    time: int


class ProbeRecord(NamedTuple):
    relay: int
    level: int
    success: bool
    broken: bool
    transmissions: int
    terminus: int


class ProbeResult(NamedTuple):
    success: bool
    broken: bool
    path: tuple[int, ...]
    transmissions: int
    found_level: int
    terminus: int


@dataclass(frozen=True)
class RoundReport:
    """Per-round tallies: who got elected where and what the control cost was."""

    gamma: int
    elected: dict[int, tuple[int, ...]]
    beacons: dict[int, tuple[int, ...]]
    control_packets: int
    control_bits: int
    flood_transmissions: int
    membership_packets: int
    membership_hops: int
    registration_hops: int


@dataclass(frozen=True)
class ForwardReceipt:
    """A delivered route plus the probe traffic spent finding it."""

    route: tuple[int, ...]
    route_hops: int
    probe_transmissions: int
    probes: tuple[ProbeRecord, ...]


class _FloodRows:
    """Flood entries as origin-major arrays, one row per (origin, level).

    ``dist`` holds each node's hop distance to the origin, or ``unreached``
    where the flood left no entry; the type holds every hop distance, since
    ``flood`` takes any radius. ``next_hop`` and ``stamp`` (the step that
    wrote the cell) are meaningful only where ``dist`` is set. A row's
    ``parent`` is the origin's beacon one level up: it cannot change while
    the level stays uncleared. Free rows carry level -1.
    """

    def __init__(self, n: int) -> None:
        self.n = n
        dist_type = np.min_scalar_type(n)
        self.unreached = int(np.iinfo(dist_type).max)
        self.dist = np.empty((0, n), dtype=dist_type)
        self.next_hop = np.empty((0, n), dtype=np.int16 if n < 2**15 else np.int32)
        self.stamp = np.empty((0, n), dtype=np.int32)
        self.level = np.empty(0, dtype=np.int16)
        self.origin = np.empty(0, dtype=np.int64)
        self.parent: list[Optional[int]] = []
        self.of_origin: dict[int, dict[int, int]] = {}  # origin -> {level: row}
        self._free: list[int] = []

    def row(self, origin: int, level: int) -> Optional[int]:
        rows = self.of_origin.get(origin)
        return rows.get(level) if rows else None

    def add(self, origin: int, level: int, parent: Optional[int]) -> int:
        if not self._free:
            self._grow()
        row = self._free.pop()
        self.dist[row] = self.unreached
        self.level[row] = level
        self.origin[row] = origin
        self.parent[row] = parent
        self.of_origin.setdefault(origin, {})[level] = row
        return row

    def drop_levels(self, top: int) -> None:
        """Free every row at a level <= ``top``."""
        for row in np.flatnonzero((self.level >= 0) & (self.level <= top)).tolist():
            origin = int(self.origin[row])
            rows = self.of_origin[origin]
            del rows[int(self.level[row])]
            if not rows:
                del self.of_origin[origin]
            self.level[row] = -1
            self.parent[row] = None
            self._free.append(row)

    def live(self) -> np.ndarray:
        return np.flatnonzero(self.level >= 0)

    def _grow(self) -> None:
        cap = len(self.level)
        extra = cap or self.n  # one row per node is what a round keeps
        n = self.n
        self.dist = np.concatenate([self.dist, np.empty((extra, n), self.dist.dtype)])
        self.next_hop = np.concatenate([self.next_hop, np.empty((extra, n), self.next_hop.dtype)])
        self.stamp = np.concatenate([self.stamp, np.empty((extra, n), self.stamp.dtype)])
        self.level = np.concatenate([self.level, np.full(extra, -1, self.level.dtype)])
        self.origin = np.concatenate([self.origin, np.zeros(extra, self.origin.dtype)])
        self.parent.extend([None] * extra)
        self._free.extend(range(cap + extra - 1, cap - 1, -1))  # low rows first


class _Entries(dict):
    """node -> (level, next_hop) of its entry toward one origin, or None where
    it has none; a node's entry is resolved on its first look-up."""

    __slots__ = ("resolve",)

    def __init__(self, resolve) -> None:
        super().__init__()
        self.resolve = resolve

    def __missing__(self, node: int) -> Optional[tuple[int, int]]:
        entry = self[node] = self.resolve(node)
        return entry


# ---------------------------------------------------------------------------
# Engine
# ---------------------------------------------------------------------------


class ProtocolEngine:
    """Protocol state for every node, advanced one beaconing round at a time.

    A round mutates global state in permutation order; forwarding reads the
    state built by the most recent round against the same graph.
    """

    def __init__(self, n: int, params: ProtocolParams, mode: str = "plain"):
        if n < 1:
            raise ParameterError(f"node count must be >= 1, got {n}")
        if mode not in _MODES:
            raise ParameterError(f"mode must be one of {_MODES}, got {mode!r}")
        self.n = n
        self.params = params
        self.mode = mode
        self._flood_radius = (
            params.lb_flood_radius if mode == "load_balanced" else params.flood_radius
        )
        self._beacon_level = np.zeros(n, dtype=np.int64)
        # Node v's level-l membership: its beacon's id (-1 while v has none),
        # the hop distance it joined at and the step it joined; a member list
        # is the column of nodes naming one beacon. Distance and step are
        # meaningful only where the beacon id is set.
        self._beacon = np.full((n, params.levels + 1), -1, dtype=np.int64)
        self._member_dist = np.zeros((n, params.levels + 1), dtype=np.int64)
        self._member_step = np.zeros((n, params.levels + 1), dtype=np.int64)
        self._floods = _FloodRows(n)
        # Indexed by node: member -> {level: (distance, next_hop, step)}, the
        # forward state that membership registrations installed there. It
        # shadows the flood row of the same (member, level), whose cell at
        # that node stays empty.
        self._registrations: list[dict[int, dict[int, tuple[int, int, int]]]] = [
            {} for _ in range(n)
        ]
        # (member, level) -> nodes whose registrations hold that key
        self._registered_at: dict[tuple[int, int], set[int]] = {}
        # origin -> {node: next hop toward the origin}: reverse state that
        # probe walks from the origin left behind; a round clears it
        self._reverse: dict[int, dict[int, int]] = {}
        # Load-balanced mode: the node that stores each (member, level)
        # identifier, -1 until a load-balanced round runs, and the beacon
        # chain that led there
        self._lb_holder = np.full((n, params.levels + 1), -1, dtype=np.int64)
        self._lb_chains: dict[tuple[int, int], tuple[int, ...]] = {}
        # level -> (member ids grouped by beacon, each beacon's start offset);
        # the possible chain steps, rebuilt by each load-balanced round
        self._sub_beacons: dict[int, tuple[list[int], list[int]]] = {}
        # origin -> the entries that look-ups toward it have resolved; every
        # change of the tables clears it
        self._next_hops: dict[int, _Entries] = {}
        # the last graph walked on, with its edges as sorted u * n + v keys
        self._edges: Optional[tuple[ConnectivityGraph, np.ndarray]] = None

    # -- public state accessors ------------------------------------------

    def beacon_level(self, u: int) -> int:
        self._check_node(u)
        return self._beacon_level.item(u)

    def membership(self, u: int, level: int) -> Optional[Membership]:
        self._check_node(u)
        self._check_level(level)
        beacon = self._beacon.item(u, level)
        if beacon < 0:
            return None
        return Membership(
            beacon, self._member_dist.item(u, level), self._member_step.item(u, level)
        )

    def member_list(self, u: int, level: int) -> frozenset[int]:
        self._check_node(u)
        self._check_level(level)
        return frozenset(np.flatnonzero(self._beacon[:, level] == u).tolist())

    def routing_entries(self, u: int) -> list[RoutingEntry]:
        self._check_node(u)
        pool = self._floods
        rows = pool.live()
        dist = pool.dist[rows, u]
        reached = dist != pool.unreached
        rows = rows[reached].tolist()
        entries = [
            RoutingEntry(
                node_id=origin, distance=distance, level=level, next_hop=hop, parent=pool.parent[row]
            )
            for row, origin, distance, level, hop in zip(
                rows,
                pool.origin[rows].tolist(),
                dist[reached].tolist(),
                pool.level[rows].tolist(),
                pool.next_hop[rows, u].tolist(),
            )
        ]
        entries.extend(
            RoutingEntry(node_id=member, distance=e[0], level=level, next_hop=e[1])
            for member, by_level in self._registrations[u].items()
            for level, e in by_level.items()
        )
        entries.sort(key=lambda entry: (entry.node_id, entry.level))
        return entries

    def lb_store(self, u: int) -> dict[tuple[int, int], tuple[int, ...]]:
        self._check_node(u)
        held = np.argwhere(self._lb_holder == u).tolist()
        return {(member, level): self._lb_chains[member, level] for member, level in held}

    def lb_holder(self, u: int, level: int) -> int:
        self._check_node(u)
        self._check_level(level)
        holder = self._lb_holder.item(u, level)
        if holder < 0:
            raise ParameterError(
                f"no stored identifier for node {u} at level {level}; "
                "run a load-balanced beaconing round first"
            )
        return holder

    def membership_load(self) -> np.ndarray:
        """Per-node count of stored membership records: member-list entries in
        plain mode, held identifiers in load-balanced mode."""
        held = self._lb_holder if self.mode == "load_balanced" else self._beacon
        return np.bincount(held[held >= 0], minlength=self.n)

    def dump_state_csv(self, destination) -> None:
        """Write per-node beacon level, membership count, and live table size."""
        if hasattr(destination, "write"):
            self._write_state(destination)
        else:
            with open(destination, "w", encoding="utf-8") as fh:
                self._write_state(fh)

    def _write_state(self, fh: IO[str]) -> None:
        fh.write("node_id,beacon_level,membership_count,table_entries\n")
        pool = self._floods
        flooded = np.count_nonzero(pool.dist[pool.live()] != pool.unreached, axis=0).tolist()
        joined = np.count_nonzero(self._beacon >= 0, axis=1).tolist()
        for u, (by_member, beta) in enumerate(zip(self._registrations, self._beacon_level.tolist())):
            live = flooded[u] + sum(len(by_level) for by_level in by_member.values())
            fh.write(f"{u},{beta},{joined[u]},{live}\n")

    # -- beaconing ---------------------------------------------------------

    def beaconing_round(self, g: ConnectivityGraph, t: int, seed: int = 0) -> RoundReport:
        """Run one beaconing round at time ``t`` on graph ``g``.

        Levels up to gamma are cleared and re-elected in a seeded random node
        order; every node floods at its own level, receivers register for the
        uncovered levels their distance permits, and hard invariants (full
        cover, separation of same-level electees) are re-checked before
        returning.
        """
        self._check_graph(g)
        if t < 0:
            raise ParameterError(f"time step must be >= 0, got {t}")
        params = self.params
        levels = params.levels
        lb = self.mode == "load_balanced"
        flood_bits = params.flood_packet_bits(self.n, lb=lb)
        member_bits = params.membership_packet_bits(self.n)

        qualifying = [j for j in range(levels + 1) if t % (params.nu << j) == 0]
        gamma = max(qualifying) if qualifying else -1

        self._next_hops.clear()
        self._floods.drop_levels(gamma)
        self._drop_registrations(gamma)
        self._reverse.clear()
        self._beacon[:, : gamma + 1] = -1

        rng = np.random.default_rng((seed, t))
        pi = [int(u) for u in rng.permutation(self.n)]
        elected: dict[int, list[int]] = {level: [] for level in range(levels + 1)}
        cover = np.array([params.cover_radius(level) for level in range(levels + 1)])
        flood_tx = 0
        membership_packets = 0
        membership_hops = 0
        control_bits = 0

        for start in range(0, self.n, _CHUNK):
            chunk = pi[start : start + _CHUNK]
            rows = self._flood_rows(g, chunk, gamma)
            for u in chunk:
                beta = self._beacon_level.item(u)
                if beta <= gamma:
                    beta = self._highest_empty(u)
                    if beta >= 0:
                        elected[beta].append(u)
                    else:
                        beta = 0  # already a member at every level
                    self._beacon_level[u] = beta
                parent: Optional[int] = None
                if lb and beta < levels and self._beacon.item(u, beta + 1) >= 0:
                    parent = self._beacon.item(u, beta + 1)

                dist_row, pred_row = rows[u]
                reached, reached_dist, flood_tx_u = self._post_flood(
                    u, beta, self._flood_radius(beta), dist_row, pred_row, t, parent
                )
                flood_tx += flood_tx_u
                control_bits += flood_tx_u * flood_bits

                # Joins come from within the cover radius: a node at distance
                # d fills each empty level in [ceil(log2 d), beta], the origin
                # itself at d = 0, which sends no packet. No two covered nodes
                # share a row, so one masked update sets them all.
                covered = np.searchsorted(reached_dist, params.cover_radius(beta), side="right")
                cells = reached[:covered]
                d = reached_dist[:covered].astype(np.int64)
                join_at, join_level = np.nonzero(
                    (self._beacon[cells, : beta + 1] < 0) & (d[:, None] <= cover[: beta + 1])
                )
                joiners = cells[join_at]
                join_dist = d[join_at]
                self._beacon[joiners, join_level] = u
                self._member_dist[joiners, join_level] = join_dist
                self._member_step[joiners, join_level] = t
                sent = int(join_dist.sum())
                membership_packets += int(np.count_nonzero(join_dist))
                membership_hops += sent
                control_bits += sent * member_bits
                # Each registration installs forward state hop by hop along
                # the joiner's shortest path back to the beacon, node by node,
                # then level by level; the origin's own path is empty.
                joins = zip(joiners.tolist(), join_level.tolist(), join_dist.tolist())
                for v, level, distance in joins:
                    toward = v
                    for hops in range(1, distance + 1):
                        w = pred_row.item(toward)
                        self._post_registration(w, v, level, hops, toward, t)
                        toward = w

        self._assert_cover_complete()
        self._assert_separation(g, elected)
        registration_hops = 0
        if lb:
            registration_hops = self._rebuild_lb_store(levels)
            control_bits += registration_hops * member_bits

        return RoundReport(
            gamma=gamma,
            elected={level: tuple(sorted(nodes)) for level, nodes in elected.items()},
            beacons=self._beacon_sets(levels),
            control_packets=flood_tx + membership_hops + registration_hops,
            control_bits=control_bits,
            flood_transmissions=flood_tx,
            membership_packets=membership_packets,
            membership_hops=membership_hops,
            registration_hops=registration_hops,
        )

    def _flood_rows(
        self, g: ConnectivityGraph, chunk: list[int], gamma: int
    ) -> dict[int, tuple[np.ndarray, np.ndarray]]:
        """Limited-horizon distances and predecessors for each flood origin.

        A re-electing node (beacon level <= gamma) ends at the highest level
        still empty in its membership row, or at level 0 when none is. Rows
        only fill as the round runs, so the highest level empty now bounds
        its new level before that is known, and its search stops at that
        level's flood radius. Once the chunks before it have filled the top
        levels, a chunk searches below the top radius.
        """
        by_limit: dict[int, list[int]] = {}
        for u in chunk:
            beta = self._beacon_level.item(u)
            if beta <= gamma:
                beta = max(0, self._highest_empty(u))
            limit = self._flood_radius(beta)
            by_limit.setdefault(limit, []).append(u)
        rows: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        for limit, sources in by_limit.items():
            dist, pred = dijkstra(
                g.csr,
                unweighted=True,
                indices=np.asarray(sources, dtype=np.int64),
                limit=float(limit),
                return_predecessors=True,
            )
            for row, u in enumerate(sources):
                rows[u] = (dist[row], pred[row])
        return rows

    def _post_flood(
        self,
        origin: int,
        level: int,
        radius: int,
        dist_row: np.ndarray,
        pred_row: np.ndarray,
        t: int,
        parent: Optional[int],
    ) -> tuple[np.ndarray, np.ndarray, int]:
        """Merge ``origin``'s flood into its row at every node within ``radius``.

        A cell takes the flood when it was written before step ``t`` or holds
        a longer distance; so same-step repeats only displace strictly worse
        hop counts. Returns the reached nodes sorted by (distance, id), the
        origin first, their distances, and the transmission count: every
        node within radius-1 rebroadcasts once, the origin included.
        """
        reached = np.flatnonzero(dist_row <= radius)
        reached_dist = dist_row[reached]
        order = np.argsort(reached_dist, kind="stable")  # ids ascend within a distance
        reached, reached_dist = reached[order], reached_dist[order]
        pool = self._floods
        row = pool.row(origin, level)
        cells = reached[1:]  # the origin (distance 0) holds no entry for itself
        distance = reached_dist[1:].astype(pool.dist.dtype)
        if row is None:
            row = pool.add(origin, level, parent)
        elif pool.parent[row] != parent:
            raise ParameterError(
                f"node {origin}'s level-{level} flood carries parent {pool.parent[row]}, "
                "which stays until the level is cleared"
            )
        take = (pool.stamp[row, cells] < t) | (distance < pool.dist[row, cells])
        holders = self._registered_at.get((origin, level))
        if holders:
            for node in self._settle_registrations(origin, level, holders, dist_row, radius, t):
                take &= cells != node
        cells = cells[take]
        pool.dist[row, cells] = distance[take]
        pool.next_hop[row, cells] = pred_row[cells]
        pool.stamp[row, cells] = t
        transmissions = int(np.searchsorted(reached_dist, radius - 1, side="right"))
        return reached, reached_dist, transmissions

    def _settle_registrations(
        self,
        origin: int,
        level: int,
        holders: set[int],
        dist_row: np.ndarray,
        radius: int,
        t: int,
    ) -> list[int]:
        """Let the flood of (origin, level) contest the registration entries
        for the same key: a registration written at step ``t`` survives at
        an equal or shorter distance, any other reached one is dropped so
        the flood row takes its cell. Returns the surviving holders."""
        kept = []
        for node in list(holders):
            d = dist_row[node]
            if d > radius:
                continue
            distance, _, stamp = self._registrations[node][origin][level]
            if stamp >= t and distance <= d:
                kept.append(node)
                continue
            self._unregister(node, origin, level)
            holders.discard(node)
        if not holders:
            del self._registered_at[(origin, level)]
        return kept

    def _post_registration(
        self, node: int, member: int, level: int, distance: int, next_hop: int, t: int
    ) -> None:
        """Install forward state for ``member`` at ``node``, by the same rule
        as a flood cell: it replaces an entry for (member, level) written
        before step ``t`` or holding a longer distance. The row cell is
        emptied so the registration alone holds the key at this node."""
        by_member = self._registrations[node]
        pool = self._floods
        by_level = by_member.get(member)
        cur = by_level.get(level) if by_level else None
        row = pool.row(member, level)
        if cur is None and row is not None and pool.dist.item(row, node) != pool.unreached:
            cur = (pool.dist.item(row, node), -1, pool.stamp.item(row, node))
        if cur is not None and cur[2] >= t and cur[0] <= distance:
            return
        if row is not None:
            pool.dist[row, node] = pool.unreached
        by_member.setdefault(member, {})[level] = (distance, next_hop, t)
        self._registered_at.setdefault((member, level), set()).add(node)

    def _drop_registrations(self, top: int) -> None:
        """Forget every registration entry at a level <= ``top``."""
        for key in [key for key in self._registered_at if key[1] <= top]:
            for node in self._registered_at.pop(key):
                self._unregister(node, *key)

    def _unregister(self, node: int, member: int, level: int) -> None:
        registrations = self._registrations[node]
        del registrations[member][level]
        if not registrations[member]:
            del registrations[member]

    def _highest_empty(self, u: int) -> int:
        """The highest level at which ``u`` holds no membership, or -1."""
        empty = np.flatnonzero(self._beacon[u] < 0)
        return empty.item(-1) if empty.size else -1

    def _beacon_sets(self, levels: int) -> dict[int, tuple[int, ...]]:
        return {
            level: tuple(np.flatnonzero(self._beacon_level == level).tolist())
            for level in range(levels + 1)
        }

    def _assert_cover_complete(self) -> None:
        missing = np.argwhere(self._beacon < 0)
        if missing.size:
            u, level = missing[0].tolist()
            raise ProtocolInvariantError(
                f"node {u} has no cluster membership at level {level} "
                "after the beaconing round"
            )

    def _assert_separation(self, g: ConnectivityGraph, elected: dict[int, list[int]]) -> None:
        for level, nodes in elected.items():
            if len(nodes) < 2:
                continue
            radius = 2**level
            idx = np.asarray(sorted(nodes), dtype=np.int64)
            dist = dijkstra(g.csr, unweighted=True, indices=idx, limit=float(radius))
            sub = dist[:, idx]
            np.fill_diagonal(sub, np.inf)
            if (sub <= radius).any():
                a, b = np.argwhere(sub <= radius)[0]
                raise ProtocolInvariantError(
                    f"beacons {idx[a]} and {idx[b]} were both elected at level {level} "
                    f"but are within {radius} hops of each other"
                )

    def _rebuild_lb_store(self, levels: int) -> int:
        """Re-register every identifier at its chain terminus; returns the
        total packet hops spent walking the chains. Every (member, level)
        gets a holder and a chain, so nothing from the last round survives."""
        # A level-lam chain step goes to a level-lam member whose beacon level
        # is >= lam - 1. Group those by beacon once, now that the joins are
        # done: a stable argsort keeps ids ascending within each beacon.
        self._sub_beacons.clear()
        for lam in range(1, levels + 1):
            members = np.flatnonzero(self._beacon_level >= lam - 1)
            beacon = self._beacon[members, lam]
            order = np.argsort(beacon, kind="stable")
            starts = np.searchsorted(beacon[order], np.arange(self.n + 1))
            self._sub_beacons[lam] = (members[order].tolist(), starts.tolist())
        hops = 0
        for u in range(self.n):
            for level in range(levels + 1):
                holder = self._beacon.item(u, level)
                chain = [holder]
                for lam, nxt in self._chain_steps(holder, u):
                    hops += self._member_dist.item(nxt, lam)
                    chain.append(nxt)
                    holder = nxt
                self._lb_holder[u, level] = holder
                self._lb_chains[u, level] = tuple(chain)
        return hops

    def _chain_steps(self, start: int, target: int):
        """Descend from beacon ``start`` toward the terminus responsible for
        ``target``: at each level pick the member sub-beacon whose identifier
        is ring-closest to the target's, ties to the lower id. Yields only the
        steps that move."""
        holder = start
        for lam in range(self._beacon_level.item(start), 0, -1):
            ids, starts = self._sub_beacons[lam]
            best = _ring_closest(holder, ids, starts[holder], starts[holder + 1], target, self.n)
            if best != holder:
                yield lam, best
                holder = best

    # -- probing -----------------------------------------------------------

    def _best_entry(
        self, g: ConnectivityGraph, node: int, origin: int
    ) -> Optional[tuple[int, int]]:
        """(level, next_hop) of the entry ``node`` follows toward ``origin``,
        next hop -1 where that is no edge of ``g``; probe-installed reverse
        state, at level -1, is the last resort."""
        return self._next_hops_to(g, origin)[node] or self._reverse_entry(node, origin)

    def _next_hops_to(self, g: ConnectivityGraph, origin: int) -> _Entries:
        self._edge_keys(g)
        toward = self._next_hops.get(origin)
        if toward is None:
            toward = self._next_hops[origin] = _Entries(lambda node: self._resolve(node, origin))
        return toward

    def _edge_keys(self, g: ConnectivityGraph) -> np.ndarray:
        """``g``'s directed edges as sorted ``u * n + v`` keys, closed by the
        key ``n * n`` so that a search never runs off the end. A graph is
        not changed after it is built, so its identity names its edges.
        Resolved entries hold for one graph, so a new graph clears them."""
        if self._edges is None or self._edges[0] is not g:
            csr = g.csr
            rows = np.repeat(np.arange(g.n, dtype=np.int64), np.diff(csr.indptr))
            self._edges = (g, np.append(np.sort(rows * g.n + csr.indices), g.n * g.n))
            self._next_hops.clear()
        return self._edges[1]

    def _is_edge(self, u: int, v: int) -> bool:
        """Whether (u, v) is an edge of the graph last given to ``_edge_keys``."""
        keys, key = self._edges[1], u * self.n + v
        return keys.item(keys.searchsorted(key)) == key

    def _resolve(self, node: int, origin: int) -> Optional[tuple[int, int]]:
        """Pick the entry for ``origin`` that probes follow at ``node`` among
        the origin's flood rows and the node's registrations. Fresher entries
        win outright (they describe the current graph; older ones may point
        at vanished edges), then shorter, then lower level. A winner whose
        next hop is no edge gets next hop -1."""
        pool = self._floods
        best_key, best = None, None
        for level, row in pool.of_origin.get(origin, {}).items():
            distance = pool.dist.item(row, node)
            if distance != pool.unreached:
                key = (-pool.stamp.item(row, node), distance, level)
                if best_key is None or key < best_key:
                    best_key, best = key, (level, pool.next_hop.item(row, node))
        for level, (distance, hop, stamp) in (
            self._registrations[node].get(origin, {}).items()
        ):
            key = (-stamp, distance, level)
            if best_key is None or key < best_key:
                best_key, best = key, (level, hop)
        if best is not None and not self._is_edge(node, best[1]):
            best = (best[0], -1)
        return best

    def _reverse_entry(self, node: int, origin: int) -> Optional[tuple[int, int]]:
        """The last resort: reverse state that a probe from ``origin`` left at
        ``node``, at level -1."""
        back = self._reverse.get(origin, {}).get(node)
        if back is None:
            return None
        return (-1, back if self._is_edge(node, back) else -1)

    def _walk(
        self, g: ConnectivityGraph, source: int, relay: int, budget: Optional[int]
    ) -> tuple[bool, list[int]]:
        """Follow table next hops from ``source`` to ``relay``, leaving
        temporary reverse entries behind. Returns (arrived, path)."""
        toward = self._next_hops_to(g, relay)
        # Past n hops, stale tables sent the packet in a circle.
        limit = self.n if budget is None else min(budget, self.n)
        reverse = self._reverse.setdefault(source, {})
        path = [source]
        node = source
        while node != relay:
            entry = toward[node] or self._reverse_entry(node, relay)
            if entry is None or entry[1] < 0 or len(path) > limit:
                return False, path
            nxt = entry[1]
            reverse[nxt] = node
            node = nxt
            path.append(node)
        return True, path

    def _answer(self, relay: int, dest: int, max_level: int) -> tuple[bool, int]:
        if relay == dest:
            return True, 0
        if self.mode == "load_balanced":
            held = self._lb_holder[dest].tolist()
            for lvl in range(min(max_level, self.params.levels) + 1):
                if held[lvl] == relay:
                    return True, lvl
            return False, -1
        # Any table entry for the destination answers: flood entries from the
        # destination's own beaconing and forward state installed by its
        # membership registrations both qualify.
        pool = self._floods
        found = max_level + 1
        for lvl, row in pool.of_origin.get(dest, {}).items():
            if lvl < found and pool.dist.item(row, relay) != pool.unreached:
                found = lvl
        for lvl in self._registrations[relay].get(dest, ()):
            found = min(found, lvl)
        if found <= max_level:
            return True, found
        return False, -1

    def _probe(
        self,
        g: ConnectivityGraph,
        source: int,
        relay: int,
        dest: int,
        max_level: int,
        budget: Optional[int] = None,
    ) -> ProbeResult:
        if relay == source:
            success, found = self._answer(relay, dest, max_level)
            return ProbeResult(success, False, (source,), 0, found, relay)
        arrived, path = self._walk(g, source, relay, budget)
        if not arrived:
            if len(path) == 1 and self._best_entry(g, source, relay) is None:
                raise ParameterError(f"node {source} holds no routing entry for relay {relay}")
            return ProbeResult(False, True, tuple(path), 2 * (len(path) - 1), -1, relay)
        hops = len(path) - 1
        terminus = relay
        if self.mode == "load_balanced" and relay != dest:
            # The question travels on to the chain terminus, which answers in
            # the beacon's stead; the excursion costs transmissions only.
            chain_path = [relay]
            for lam, nxt in self._chain_steps(relay, dest):
                ok, leg = self._walk(g, chain_path[-1], nxt, self.params.flood_radius(lam))
                if not ok:
                    total = hops + (len(chain_path) - 1) + (len(leg) - 1)
                    return ProbeResult(False, True, tuple(path), 2 * total, -1, terminus)
                chain_path.extend(leg[1:])
                terminus = nxt
            hops += len(chain_path) - 1
        success, found = self._answer(terminus, dest, max_level)
        return ProbeResult(success, False, tuple(path), 2 * hops, found, terminus)

    # -- forwarding --------------------------------------------------------

    def forward(self, g: ConnectivityGraph, source: int, dest: int) -> ForwardReceipt:
        """Route from ``source`` to ``dest`` on the round's current graph.

        Probes known beacons level by level upward until one claims the
        destination, then descends the hierarchy; raises DeliveryError when
        the destination is unreachable and ProtocolInvariantError when the
        membership state breaks its own guarantees.
        """
        self._check_node(source)
        self._check_node(dest)
        self._check_graph(g)
        if source == dest:
            return ForwardReceipt(route=(), route_hops=0, probe_transmissions=0, probes=())

        radius_fn = self._flood_radius
        levels = self.params.levels
        probes: list[ProbeRecord] = []
        legs: list[tuple[int, ...]] = []
        holder: Optional[int] = None
        found_level = -1

        own = np.flatnonzero(self._beacon[dest] == source)
        if own.size:
            holder = source
            found_level = own.item(0)
            legs.append((source,))
        if holder is None:
            direct = self._best_entry(g, source, dest)
            if direct is not None:
                result = self._probe(
                    g, source, dest, dest, levels, budget=radius_fn(max(direct[0], 0))
                )
                probes.append(self._record(result, dest, levels))
                if result.success:
                    holder = dest
                    legs.append(result.path)
        if holder is None:
            for j in range(1, levels + 1):
                for relay in self._stage_candidates(source, j, radius_fn(j), skip=(source, dest)):
                    result = self._probe(g, source, relay, dest, j, budget=radius_fn(j))
                    probes.append(self._record(result, relay, j))
                    if result.success:
                        holder = relay
                        found_level = result.found_level
                        legs.append(result.path)
                        break
                if holder is not None:
                    break
        if holder is None:
            found = self._ring_search(g, source, dest, {source})
            if found is None:
                self._fail(g, source, dest, "no probed beacon knows the destination")
            record, path = found
            holder, found_level = record.relay, record.level
            probes.append(record)
            legs.append(path)

        transmissions = sum(p.transmissions for p in probes)
        current = holder
        level = found_level
        visited = {source, holder}
        while current != dest:
            # Registration installed forward state from the holder toward its
            # member, so a direct hand-off is tried before descending levels.
            direct = self._best_entry(g, current, dest)
            if direct is not None:
                result = self._probe(
                    g, current, dest, dest, levels, budget=radius_fn(max(direct[0], 0))
                )
                probes.append(self._record(result, dest, max(direct[0], 0)))
                transmissions += result.transmissions
                if result.success:
                    legs.append(result.path)
                    break
            advanced = False
            if level >= 1:
                attempted: dict[int, bool] = {}
                for widen in (False, True):
                    reach = radius_fn(level if widen else level - 1)
                    for relay in self._stage_candidates(
                        current, level - 1, reach, skip=(current,)
                    ):
                        if attempted.get(relay, False):
                            continue  # a firm negative does not change when re-asked
                        result = self._probe(g, current, relay, dest, level - 1, budget=reach)
                        probes.append(self._record(result, relay, level - 1))
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
            # The held path for the destination has gone stale and no nearby
            # beacon has fresher state, so fall back to expanding scoped
            # floods.  Every holder left behind stays excluded, and the
            # destination itself answers once a ring covers it, so on a
            # connected graph the search always lands somewhere new.
            found = self._ring_search(g, current, dest, visited)
            if found is None:
                self._fail(
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
        self._check_route(g, route, source, dest)
        return ForwardReceipt(
            route=route,
            route_hops=len(route) - 1,
            probe_transmissions=transmissions,
            probes=tuple(probes),
        )

    def _stage_candidates(
        self, node: int, min_level: int, max_distance: int, skip: tuple[int, ...]
    ) -> list[int]:
        """Origins with an entry at ``node`` at level >= ``min_level`` within
        ``max_distance`` hops, nearest first (ties to the lower id)."""
        pool = self._floods
        rows = np.flatnonzero(pool.level >= min_level)
        dist = pool.dist[rows, node]
        near = dist <= min(max_distance, pool.unreached - 1)
        origins = pool.origin[rows[near]]
        dist = dist[near]
        extra = [
            (member, e[0])
            for member, by_level in self._registrations[node].items()
            for level, e in by_level.items()
            if level >= min_level and e[0] <= max_distance
        ]
        if extra:
            origins = np.concatenate([origins, [member for member, _ in extra]])
            dist = np.concatenate([dist, [d for _, d in extra]])
        origins = origins[np.lexsort((origins, dist))]
        first = np.unique(origins, return_index=True)[1]  # each origin at its shortest
        return [origin for origin in origins[np.sort(first)].tolist() if origin not in skip]

    def _ring_search(
        self, g: ConnectivityGraph, start: int, dest: int, excluded: set[int]
    ) -> Optional[tuple[ProbeRecord, tuple[int, ...]]]:
        """Expanding scoped floods from ``start`` asking who holds a live
        entry for ``dest``; the destination itself always answers.  Nodes in
        ``excluded`` stay silent so the packet never returns to a spot it
        already left.  Returns the successful probe record (the nearest
        answerer, its entry level and the transmissions) with the path to
        the answerer, or None when even the widest flood radius hears
        nobody.  Cost is one broadcast per node inside every ring tried
        plus the answer walking back."""
        radius_fn = self._flood_radius
        max_radius = radius_fn(self.params.levels)
        parent = {start: -1}
        frontier = deque([start])
        ball_at: list[int] = [1]
        best: Optional[tuple[int, int]] = None
        depth = 0
        while frontier and depth < max_radius and best is None:
            depth += 1
            nxt: deque[int] = deque()
            for u in frontier:
                for v in map(int, g.neighbors(u)):
                    if v not in parent:
                        parent[v] = u
                        nxt.append(v)
                        if v not in excluded and self._answer(v, dest, self.params.levels)[0]:
                            best = (v, depth) if best is None else (min(best[0], v), depth)
            frontier = nxt
            ball_at.append(len(parent))
        if best is None:
            return None
        answerer, hit_depth = best
        ring = min(
            i for i in range(self.params.levels + 1) if radius_fn(i) >= hit_depth
        )
        # The successful ring floods all the way out even though the answer
        # comes from closer in, so its full ball is charged, as is each empty
        # ring before it.
        while frontier and depth < radius_fn(ring):
            depth += 1
            nxt = deque()
            for u in frontier:
                for v in map(int, g.neighbors(u)):
                    if v not in parent:
                        parent[v] = u
                        nxt.append(v)
            frontier = nxt
            ball_at.append(len(parent))
        transmissions = hit_depth + ball_at[min(radius_fn(ring), depth)]
        transmissions += sum(
            ball_at[min(radius_fn(i), depth)] for i in range(ring)
        )
        path = [answerer]
        while path[-1] != start:
            path.append(parent[path[-1]])
        path.reverse()
        found = self._answer(answerer, dest, self.params.levels)[1]
        record = ProbeRecord(
            relay=answerer,
            level=max(found, 0),
            success=True,
            broken=False,
            transmissions=transmissions,
            terminus=answerer,
        )
        return record, tuple(path)

    def _record(self, result: ProbeResult, relay: int, level: int) -> ProbeRecord:
        return ProbeRecord(
            relay=relay,
            level=level,
            success=result.success,
            broken=result.broken,
            transmissions=result.transmissions,
            terminus=result.terminus,
        )

    def _fail(self, g: ConnectivityGraph, source: int, dest: int, why: str) -> None:
        if math.isinf(bfs_distances(g, source)[dest]):
            raise DeliveryError(
                f"destination {dest} is unreachable from {source} on the current graph"
            )
        raise ProtocolInvariantError(
            f"forwarding {source} -> {dest} failed on a connected graph: {why}"
        )

    def _check_route(
        self, g: ConnectivityGraph, route: tuple[int, ...], source: int, dest: int
    ) -> None:
        if not route or route[0] != source or route[-1] != dest:
            raise ProtocolInvariantError(
                f"assembled route {route} does not join {source} and {dest}"
            )
        nodes = np.asarray(route, dtype=np.int64)
        missing = _not_edges(self._edge_keys(g), self.n, nodes[:-1], nodes[1:])
        if missing.size:
            a, b = route[missing.item(0)], route[missing.item(0) + 1]
            raise ProtocolInvariantError(
                f"assembled route {source} -> {dest} uses missing edge ({a}, {b})"
            )

    def _check_node(self, u: int) -> None:
        if not 0 <= u < self.n:
            raise ParameterError(f"node id {u} out of range [0, {self.n})")

    def _check_graph(self, g: ConnectivityGraph) -> None:
        if g.n != self.n:
            raise ParameterError(f"graph has {g.n} nodes, engine has {self.n}")

    def _check_level(self, level: int) -> None:
        if not 0 <= level <= self.params.levels:
            raise ParameterError(
                f"level {level} out of range [0, {self.params.levels}]"
            )


def _not_edges(keys: np.ndarray, n: int, tails: np.ndarray, heads: np.ndarray) -> np.ndarray:
    """Positions i at which (tails[i], heads[i]) is no edge in ``keys``, a
    graph's sorted ``u * n + v`` keys closed by the key ``n * n``."""
    cut = tails * n + heads
    return np.flatnonzero(keys[np.searchsorted(keys, cut)] != cut)


def _loop_erase(sequence) -> tuple[int, ...]:
    route: list[int] = []
    index: dict[int, int] = {}
    for node in sequence:
        if node in index:
            for dropped in route[index[node] + 1 :]:
                del index[dropped]
            del route[index[node] + 1 :]
        else:
            index[node] = len(route)
            route.append(node)
    return tuple(route)


# ---------------------------------------------------------------------------
# Stand-alone primitives
# ---------------------------------------------------------------------------


def flood(
    engine: ProtocolEngine,
    g: ConnectivityGraph,
    origin: int,
    radius: int,
    level: int,
    t: int,
    parent: Optional[int] = None,
) -> int:
    """Flood ``origin``'s presence ``radius`` hops out, updating tables with
    shortest-path reverse entries; returns the transmission count (every node
    within radius-1 rebroadcasts once, the origin included)."""
    engine._check_node(origin)
    engine._check_level(level)
    engine._check_graph(g)
    if radius < 1:
        raise ParameterError(f"flood radius must be >= 1, got {radius}")
    dist, pred = dijkstra(
        g.csr,
        unweighted=True,
        indices=np.asarray([origin], dtype=np.int64),
        limit=float(radius),
        return_predecessors=True,
    )
    engine._next_hops.clear()
    return engine._post_flood(origin, level, radius, dist[0], pred[0], t, parent)[2]


def probe(
    engine: ProtocolEngine,
    g: ConnectivityGraph,
    source: int,
    relay: int,
    dest: int,
    max_level: int,
    budget: Optional[int] = None,
) -> ProbeResult:
    """Send a probe from ``source`` along table next hops to ``relay`` asking
    whether it answers for ``dest`` at any level up to ``max_level``; the
    answer retraces the path, so transmissions count both directions."""
    engine._check_node(source)
    engine._check_node(relay)
    engine._check_node(dest)
    engine._check_graph(g)
    return engine._probe(g, source, relay, dest, max_level, budget=budget)
