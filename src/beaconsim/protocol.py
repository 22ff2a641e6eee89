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
beacon once for its chain descent. Every node's routing table is one
contiguous slice of one store (``_Table``): flat columns of entries sorted
by (node, origin, level), each the hop distance, next hop and writing step
that the origin's scoped flood or a membership registration left at the
node; clearing a level drops its entries. In load-balanced mode an (n, L+1)
array names the holder of each (member, level) identifier. Rounds are
expected at non-decreasing steps.

A beaconing round has the outcome of its nodes acting one at a time in a
seeded random order pi (each floods, then its joiners register), but is
computed in closed form: the levels are decided top-down from the
lexicographically-first greedy rule of each level, every origin above level
0 is then searched once at its own flood radius, one block of origins at a
time (``graph._reach``), and the joins and registrations are computed in
block array steps from reached-only (origin, node, distance, predecessor)
arrays. The round writes the table through one merge of its runs, each
sorted block by block, with one tie rule: per (node, origin, level) key the
candidate lowest in (stale, distance, writer order) stays. An entry is stale
when written at an earlier step; in writer order the entries already held
come first, then the round's writes in pi order. The whole write waits for
the table's next read, and level-0 floods feed only the table, so that read
also searches their origins and merges their cells, last in writer order;
their transmission count waits for the first read of the round's report,
which takes it from the written cells or, where it comes first, from one
search of its own. A round that clears level 0 applies an unread write
before it without its level-0 cells.

A forward probes in stages. A stage's candidates are the origins that one
node holds entries for at or above a level and within a distance, nearest
first, read from the node's slice of the table and kept per (node, level,
distance) until the table changes. The stage probes them in order and
stops at the first that arrives and answers; in plain mode one search of the
table answers every candidate before the first walk. Where no probed beacon
knows the destination, the forward falls back to a ring search of expanding
scoped floods, read from two BFS rows: the stuck node's row finds the
nearest answerer, lowest id first, and the answerer's row lays the
lexicographically first shortest path to it. Probes walk the tables hop by
hop. The entry a node follows toward an origin (``_Table.follow``: freshest
stamp, then shortest, then lowest level, among the node's slice toward the
origin), its next hop checked against the graph's sorted edge keys, is
resolved the first time a look-up reaches that node and kept in a per-origin
dict, so a later hop through the node is one dict lookup. Resolved entries
hold for one table state and one graph: a beaconing round and a look-up on
another graph each clear them. A walk follows table entries only and leaves
nothing behind; a node with no entry toward the relay breaks it. A probe's
reply returns along the walked path and is counted as transmissions, not
stored.

Cost accounting is explicit: a round's control bits are its flood
transmissions times the flood packet width plus its membership and
registration hops times the membership packet width, field widths derived
from the node and level counts. Probes are counted in transmissions only.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import IO, Iterator, NamedTuple, Optional

import numpy as np

from .errors import DeliveryError, ParameterError, ProtocolInvariantError
from .graph import ConnectivityGraph, _reach, bfs_blocks, bfs_distances, diameter

__all__ = [
    "ForwardReceipt",
    "Membership",
    "ProbeRecord",
    "ProtocolEngine",
    "ProtocolParams",
    "RoundReport",
    "ring_distance",
]

_MODES = ("plain", "load_balanced")


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

    Level j refreshes in every round at a multiple of ``refresh_period(j)``
    = nu * 2**j. A round at a multiple of ``refresh_period(levels)`` is a
    full refresh: it re-elects every level and clears every membership and
    routing entry before it writes, so the state it leaves depends only on
    its graph, step and seed, not on any round before it.

    A load-balanced flood also carries the id of the origin's parent beacon.
    That field is counted in ``flood_packet_bits(lb=True)`` but not stored:
    chain steps are read from the memberships.
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
    def for_graph(cls, g: ConnectivityGraph, kappa: float) -> "ProtocolParams":
        """Level count from the current hop diameter."""
        return cls(kappa=kappa, levels=cls.levels_for_diameter(diameter(g).hops))

    @staticmethod
    def levels_for_diameter(hops: int) -> int:
        """Smallest top level L whose cover radius 2**L spans ``hops``."""
        return max(0, math.ceil(math.log2(max(hops, 1))))

    def cover_radius(self, level: int) -> int:
        return 2**level

    def refresh_period(self, level: int) -> int:
        """Rounds between two refreshes of ``level``: nu * 2**level."""
        return self.nu << level

    def flood_radius(self, level: int) -> int:
        return math.ceil(self.kappa * 3 * 2**level)

    def lb_flood_radius(self, level: int) -> int:
        return math.ceil(self.kappa * 5 * 2**level)

    @property
    def mu(self) -> float:
        """Probe-overhead factor (3*kappa^2) ** (2 * log2(alpha_hat))."""
        return (3.0 * self.kappa**2) ** (2.0 * math.log2(self.alpha_hat))

    # Packet field widths in bits: type 4, ids and hop counts ceil(log2 n),
    # level ceil(log2(L+1)).

    def id_bits(self, n: int) -> int:
        return math.ceil(math.log2(n)) if n > 1 else 0

    def level_bits(self) -> int:
        return math.ceil(math.log2(self.levels + 1)) if self.levels > 0 else 0

    def flood_packet_bits(self, n: int, lb: bool = False) -> int:
        bits = 4 + 2 * self.id_bits(n) + self.level_bits()
        return bits + self.id_bits(n) if lb else bits

    def membership_packet_bits(self, n: int) -> int:
        return 4 + 2 * self.id_bits(n) + self.level_bits()


# ---------------------------------------------------------------------------
# Records
# ---------------------------------------------------------------------------


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


_COUNTED = frozenset(("control_packets", "control_bits", "flood_transmissions"))


@dataclass(frozen=True)
class RoundReport:
    """Per-round tallies: who got elected where and what the control cost was.

    A beaconing round's report counts its level-0 flood transmissions, and
    with them ``flood_transmissions``, ``control_packets`` and
    ``control_bits``, on the first read of any of the three: from the cells
    of the table's level-0 write where that came first, else with a search
    of its own (``_GroundFloods``). A report that is never read makes no
    level-0 search. Counted, it holds what a report built with every field
    holds, and lets go of the round's floods.
    """

    gamma: int
    elected: dict[int, tuple[int, ...]]
    control_packets: int
    control_bits: int
    flood_transmissions: int
    membership_packets: int
    membership_hops: int
    registration_hops: int

    @classmethod
    def _uncounted(
        cls, floods: "_GroundFloods", flood_tx: int, flood_bits: int, membership_bits: int, **fields
    ) -> "RoundReport":
        """A report without the three counted fields, which its first read
        of one fills: the round's level-0 ``floods``, its ``flood_tx``
        transmissions above level 0 and the two packet widths stand in."""
        report = cls.__new__(cls)
        report.__dict__.update(fields, _floods=(floods, flood_tx, flood_bits, membership_bits))
        return report

    def __getattr__(self, name: str):
        # Reached only for a field not yet set: a counted one before its count.
        uncounted = self.__dict__.get("_floods") if name in _COUNTED else None
        if uncounted is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        floods, flood_tx, flood_bits, membership_bits = uncounted
        flood_tx += floods.transmissions()
        other = self.membership_hops + self.registration_hops
        self.__dict__.update(
            control_packets=flood_tx + other,
            control_bits=flood_tx * flood_bits + other * membership_bits,
            flood_transmissions=flood_tx,
        )
        del self.__dict__["_floods"]
        return self.__dict__[name]


@dataclass(frozen=True)
class ForwardReceipt:
    """A delivered route plus the probe traffic spent finding it."""

    route: tuple[int, ...]
    route_hops: int
    probe_transmissions: int
    probes: tuple[ProbeRecord, ...]


class _GroundFloods:
    """One round's level-0 floods: each of ``origins`` floods ``radius``
    hops on ``g``. The table's pending write (``_Table.write``) and the
    round's report both hold it. The write searches each origin once
    (``cells``) and counts the transmissions from those cells: the nodes
    within radius - 1 hops, which rebroadcast. A report read before that
    write, or after the write was applied without these cells, counts them
    with a search of its own to radius - 1 hops (``transmissions``). Once
    counted and written, the graph is let go."""

    __slots__ = ("g", "origins", "radius", "count")

    def __init__(self, g: ConnectivityGraph, origins: np.ndarray, radius: int) -> None:
        self.g, self.origins, self.radius = g, origins, radius
        self.count: Optional[int] = None

    def transmissions(self) -> int:
        if self.count is None:
            self.count = sum(
                int(np.count_nonzero(dist < self.radius))
                for _, dist in bfs_blocks(self.g, self.origins, self.radius - 1)
            )
        return self.count

    def cells(self) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
        """The floods' cells as ``graph._reach`` yields them, counted on the
        way; after the last the graph is let go."""
        count = 0
        for cells in _reach(self.g, self.origins, self.radius):
            count += int(np.count_nonzero(cells[2] < self.radius))
            yield cells
        self.count, self.g = count, None


class _Table:
    """Every node's routing table, as one store of entries.

    An entry is what one node holds toward one origin at one level, written
    by the origin's flood or by a membership registration: the hop distance,
    the next hop toward the origin and the step that wrote it. The entries
    are four flat columns sorted by ``key``, which packs (node, origin,
    level) as ``(node * n + origin) * (L + 1) + level``. No key appears
    twice, so the entries one node holds are one contiguous slice
    (``held_by``), as its neighbours are one row of the graph's CSR, and its
    entries toward one origin are a slice within it, lowest level first,
    from which ``follow`` picks the one a probe follows. A probe stage's
    candidates (``candidates``) are kept per (node, level, distance) until
    the entries change.

    A round's whole write is held as a pending write (``write``). Every
    read (``follow``, ``lowest_levels``, ``starts``, ``held_by``,
    ``candidates`` and ``_columns``), and ``clear`` and ``merge``, first
    applies it: the clear, then one merge of the round's runs and level-0 cells,
    whose origins it searches once, so the four columns are read through
    ``_columns`` or after another read. A write that finds one pending
    applies it first, without its level-0 cells when the new write clears
    level 0 and so would drop them.
    """

    def __init__(self, n: int, levels: int) -> None:
        self.n = n
        self.width = levels + 1
        if 2 * self.width * n**3 >= 2**63:
            raise ParameterError(f"{n} nodes overflow the table's 64-bit merge ranks")
        self._small = np.min_scalar_type(n)  # holds every node id and hop distance
        empty = np.empty(0, dtype=np.int64)
        self._set(empty, empty, empty, empty)
        self._pending: Optional[tuple] = None  # (t, gamma, runs, level-0 floods)

    def _set(self, key, dist, hop, stamp) -> None:
        self.key = key
        self.dist = dist.astype(self._small, copy=False)
        self.hop = hop.astype(self._small, copy=False)
        self.stamp = stamp.astype(np.int32, copy=False)
        self._candidates: dict[tuple[int, int, int], np.ndarray] = {}

    def _columns(self) -> tuple[np.ndarray, ...]:
        self._settle()
        return (self.key, self.dist, self.hop, self.stamp)

    def write(self, t: int, gamma: int, runs: list, floods: _GroundFloods) -> None:
        """Hold a round's write for the next read: clear levels up to ``gamma``,
        merge ``runs`` and the level-0 ``floods`` at step ``t``. A write still
        pending goes first, without its level-0 cells where ``gamma`` clears them."""
        self._settle(ground=gamma < 0)
        self._pending = (t, gamma, runs, floods)
        self._candidates = {}

    def _settle(self, ground: bool = True) -> None:
        """Apply the pending write, if any: its clear, then one ``merge`` of
        its runs and, last in writer order unless ``ground`` is False, its
        level-0 cells."""
        if self._pending is not None:
            (t, gamma, runs, floods), self._pending = self._pending, None
            self.clear(gamma)
            cells = floods.cells() if ground else ()
            runs += [self.run(origin, node, 0, dist, pred) for origin, node, dist, pred in cells]
            self.merge(t, runs)

    def follow(self, origin: int, node: int) -> Optional[tuple[int, int]]:
        """(level, next hop) of the entry that ``node`` follows toward
        ``origin``, None where it holds none. Fresher entries win outright
        (they describe the current graph; older ones may point at vanished
        edges), then shorter, then lower level."""
        self._settle()
        key, stamp, dist, width = self.key, self.stamp, self.dist, self.width
        start = (node * self.n + origin) * width
        best = rank = None
        i = int(key.searchsorted(start))
        end = min(i + width, key.size)  # at most L + 1 entries, lowest level first
        while i < end and key.item(i) - start < width:
            here = (-stamp.item(i), dist.item(i))
            if best is None or here < rank:
                best, rank = i, here
            i += 1
        return None if best is None else (key.item(best) - start, self.hop.item(best))

    def lowest_levels(self, origin: int, nodes: np.ndarray) -> np.ndarray:
        """The level of the lowest entry that each of ``nodes`` holds toward
        ``origin``, L + 1 where it holds none: one search for all."""
        self._settle()
        key, width = self.key, self.width
        if not key.size:
            return np.full(len(nodes), width)
        start = (nodes * self.n + origin) * width
        gap = key.take(key.searchsorted(start), mode="clip") - start
        gap[gap < 0] = width  # past the last key
        return np.minimum(gap, width, out=gap)

    def held_by(self, node: int) -> tuple[slice, np.ndarray, np.ndarray]:
        """The entries that ``node`` holds, as the columns' slice in (origin,
        level) order, with their origins and levels."""
        lo, hi = self.starts(np.array([node, node + 1])).tolist()
        cell, level = np.divmod(self.key[lo:hi], self.width)
        return slice(lo, hi), cell % self.n, level

    def starts(self, nodes: np.ndarray) -> np.ndarray:
        """Where each of ``nodes``' entries start: node v holds the columns'
        slice from ``starts(v)`` up to ``starts(v + 1)``."""
        self._settle()
        return self.key.searchsorted(nodes * self.n * self.width)

    def candidates(self, node: int, min_level: int, max_distance: int) -> np.ndarray:
        """Origins with an entry at ``node`` at level >= ``min_level`` within
        ``max_distance`` hops, nearest first (ties to the lower id); never
        ``node`` itself, which holds no entry toward itself."""
        self._settle()
        memo = (node, min_level, max_distance)
        candidates = self._candidates.get(memo)
        if candidates is None:
            held, origins, level = self.held_by(node)
            dist = self.dist[held]
            near = (level >= min_level) & (dist <= max_distance)
            origins, dist = origins[near], dist[near]
            origins = origins[np.lexsort((origins, dist))]
            first = np.unique(origins, return_index=True)[1]  # each origin at its shortest
            candidates = self._candidates[memo] = origins[np.sort(first)]
        return candidates

    def clear(self, level: int) -> None:
        """Drop the entries at levels up to ``level`` (none where it is -1)."""
        if level >= 0:
            columns = self._columns()
            kept = columns[0] % self.width > level
            self._set(*(column[kept] for column in columns))

    def run(
        self,
        origin: np.ndarray,
        node: np.ndarray,
        level: int | np.ndarray,
        dist: np.ndarray,
        hop: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Entries of one writer as a ``merge`` run, in the order given; an
        origin's own cell (distance 0) is no entry and is left out."""
        key = (node * self.n + origin) * self.width + level
        out = np.flatnonzero(dist)
        return key[out], dist[out].astype(self._small), hop[out].astype(self._small)

    def merge(self, t: int, runs: list[tuple[np.ndarray, np.ndarray, np.ndarray]]) -> None:
        """Write entries at step ``t``. The runs come in writer order, each
        with no key twice, in any order. Per key, the candidate lowest in
        (stale, distance, writer order) stays: a held entry comes before
        every write and is stale when written before ``t``. So a write
        replaces what is held when that is stale or strictly longer."""
        columns = [self._columns()]
        for key, dist, hop in runs:
            columns.append((key, dist, hop, np.full(len(key), t, dtype=np.int32)))
        rank, dist, hop, stamp = (np.concatenate(column) for column in zip(*columns))
        # (key, stale, distance) as one rank, built in place; the stable
        # sort keeps writer order among equals, and is cheapest where the
        # runs come in sorted blocks
        rank *= 2 * self.n
        rank[np.flatnonzero(stamp < t)] += self.n
        rank += dist
        order = np.argsort(rank, kind="stable")
        rank = rank[order]
        rank //= 2 * self.n  # now the sorted keys
        first = np.empty(rank.size, dtype=bool)
        first[:1] = True
        np.not_equal(rank[1:], rank[:-1], out=first[1:])
        win = order[first]
        self._set(rank[first], dist[win], hop[win], stamp[win])


class _Lazy(dict):
    """A dict whose value for a missing key is computed by ``resolve`` on
    the key's first look-up and kept, e.g. node -> (level, next_hop) of its
    entry toward one origin, or None where it has none, and origin -> such a
    dict."""

    __slots__ = ("resolve",)

    def __init__(self, resolve) -> None:
        super().__init__()
        self.resolve = resolve

    def __missing__(self, key: int):
        value = self[key] = self.resolve(key)
        return value


# ---------------------------------------------------------------------------
# Engine
# ---------------------------------------------------------------------------


class ProtocolEngine:
    """Protocol state for every node, advanced one beaconing round at a time.

    A round leaves the state that its nodes, acting one at a time in its
    seeded permutation, would leave, computed in closed form; memberships
    are written as block array updates, and the round's routing-table write
    (a clear and one merge, level-0 flood cells included) waits for the
    table's first read after the round. Forwarding reads the state built by
    the most recent round against the same graph.
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
        # every node's routing entries, from floods and registrations alike
        self._table = _Table(n, params.levels)
        # Load-balanced mode: the node that stores each (member, level)
        # identifier, -1 until a load-balanced round runs
        self._lb_holder = np.full((n, params.levels + 1), -1, dtype=np.int64)
        # level -> (member ids grouped by beacon, each beacon's start offset);
        # the possible chain steps, rebuilt by each load-balanced round
        self._sub_beacons: dict[int, tuple[list[int], list[int]]] = {}
        # origin -> the entries that look-ups toward it have resolved; a round
        # and a new graph clear it
        self._next_hops = _Lazy(lambda origin: _Lazy(lambda node: self._resolve(node, origin)))
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

    def membership_load(self) -> np.ndarray:
        """Per-node count of stored membership records: member-list entries in
        plain mode, held identifiers in load-balanced mode."""
        held = self._lb_holder if self.mode == "load_balanced" else self._beacon
        return np.bincount(held[held >= 0], minlength=self.n)

    def dump_state_csv(self, fh: IO[str]) -> None:
        """Write per-node beacon level, membership count, and live table size
        to the text stream ``fh``."""
        fh.write("node_id,beacon_level,membership_count,table_entries\n")
        entries = np.diff(self._table.starts(np.arange(self.n + 1))).tolist()
        joined = np.count_nonzero(self._beacon >= 0, axis=1).tolist()
        for u, beta in enumerate(self._beacon_level.tolist()):
            fh.write(f"{u},{beta},{joined[u]},{entries[u]}\n")

    # -- beaconing ---------------------------------------------------------

    def beaconing_round(self, g: ConnectivityGraph, t: int, seed: int = 0) -> RoundReport:
        """Run one beaconing round at time ``t`` on graph ``g``.

        Levels up to gamma are cleared and re-elected against a seeded random
        node order pi; every node floods at its own level, receivers join
        the beacons whose cover radius reaches them at their empty levels
        and register along the path back, and hard invariants (full cover,
        separation of same-level electees) are re-checked before returning.

        The outcome is that of the nodes acting one at a time in pi order,
        computed in closed form. A node's level-l membership takes the
        pi-first node of level >= l within 2**l hops, so the levels are
        decided top-down (``_elect``), then every origin above level 0 is
        searched once at its own flood radius, and the joins and
        registrations are computed as arrays. The round's table write waits
        for the table's next read, which clears the levels up to gamma, then
        merges the registrations and flood cells in one step: per (origin,
        node, level) key the entry written first in pi order stays unless a
        later one is strictly shorter, and an entry from an earlier step
        yields to either. Level-0 flood cells feed no join (level-0 joins
        read closed neighbourhoods), so the round searches no level-0
        origin: that read searches them, and the returned report counts
        their transmissions on its first read, from those cells where the
        write came first, else with one search of its own to radius - 1
        hops. A round whose report is never read, and whose table is not
        read before the next round clears level 0, makes no level-0 search.
        """
        self._check_graph(g)
        if t < 0:
            raise ParameterError(f"time step must be >= 0, got {t}")
        params = self.params
        levels = params.levels
        n = self.n
        lb = self.mode == "load_balanced"

        qualifying = [j for j in range(levels + 1) if t % params.refresh_period(j) == 0]
        gamma = max(qualifying) if qualifying else -1
        held = self._beacon.copy()  # memberships as the round starts
        held[:, : gamma + 1] = -1

        pi = np.random.default_rng((seed, t)).permutation(n)
        rank = np.empty(n, dtype=np.int64)
        rank[pi] = np.arange(n)
        nearest = _closed_min(g, rank)
        beta, elected = self._elect(g, gamma, held, rank, nearest)

        # Every origin above level 0 floods at its own level, one search per
        # block of origins; their cover balls are kept, as they decide every
        # join above level 0. A level-0 flood feeds only the table, so its
        # cells are left to the table's next read and its transmissions to
        # the report's first read.
        table = self._table
        flood_tx = 0
        floods = []
        covers = [(np.empty(0, dtype=np.int64),) * 4]
        for level in range(levels, 0, -1):
            radius = self._flood_radius(level)
            for origin, node, dist, pred in _reach(g, np.flatnonzero(beta == level), radius):
                flood_tx += int(np.count_nonzero(dist < radius))
                floods.append(table.run(origin, node, level, dist, pred))
                near = np.flatnonzero(dist <= params.cover_radius(level))
                covers.append((origin[near], node[near], dist[near], pred[near]))
        origin, node, dist, pred = (np.concatenate(column) for column in zip(*covers))
        order = np.argsort(node * n + origin, kind="stable")  # merges the sorted blocks
        covers = tuple(column[order] for column in (origin, node, dist, pred))
        (joiner, join_level, beacon, join_dist), registrations = self._joins(
            held, beta, pi, rank, nearest, covers
        )
        joined = held.copy()
        joined[joiner, join_level] = beacon

        # A registration comes before the flood of the same key: its beacon
        # is pi-earlier than the member, or the member would have joined
        # itself.
        node, member, level, distance, next_hop = registrations
        order = np.lexsort((level, member, node))
        registered = table.run(
            member[order], node[order], level[order], distance[order], next_hop[order]
        )
        ground = _GroundFloods(g, np.flatnonzero(beta == 0), self._flood_radius(0))
        table.write(t, gamma, [registered, *floods], ground)

        self._next_hops.clear()
        self._beacon_level[:] = beta
        self._beacon = joined
        self._member_dist[joiner, join_level] = join_dist
        self._member_step[joiner, join_level] = t

        self._assert_cover_complete()
        self._assert_separation(g, elected)
        registration_hops = self._rebuild_lb_store(levels) if lb else 0

        return RoundReport._uncounted(
            ground,
            flood_tx,
            params.flood_packet_bits(n, lb=lb),
            params.membership_packet_bits(n),
            gamma=gamma,
            elected={level: tuple(sorted(nodes)) for level, nodes in elected.items()},
            membership_packets=int(np.count_nonzero(join_dist)),
            membership_hops=int(join_dist.sum()),
            registration_hops=registration_hops,
        )

    def _elect(
        self,
        g: ConnectivityGraph,
        gamma: int,
        held: np.ndarray,
        rank: np.ndarray,
        nearest: np.ndarray,
    ) -> tuple[np.ndarray, dict[int, list[int]]]:
        """Every node's beacon level after the round, and the nodes elected
        at each level.

        A node whose level is above gamma keeps it. A re-electing node takes
        the highest level still empty in its membership row at its turn, or
        level 0 without being elected when none is. Its level-k cell is
        empty at its turn when it was empty in ``held`` (the memberships as
        the round starts) and no pi-earlier node of level >= k lies within
        2**k hops. So, top-down from level L, the re-electing nodes with an
        empty level-k cell that
        no higher level took are decided in pi order: one batched search
        from the nodes already at level >= k, then one search per node that
        enters. Every node is of level >= 0, so a node's level-0 cell is
        empty at its turn when it comes first in pi among its neighbours.
        """
        levels = self.params.levels
        beta = self._beacon_level.copy()
        elected: dict[int, list[int]] = {level: [] for level in range(levels + 1)}
        again = np.flatnonzero(beta <= gamma)
        beta[again] = -1
        for k in range(levels, 0, -1):
            waiting = again[(beta[again] < 0) & (held[again, k] < 0)]
            if not waiting.size:
                continue
            radius = self.params.cover_radius(k)
            first = np.full(self.n, self.n, dtype=np.int64)  # pi-first level >= k node in reach
            for sources, dist in bfs_blocks(g, np.flatnonzero(beta >= k), radius):
                reach = np.where(dist <= radius, rank[sources, None], self.n)
                first = np.minimum(first, reach.min(axis=0))
            waiting = waiting[np.argsort(rank[waiting])]
            waiting = waiting[first[waiting] > rank[waiting]]
            while waiting.size:
                u = waiting.item(0)
                beta[u] = k
                elected[k].append(u)
                ((_, dist),) = bfs_blocks(g, [u], radius)
                waiting = waiting[1:][dist[0, waiting[1:]] > radius]
        rest = again[beta[again] < 0]
        beta[rest] = 0
        elected[0] = rest[(held[rest, 0] < 0) & (nearest[rest] == rank[rest])].tolist()
        return beta, elected

    def _joins(
        self,
        held: np.ndarray,
        beta: np.ndarray,
        pi: np.ndarray,
        rank: np.ndarray,
        nearest: np.ndarray,
        covers: tuple[np.ndarray, ...],
    ) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
        """The round's joins and registrations, computed before any write.

        Every membership cell empty in ``held`` (the memberships as the
        round starts) joins the pi-first origin of level >= l within 2**l
        hops: at level 0 the pi-first node of its closed neighbourhood,
        above it the pi-first covering origin among the ``covers``: the
        cells (origin, node, distance, predecessor) of each origin above
        level 0 within its cover radius, sorted by (node, origin).
        Returns the joins as (member, level, beacon, distance) and the
        registrations they send as (node, member, level, distance, next
        hop): a joiner at distance d registers at each node of its beacon's
        shortest-path tree on the way back, one vector step per hop.
        """
        n = self.n
        empty = held < 0
        member = np.flatnonzero(empty[:, 0])
        beacon = pi[nearest[member]]
        distance = (beacon != member).astype(np.int64)
        hop1 = np.flatnonzero(distance)
        joins = [(member, np.zeros_like(member), beacon, distance)]
        registrations = [
            (beacon[hop1], member[hop1], np.zeros_like(hop1), np.ones_like(hop1), member[hop1])
        ]
        origin, node, dist, pred = covers
        keys = node * n + origin
        for level in range(1, self.params.levels + 1):
            near = np.flatnonzero(
                (beta[origin] >= level)
                & (dist <= self.params.cover_radius(level))
                & empty[node, level]
            )
            if not near.size:
                continue
            near = near[np.lexsort((rank[origin[near]], node[near]))]
            v = node[near]
            near = near[np.r_[True, v[1:] != v[:-1]]]  # each node's pi-first beacon
            member, beacon, distance = node[near], origin[near], dist[near]
            joins.append((member, np.full_like(member, level), beacon, distance))
            toward = member.copy()
            for hops in range(1, int(distance.max(initial=0)) + 1):
                walking = np.flatnonzero(distance >= hops)
                here = toward[walking]
                step = pred[np.searchsorted(keys, here * n + beacon[walking])]
                registrations.append(
                    (
                        step,
                        member[walking],
                        np.full_like(walking, level),
                        np.full_like(walking, hops),
                        here,
                    )
                )
                toward[walking] = step
        return (
            tuple(np.concatenate(part) for part in zip(*joins)),
            tuple(np.concatenate(part) for part in zip(*registrations)),
        )

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
            radius = self.params.cover_radius(level)
            idx = np.asarray(sorted(nodes), dtype=np.int64)
            for block, dist in bfs_blocks(g, idx, radius):
                # a node's distance 0 to itself is no violation
                close = (dist[:, idx] <= radius) & (block[:, np.newaxis] != idx)
                if close.any():
                    a, b = np.argwhere(close)[0]
                    raise ProtocolInvariantError(
                        f"beacons {block[a]} and {idx[b]} were both elected at level {level} "
                        f"but are within {radius} hops of each other"
                    )

    def _rebuild_lb_store(self, levels: int) -> int:
        """Re-register every identifier at its chain terminus; returns the
        total packet hops spent walking the chains. Every (member, level)
        gets a holder, so nothing from the last round survives."""
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
                for lam, nxt in self._chain_steps(holder, u):
                    hops += self._member_dist.item(nxt, lam)
                    holder = nxt
                self._lb_holder[u, level] = holder
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

    def _resolve(self, node: int, origin: int) -> Optional[tuple[int, int]]:
        """The entry for ``origin`` that probes follow at ``node``
        (``_Table.follow``), with next hop -1 where that is no edge of the
        graph last given to ``_edge_keys``."""
        entry = self._table.follow(origin, node)
        if entry is None:
            return None
        level, hop = entry
        keys, key = self._edges[1], node * self.n + hop
        return level, hop if keys.item(keys.searchsorted(key)) == key else -1

    def _walk(self, source: int, relay: int, budget: int) -> tuple[bool, list[int]]:
        """Follow table next hops from ``source`` to ``relay`` on the graph
        last given to ``_edge_keys``, at most ``budget`` hops. A walk reads
        only the table's resolved entries and leaves no state behind, so its
        outcome depends on the table state, the graph, the source, the relay
        and the budget alone. Returns (arrived, path)."""
        toward = self._next_hops[relay]
        # Past n hops, stale tables sent the packet in a circle.
        limit = budget if budget < self.n else self.n
        path = [source]
        node = source
        while node != relay:
            entry = toward[node]
            if entry is None or entry[1] < 0 or len(path) > limit:
                if entry is None and node == source:
                    # a walk starts only toward a relay the source holds an entry for
                    raise ProtocolInvariantError(
                        f"node {source} holds no routing entry for relay {relay}"
                    )
                return False, path
            node = entry[1]
            path.append(node)
        return True, path

    def _found_levels(self, relays: np.ndarray, dest: int, max_level: int) -> np.ndarray:
        """The level at which each of ``relays`` answers for ``dest`` when
        asked up to ``max_level``, -1 where it does not; the destination
        itself answers at level 0. In plain mode any table entry for the
        destination answers at its lowest level: flood entries from the
        destination's own beaconing and forward state installed by its
        membership registrations both qualify. In load-balanced mode the
        holder of the destination's identifier at a level answers, at the
        lowest such level."""
        top = min(max_level, self.params.levels)
        if self.mode == "load_balanced":
            match = relays[:, np.newaxis] == self._lb_holder[dest, : top + 1]
            found = np.where(match.any(axis=1), match.argmax(axis=1), -1)
        else:
            found = self._table.lowest_levels(dest, relays)
            found[found > top] = -1
        found[relays == dest] = 0
        return found

    def _probe_stage(
        self,
        source: int,
        relays: np.ndarray,
        dest: int,
        level: int,
        budget: int,
        probes: list[ProbeRecord],
        attempted: Optional[dict[int, bool]] = None,
    ) -> Optional[tuple[int, int, list[int]]]:
        """Probe ``relays`` from ``source`` in order, each walked to within
        ``budget`` hops and asked whether it knows ``dest`` at a level up to
        ``level``, until one arrives and answers. Returns that relay, the
        level it answered at and the path walked to it, or None; every probe
        sent is appended to ``probes``, at ``level``.

        In plain mode the table answers for every relay in one search before
        the first walk. In load-balanced mode an arriving question travels on
        down the relay's identifier chain, so each chain terminus is asked in
        turn.
        Where ``attempted`` is given, a relay it marks firm is skipped, and
        each probe marks its relay firm unless the probe broke."""
        if not relays.size:
            return None
        lb = self.mode == "load_balanced"
        found = None if lb else self._found_levels(relays, dest, level).tolist()
        for i, relay in enumerate(relays.tolist()):
            if attempted is not None and attempted.get(relay, False):
                continue  # a firm negative does not change when re-asked
            arrived, path = self._walk(source, relay, budget)
            hops = len(path) - 1
            terminus = relay
            if arrived and lb and relay != dest:
                # The question travels on to the chain terminus, which answers
                # in the beacon's stead; the excursion costs transmissions only.
                for lam, nxt in self._chain_steps(relay, dest):
                    arrived, leg = self._walk(terminus, nxt, self.params.flood_radius(lam))
                    hops += len(leg) - 1
                    if not arrived:
                        break
                    terminus = nxt
            if attempted is not None:
                attempted[relay] = arrived
            if not arrived:
                probes.append(ProbeRecord(relay, level, False, True, 2 * hops, terminus))
                continue
            if lb:
                answer = self._found_levels(np.array([terminus]), dest, level).item()
            else:
                answer = found[i]
            probes.append(ProbeRecord(relay, level, answer >= 0, False, 2 * hops, terminus))
            if answer >= 0:
                return relay, answer, path
        return None

    def _probe_dest(
        self, node: int, dest: int, level: Optional[int], probes: list[ProbeRecord]
    ) -> Optional[list[int]]:
        """Probe ``dest`` straight from ``node``, along the table entry
        ``node`` follows toward it and within the flood radius of that
        entry's level; the destination answers for itself once the walk
        arrives. The probe is appended to ``probes`` at ``level``, or at the
        radius' level where ``level`` is None. Returns the path walked if the
        walk arrived, None if it broke or ``node`` holds no entry."""
        entry = self._next_hops[dest][node]
        if entry is None:
            return None
        lowest = entry[0]
        arrived, path = self._walk(node, dest, self._flood_radius(lowest))
        recorded = lowest if level is None else level
        probes.append(ProbeRecord(dest, recorded, arrived, not arrived, 2 * (len(path) - 1), dest))
        return path if arrived else None

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
        self._edge_keys(g)  # every walk below checks its hops against g

        radius_fn = self._flood_radius
        levels = self.params.levels
        probes: list[ProbeRecord] = []
        legs: list[list[int]] = []
        holder: Optional[int] = None
        found_level = -1

        own = np.flatnonzero(self._beacon[dest] == source)
        if own.size:
            holder = source
            found_level = own.item(0)
            legs.append([source])
        if holder is None:
            path = self._probe_dest(source, dest, levels, probes)
            if path is not None:
                holder = dest
                legs.append(path)
        if holder is None:
            for j in range(1, levels + 1):
                relays = self._table.candidates(source, j, radius_fn(j))
                relays = relays[relays != dest]  # asked directly, and by the descent
                hit = self._probe_stage(source, relays, dest, j, radius_fn(j), probes)
                if hit is not None:
                    holder, found_level, path = hit
                    legs.append(path)
                    break
        if holder is None:
            found = self._ring_search(g, source, dest, {source})
            if found is None:
                self._fail(g, source, dest, "no probed beacon knows the destination")
            record, path = found
            holder, found_level = record.relay, record.level
            probes.append(record)
            legs.append(path)

        current = holder
        level = found_level
        visited = {source, holder}
        while current != dest:
            # Registration installed forward state from the holder toward its
            # member, so a direct hand-off is tried before descending levels.
            path = self._probe_dest(current, dest, None, probes)
            if path is not None:
                legs.append(path)
                break
            if level >= 1:
                attempted: dict[int, bool] = {}
                for reach in (radius_fn(level - 1), radius_fn(level)):
                    relays = self._table.candidates(current, level - 1, reach)
                    hit = self._probe_stage(
                        current, relays, dest, level - 1, reach, probes, attempted
                    )
                    if hit is not None:
                        break
                if hit is not None:
                    current, level, path = hit
                    legs.append(path)
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
            legs.append(path)
            visited.add(record.relay)
            current = record.relay
            level = record.level

        route = _loop_erase(leg_node for leg in legs for leg_node in leg)
        self._check_route(g, route, source, dest)
        return ForwardReceipt(
            route=route,
            route_hops=len(route) - 1,
            probe_transmissions=sum(probe.transmissions for probe in probes),
            probes=tuple(probes),
        )

    def _ring_search(
        self, g: ConnectivityGraph, start: int, dest: int, excluded: set[int]
    ) -> Optional[tuple[ProbeRecord, list[int]]]:
        """Expanding scoped floods from ``start`` asking who holds a live
        entry for ``dest``; the destination itself always answers. Nodes in
        ``excluded`` stay silent so the packet never returns to a spot it
        already left. The answerer is the lowest id among the nearest nodes
        that answer within the widest flood radius, and the successful ring
        is the first level whose flood radius reaches it. Returns the probe
        record (the answerer, its answer level and the transmissions) with
        the path to the answerer, the lexicographically first shortest path
        from ``start`` (each hop to the lowest-id neighbour one hop closer),
        or None when even the widest flood radius hears nobody. The cost is
        one broadcast per node inside every ring up to the successful one,
        which floods all the way out, plus the answer walking back."""
        radius_fn = self._flood_radius
        levels = self.params.levels
        ((_, dist),) = bfs_blocks(g, [start], radius_fn(levels))
        dist = dist[0]
        asked = np.flatnonzero(np.isfinite(dist))
        asked = asked[~np.isin(asked, [start, *excluded])]
        found = self._found_levels(asked, dest, levels)
        answering = np.flatnonzero(found >= 0)
        if not answering.size:
            return None
        pick = answering[dist[asked[answering]].argmin()]  # ids ascend: the lowest wins ties
        answerer = asked.item(pick)
        hit_depth = int(dist[answerer])
        ring = min(i for i in range(levels + 1) if radius_fn(i) >= hit_depth)
        transmissions = hit_depth + sum(
            int(np.count_nonzero(dist <= radius_fn(i))) for i in range(ring + 1)
        )
        ((_, back),) = bfs_blocks(g, [answerer], hit_depth)
        back = back[0]
        path = [start]
        for closer in range(hit_depth - 1, -1, -1):
            around = g.neighbors(path[-1])
            path.append(int(around[back[around] == closer].min()))
        record = ProbeRecord(
            relay=answerer,
            level=found.item(pick),
            success=True,
            broken=False,
            transmissions=transmissions,
            terminus=answerer,
        )
        return record, path

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


def _closed_min(g: ConnectivityGraph, rank: np.ndarray) -> np.ndarray:
    """The lowest ``rank`` in each node's closed neighbourhood."""
    indptr = g.csr.indptr
    low = rank.copy()
    rows = np.flatnonzero(np.diff(indptr))
    if rows.size:
        low[rows] = np.minimum(low[rows], np.minimum.reduceat(rank[g.csr.indices], indptr[rows]))
    return low


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

