"""Connectivity graphs over planar node layouts.

Provides the unit-disk graph builder (plain Euclidean distance), hop-distance
queries, greedy ball covers with their growth-rate estimator, and diameter
computation. Every scipy graph search of the package runs here:
``bfs_distances`` searches one source, and ``bfs_blocks`` and ``_reach`` (a
beaconing round's floods, with BFS predecessors, each block's cells yielded
node-major like the CSR's rows) search many sources in blocks of up to
``_BFS_BLOCK`` (64) per scipy call; ``_largest_component``
splits off a graph's largest connected component. The estimator advances all
its sampled covers in lockstep, so each step's new centers cost one batched
search. Each row is searched only as far as a cover reads it: the sampled
centers' rows to 2 * max(radii) hops, a picked center's row to its cover's
radius. The diameter is exact at every size: eccentricity bounds from a few
dozen BFS sources pin it down without a BFS from every node. Graphs are
undirected, unweighted, and stored as scipy CSR adjacency; node ids are
dense integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, dijkstra
from scipy.spatial import cKDTree

from .errors import ConnectivityError, ParameterError, ProtocolInvariantError
from .geometry import _positions

__all__ = [
    "ConnectivityGraph",
    "DoublingEstimate",
    "DiameterResult",
    "build_geometric_graph",
    "bfs_distances",
    "bfs_blocks",
    "greedy_cover",
    "estimate_doubling_dimension",
    "diameter",
]


class ConnectivityGraph:
    """Undirected unweighted graph on nodes 0..n-1 backed by a CSR matrix."""

    def __init__(self, n: int, csr: csr_matrix):
        self.n = n
        self.csr = csr

    @classmethod
    def _from_pair_array(cls, n: int, pairs: np.ndarray) -> "ConnectivityGraph":
        # Every weight is 1, stored as float64: scipy's graph routines convert
        # any other type to float64 on each call.
        if len(pairs) == 0:
            empty = csr_matrix((n, n), dtype=np.float64)
            return cls(n, empty)
        rows = np.concatenate([pairs[:, 0], pairs[:, 1]])
        cols = np.concatenate([pairs[:, 1], pairs[:, 0]])
        data = np.ones(len(rows), dtype=np.float64)
        adj = csr_matrix((data, (rows, cols)), shape=(n, n))
        adj.sum_duplicates()
        adj.data[:] = 1
        return cls(n, adj)

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "ConnectivityGraph":
        if n < 1:
            raise ParameterError(f"graph needs at least one node, got n={n}")
        cleaned = set()
        for u, v in edges:
            if u == v:
                raise ParameterError(f"self-loop on node {u} is not allowed")
            if not (0 <= u < n and 0 <= v < n):
                raise ParameterError(f"edge ({u}, {v}) out of range for n={n}")
            cleaned.add((min(u, v), max(u, v)))
        pairs = np.array(sorted(cleaned), dtype=np.int64).reshape(-1, 2)
        return cls._from_pair_array(n, pairs)

    def neighbors(self, u: int) -> np.ndarray:
        return self.csr.indices[self.csr.indptr[u] : self.csr.indptr[u + 1]]

    @property
    def num_edges(self) -> int:
        return int(self.csr.nnz) // 2

    def __repr__(self) -> str:
        return f"ConnectivityGraph(n={self.n}, edges={self.num_edges})"


def build_geometric_graph(positions: np.ndarray, r_n: float) -> ConnectivityGraph:
    """Link every pair at Euclidean distance strictly below ``r_n``."""
    if r_n <= 0:
        raise ParameterError(f"communication radius must be positive, got {r_n}")
    arr = _positions(positions)
    n = len(arr)
    tree = cKDTree(arr)
    pairs = tree.query_pairs(r_n, output_type="ndarray")
    if len(pairs):
        diffs = arr[pairs[:, 0]] - arr[pairs[:, 1]]
        d2 = np.einsum("ij,ij->i", diffs, diffs)
        pairs = pairs[d2 < r_n * r_n]  # strict inequality: boundary pairs stay out
    return ConnectivityGraph._from_pair_array(n, pairs)


# ---------------------------------------------------------------------------
# Hop distances
# ---------------------------------------------------------------------------


def bfs_distances(g: ConnectivityGraph, source: int) -> np.ndarray:
    """Hop distances from ``source`` to every node; unreachable nodes get inf."""
    if not (0 <= source < g.n):
        raise ParameterError(f"source {source} out of range for n={g.n}")
    return dijkstra(g.csr, unweighted=True, indices=source)


_BFS_BLOCK = 64  # sources per many-source BFS call: 64 float64 rows at n=2048 are 1 MB


def bfs_blocks(
    g: ConnectivityGraph, sources: Sequence[int], limit: float = np.inf
) -> Iterator[tuple[Sequence[int], np.ndarray]]:
    """Hop distances from many sources, searched up to 64 at a time.

    Yields each block of ``sources`` with its ``(len(block), n)`` rows, one
    scipy call per block, so the call's set-up is paid once per block and
    only one block is held at a time.  A node farther than ``limit`` hops,
    or unreachable, reads inf; the search stops expanding at ``limit``.
    """
    if len(sources) and not (0 <= min(sources) and max(sources) < g.n):
        raise ParameterError(f"sources out of range for n={g.n}")
    for start in range(0, len(sources), _BFS_BLOCK):
        block = sources[start : start + _BFS_BLOCK]
        yield block, dijkstra(g.csr, unweighted=True, indices=block, limit=limit)


def _reach(
    g: ConnectivityGraph, sources: np.ndarray, radius: int
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """Every node within ``radius`` hops of each source, one scipy search per
    block of ``_BFS_BLOCK`` sources. Yields each block's cells: the source,
    the node, its hop distance and its BFS predecessor, the source itself
    included at distance 0, in (node, position in ``sources``) order, so a
    block's cells come sorted node-major, as the routing table keeps them."""
    for start in range(0, len(sources), _BFS_BLOCK):
        block = sources[start : start + _BFS_BLOCK]
        dist, pred = dijkstra(
            g.csr, unweighted=True, indices=block, limit=float(radius), return_predecessors=True
        )
        node, at = np.divmod(np.flatnonzero((dist <= radius).T), len(block))
        cells = at * g.n + node
        yield block[at], node, dist.reshape(-1)[cells].astype(np.int64), pred.reshape(-1)[cells]


def _largest_component(g: ConnectivityGraph) -> tuple[ConnectivityGraph, np.ndarray]:
    """``g``'s largest connected component as a graph, with its node ids."""
    count, labels = connected_components(g.csr, directed=False)
    if count == 1:
        return g, np.arange(g.n)
    keep = np.flatnonzero(labels == np.bincount(labels).argmax())
    return ConnectivityGraph(len(keep), g.csr[keep][:, keep]), keep


def _pair_hops(g: ConnectivityGraph, pairs: Sequence[tuple[int, int]] | np.ndarray) -> np.ndarray:
    """Hop distance of each (source, dest) pair on ``g``, inf if unreachable,
    with each distinct source searched once, in ``bfs_blocks``' blocks."""
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    sources, slot = np.unique(pairs[:, 0], return_inverse=True)
    hops = np.empty(len(pairs))
    start = 0
    for block, dist in bfs_blocks(g, sources):
        mine = (slot >= start) & (slot < start + len(block))
        hops[mine] = dist[slot[mine] - start, pairs[mine, 1]]
        start += len(block)
    return hops


# ---------------------------------------------------------------------------
# Greedy covers and the growth-rate estimate
# ---------------------------------------------------------------------------


def greedy_cover(g: ConnectivityGraph, u: int, radius: int) -> list[int]:
    """Cover the 2R-ball around ``u`` with R-balls, greedily centering each on
    the yet-uncovered node closest to ``u`` (ties broken by lower id).

    Picking an uncovered node keeps every pair of centers more than R apart;
    each new center's row re-checks that separation, and a violation raises
    ``ProtocolInvariantError``.  The cover ends when no node of the 2R-ball
    is left uncovered, so coverage holds by construction; the tests check it
    against independent oracles.  This is the estimator's lockstep routine
    run on the one cover around ``u``: the row of ``u`` is searched to 2R
    hops, every other center's to R.
    """
    if radius < 1:
        raise ParameterError(f"cover radius must be at least 1, got {radius}")
    if not (0 <= u < g.n):
        raise ParameterError(f"source {u} out of range for n={g.n}")
    (picks,) = _greedy_covers(g, np.array([u]), [radius])
    return picks[0].tolist()


def _greedy_covers(
    g: ConnectivityGraph, centers: np.ndarray, radii: Sequence[int]
) -> list[np.ndarray]:
    """Greedy covers around every node of ``centers``, advanced in lockstep.

    Returns, for each radius in the caller's order, a ``(len(centers), k)``
    array whose row ``i`` holds cover ``i``'s centers in pick order, padded
    with -1; ``k`` is the largest cover's size.  At each step every
    unfinished cover picks its nearest uncovered node (lowest id on ties)
    with one ``argmin`` over its row of uncovered 2R-ball distances, and the
    step's new sources are searched together.

    Each row is searched only as far as it is read, in ``bfs_blocks``'
    blocks of 64 sources.  The sampled centers' rows bound the 2R-balls, so
    they are searched to ``2 * max(radii)`` hops.  A picked center's row is
    compared only at its cover's radius R (its R-ball and the separation
    check), so it is searched to R.  The radii run largest first: a row
    searched for R = 8 already holds every distance a cover at R = 4 or 2
    reads, so each source is searched at most once.  Rows are held in one
    array of the narrowest unsigned type that holds ``2 * max(radii) + 1``;
    nodes past a row's limit read as the type's maximum, farther than every
    radius compared against that row.
    """
    limit = 2 * max(radii)
    dtype = np.min_scalar_type(int(limit) + 1)
    unreachable = np.iinfo(dtype).max
    slot = np.full(g.n, -1)  # node -> its row in `rows`, -1 until searched
    rows = np.empty((min(g.n, 2 * len(centers)), g.n), dtype)
    held = 0

    def fetch(sources: np.ndarray, hops: int) -> np.ndarray:
        nonlocal rows, held
        new = np.unique(sources[slot[sources] < 0])
        if held + len(new) > len(rows):
            grown = np.empty((min(g.n, max(2 * len(rows), held + len(new))), g.n), dtype)
            grown[:held] = rows[:held]
            rows = grown
        for block, dist in bfs_blocks(g, new, hops):
            dist[np.isinf(dist)] = unreachable
            rows[held : held + len(block)] = dist
            slot[block] = np.arange(held, held + len(block))
            held += len(block)
        return rows[slot[sources]]

    from_centers = fetch(centers, limit)
    picks: dict[int, np.ndarray] = {}
    for radius in sorted(set(radii), reverse=True):
        live = np.arange(len(centers))
        uncovered = np.where(from_centers <= 2 * radius, from_centers, unreachable)
        steps: list[np.ndarray] = []
        while True:
            nearest = uncovered.argmin(axis=1)
            going = uncovered[np.arange(len(live)), nearest] != unreachable
            if not going.all():
                live, nearest, uncovered = live[going], nearest[going], uncovered[going]
                if len(live) == 0:
                    break
            from_new = fetch(nearest, radius)
            if steps:
                earlier = np.stack(steps, axis=1)[live]
                close = from_new[np.arange(len(live))[:, np.newaxis], earlier] <= radius
                if close.any():
                    i, j = np.argwhere(close)[0]
                    raise ProtocolInvariantError(
                        f"cover centers {earlier[i, j]} and {nearest[i]} are within "
                        f"{radius} hops"
                    )
            uncovered[from_new <= radius] = unreachable
            step = np.full(len(centers), -1)
            step[live] = nearest
            steps.append(step)
        picks[radius] = np.stack(steps, axis=1)
    return [picks[radius] for radius in radii]


@dataclass(frozen=True)
class DoublingEstimate:
    """Cover-growth summary: per-radius max cover counts and their overall max."""

    cover_sizes: dict[int, int]
    alpha_hat: int
    radii: tuple[int, ...]
    centers: tuple[int, ...]


def estimate_doubling_dimension(
    g: ConnectivityGraph, radii: Sequence[int], center_sample: int, seed: int
) -> DoublingEstimate:
    """Max greedy cover count over sampled centers, per radius and overall.

    For each radius, all sampled covers advance in lockstep: each step picks
    every unfinished cover's next center at once, and the step's unsearched
    centers are searched together in blocks of at most 64 sources.  The
    sampled centers' own rows come first, searched to ``2 * max(radii)``
    hops; a picked center's row is searched to the radius of the cover that
    picks it.  The radii run largest first, so a row searched for a larger
    radius serves the smaller ones, and each source is searched at most once
    per estimate.  ``cover_sizes`` keeps the caller's radius order, and every
    cover picks the same centers in the same order as ``greedy_cover`` run
    on its own.
    """
    if len(radii) == 0:
        raise ParameterError("at least one radius is required")
    if any(r < 1 for r in radii):
        raise ParameterError(f"cover radii must be at least 1, got {list(radii)}")
    if center_sample < 1:
        raise ParameterError(f"center sample must be at least 1, got {center_sample}")
    rng = np.random.default_rng(seed)
    count = min(center_sample, g.n)
    centers = np.sort(rng.choice(g.n, size=count, replace=False))
    int_radii = tuple(int(r) for r in radii)
    picks = _greedy_covers(g, centers, int_radii)
    cover_sizes = {r: p.shape[1] for r, p in zip(int_radii, picks)}
    return DoublingEstimate(
        cover_sizes=cover_sizes,
        alpha_hat=max(cover_sizes.values()),
        radii=int_radii,
        centers=tuple(int(c) for c in centers),
    )


# ---------------------------------------------------------------------------
# Diameter
# ---------------------------------------------------------------------------


_ECC_BLOCK = 8  # sources per step of the diameter's bounds search


class DiameterResult(NamedTuple):
    hops: int


def diameter(g: ConnectivityGraph) -> DiameterResult:
    """Exact hop diameter. Raises on disconnected input.

    The value comes from eccentricity bounds, not from a BFS at every node:
    a BFS from ``w`` with eccentricity ``e`` bounds every node ``v`` by
    ``max(d, e - d) <= ecc(v) <= e + d``, where ``d`` is the hop distance
    from ``w`` to ``v``.  The search keeps the largest lower bound as the
    diameter candidate, drops every node whose upper bound does not exceed
    it, and stops when no node is left; the candidate is then the diameter.

    Each step searches a block of still-open nodes: those with the highest
    upper bounds (likely peripheral, so they raise the candidate) and those
    with the lowest lower bounds (likely central, so they tighten the upper
    bounds), ties to the lower id.
    """
    from_zero = bfs_distances(g, 0)
    if np.isinf(from_zero).any():
        raise ConnectivityError("graph is disconnected; hop diameter is undefined")
    lo = np.zeros(g.n)
    hi = np.full(g.n, np.inf)
    rows = from_zero[np.newaxis, :]
    half = _ECC_BLOCK // 2
    while True:
        ecc = rows.max(axis=1, keepdims=True)
        lo = np.maximum(lo, np.maximum(rows, ecc - rows).max(axis=0))
        hi = np.minimum(hi, (ecc + rows).min(axis=0))
        best = lo.max()
        open_nodes = np.flatnonzero(hi > best)
        if len(open_nodes) == 0:
            return DiameterResult(hops=int(best))
        peripheral = open_nodes[np.argsort(-hi[open_nodes], kind="stable")[:half]]
        central = open_nodes[np.argsort(lo[open_nodes], kind="stable")]
        central = central[~np.isin(central, peripheral)][:half]
        block = np.concatenate([peripheral, central])
        ((_, rows),) = bfs_blocks(g, block)  # one block: _ECC_BLOCK is below 64
