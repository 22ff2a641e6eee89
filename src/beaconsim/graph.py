"""Connectivity graphs over planar node layouts.

Provides the unit-disk graph builder (plain Euclidean distance), hop-distance
queries, greedy ball covers with their growth-rate estimator, and diameter
computation. The diameter is exact up to a size cutoff: eccentricity bounds
from a few dozen BFS sources pin it down without a BFS from every node.
Graphs are undirected, unweighted, and stored as scipy CSR adjacency; node
ids are dense integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra
from scipy.spatial import cKDTree

from .errors import ConnectivityError, ParameterError, ProtocolInvariantError
from .geometry import Position, positions_as_array

__all__ = [
    "ConnectivityGraph",
    "DoublingEstimate",
    "DiameterResult",
    "build_geometric_graph",
    "bfs_distances",
    "ball",
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

    def degree(self, u: int) -> int:
        return int(self.csr.indptr[u + 1] - self.csr.indptr[u])

    @property
    def num_edges(self) -> int:
        return int(self.csr.nnz) // 2

    def __repr__(self) -> str:
        return f"ConnectivityGraph(n={self.n}, edges={self.num_edges})"


def build_geometric_graph(positions: Sequence[Position], r_n: float) -> ConnectivityGraph:
    """Link every pair at Euclidean distance strictly below ``r_n``."""
    if r_n <= 0:
        raise ParameterError(f"communication radius must be positive, got {r_n}")
    arr = positions_as_array(positions)
    n = len(arr)
    tree = cKDTree(arr)
    pairs = tree.query_pairs(r_n, output_type="ndarray")
    if len(pairs):
        diffs = arr[pairs[:, 0]] - arr[pairs[:, 1]]
        d2 = np.einsum("ij,ij->i", diffs, diffs)
        pairs = pairs[d2 < r_n * r_n]  # strict inequality: boundary pairs stay out
    return ConnectivityGraph._from_pair_array(n, pairs)


# ---------------------------------------------------------------------------
# Hop distances and balls
# ---------------------------------------------------------------------------


def bfs_distances(g: ConnectivityGraph, source: int) -> np.ndarray:
    """Hop distances from ``source`` to every node; unreachable nodes get inf."""
    if not (0 <= source < g.n):
        raise ParameterError(f"source {source} out of range for n={g.n}")
    return dijkstra(g.csr, unweighted=True, indices=source)


def ball(g: ConnectivityGraph, u: int, radius: int) -> np.ndarray:
    """Node ids within ``radius`` hops of ``u``, ascending."""
    if radius < 0:
        raise ParameterError(f"ball radius must be non-negative, got {radius}")
    return np.flatnonzero(bfs_distances(g, u) <= radius)


# ---------------------------------------------------------------------------
# Greedy covers and the growth-rate estimate
# ---------------------------------------------------------------------------


def greedy_cover(g: ConnectivityGraph, u: int, radius: int) -> list[int]:
    """Cover the 2R-ball around ``u`` with R-balls, greedily centering each on
    the yet-uncovered node closest to ``u`` (ties broken by lower id).

    Picking an uncovered node keeps every pair of centers more than R apart;
    both that separation and full coverage are re-checked before returning.
    """
    if radius < 1:
        raise ParameterError(f"cover radius must be at least 1, got {radius}")
    return _greedy_cover(g, u, radius, lambda v: bfs_distances(g, v))


def _greedy_cover(
    g: ConnectivityGraph, u: int, radius: int, row: Callable[[int], np.ndarray]
) -> list[int]:
    """``greedy_cover`` with hop-distance rows taken from ``row(source)``.

    A row may hold any numeric dtype, as long as an unreachable node reads
    larger than ``2 * radius``.
    """
    dist_u = row(u)
    nodes = np.flatnonzero(dist_u <= 2 * radius)
    target = nodes[np.argsort(dist_u[nodes], kind="stable")]
    covered = np.zeros(g.n, dtype=bool)
    centers: list[int] = []
    center_dists: list[np.ndarray] = []
    for v in target:
        if covered[v]:
            continue
        dist_v = row(int(v))
        for prev, prev_dist in zip(centers, center_dists):
            if prev_dist[v] <= radius:
                raise ProtocolInvariantError(
                    f"cover centers {prev} and {int(v)} are within {radius} hops"
                )
        centers.append(int(v))
        center_dists.append(dist_v)
        covered |= dist_v <= radius
    if not covered[target].all():
        raise ProtocolInvariantError("greedy cover left part of the 2R-ball uncovered")
    return centers


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

    Covers around nearby centers search the same sources again and again, so
    BFS rows are memoized once per graph: each source is searched at most
    once per estimate.  A row is stored compactly, in the narrowest unsigned
    integer type that holds every hop count and every compared radius, with
    the type's maximum as the sentinel for an unreachable node, so that
    unreachable still reads farther than every radius.
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
    dtype = np.min_scalar_type(max(g.n, 2 * max(int(r) for r in radii) + 1))
    unreachable = np.iinfo(dtype).max
    rows: dict[int, np.ndarray] = {}

    def row(source: int) -> np.ndarray:
        cached = rows.get(source)
        if cached is None:
            dist = bfs_distances(g, source)
            dist[np.isinf(dist)] = unreachable
            cached = rows[source] = dist.astype(dtype)
        return cached

    cover_sizes = {
        int(r): max(len(_greedy_cover(g, int(c), int(r), row)) for c in centers)
        for r in radii
    }
    return DoublingEstimate(
        cover_sizes=cover_sizes,
        alpha_hat=max(cover_sizes.values()),
        radii=tuple(int(r) for r in radii),
        centers=tuple(int(c) for c in centers),
    )


# ---------------------------------------------------------------------------
# Diameter
# ---------------------------------------------------------------------------


_ECC_BLOCK = 8  # sources per BFS call in the exact diameter's bounds search


class DiameterResult(NamedTuple):
    hops: int
    exact: bool


def diameter(g: ConnectivityGraph, exact_cutoff: int = 5000) -> DiameterResult:
    """Hop diameter: exact up to ``exact_cutoff`` nodes, double-sweep lower
    bound (flagged) beyond. Raises on disconnected input.

    The exact value comes from eccentricity bounds, not from a BFS at every
    node: a BFS from ``w`` with eccentricity ``e`` bounds every node ``v`` by
    ``max(d, e - d) <= ecc(v) <= e + d``, where ``d`` is the hop distance
    from ``w`` to ``v``.  The search keeps the largest lower bound as the
    diameter candidate, drops every node whose upper bound does not exceed
    it, and stops when no node is left; the candidate is then the diameter.
    """
    from_zero = bfs_distances(g, 0)
    if np.isinf(from_zero).any():
        raise ConnectivityError("graph is disconnected; hop diameter is undefined")
    if g.n == 1:
        return DiameterResult(hops=0, exact=True)
    if g.n <= exact_cutoff:
        return DiameterResult(hops=_bounded_diameter(g, from_zero), exact=True)
    a = int(np.argmax(from_zero))
    from_a = bfs_distances(g, a)
    return DiameterResult(hops=int(from_a.max()), exact=False)


def _bounded_diameter(g: ConnectivityGraph, from_zero: np.ndarray) -> int:
    """Exact hop diameter of connected ``g``, whose BFS row from node 0 is
    ``from_zero``, by the eccentricity-bounds search ``diameter`` describes.

    Each step searches a block of still-open nodes: those with the highest
    upper bounds (likely peripheral, so they raise the candidate) and those
    with the lowest lower bounds (likely central, so they tighten the upper
    bounds), ties to the lower id.
    """
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
            return int(best)
        peripheral = open_nodes[np.argsort(-hi[open_nodes], kind="stable")[:half]]
        central = open_nodes[np.argsort(lo[open_nodes], kind="stable")]
        central = central[~np.isin(central, peripheral)][:half]
        block = np.concatenate([peripheral, central])
        rows = dijkstra(g.csr, unweighted=True, indices=block)
