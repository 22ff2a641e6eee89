"""Adversarial and inhomogeneous layout generators.

Covers the obstructed-wall layout (a node-free strip crossed only through a
central gap), squarelet thinning, the comb unit-disk graph whose cover counts
grow without bound, and the sparse-radius position generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import ParameterError, ProtocolInvariantError
from .geometry import (
    MIN_SUBDIVISION,
    DomainSpec,
    SquareletGrid,
    _cells,
    _positions,
    sample_uniform_positions,
)
from .graph import ConnectivityGraph, build_geometric_graph, greedy_cover

__all__ = [
    "WallTopology",
    "CombTopology",
    "wall_topology",
    "wall_graph",
    "remove_squarelets",
    "comb_udg",
    "subcritical_positions",
]


# ---------------------------------------------------------------------------
# Wall layout
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class WallTopology:
    """Uniform layout with a node-free horizontal strip; edges may cross the
    strip only through the central gap. Layouts compare by identity: the
    generated field-by-field ``==`` cannot compare the position array."""

    positions: np.ndarray
    side: float
    r_n: float
    strip_y: tuple[float, float]
    hole_x: tuple[float, float]

    def blocked_mask(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Vectorized crossing test for segments a[i] -> b[i]."""
        a = np.asarray(a, dtype=float).reshape(-1, 2)
        b = np.asarray(b, dtype=float).reshape(-1, 2)
        lo, hi = self.strip_y
        hole_lo, hole_hi = self.hole_x
        ay, by = a[:, 1], b[:, 1]
        dy = by - ay
        horizontal = dy == 0.0
        inside_band = horizontal & (ay >= lo) & (ay <= hi)
        with np.errstate(divide="ignore", invalid="ignore"):
            t0 = (lo - ay) / dy
            t1 = (hi - ay) / dy
        t_lo = np.clip(np.minimum(t0, t1), 0.0, 1.0)
        t_hi = np.clip(np.maximum(t0, t1), 0.0, 1.0)
        t_lo = np.where(inside_band, 0.0, t_lo)
        t_hi = np.where(inside_band, 1.0, t_hi)
        crossing = inside_band | (~horizontal & (t_lo < t_hi))
        dx = b[:, 0] - a[:, 0]
        x_at_lo = a[:, 0] + t_lo * dx
        x_at_hi = a[:, 0] + t_hi * dx
        x_min = np.minimum(x_at_lo, x_at_hi)
        x_max = np.maximum(x_at_lo, x_at_hi)
        through_gap = (x_min >= hole_lo) & (x_max <= hole_hi)
        return crossing & ~through_gap


def wall_topology(
    n: int,
    r_n: float,
    seed: int,
    hole_width: float | None = None,
) -> WallTopology:
    """Sample n uniform positions, empty the wall strip (width r_n/sqrt(5),
    one squarelet side, at mid-height), and return the layout with its
    crossing predicate."""
    if n < 2:
        raise ParameterError(f"wall layout needs at least two nodes, got {n}")
    if r_n <= math.sqrt(math.log(n)):
        raise ParameterError(
            f"radius {r_n} is below the connectivity threshold sqrt(log n)"
        )
    domain = DomainSpec.for_nodes(n)
    side = domain.side
    width = r_n / MIN_SUBDIVISION
    strip_lo = side / 2.0 - width / 2.0
    strip_hi = strip_lo + width
    gap = 4.0 * r_n if hole_width is None else hole_width
    if not (0 < gap <= side):
        raise ParameterError(f"gap width {gap} must lie in (0, side]")
    hole_lo = side / 2.0 - gap / 2.0
    hole_hi = side / 2.0 + gap / 2.0
    sampled = sample_uniform_positions(n, domain, seed)
    y = sampled[:, 1]
    return WallTopology(
        positions=sampled[(y < strip_lo) | (y > strip_hi)],
        side=side,
        r_n=r_n,
        strip_y=(strip_lo, strip_hi),
        hole_x=(hole_lo, hole_hi),
    )


def wall_graph(wall: WallTopology) -> ConnectivityGraph:
    """Distance graph on the wall layout minus the blocked crossings."""
    g = build_geometric_graph(wall.positions, wall.r_n)
    coo = g.csr.tocoo()
    upper = coo.row < coo.col
    rows = coo.row[upper]
    cols = coo.col[upper]
    blocked = wall.blocked_mask(wall.positions[rows], wall.positions[cols])
    pairs = np.column_stack([rows[~blocked], cols[~blocked]]).astype(np.int64)
    return ConnectivityGraph._from_pair_array(g.n, pairs)


# ---------------------------------------------------------------------------
# Squarelet thinning
# ---------------------------------------------------------------------------


def remove_squarelets(
    positions: np.ndarray,
    cells_to_empty: Iterable[tuple[int, int]],
    grid: SquareletGrid,
) -> np.ndarray:
    """Drop every node whose cell is listed; the kept rows come back, in
    order, as a new array."""
    m = grid.cells_per_side
    doomed = np.zeros((m, m), dtype=bool)
    for i, j in cells_to_empty:
        if not (0 <= i < m and 0 <= j < m):
            raise ParameterError(f"cell ({i}, {j}) outside the {m}x{m} grid")
        doomed[i, j] = True
    arr = _positions(positions)
    cells = _cells(arr, grid)
    return arr[~doomed[cells[:, 0], cells[:, 1]]]


# ---------------------------------------------------------------------------
# Comb unit-disk graph
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class CombTopology:
    """The comb's graph and integer layout; compared by identity, as
    ``WallTopology`` is."""

    graph: ConnectivityGraph
    positions: np.ndarray
    center_id: int
    radius: int


def comb_udg(radius: int) -> CombTopology:
    """Finite comb: a spine of 4R+1 unit-spaced nodes with height-2R branches
    on every second column. Unit communication radius (strict rule applied at
    1.2 links exactly the distance-1 pairs of the integer layout).

    The construction exists to defeat bounded cover growth: covering the
    center's 2R-ball at radius R provably needs at least R/4 centers, which is
    re-checked on every call."""
    if radius < 4 or radius % 2 != 0:
        raise ParameterError(f"branch radius must be even and at least 4, got {radius}")
    spine = [(x, 0) for x in range(4 * radius + 1)]
    branches = [(x, h) for x in range(0, 4 * radius + 1, 2) for h in range(1, 2 * radius + 1)]
    positions = np.array(spine + branches, dtype=np.float64)
    graph = build_geometric_graph(positions, 1.2)
    center_id = 2 * radius
    cover = greedy_cover(graph, center_id, radius)
    if len(cover) < math.ceil(radius / 4):
        raise ProtocolInvariantError(
            f"comb cover count {len(cover)} fell below the {radius}/4 bound"
        )
    return CombTopology(
        graph=graph, positions=positions, center_id=center_id, radius=radius
    )


# ---------------------------------------------------------------------------
# Sparse-radius regime
# ---------------------------------------------------------------------------


def subcritical_positions(n: int, theta: float, seed: int) -> tuple[np.ndarray, float]:
    """Uniform positions with radius (log n)^((1-theta)/2): below the
    connectivity threshold for every theta in (0, 1]."""
    if not (0.0 < theta <= 1.0):
        raise ParameterError(f"theta must lie in (0, 1], got {theta}")
    if n < 2:
        raise ParameterError(f"need at least two nodes, got {n}")
    r_n = math.log(n) ** ((1.0 - theta) / 2.0)
    positions = sample_uniform_positions(n, DomainSpec.for_nodes(n), seed)
    return positions, r_n
