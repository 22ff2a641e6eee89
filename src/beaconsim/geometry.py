"""Node placement, network domain, and the squarelet grid.

Coordinates live in the half-open square [0, side) x [0, side); motion wraps
around it as a torus. The squarelet grid divides the domain into cells of
side r_n / c; with c >= sqrt(5) any two points in horizontally or vertically
adjacent cells are within r_n of each other, which is what the occupancy
check relies on. When side is not an integer multiple of the cell side the
grid overhangs the boundary and the edge cells are clipped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DomainError, ParameterError

#: Minimum grid subdivision factor: guarantees r_n reaches across adjacent cells.
MIN_SUBDIVISION = math.sqrt(5.0)


class Position(NamedTuple):
    """A point in the domain; both coordinates in [0, side)."""

    x: float
    y: float


@dataclass(frozen=True)
class DomainSpec:
    """The square torus housing ``n`` nodes.

    ``side`` must equal sqrt(n) up to floating-point tolerance so densities
    stay at one node per unit area.
    """

    side: float
    n: int = 0

    def __post_init__(self) -> None:
        if self.side <= 0.0:
            raise ParameterError(f"domain side must be positive, got {self.side}")
        if abs(self.side * self.side - self.n) > 1e-6 * max(1.0, float(self.n)):
            raise ParameterError(
                f"side^2 = {self.side * self.side} does not match declared n = {self.n}"
            )

    @classmethod
    def for_nodes(cls, n: int) -> "DomainSpec":
        if n < 1:
            raise ParameterError(f"node count must be >= 1, got {n}")
        return cls(side=math.sqrt(n), n=n)


@dataclass(frozen=True)
class SquareletGrid:
    """Square cells of side r_n / c tiling the domain."""

    cell_side: float
    c: float
    cells_per_side: int
    side: float

    def __post_init__(self) -> None:
        if self.c < MIN_SUBDIVISION - 1e-12:
            raise ParameterError(
                f"subdivision factor c must be >= sqrt(5) ~ {MIN_SUBDIVISION:.6f}, got {self.c}"
            )
        if self.cell_side <= 0.0:
            raise ParameterError("cell_side must be positive")

    @classmethod
    def from_radius(
        cls, domain: DomainSpec, r_n: float, c: float = MIN_SUBDIVISION
    ) -> "SquareletGrid":
        if r_n <= 0.0:
            raise ParameterError(f"communication radius must be positive, got {r_n}")
        cell_side = r_n / c
        # Tolerant ceiling: when side/cell_side sits within rounding error of an
        # integer, treat the fit as exact instead of adding a sliver column.
        ratio = domain.side / cell_side
        cells_per_side = math.ceil(ratio - 1e-9 * max(1.0, ratio))
        return cls(
            cell_side=cell_side,
            c=c,
            cells_per_side=cells_per_side,
            side=domain.side,
        )

    @property
    def r_n(self) -> float:
        return self.cell_side * self.c


def sample_uniform_positions(n: int, domain: DomainSpec, seed: int) -> list[Position]:
    """Draw ``n`` i.i.d. uniform positions over the domain, deterministic in ``seed``."""
    if n < 1:
        raise ParameterError(f"node count must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    arr = rng.random((n, 2)) * domain.side
    return [Position(float(x), float(y)) for x, y in arr]


def squarelet_of(p: Position, grid: SquareletGrid) -> tuple[int, int]:
    """Cell index (i, j) = (floor(x / cell_side), floor(y / cell_side)).

    Indices are clamped to the last cell so that a floating-point sliver left
    by a tolerantly-exact fit (see ``from_radius``) cannot escape the grid.
    """
    if not (0.0 <= p.x < grid.side and 0.0 <= p.y < grid.side):
        raise DomainError(f"position {p} outside [0, {grid.side}) x [0, {grid.side})")
    last = grid.cells_per_side - 1
    return (
        min(math.floor(p.x / grid.cell_side), last),
        min(math.floor(p.y / grid.cell_side), last),
    )


@dataclass(frozen=True)
class OccupancyReport:
    """Per-cell node counts over a squarelet grid."""

    counts: np.ndarray
    all_nonempty: bool
    grid: SquareletGrid = field(repr=False)


def positions_as_array(positions: Sequence[Position] | np.ndarray) -> np.ndarray:
    """View positions as an (n, 2) float array without copying when possible."""
    arr = np.asarray(positions, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ParameterError(f"expected (n, 2) positions, got shape {arr.shape}")
    return arr


def occupancy_report(
    positions: Sequence[Position] | np.ndarray, grid: SquareletGrid
) -> OccupancyReport:
    """Count nodes per cell; ``all_nonempty`` is true iff every cell has one."""
    arr = positions_as_array(positions)
    if arr.size and (arr.min() < 0.0 or arr.max() >= grid.side):
        raise DomainError("positions outside the grid's domain")
    m = grid.cells_per_side
    ix = np.minimum(np.floor(arr[:, 0] / grid.cell_side).astype(np.intp), m - 1)
    iy = np.minimum(np.floor(arr[:, 1] / grid.cell_side).astype(np.intp), m - 1)
    counts = np.zeros((m, m), dtype=np.int64)
    np.add.at(counts, (ix, iy), 1)
    return OccupancyReport(
        counts=counts, all_nonempty=bool(counts.min() >= 1), grid=grid
    )
