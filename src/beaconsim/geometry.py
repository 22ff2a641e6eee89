"""Node placement, network domain, and the squarelet grid.

Node positions are one float64 array of shape (n, 2), row i holding node i's
(x, y), at every layer of the package. Coordinates live in the half-open
square [0, side) x [0, side); motion wraps around it as a torus. The
squarelet grid divides the domain into cells of side r_n / c; with
c >= sqrt(5) any two points in horizontally or vertically adjacent cells are
within r_n of each other, which is what the occupancy check relies on. When
side is not an integer multiple of the cell side the grid overhangs the
boundary and the edge cells are clipped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ParameterError

#: Minimum grid subdivision factor: guarantees r_n reaches across adjacent cells.
MIN_SUBDIVISION = math.sqrt(5.0)


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


def _positions(positions: np.ndarray, side: float | None = None) -> np.ndarray:
    """``positions`` as an (n, 2) float64 array, without a copy when it is one.

    Raises ``ParameterError`` on any other shape and, when ``side`` is given,
    ``DomainError`` if a coordinate falls outside [0, side).
    """
    arr = np.asarray(positions, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ParameterError(f"expected (n, 2) positions, got shape {arr.shape}")
    if side is not None and arr.size and (arr.min() < 0.0 or arr.max() >= side):
        raise DomainError(f"positions outside [0, {side}) x [0, {side})")
    return arr


def _cells(positions: np.ndarray, grid: SquareletGrid) -> np.ndarray:
    """Cell index (i, j) = (floor(x / cell_side), floor(y / cell_side)) of
    each row, as an (n, 2) integer array.

    Indices are clamped to the last cell so that a floating-point sliver left
    by a tolerantly-exact fit (see ``from_radius``) cannot escape the grid.
    """
    arr = _positions(positions, grid.side)
    last = grid.cells_per_side - 1
    return np.minimum(np.floor(arr / grid.cell_side).astype(np.intp), last)


def sample_uniform_positions(n: int, domain: DomainSpec, seed: int) -> np.ndarray:
    """Draw ``n`` i.i.d. uniform positions over the domain, deterministic in ``seed``."""
    if n < 1:
        raise ParameterError(f"node count must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    return rng.random((n, 2)) * domain.side


@dataclass(frozen=True)
class OccupancyReport:
    """Per-cell node counts over a squarelet grid."""

    counts: np.ndarray
    all_nonempty: bool
    grid: SquareletGrid = field(repr=False)


def occupancy_report(positions: np.ndarray, grid: SquareletGrid) -> OccupancyReport:
    """Count nodes per cell; ``all_nonempty`` is true iff every cell has one."""
    cells = _cells(positions, grid)
    m = grid.cells_per_side
    counts = np.zeros((m, m), dtype=np.int64)
    np.add.at(counts, (cells[:, 0], cells[:, 1]), 1)
    return OccupancyReport(
        counts=counts, all_nonempty=bool(counts.min() >= 1), grid=grid
    )
