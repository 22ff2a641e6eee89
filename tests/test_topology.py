"""Tests for the adversarial topology generators: the obstructed-wall layout,
squarelet thinning, the comb unit-disk graph, and the sparse-radius regime.

Oracles: dense point-sampling along segments for the wall-crossing predicate,
a brute-force recount for thinning, and BFS verification of the comb
separation argument.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from beaconsim.errors import ParameterError
from beaconsim.geometry import (
    DomainSpec,
    SquareletGrid,
    sample_uniform_positions,
)
from beaconsim.graph import (
    bfs_distances,
    build_geometric_graph,
    estimate_doubling_dimension,
    greedy_cover,
)
from beaconsim.topology import (
    comb_udg,
    remove_squarelets,
    subcritical_positions,
    wall_graph,
    wall_topology,
)

# ---------------------------------------------------------------------------
# wall topology
# ---------------------------------------------------------------------------


def test_layouts_compare_by_identity_and_equality_returns_a_bool():
    # The generated dataclass == would compare the position arrays and raise.
    wall, again = wall_topology(300, 4.0, seed=1), wall_topology(300, 4.0, seed=1)
    comb = comb_udg(4)
    assert (wall == again) is False and (wall == wall) is True and (wall != again) is True
    assert (comb == comb_udg(4)) is False and (comb == comb) is True
    assert len({wall, again, comb}) == 3


def make_wall(n: int = 2000, seed: int = 0, **kwargs):
    r_n = math.sqrt(2.0 * math.log(n))
    return wall_topology(n, r_n, seed=seed, **kwargs)


def test_wall_strip_is_node_free() -> None:
    wall = make_wall()
    lo, hi = wall.strip_y
    assert lo < hi
    for _, y in wall.positions:
        assert not (lo <= y <= hi)


def test_wall_requires_radius_above_connectivity_threshold() -> None:
    with pytest.raises(ParameterError):
        wall_topology(1000, math.sqrt(math.log(1000)) * 0.9, seed=0)


def test_same_side_pair_is_not_blocked() -> None:
    wall = make_wall()
    lo, _ = wall.strip_y
    a = np.array([1.0, lo - 1.0])
    b = np.array([2.0, lo - 0.5])
    assert not wall.blocked_mask(a, b).any()


def test_straddling_pair_away_from_hole_is_blocked() -> None:
    wall = make_wall()
    lo, hi = wall.strip_y
    a = np.array([1.0, lo - 0.5])
    b = np.array([1.0, hi + 0.5])
    assert wall.blocked_mask(a, b).all()


def test_straddling_pair_through_hole_is_not_blocked() -> None:
    wall = make_wall()
    lo, hi = wall.strip_y
    hole_lo, hole_hi = wall.hole_x
    mid = (hole_lo + hole_hi) / 2.0
    a = np.array([mid, lo - 0.5])
    b = np.array([mid, hi + 0.5])
    assert not wall.blocked_mask(a, b).any()


def test_blocked_predicate_is_symmetric() -> None:
    wall = make_wall()
    rng = np.random.default_rng(3)
    pairs = rng.random((200, 2, 2)) * wall.side  # the same draws as 200 (a, b) pairs
    a, b = pairs[:, 0], pairs[:, 1]
    assert np.array_equal(wall.blocked_mask(a, b), wall.blocked_mask(b, a))


def test_blocked_predicate_matches_dense_sampling_oracle() -> None:
    wall = make_wall()
    lo, hi = wall.strip_y
    hole_lo, hole_hi = wall.hole_x

    def oracle(a: np.ndarray, b: np.ndarray, pad: float) -> bool:
        ts = np.linspace(0.0, 1.0, 4001)
        xs = a[0] + ts * (b[0] - a[0])
        ys = a[1] + ts * (b[1] - a[1])
        in_band = (ys >= lo + pad) & (ys <= hi - pad)
        in_hole = (xs >= hole_lo - pad) & (xs <= hole_hi + pad)
        return bool((in_band & ~in_hole).any())

    rng = np.random.default_rng(7)
    checked = 0
    for _ in range(400):
        a = rng.random(2) * wall.side
        b = rng.random(2) * wall.side
        eps = 1e-6
        strict = oracle(a, b, pad=eps)
        loose = oracle(a, b, pad=-eps)
        if strict != loose:
            continue  # grazing case, below sampling resolution
        assert wall.blocked_mask(a, b)[0] == strict
        checked += 1
    assert checked > 300


def test_wall_graph_filters_exactly_the_blocked_edges() -> None:
    wall = make_wall(n=500, seed=2)
    g = wall_graph(wall)
    plain = build_geometric_graph(wall.positions, wall.r_n)
    kept = {(u, v) for u in range(g.n) for v in g.neighbors(u) if u < v}
    unfiltered = {(u, v) for u in range(plain.n) for v in plain.neighbors(u) if u < v}
    assert kept <= unfiltered
    pairs = sorted(unfiltered)
    arr = np.asarray(wall.positions)
    blocked = wall.blocked_mask(arr[[u for u, _ in pairs]], arr[[v for _, v in pairs]])
    for (u, v), cut in zip(pairs, blocked):
        assert ((u, v) in kept) == (not cut)
    assert len(kept) < len(unfiltered)  # something straddles the wall


def test_wall_graph_stays_connected_and_doubling_at_scale() -> None:
    # The central gap keeps the two half-planes joined, and the growth-rate
    # estimate stays within 2x of the unobstructed layout on the same draw.
    n = 2000
    r_n = math.sqrt(2.0 * math.log(n))
    wall = wall_topology(n, r_n, seed=5)
    g = wall_graph(wall)
    assert not math.isinf(bfs_distances(g, 0).max())
    open_graph = build_geometric_graph(
        sample_uniform_positions(n, DomainSpec.for_nodes(n), seed=5), r_n
    )
    est_wall = estimate_doubling_dimension(g, radii=[2, 4], center_sample=8, seed=1)
    est_open = estimate_doubling_dimension(open_graph, radii=[2, 4], center_sample=8, seed=1)
    assert est_wall.alpha_hat <= 2 * est_open.alpha_hat


# ---------------------------------------------------------------------------
# remove_squarelets
# ---------------------------------------------------------------------------


def unit_grid(cells: int) -> SquareletGrid:
    return SquareletGrid(
        cell_side=1.0, c=math.sqrt(5.0), cells_per_side=cells, side=float(cells)
    )


def test_remove_no_cells_is_identity() -> None:
    grid = unit_grid(4)
    positions = np.array([[0.5, 0.5], [3.5, 3.5]])
    kept = remove_squarelets(positions, set(), grid)
    assert kept.tobytes() == positions.tobytes()
    assert not np.shares_memory(kept, positions)


def test_remove_all_cells_empties_layout() -> None:
    grid = unit_grid(4)
    positions = np.array([[0.5, 0.5], [3.5, 3.5]])
    every_cell = {(i, j) for i in range(4) for j in range(4)}
    assert remove_squarelets(positions, every_cell, grid).shape == (0, 2)


def test_remove_rejects_out_of_range_cells() -> None:
    grid = unit_grid(4)
    with pytest.raises(ParameterError):
        remove_squarelets(np.array([[0.5, 0.5]]), {(4, 0)}, grid)


def test_checker_pattern_count_matches_recount_oracle() -> None:
    n = 4096
    domain = DomainSpec.for_nodes(n)
    r_n = math.sqrt(2.0 * math.log(n))
    grid = SquareletGrid.from_radius(domain, r_n)
    positions = sample_uniform_positions(n, domain, seed=11)
    checker = {
        (i, j)
        for i in range(grid.cells_per_side)
        for j in range(grid.cells_per_side)
        if (i + j) % 2 == 0
    }
    thinned = remove_squarelets(positions, checker, grid)

    survivors = []
    for x, y in positions.tolist():
        i = min(math.floor(x / grid.cell_side), grid.cells_per_side - 1)
        j = min(math.floor(y / grid.cell_side), grid.cells_per_side - 1)
        if (i, j) not in checker:
            survivors.append((x, y))
    assert thinned.tolist() == [list(p) for p in survivors]
    assert 0 < len(thinned) < n


# ---------------------------------------------------------------------------
# comb unit-disk graph
# ---------------------------------------------------------------------------


def test_comb_node_count_formula() -> None:
    for r in (4, 8, 16):
        comb = comb_udg(r)
        assert comb.graph.n == 4 * r * r + 6 * r + 1
        assert len(comb.positions) == comb.graph.n


def test_comb_rejects_odd_or_small_radius() -> None:
    with pytest.raises(ParameterError):
        comb_udg(3)
    with pytest.raises(ParameterError):
        comb_udg(2)
    with pytest.raises(ParameterError):
        comb_udg(7)


def test_comb_adjacency_matches_bruteforce_on_small_instance() -> None:
    comb = comb_udg(4)
    arr = np.asarray(comb.positions)
    for u in range(comb.graph.n):
        for v in range(u + 1, comb.graph.n):
            expected = math.dist(arr[u], arr[v]) <= 1.0 + 1e-9
            assert (v in comb.graph.neighbors(u)) == expected


def test_comb_cover_counts_meet_quarter_radius_floor() -> None:
    comb8 = comb_udg(8)
    assert len(greedy_cover(comb8.graph, comb8.center_id, 8)) >= 2
    comb16 = comb_udg(16)
    assert len(greedy_cover(comb16.graph, comb16.center_id, 16)) >= 4


def test_comb_cover_grows_with_radius() -> None:
    comb = comb_udg(32)
    sizes = [len(greedy_cover(comb.graph, comb.center_id, r)) for r in (8, 16, 32)]
    assert sizes[0] < sizes[1] < sizes[2]
    for r, size in zip((8, 16, 32), sizes):
        assert size >= r / 4


def test_comb_branch_separation_argument() -> None:
    # Nodes at height R on branches within the 2R-ball are pairwise more than
    # 2R apart, so each one needs its own cover center: at least R+1 of them.
    r = 8
    comb = comb_udg(r)
    index = {(x, y): i for i, (x, y) in enumerate(comb.positions.tolist())}
    from_center = bfs_distances(comb.graph, comb.center_id)
    marks = []
    for x in range(0, 4 * r + 1, 2):
        node = index.get((float(x), float(r)))
        if node is not None and from_center[node] <= 2 * r:
            marks.append(node)
    assert len(marks) >= r + 1
    for i, a in enumerate(marks):
        dist_a = bfs_distances(comb.graph, a)
        for b in marks[i + 1 :]:
            assert dist_a[b] > 2 * r


# ---------------------------------------------------------------------------
# sparse-radius regime
# ---------------------------------------------------------------------------


def test_subcritical_radius_formula() -> None:
    _, r_theta_one = subcritical_positions(256, theta=1.0, seed=0)
    assert r_theta_one == pytest.approx(1.0)
    _, r_half = subcritical_positions(4096, theta=0.5, seed=0)
    assert r_half == pytest.approx(math.log(4096) ** 0.25)
    _, r_tiny = subcritical_positions(256, theta=1e-9, seed=0)
    assert r_tiny == pytest.approx(math.sqrt(math.log(256)), rel=1e-6)


def test_subcritical_positions_are_in_domain_and_deterministic() -> None:
    positions, _ = subcritical_positions(500, theta=0.8, seed=3)
    arr = np.asarray(positions)
    side = math.sqrt(500)
    assert len(positions) == 500
    assert (arr >= 0).all() and (arr < side).all()
    again, _ = subcritical_positions(500, theta=0.8, seed=3)
    assert positions.tobytes() == again.tobytes()


def test_subcritical_rejects_bad_theta() -> None:
    with pytest.raises(ParameterError):
        subcritical_positions(100, theta=0.0, seed=0)
    with pytest.raises(ParameterError):
        subcritical_positions(100, theta=1.5, seed=0)
