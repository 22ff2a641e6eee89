"""Tests for connectivity-graph construction, ball/cover queries, and diameter.

Oracles live next to the tests that use them: an O(n^2) brute-force pairwise
adjacency scan, a deque BFS, a filter-over-distances ball, and exhaustive
coverage re-checks.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from beaconsim.errors import ConnectivityError, ParameterError
from beaconsim.geometry import DomainSpec, Position, sample_uniform_positions
from beaconsim.graph import (
    ConnectivityGraph,
    ball,
    bfs_distances,
    build_geometric_graph,
    diameter,
    estimate_doubling_dimension,
    greedy_cover,
)

# ---------------------------------------------------------------------------
# Helpers and oracles
# ---------------------------------------------------------------------------


def make_domain(n: int) -> DomainSpec:
    return DomainSpec(side=math.sqrt(n), boundary_mode="torus", n=n)


def bruteforce_edges(positions: list[Position], r_n: float) -> set[tuple[int, int]]:
    edges = set()
    for u in range(len(positions)):
        for v in range(u + 1, len(positions)):
            if math.dist(positions[u], positions[v]) < r_n:
                edges.add((u, v))
    return edges


def edge_set(g: ConnectivityGraph) -> set[tuple[int, int]]:
    return {(u, v) for u in range(g.n) for v in g.neighbors(u) if u < v}


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


def path_graph(m: int) -> ConnectivityGraph:
    return ConnectivityGraph.from_edges(m, [(i, i + 1) for i in range(m - 1)])


def lattice_graph(side: int) -> tuple[ConnectivityGraph, list[Position]]:
    # Unit-spaced rows/columns; radius 1.2 links exactly the distance-1 pairs
    # under the strict-inequality edge rule (sqrt(2) diagonals stay out).
    positions = [Position(float(i), float(j)) for i in range(side) for j in range(side)]
    return build_geometric_graph(positions, 1.2), positions


def star_graph(n_leaves: int, hub: int) -> ConnectivityGraph:
    n = n_leaves + 1
    return ConnectivityGraph.from_edges(n, [(hub, v) for v in range(n) if v != hub])


# ---------------------------------------------------------------------------
# build_geometric_graph
# ---------------------------------------------------------------------------


def test_edge_present_at_half_radius() -> None:
    g = build_geometric_graph([Position(0.0, 0.0), Position(1.0, 0.0)], r_n=2.0)
    assert edge_set(g) == {(0, 1)}


def test_edge_absent_at_exact_radius() -> None:
    g = build_geometric_graph([Position(0.0, 0.0), Position(2.0, 0.0)], r_n=2.0)
    assert edge_set(g) == set()


def test_adjacency_matches_bruteforce_oracle() -> None:
    for n, seed in ((20, 0), (150, 7)):
        domain = make_domain(n)
        positions = sample_uniform_positions(n, domain, seed=seed)
        r_n = math.sqrt(2.0 * math.log(n))
        g = build_geometric_graph(positions, r_n)
        assert edge_set(g) == bruteforce_edges(positions, r_n)


def test_geometric_graph_rejects_nonpositive_radius() -> None:
    with pytest.raises(ParameterError):
        build_geometric_graph([Position(0.0, 0.0)], r_n=0.0)


@settings(deadline=None, max_examples=25)
@given(
    n=st.integers(min_value=2, max_value=40),
    seed=st.integers(min_value=0, max_value=10_000),
    scale=st.floats(min_value=0.3, max_value=2.5),
)
def test_symmetry_and_no_self_loops(n: int, seed: int, scale: float) -> None:
    positions = sample_uniform_positions(n, make_domain(n), seed=seed)
    g = build_geometric_graph(positions, r_n=scale * math.sqrt(math.log(n + 1)))
    for u in range(n):
        nbrs = g.neighbors(u)
        assert u not in nbrs
        for v in nbrs:
            assert u in g.neighbors(v)


def test_from_edges_rejects_self_loop() -> None:
    with pytest.raises(ParameterError):
        ConnectivityGraph.from_edges(3, [(0, 0)])


def test_from_edges_deduplicates_and_symmetrizes() -> None:
    g = ConnectivityGraph.from_edges(3, [(0, 1), (1, 0), (0, 1)])
    assert edge_set(g) == {(0, 1)}
    assert g.num_edges == 1


# ---------------------------------------------------------------------------
# bfs_distances / ball
# ---------------------------------------------------------------------------


def test_bfs_distance_to_self_is_zero() -> None:
    g = path_graph(4)
    assert bfs_distances(g, 2)[2] == 0.0


def test_bfs_path_graph_distances() -> None:
    g = path_graph(4)
    assert bfs_distances(g, 0).tolist() == [0.0, 1.0, 2.0, 3.0]


def test_bfs_unreachable_is_infinity() -> None:
    g = ConnectivityGraph.from_edges(4, [(0, 1), (2, 3)])
    dist = bfs_distances(g, 0)
    assert dist[1] == 1.0
    assert math.isinf(dist[2]) and math.isinf(dist[3])


def test_bfs_matches_deque_oracle_on_random_graph() -> None:
    n = 200
    positions = sample_uniform_positions(n, make_domain(n), seed=3)
    g = build_geometric_graph(positions, math.sqrt(2.0 * math.log(n)))
    for source in (0, 57, 199):
        assert bfs_distances(g, source).tolist() == bfs_oracle(g, source)


def test_bfs_symmetry_and_triangle_inequality_on_sampled_triples() -> None:
    n = 200
    positions = sample_uniform_positions(n, make_domain(n), seed=8)
    g = build_geometric_graph(positions, math.sqrt(2.0 * math.log(n)))
    rng = np.random.default_rng(0)
    dist_cache = {u: bfs_distances(g, u) for u in range(n)}
    for _ in range(200):
        u, v, w = rng.integers(0, n, size=3)
        assert dist_cache[u][v] == dist_cache[v][u]
        if not math.isinf(dist_cache[u][v]) and not math.isinf(dist_cache[v][w]):
            assert dist_cache[u][w] <= dist_cache[u][v] + dist_cache[v][w]


def test_ball_zero_radius_is_singleton() -> None:
    g = path_graph(5)
    assert set(ball(g, 2, 0)) == {2}


def test_ball_path_center_radius_two_has_five_nodes() -> None:
    g = path_graph(9)
    assert set(ball(g, 4, 2)) == {2, 3, 4, 5, 6}


def test_ball_matches_distance_filter_oracle() -> None:
    n = 120
    positions = sample_uniform_positions(n, make_domain(n), seed=5)
    g = build_geometric_graph(positions, math.sqrt(2.0 * math.log(n)))
    rng = np.random.default_rng(1)
    for _ in range(30):
        u = int(rng.integers(0, n))
        radius = int(rng.integers(0, 6))
        expected = {v for v, d in enumerate(bfs_oracle(g, u)) if d <= radius}
        assert set(ball(g, u, radius)) == expected


# ---------------------------------------------------------------------------
# greedy_cover / estimate_doubling_dimension
# ---------------------------------------------------------------------------


def verify_cover(g: ConnectivityGraph, u: int, radius: int, centers: list[int]) -> None:
    """Exhaustively re-check the cover contract from scratch."""
    target = set(ball(g, u, 2 * radius))
    covered: set[int] = set()
    for c in centers:
        assert c in target
        covered |= set(ball(g, c, radius))
    assert target <= covered
    for i, a in enumerate(centers):
        dist_a = bfs_oracle(g, a)
        for b in centers[i + 1 :]:
            assert dist_a[b] > radius


def test_greedy_cover_star_needs_one_center_for_any_hub_id() -> None:
    # The node closest to u is u itself, so the hub is always picked first
    # and its 1-ball swallows the whole 2-ball.
    for hub in (0, 5, 12):
        g = star_graph(12, hub=hub)
        centers = greedy_cover(g, hub, 1)
        assert centers == [hub]
        verify_cover(g, hub, 1, centers)


def test_greedy_cover_path_uses_three_centers_and_breaks_ties_by_id() -> None:
    # Path of 4R+1 nodes, centered: u covers the middle, then the two wing
    # nodes equidistant from u are taken in id order.
    g = path_graph(9)
    centers = greedy_cover(g, 4, 2)
    assert centers == [4, 1, 7]
    assert len(centers) <= 3
    verify_cover(g, 4, 2, centers)
    # An exhaustive scan shows no single 2-ball covers the whole path, and the
    # two 2-balls around nodes 2 and 6 do: greedy sits between 2 and alpha^2.
    assert all(len(ball(g, c, 2)) < 9 for c in range(9))
    assert set(ball(g, 2, 2)) | set(ball(g, 6, 2)) == set(range(9))


def test_greedy_cover_path_stays_at_three_centers_as_radius_grows() -> None:
    for radius in (2, 3, 4, 6):
        g = path_graph(4 * radius + 1)
        centers = greedy_cover(g, 2 * radius, radius)
        assert len(centers) <= 3
        verify_cover(g, 2 * radius, radius, centers)


def test_greedy_cover_outputs_verified_on_random_graphs() -> None:
    for seed in (0, 1, 2):
        n = 150
        positions = sample_uniform_positions(n, make_domain(n), seed=seed)
        g = build_geometric_graph(positions, math.sqrt(2.0 * math.log(n)))
        rng = np.random.default_rng(seed)
        for _ in range(5):
            u = int(rng.integers(0, n))
            radius = int(rng.integers(1, 4))
            verify_cover(g, u, radius, greedy_cover(g, u, radius))


def lattice_cover_oracle(side: int, u: int, radius: int) -> list[int]:
    """Independent greedy cover on the unit lattice: dict adjacency + deque BFS."""
    adj: dict[int, list[int]] = {}
    for i in range(side):
        for j in range(side):
            node = i * side + j
            nbrs = []
            if i > 0:
                nbrs.append((i - 1) * side + j)
            if i < side - 1:
                nbrs.append((i + 1) * side + j)
            if j > 0:
                nbrs.append(i * side + j - 1)
            if j < side - 1:
                nbrs.append(i * side + j + 1)
            adj[node] = nbrs

    def dists(src: int) -> list[float]:
        dist = [math.inf] * (side * side)
        dist[src] = 0.0
        queue = deque([src])
        while queue:
            a = queue.popleft()
            for b in adj[a]:
                if math.isinf(dist[b]):
                    dist[b] = dist[a] + 1.0
                    queue.append(b)
        return dist

    from_u = dists(u)
    target = [v for v in range(side * side) if from_u[v] <= 2 * radius]
    target.sort(key=lambda v: (from_u[v], v))  # closest to u first, ties by id
    covered: set[int] = set()
    centers = []
    for v in target:
        if v in covered:
            continue
        centers.append(v)
        from_v = dists(v)
        covered |= {w for w in range(side * side) if from_v[w] <= radius}
    return centers


def test_greedy_cover_agrees_with_independent_lattice_oracle() -> None:
    side = 13
    g, _ = lattice_graph(side)
    center = (side // 2) * side + side // 2
    for radius in (1, 2, 3):
        assert greedy_cover(g, center, radius) == lattice_cover_oracle(side, center, radius)


def test_doubling_estimate_on_clique_is_one() -> None:
    n = 30
    g = ConnectivityGraph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)])
    est = estimate_doubling_dimension(g, radii=[1, 2, 4], center_sample=10, seed=0)
    assert est.cover_sizes == {1: 1, 2: 1, 4: 1}
    assert est.alpha_hat == 1


# Frozen from this build's estimator run on the 50x50 unit lattice (20 sampled
# centers, seed 0): the max greedy cover count is the same at every radius, as
# expected for a flat 2-D metric. Interior centers give 9 at every radius from
# 1 to 8; boundary centers give less (4 at corners, 6 on edges).
LATTICE_COVER_COUNT = 9


def test_doubling_estimate_constant_across_radii_on_lattice() -> None:
    g, _ = lattice_graph(50)
    est = estimate_doubling_dimension(g, radii=[2, 4, 8], center_sample=20, seed=0)
    sizes = set(est.cover_sizes.values())
    assert len(sizes) == 1
    assert est.alpha_hat == LATTICE_COVER_COUNT


def test_doubling_estimate_deterministic() -> None:
    n = 300
    positions = sample_uniform_positions(n, make_domain(n), seed=2)
    g = build_geometric_graph(positions, math.sqrt(2.0 * math.log(n)))
    first = estimate_doubling_dimension(g, radii=[2, 4], center_sample=8, seed=9)
    second = estimate_doubling_dimension(g, radii=[2, 4], center_sample=8, seed=9)
    assert first.cover_sizes == second.cover_sizes
    assert first.alpha_hat == second.alpha_hat


def two_cluster_graph(seed: int) -> ConnectivityGraph:
    """A 150-node and a 30-node random layout 100 units apart, so the graph
    has at least two components."""
    big = sample_uniform_positions(150, make_domain(150), seed=seed)
    small = sample_uniform_positions(30, make_domain(30), seed=seed + 1)
    far = [Position(p.x + 100.0, p.y) for p in small]
    return build_geometric_graph(big + far, math.sqrt(2.0 * math.log(150)))


def test_doubling_estimate_matches_uncached_greedy_covers() -> None:
    graphs = [two_cluster_graph(seed=5)]
    for seed in (0, 1):
        n = 150
        positions = sample_uniform_positions(n, make_domain(n), seed=seed)
        graphs.append(build_geometric_graph(positions, math.sqrt(1.5 * math.log(n))))
    assert math.isinf(bfs_distances(graphs[0], 0).max())
    # Rows are uint8 for radii up to 127 at these sizes; radius 130 puts 2R
    # above every uint8 value, so the row type has to widen for the
    # unreachable sentinel to stay outside the 2R-ball.
    for g in graphs:
        for radii in ([1, 3], [130]):
            est = estimate_doubling_dimension(g, radii=radii, center_sample=12, seed=3)
            expected = {
                r: max(len(greedy_cover(g, c, r)) for c in est.centers) for r in radii
            }
            assert est.cover_sizes == expected


def test_doubling_estimate_searches_each_source_once(monkeypatch) -> None:
    searched: list[int] = []

    def counting_bfs(g: ConnectivityGraph, source: int) -> np.ndarray:
        searched.append(int(source))
        return bfs_distances(g, source)

    monkeypatch.setattr("beaconsim.graph.bfs_distances", counting_bfs)
    n = 300
    positions = sample_uniform_positions(n, make_domain(n), seed=2)
    g = build_geometric_graph(positions, math.sqrt(2.0 * math.log(n)))
    est = estimate_doubling_dimension(g, radii=[2, 4], center_sample=8, seed=9)
    assert set(est.centers) <= set(searched)
    assert len(searched) == len(set(searched))


def test_doubling_estimate_rejects_bad_inputs() -> None:
    g = path_graph(4)
    with pytest.raises(ParameterError):
        estimate_doubling_dimension(g, radii=[], center_sample=4, seed=0)
    with pytest.raises(ParameterError):
        estimate_doubling_dimension(g, radii=[0], center_sample=4, seed=0)
    with pytest.raises(ParameterError):
        estimate_doubling_dimension(g, radii=[2], center_sample=0, seed=0)


# ---------------------------------------------------------------------------
# diameter
# ---------------------------------------------------------------------------


def test_diameter_clique_is_one() -> None:
    g = ConnectivityGraph.from_edges(5, [(u, v) for u in range(5) for v in range(u + 1, 5)])
    result = diameter(g)
    assert result.hops == 1
    assert result.exact


def test_diameter_path_is_length_minus_one() -> None:
    result = diameter(path_graph(17))
    assert result.hops == 16
    assert result.exact


def cycle_graph(m: int) -> ConnectivityGraph:
    return ConnectivityGraph.from_edges(m, [(i, (i + 1) % m) for i in range(m)])


def all_pairs_diameter(g: ConnectivityGraph) -> int:
    return int(dijkstra(g.csr, unweighted=True).max())


def random_connected_graphs(count: int, seed: int) -> list[ConnectivityGraph]:
    """Seeded random geometric graphs, sparse radii (long, stringy) to dense
    ones; layouts that come out disconnected are skipped."""
    rng = np.random.default_rng(seed)
    graphs = []
    while len(graphs) < count:
        n = int(rng.integers(2, 401))
        r_n = math.sqrt(float(rng.uniform(1.0, 4.0)) * math.log(max(n, 3)))
        positions = sample_uniform_positions(n, make_domain(n), seed=int(rng.integers(1 << 30)))
        g = build_geometric_graph(positions, r_n)
        if np.isfinite(bfs_distances(g, 0)).all():
            graphs.append(g)
    return graphs


@pytest.mark.parametrize(
    "g",
    [
        pytest.param(ConnectivityGraph(1, csr_matrix((1, 1))), id="single-node"),
        pytest.param(path_graph(2), id="path-2"),
        pytest.param(path_graph(40), id="path-40"),
        pytest.param(cycle_graph(3), id="cycle-3"),
        pytest.param(cycle_graph(31), id="cycle-31"),
        pytest.param(cycle_graph(32), id="cycle-32"),
        pytest.param(star_graph(12, hub=5), id="star-12"),
        pytest.param(
            ConnectivityGraph.from_edges(9, [(u, v) for u in range(9) for v in range(u + 1, 9)]),
            id="clique-9",
        ),
        *(
            pytest.param(g, id=f"geometric-{i}-n{g.n}")
            for i, g in enumerate(random_connected_graphs(60, seed=13))
        ),
    ],
)
def test_diameter_matches_all_pairs_oracle(g: ConnectivityGraph) -> None:
    result = diameter(g)
    assert result.exact
    assert result.hops == all_pairs_diameter(g)


def test_diameter_disconnected_raises() -> None:
    cases = [
        ConnectivityGraph.from_edges(4, [(0, 1), (2, 3)]),
        ConnectivityGraph.from_edges(50, [(i, i + 1) for i in range(48)]),  # node 49 isolated
        ConnectivityGraph.from_edges(
            60, [(i, (i + 1) % 30) for i in range(30)] + [(30 + i, 30 + (i + 1) % 30) for i in range(30)]
        ),
    ]
    for g in cases:
        with pytest.raises(ConnectivityError):
            diameter(g)


def test_diameter_searches_few_sources(monkeypatch) -> None:
    # An all-pairs search would run 2000 BFS sources here.
    n = 2000
    positions = sample_uniform_positions(n, DomainSpec.for_nodes(n), seed=41)
    g = build_geometric_graph(positions, math.sqrt(2.0 * math.log(n)))
    sources = []

    def counting_dijkstra(csgraph, *args, indices=None, **kwargs):
        sources.extend(np.atleast_1d(np.arange(csgraph.shape[0]) if indices is None else indices))
        return dijkstra(csgraph, *args, indices=indices, **kwargs)

    monkeypatch.setattr("beaconsim.graph.dijkstra", counting_dijkstra)
    result = diameter(g)
    assert result.exact
    monkeypatch.undo()
    assert result.hops == all_pairs_diameter(g)
    assert len(sources) <= 100


def test_diameter_estimate_flag_and_lower_bound() -> None:
    g = path_graph(30)
    estimate = diameter(g, exact_cutoff=10)
    assert not estimate.exact
    assert estimate.hops <= 29
    assert estimate.hops >= 1
    # Double sweep is exact on trees, so the value still matches here.
    assert estimate.hops == 29


def test_diameter_random_supercritical_within_grid_bounds() -> None:
    # Hop diameter of a dense random geometric graph is bracketed by the
    # straight-line distance over r_n (below) and the staircase detour factor
    # sqrt(10) over the longest straight line (above).
    n = 1000
    r_n = math.sqrt(2.0 * math.log(n))
    positions = sample_uniform_positions(n, make_domain(n), seed=4)
    g = build_geometric_graph(positions, r_n)
    result = diameter(g)
    assert result.exact
    side = math.sqrt(n)
    lower = side / (r_n * math.sqrt(10.0))
    upper = math.sqrt(2.0) * side * math.sqrt(10.0) / r_n
    assert lower <= result.hops <= upper
