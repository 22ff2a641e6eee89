"""Tests for connectivity-graph construction, BFS and cover queries, and diameter.

Oracles live next to the tests that use them: an O(n^2) brute-force pairwise
adjacency scan, a deque BFS, a filter-over-distances ball, and exhaustive
coverage re-checks.
"""

from __future__ import annotations

import hashlib
import math
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, dijkstra

from beaconsim.errors import ConnectivityError, ParameterError
from beaconsim.geometry import DomainSpec, sample_uniform_positions
from beaconsim.graph import (
    ConnectivityGraph,
    _greedy_covers,
    _reach,
    bfs_blocks,
    bfs_distances,
    build_geometric_graph,
    diameter,
    estimate_doubling_dimension,
    greedy_cover,
)
from beaconsim.topology import comb_udg, subcritical_positions

# ---------------------------------------------------------------------------
# Helpers and oracles
# ---------------------------------------------------------------------------


def make_domain(n: int) -> DomainSpec:
    return DomainSpec(side=math.sqrt(n), n=n)


def bruteforce_edges(positions: np.ndarray, r_n: float) -> set[tuple[int, int]]:
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


def ball_oracle(g: ConnectivityGraph, u: int, radius: int) -> set[int]:
    """Node ids within ``radius`` hops of ``u``, filtered from the deque BFS."""
    return {v for v, d in enumerate(bfs_oracle(g, u)) if d <= radius}


def path_graph(m: int) -> ConnectivityGraph:
    return ConnectivityGraph.from_edges(m, [(i, i + 1) for i in range(m - 1)])


def lattice_graph(side: int) -> tuple[ConnectivityGraph, np.ndarray]:
    # Unit-spaced rows/columns; radius 1.2 links exactly the distance-1 pairs
    # under the strict-inequality edge rule (sqrt(2) diagonals stay out).
    positions = np.array([(i, j) for i in range(side) for j in range(side)], dtype=np.float64)
    return build_geometric_graph(positions, 1.2), positions


def star_graph(n_leaves: int, hub: int) -> ConnectivityGraph:
    n = n_leaves + 1
    return ConnectivityGraph.from_edges(n, [(hub, v) for v in range(n) if v != hub])


# ---------------------------------------------------------------------------
# build_geometric_graph
# ---------------------------------------------------------------------------


def test_edge_present_at_half_radius() -> None:
    g = build_geometric_graph(np.array([[0.0, 0.0], [1.0, 0.0]]), r_n=2.0)
    assert edge_set(g) == {(0, 1)}


def test_edge_absent_at_exact_radius() -> None:
    g = build_geometric_graph(np.array([[0.0, 0.0], [2.0, 0.0]]), r_n=2.0)
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
        build_geometric_graph(np.array([[0.0, 0.0]]), r_n=0.0)


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
# bfs_distances / bfs_blocks
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


def test_bfs_blocks_match_single_source_rows_and_cut_at_the_limit() -> None:
    g = two_cluster_graph(seed=4)
    sources = list(range(0, g.n, 2))  # 90 sources: a full block and a partial one
    blocks = list(bfs_blocks(g, sources))
    assert [len(block) for block, _ in blocks] == [64, 26]
    for block, rows in blocks:
        for source, row in zip(block, rows):
            assert row.tolist() == bfs_oracle(g, source)
    for block, rows in bfs_blocks(g, sources, limit=3):
        for source, row in zip(block, rows):
            full = np.array(bfs_oracle(g, source))
            assert np.array_equal(row, np.where(full <= 3, full, np.inf))
    assert list(bfs_blocks(g, [])) == []
    with pytest.raises(ParameterError):
        list(bfs_blocks(g, [0, g.n]))
    # _reach's cells, block by block, are those of one search per source,
    # and each block's come node-major, in (node, source) order
    many = np.arange(g.n - 150, g.n)  # three blocks: 64, 64 and 22 sources
    blocks = list(_reach(g, many, 3))
    assert len(blocks) == 3
    for source, node, _, _ in blocks:
        assert (np.diff(node * g.n + source) > 0).all()
    one_by_one = [cells for i in range(len(many)) for cells in _reach(g, many[i : i + 1], 3)]

    def by_source(cells) -> list[np.ndarray]:
        columns = [np.concatenate(column) for column in zip(*cells)]
        order = np.lexsort((columns[1], columns[0]))  # by (source, node)
        return [column[order] for column in columns]

    for column, want in zip(by_source(blocks), by_source(one_by_one), strict=True):
        assert np.array_equal(column, want)


def searched_ball(g: ConnectivityGraph, u: int, radius: int) -> set[int]:
    """The nodes a search from ``u`` cut at ``radius`` hops reaches: the
    R-ball as the cover estimator reads it."""
    (_, rows), = bfs_blocks(g, [u], limit=radius)
    return set(np.flatnonzero(np.isfinite(rows[0])).tolist())


def test_ball_zero_radius_is_singleton() -> None:
    g = path_graph(5)
    assert searched_ball(g, 2, 0) == {2}


def test_ball_path_center_radius_two_has_five_nodes() -> None:
    g = path_graph(9)
    assert searched_ball(g, 4, 2) == {2, 3, 4, 5, 6}


def test_ball_matches_distance_filter_oracle() -> None:
    n = 120
    positions = sample_uniform_positions(n, make_domain(n), seed=5)
    g = build_geometric_graph(positions, math.sqrt(2.0 * math.log(n)))
    rng = np.random.default_rng(1)
    for _ in range(30):
        u = int(rng.integers(0, n))
        radius = int(rng.integers(0, 6))
        assert searched_ball(g, u, radius) == ball_oracle(g, u, radius)


# ---------------------------------------------------------------------------
# greedy_cover / estimate_doubling_dimension
# ---------------------------------------------------------------------------


def verify_cover(g: ConnectivityGraph, u: int, radius: int, centers: list[int]) -> None:
    """Exhaustively re-check the cover contract from scratch."""
    target = ball_oracle(g, u, 2 * radius)
    covered: set[int] = set()
    for c in centers:
        assert c in target
        covered |= ball_oracle(g, c, radius)
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
    assert all(len(ball_oracle(g, c, 2)) < 9 for c in range(9))
    assert ball_oracle(g, 2, 2) | ball_oracle(g, 6, 2) == set(range(9))


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
    far = small + np.array([100.0, 0.0])
    return build_geometric_graph(np.vstack([big, far]), math.sqrt(2.0 * math.log(150)))


def test_doubling_estimate_matches_uncached_greedy_covers() -> None:
    graphs = [two_cluster_graph(seed=5)]
    for seed in (0, 1):
        n = 150
        positions = sample_uniform_positions(n, make_domain(n), seed=seed)
        graphs.append(build_geometric_graph(positions, math.sqrt(1.5 * math.log(n))))
    assert math.isinf(bfs_distances(graphs[0], 0).max())
    # Rows are uint8 for radii up to 127 at these sizes; radius 130 puts 2R
    # above every uint8 value, so the row type has to widen for the
    # unreachable sentinel to stay outside the 2R-ball.  The covers run
    # largest radius first, so radii out of order or repeated must still get
    # each radius's own picks, returned in the caller's order.
    for g in graphs:
        for radii in ([1, 3], [130], [8, 2, 4, 4], [4, 2]):
            est = estimate_doubling_dimension(g, radii=radii, center_sample=12, seed=3)
            expected = {
                r: max(len(greedy_cover(g, c, r)) for c in est.centers) for r in radii
            }
            assert est.cover_sizes == expected
            centers = np.array(est.centers)
            picks = _greedy_covers(g, centers, radii)
            assert len(picks) == len(radii)
            for r, p in zip(radii, picks):
                assert np.array_equal(p, _greedy_covers(g, centers, [r])[0])


def spy_dijkstra(monkeypatch) -> list[tuple[np.ndarray, dict]]:
    """Record the sources and keyword arguments of every ``dijkstra`` call
    the graph module makes."""
    calls: list[tuple[np.ndarray, dict]] = []

    def recording_dijkstra(csgraph, *args, indices=None, **kwargs):
        sources = np.arange(csgraph.shape[0]) if indices is None else indices
        calls.append((np.atleast_1d(sources), kwargs))
        return dijkstra(csgraph, *args, indices=indices, **kwargs)

    monkeypatch.setattr("beaconsim.graph.dijkstra", recording_dijkstra)
    return calls


def test_doubling_estimate_searches_each_source_once(monkeypatch) -> None:
    calls = spy_dijkstra(monkeypatch)
    n = 300
    positions = sample_uniform_positions(n, make_domain(n), seed=2)
    g = build_geometric_graph(positions, math.sqrt(2.0 * math.log(n)))
    est = estimate_doubling_dimension(g, radii=[2, 4], center_sample=8, seed=9)
    searched = [int(s) for sources, _ in calls for s in sources]
    assert set(est.centers) <= set(searched)
    assert len(searched) == len(set(searched))


def test_doubling_estimate_batches_its_searches_to_2r(monkeypatch) -> None:
    # 256 covers at n=2048 fetch about 780 distinct rows; one search per row
    # would be about 780 calls.  The sampled centers' rows bound the 2R-balls
    # and are searched to 2 * max(radii) = 16 hops; every picked center's row
    # is searched to the radius of the cover that picks it, largest radius
    # first, so it is at least the radius of every cover that reads it.
    # No other row is searched.
    # Measured: 27 calls (4 at 16 hops, 3 at 8, 9 at 4, 11 at 2).
    g = acceptance_regime_graph(2048, "supercritical")
    radii = [2, 4, 8]
    calls = spy_dijkstra(monkeypatch)
    est = estimate_doubling_dimension(g, radii=radii, center_sample=256, seed=100)
    searched_calls = list(calls)  # the spy also records the next call's searches
    picks = _greedy_covers(g, np.array(est.centers), radii)
    limit_of = {int(s): kwargs.get("limit") for sources, kwargs in searched_calls for s in sources}
    searched = [int(s) for sources, _ in searched_calls for s in sources]
    assert all(len(sources) <= 64 for sources, _ in searched_calls)
    assert len(searched) == len(set(searched))
    assert set(est.centers) <= set(searched)
    for sources, kwargs in searched_calls:
        if set(sources.tolist()) <= set(est.centers):
            assert kwargs.get("limit") == 16
        else:
            assert set(sources.tolist()).isdisjoint(est.centers)
            assert kwargs.get("limit") in {2, 4, 8}
    widest: dict[int, int] = {}  # picked center -> largest radius of a cover picking it
    for radius, p in zip(radii, picks):
        for v in np.unique(p[p >= 0]).tolist():
            widest[v] = max(widest.get(v, 0), radius)
    picked = {v: r for v, r in widest.items() if v not in est.centers}
    assert picked == {v: limit for v, limit in limit_of.items() if v not in est.centers}
    assert len(searched_calls) <= 40


def acceptance_regime_graph(n: int, regime: str) -> ConnectivityGraph:
    """Largest component of the regimes check's seed-100 layout: wide radius
    sqrt(2 ln n) or sparse radius (ln n)^0.1 on the same positions."""
    if regime == "supercritical":
        positions = sample_uniform_positions(n, DomainSpec.for_nodes(n), 100)
        g = build_geometric_graph(positions, math.sqrt(2.0 * math.log(n)))
    else:
        g = build_geometric_graph(*subcritical_positions(n, 0.8, 100))
    _, labels = connected_components(g.csr, directed=False)
    keep = np.flatnonzero(labels == np.bincount(labels).argmax())
    return ConnectivityGraph(len(keep), g.csr[keep][:, keep])


# Frozen: sha256 of repr((cover_sizes, alpha_hat, centers)) of the estimate
# the regimes check makes on each layout (256 centers, radii 2/4/8, seed 100).
ESTIMATE_DIGESTS = {
    (512, "supercritical"): "9147e73b56fabd67ba596aa73f416904a580a65b20c374ce16f9a019819740b5",
    (512, "subcritical"): "3f713edfd0a31bb95c00cbb712109bddd37d5dfe34c3201d0dd6189fb3e25936",
    (2048, "supercritical"): "4d0bbd33aa573be02c1de761bd00e939b084044f61e7564861615b3fa280ce6d",
    (2048, "subcritical"): "51b338dca3b7098056e16fd07849f5dcfaa8735442bd9f7e2e3315a36c15e329",
}


@pytest.mark.parametrize("n, regime", sorted(ESTIMATE_DIGESTS))
def test_doubling_estimate_matches_pinned_digest(n: int, regime: str) -> None:
    g = acceptance_regime_graph(n, regime)
    est = estimate_doubling_dimension(g, radii=(2, 4, 8), center_sample=256, seed=100)
    summary = repr((est.cover_sizes, est.alpha_hat, est.centers))
    assert hashlib.sha256(summary.encode()).hexdigest() == ESTIMATE_DIGESTS[(n, regime)]


# Frozen: the comb center's greedy cover, in pick order, at each radius.
COMB_COVERS = {
    8: [16, 7, 25, 133, 151, 169, 183, 197, 118, 214, 104, 232],
    16: [32, 15, 49, 457, 491, 525, 559, 593, 623, 653, 683, 713, 426, 746, 396, 780,
         366, 814, 336, 848],
    32: [64, 31, 97, 1681, 1747, 1813, 1879, 1945, 2011, 2077, 2143, 2209, 2271, 2333,
         2395, 2457, 2519, 2581, 2643, 2705, 1618, 2770, 1556, 2836, 1494, 2902, 1432,
         2968, 1370, 3034, 1308, 3100, 1246, 3166, 1184, 3232],
}


@pytest.mark.parametrize("radius", sorted(COMB_COVERS))
def test_greedy_cover_on_comb_matches_pinned_centers(radius: int) -> None:
    comb = comb_udg(radius)
    assert greedy_cover(comb.graph, comb.center_id, radius) == COMB_COVERS[radius]


def greedy_cover_oracle(g: ConnectivityGraph, u: int, radius: int) -> list[int]:
    """Independent greedy cover: deque BFS over ``g.neighbors``, targets
    taken closest to ``u`` first, ties by lower id."""
    from_u = bfs_oracle(g, u)
    target = sorted((v for v in range(g.n) if from_u[v] <= 2 * radius), key=lambda v: (from_u[v], v))
    covered = [False] * g.n
    centers = []
    for v in target:
        if covered[v]:
            continue
        centers.append(v)
        for w, d in enumerate(bfs_oracle(g, v)):
            covered[w] = covered[w] or d <= radius
    return centers


def test_greedy_covers_agree_with_deque_oracle() -> None:
    # Radius 130 puts 2R + 1 above every uint8 value, so the row type widens.
    rng = np.random.default_rng(17)
    graphs = [two_cluster_graph(seed=11)]
    for seed in (21, 22):
        n = 160
        positions = sample_uniform_positions(n, make_domain(n), seed=seed)
        graphs.append(build_geometric_graph(positions, math.sqrt(2.0 * math.log(n))))
        sparse = build_geometric_graph(positions, math.log(n) ** 0.1)
        _, labels = connected_components(sparse.csr, directed=False)
        keep = np.flatnonzero(labels == np.bincount(labels).argmax())
        graphs.append(ConnectivityGraph(len(keep), sparse.csr[keep][:, keep]))
    for g in graphs:
        assert g.n >= 8
        for radii in ([1, 2, 3, 4], [130]):
            est = estimate_doubling_dimension(g, radii=radii, center_sample=8, seed=int(rng.integers(100)))
            for r in radii:
                oracle = {c: greedy_cover_oracle(g, c, r) for c in est.centers}
                for c in est.centers:
                    assert greedy_cover(g, c, r) == oracle[c]
                assert est.cover_sizes[r] == max(len(centers) for centers in oracle.values())


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


def test_diameter_path_is_length_minus_one() -> None:
    result = diameter(path_graph(17))
    assert result.hops == 16


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
    calls = spy_dijkstra(monkeypatch)
    result = diameter(g)
    monkeypatch.undo()
    assert result.hops == all_pairs_diameter(g)
    assert sum(len(sources) for sources, _ in calls) <= 100


def test_diameter_is_exact_above_five_thousand_nodes(monkeypatch) -> None:
    # On this layout a double sweep from node 0 reads only 32 hops; the
    # diameter is 33, so the top level is 6, not 5.
    n = 8000
    positions = sample_uniform_positions(n, DomainSpec.for_nodes(n), seed=41)
    g = build_geometric_graph(positions, math.sqrt(2.0 * math.log(n)))
    calls = spy_dijkstra(monkeypatch)
    result = diameter(g)
    monkeypatch.undo()
    assert result.hops == 33
    assert sum(len(sources) for sources, _ in calls) <= 100
    assert bfs_oracle(g, 1777)[3071] == 33  # a pair the double sweep misses


def test_diameter_random_supercritical_within_grid_bounds() -> None:
    # Hop diameter of a dense random geometric graph is bracketed by the
    # straight-line distance over r_n (below) and the staircase detour factor
    # sqrt(10) over the longest straight line (above).
    n = 1000
    r_n = math.sqrt(2.0 * math.log(n))
    positions = sample_uniform_positions(n, make_domain(n), seed=4)
    g = build_geometric_graph(positions, r_n)
    result = diameter(g)
    side = math.sqrt(n)
    lower = side / (r_n * math.sqrt(10.0))
    upper = math.sqrt(2.0) * side * math.sqrt(10.0) / r_n
    assert lower <= result.hops <= upper
