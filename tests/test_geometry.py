"""Tests for node placement, domain handling, and the squarelet grid.

Expected values come from independent oracles computed inline: closed-form
uniform-distribution moments, a pure-Python floor-division rescan, and
Monte-Carlo occupancy rates measured with the seeds frozen below. Positions
are (n, 2) float64 arrays throughout.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beaconsim.errors import DomainError, ParameterError
from beaconsim.geometry import (
    DomainSpec,
    SquareletGrid,
    _cells,
    occupancy_report,
    sample_uniform_positions,
)
from beaconsim.graph import ConnectivityGraph, build_geometric_graph
from beaconsim.harness import greedy_georoute_baseline
from beaconsim.mobility import RandomWalk, step
from beaconsim.topology import remove_squarelets


def make_domain(n: int) -> DomainSpec:
    return DomainSpec(side=math.sqrt(n), n=n)


# ---------------------------------------------------------------------------
# DomainSpec / SquareletGrid construction
# ---------------------------------------------------------------------------


def test_domain_requires_positive_side() -> None:
    with pytest.raises(ParameterError):
        DomainSpec(side=0.0, n=0)


def test_domain_requires_side_squared_to_match_node_count() -> None:
    with pytest.raises(ParameterError):
        DomainSpec(side=10.0, n=25)


def test_grid_cell_side_is_radius_over_subdivision() -> None:
    domain = make_domain(100)
    grid = SquareletGrid.from_radius(domain, r_n=2.0)
    assert grid.cell_side == pytest.approx(2.0 / math.sqrt(5.0))
    assert grid.c == pytest.approx(math.sqrt(5.0))
    assert grid.cells_per_side == math.ceil(10.0 / grid.cell_side)


def test_grid_rejects_subdivision_below_sqrt5() -> None:
    domain = make_domain(100)
    with pytest.raises(ParameterError):
        SquareletGrid.from_radius(domain, r_n=2.0, c=2.0)


def test_grid_accepts_subdivision_above_sqrt5() -> None:
    domain = make_domain(100)
    grid = SquareletGrid.from_radius(domain, r_n=2.0, c=3.0)
    assert grid.cell_side == pytest.approx(2.0 / 3.0)


# ---------------------------------------------------------------------------
# sample_uniform_positions
# ---------------------------------------------------------------------------


def test_single_node_unit_domain_lands_inside() -> None:
    domain = make_domain(1)
    for seed in (0, 1, 12345):
        positions = sample_uniform_positions(1, domain, seed=seed)
        assert positions.shape == (1, 2) and positions.dtype == np.float64
        ((x, y),) = positions
        assert 0.0 <= x < 1.0
        assert 0.0 <= y < 1.0


def test_sample_rejects_nonpositive_count() -> None:
    domain = make_domain(4)
    with pytest.raises(ParameterError):
        sample_uniform_positions(0, domain, seed=0)


def test_empirical_mean_matches_uniform_moments() -> None:
    # Uniform on [0, 100): mean 50, sd 100/sqrt(12); the sample mean of 10^4
    # draws stays within 3 standard errors = 3 * (100/sqrt(12)) / 100.
    domain = DomainSpec(side=100.0, n=10_000)
    positions = sample_uniform_positions(10_000, domain, seed=7)
    arr = np.asarray(positions)
    bound = 3.0 * (100.0 / math.sqrt(12.0)) / math.sqrt(10_000)
    assert abs(arr[:, 0].mean() - 50.0) < bound
    assert abs(arr[:, 1].mean() - 50.0) < bound


def test_identical_seed_gives_bitwise_identical_positions() -> None:
    domain = make_domain(256)
    first = sample_uniform_positions(256, domain, seed=99)
    second = sample_uniform_positions(256, domain, seed=99)
    assert first.tobytes() == second.tobytes()


def test_distinct_seeds_differ() -> None:
    domain = make_domain(256)
    first = sample_uniform_positions(256, domain, seed=1)
    second = sample_uniform_positions(256, domain, seed=2)
    assert not np.array_equal(first, second)


@settings(deadline=None, max_examples=30)
@given(
    n=st.integers(min_value=1, max_value=64),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_positions_always_inside_domain(n: int, seed: int) -> None:
    domain = make_domain(n)
    for x, y in sample_uniform_positions(n, domain, seed=seed):
        assert 0.0 <= x < domain.side
        assert 0.0 <= y < domain.side


# ---------------------------------------------------------------------------
# The squarelet cell rule shared by occupancy_report and remove_squarelets
# ---------------------------------------------------------------------------


def test_origin_maps_to_cell_zero_zero() -> None:
    domain = make_domain(100)
    grid = SquareletGrid.from_radius(domain, r_n=math.sqrt(5.0))  # cell_side = 1
    assert _cells(np.array([[0.0, 0.0]]), grid).tolist() == [[0, 0]]


def test_cell_index_follows_floor_rule() -> None:
    domain = make_domain(100)
    grid = SquareletGrid.from_radius(domain, r_n=math.sqrt(5.0) * 2.0)  # cell_side = 2
    s = grid.cell_side
    assert _cells(np.array([[s * 1.5, s * 2.5]]), grid).tolist() == [[1, 2]]


def test_cell_indices_agree_with_rescan_oracle() -> None:
    domain = make_domain(400)
    grid = SquareletGrid.from_radius(domain, r_n=3.1)
    positions = sample_uniform_positions(400, domain, seed=11)
    expected = [
        [math.floor(x / grid.cell_side), math.floor(y / grid.cell_side)]
        for x, y in positions.tolist()
    ]
    assert _cells(positions, grid).tolist() == expected


def test_position_outside_domain_is_rejected() -> None:
    domain = make_domain(100)
    grid = SquareletGrid.from_radius(domain, r_n=2.0)
    with pytest.raises(DomainError):
        _cells(np.array([[10.0, 5.0]]), grid)  # x == side is outside [0, side)
    with pytest.raises(DomainError):
        _cells(np.array([[-0.1, 5.0]]), grid)


# ---------------------------------------------------------------------------
# Position checks at every public entry point
# ---------------------------------------------------------------------------

SIDE4 = DomainSpec(side=4.0, n=16)
GRID4 = SquareletGrid.from_radius(SIDE4, r_n=2.0 * math.sqrt(5.0))  # 2x2 cells
PAIR = ConnectivityGraph.from_edges(2, [(0, 1)])

# name -> (call on a positions array, whether the call has a domain to check)
ENTRY_POINTS = {
    "step": (lambda p: step(RandomWalk(max_speed=1.0), p, SIDE4, seed=0, t=0), True),
    "occupancy_report": (lambda p: occupancy_report(p, GRID4), True),
    "remove_squarelets": (lambda p: remove_squarelets(p, {(0, 0)}, GRID4), True),
    "build_geometric_graph": (lambda p: build_geometric_graph(p, 1.5), False),
    "greedy_georoute_baseline": (lambda p: greedy_georoute_baseline(PAIR, p, 0, 1), False),
}


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_entry_points_reject_wrong_shape_and_out_of_domain_points(name: str) -> None:
    call, has_domain = ENTRY_POINTS[name]
    call(np.array([[1.0, 1.0], [3.0, 1.0]]))
    for bad in (np.zeros((2, 3)), np.zeros(4), np.zeros((2, 2, 1))):
        with pytest.raises(ParameterError):
            call(bad)
    if has_domain:
        for outside in ([[1.0, 1.0], [4.0, 1.0]], [[1.0, -0.1], [3.0, 1.0]]):
            with pytest.raises(DomainError):
                call(np.array(outside))


# ---------------------------------------------------------------------------
# occupancy_report
# ---------------------------------------------------------------------------


def test_single_node_occupies_exactly_one_cell() -> None:
    domain = make_domain(100)
    grid = SquareletGrid.from_radius(domain, r_n=2.0)
    report = occupancy_report(sample_uniform_positions(1, domain, seed=3), grid)
    assert report.counts.sum() == 1
    assert (report.counts > 0).sum() == 1
    assert grid.cells_per_side > 1
    assert not report.all_nonempty


def test_counts_conserve_node_total() -> None:
    domain = make_domain(1024)
    grid = SquareletGrid.from_radius(domain, r_n=3.0)
    for seed in (0, 5, 42):
        positions = sample_uniform_positions(1024, domain, seed=seed)
        report = occupancy_report(positions, grid)
        assert report.counts.sum() == 1024


def test_all_nonempty_requires_minimum_count_one() -> None:
    # Hand-built configuration on a 2x2 grid: one point per cell.
    domain = DomainSpec(side=4.0, n=16)
    grid = SquareletGrid.from_radius(domain, r_n=2.0 * math.sqrt(5.0))  # cell_side = 2
    assert grid.cells_per_side == 2
    full = np.array([[1.0, 1.0], [3.0, 1.0], [1.0, 3.0], [3.0, 3.0]])
    assert occupancy_report(full, grid).all_nonempty
    assert not occupancy_report(full[:3], grid).all_nonempty


def test_occupancy_rate_with_small_cells_is_zero() -> None:
    # At n=4096 a grid with cell area 2*ln(n)/5 ~ 3.33 leaves ~97 cells empty
    # in expectation (interior cells empty w.p. e^-3.33 plus a 0.16-wide clipped
    # edge column), so the every-cell-occupied event effectively never happens.
    # Frozen Monte-Carlo rate over seeds 0..99: 0 of 100 trials.
    n = 4096
    domain = make_domain(n)
    grid = SquareletGrid.from_radius(domain, r_n=math.sqrt(2.0 * math.log(n)))
    hits = 0
    for seed in range(100):
        report = occupancy_report(sample_uniform_positions(n, domain, seed=seed), grid)
        hits += int(report.all_nonempty)
    assert hits == 0


def test_occupancy_rate_with_exact_fit_cells_is_high() -> None:
    # Same n with the domain split into 17x17 equal cells (no clipping): cell
    # area (64/17)^2 ~ 14.2 gives E[empty cells] ~ 2e-4, so every trial passes.
    # Frozen Monte-Carlo rate over seeds 0..99: 100 of 100 trials.
    n = 4096
    domain = make_domain(n)
    grid = SquareletGrid.from_radius(domain, r_n=math.sqrt(5.0) * domain.side / 17.0)
    assert grid.cells_per_side == 17
    hits = 0
    for seed in range(100):
        report = occupancy_report(sample_uniform_positions(n, domain, seed=seed), grid)
        hits += int(report.all_nonempty)
    assert hits >= 99


def test_all_nonempty_rate_monotone_in_node_count() -> None:
    # Fixed 11x11 grid on a side-64 domain; sampling more nodes into the same
    # cells can only raise the all-cells-occupied rate. Expected rates at 60
    # trials: roughly 0.17, 0.97, 1.0 for 512, 1024, 4096 nodes.
    domain = DomainSpec(side=64.0, n=4096)
    grid = SquareletGrid.from_radius(domain, r_n=math.sqrt(5.0) * 64.0 / 11.0)
    assert grid.cells_per_side == 11
    rates = []
    for n in (512, 1024, 4096):
        hits = 0
        for seed in range(60):
            positions = sample_uniform_positions(n, domain, seed=seed)
            hits += int(occupancy_report(positions, grid).all_nonempty)
        rates.append(hits / 60.0)
    assert rates[0] <= rates[1] <= rates[2]
    assert rates[2] == 1.0
