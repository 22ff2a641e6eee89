"""Tests for the bounded-speed mobility models and the hop-distance
smoothness measurement.

Oracles: torus-displacement recomputation per step, exact pairwise-distance
preservation under shared displacement, a chi-square uniformity check, and
direct algebraic evaluation of the closed-form smoothness bound.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.stats import chi2

from beaconsim.errors import DomainError, HorizonError, ParameterError
from beaconsim.geometry import DomainSpec
from beaconsim.graph import ConnectivityGraph, build_geometric_graph
from beaconsim.mobility import (
    Lockstep,
    RandomWalk,
    RandomWaypoint,
    measure_smoothness,
    step,
    theoretical_kappa,
)

SQRT10 = math.sqrt(10.0)


def make_domain(n: int) -> DomainSpec:
    return DomainSpec(side=math.sqrt(n), n=n)


def torus_displacements(before: np.ndarray, after: np.ndarray, side: float) -> np.ndarray:
    delta = np.abs(after - before)
    delta = np.minimum(delta, side - delta)
    return np.hypot(delta[:, 0], delta[:, 1])


def torus_pairwise(positions: np.ndarray, side: float) -> np.ndarray:
    delta = np.abs(positions[:, None, :] - positions[None, :, :])
    delta = np.minimum(delta, side - delta)
    return np.hypot(delta[..., 0], delta[..., 1])


def uniform_positions(n: int, side: float, seed: int) -> np.ndarray:
    return np.random.default_rng(seed).random((n, 2)) * side


# ---------------------------------------------------------------------------
# step: speed limit, boundaries, determinism
# ---------------------------------------------------------------------------


def test_vanishing_speed_leaves_positions_unchanged() -> None:
    domain = make_domain(100)
    positions = uniform_positions(100, domain.side, seed=1)
    moved = step(RandomWalk(max_speed=1e-9), positions, domain, seed=0, t=0)
    assert torus_displacements(positions, moved, domain.side).max() < 1e-9


def test_random_walk_displacement_strictly_below_speed_cap() -> None:
    domain = make_domain(100)
    positions = uniform_positions(100, domain.side, seed=2)
    model = RandomWalk(max_speed=0.7)
    for t in range(20):
        moved = step(model, positions, domain, seed=5, t=t)
        assert torus_displacements(positions, moved, domain.side).max() < 0.7
        positions = moved


def test_random_walk_stays_inside_torus_domain() -> None:
    domain = make_domain(64)
    positions = uniform_positions(64, domain.side, seed=3)
    for t in range(50):
        positions = step(RandomWalk(max_speed=2.0), positions, domain, seed=9, t=t)
        assert (positions >= 0).all() and (positions < domain.side).all()


def test_step_is_deterministic_in_seed_and_time() -> None:
    domain = make_domain(49)
    positions = uniform_positions(49, domain.side, seed=6)
    once = step(RandomWalk(max_speed=1.0), positions, domain, seed=3, t=7)
    again = step(RandomWalk(max_speed=1.0), positions, domain, seed=3, t=7)
    other_t = step(RandomWalk(max_speed=1.0), positions, domain, seed=3, t=8)
    assert once.tobytes() == again.tobytes()
    assert not np.array_equal(once, other_t)


def test_step_rejects_positions_outside_domain() -> None:
    domain = make_domain(16)
    with pytest.raises(DomainError):
        step(RandomWalk(max_speed=1.0), np.array([[-1.0, 0.0]]), domain, seed=0, t=0)


@pytest.mark.parametrize(
    "model",
    [RandomWalk(max_speed=1.0), RandomWaypoint(max_speed=1.0), Lockstep(max_speed=1.0)],
    ids=lambda m: type(m).__name__,
)
def test_step_returns_a_new_array_and_leaves_its_input_unchanged(model) -> None:
    domain = make_domain(100)
    positions = uniform_positions(100, domain.side, seed=4)
    before = positions.copy()
    for t in range(3):
        moved = step(model, positions, domain, seed=2, t=t)
        assert moved.shape == (100, 2) and moved.dtype == np.float64
        assert not np.shares_memory(moved, positions)
        assert positions.tobytes() == before.tobytes()
        moved[:] = 0.0  # writing to the result cannot reach the input
        assert positions.tobytes() == before.tobytes()


# ---------------------------------------------------------------------------
# lockstep
# ---------------------------------------------------------------------------


def test_lockstep_preserves_pairwise_torus_distances() -> None:
    domain = make_domain(100)
    positions = uniform_positions(40, domain.side, seed=8)
    before = torus_pairwise(positions, domain.side)
    for t in range(10):
        positions = step(Lockstep(max_speed=1.5), positions, domain, seed=21, t=t)
    after = torus_pairwise(positions, domain.side)
    assert np.abs(after - before).max() < 1e-9


# ---------------------------------------------------------------------------
# random waypoint
# ---------------------------------------------------------------------------


def test_random_waypoint_respects_speed_and_box() -> None:
    domain = make_domain(100)
    positions = uniform_positions(60, domain.side, seed=10)
    model = RandomWaypoint(max_speed=0.9)
    for t in range(80):
        moved = step(model, positions, domain, seed=13, t=t)
        diffs = moved - positions
        assert np.hypot(diffs[:, 0], diffs[:, 1]).max() < 0.9
        assert (moved >= 0).all() and (moved < domain.side).all()
        positions = moved


def test_random_waypoint_rejects_node_count_change() -> None:
    domain = make_domain(16)
    model = RandomWaypoint(max_speed=1.0)
    positions = uniform_positions(8, domain.side, seed=1)
    step(model, positions, domain, seed=0, t=0)
    with pytest.raises(ParameterError):
        step(model, positions[:4], domain, seed=0, t=1)


# ---------------------------------------------------------------------------
# uniformity of the walking distribution
# ---------------------------------------------------------------------------


def test_random_walk_on_torus_keeps_uniform_occupancy() -> None:
    # Start uniform, walk 10^4 steps, then bin the snapshot into 25 cells.
    # The chi-square statistic stays below the 0.999 quantile (df = 24) for
    # this fixed seed; uniformity is preserved because an independent offset
    # modulo the side leaves the uniform law invariant.
    n = 500
    domain = make_domain(n)
    positions = uniform_positions(n, domain.side, seed=17)
    model = RandomWalk(max_speed=1.0)
    for t in range(10_000):
        positions = step(model, positions, domain, seed=29, t=t)
    bins = np.linspace(0.0, domain.side, 6)
    counts, _, _ = np.histogram2d(positions[:, 0], positions[:, 1], bins=[bins, bins])
    expected = n / 25.0
    stat = float(((counts - expected) ** 2 / expected).sum())
    assert stat < chi2.ppf(0.999, df=24)


# ---------------------------------------------------------------------------
# smoothness measurement
# ---------------------------------------------------------------------------


def ring_graph(n: int) -> ConnectivityGraph:
    return ConnectivityGraph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def test_static_sequence_has_unit_ratios() -> None:
    g = ring_graph(12)
    report = measure_smoothness([g, g, g, g], tau=2, pair_sample=30, seed=0)
    assert len(report.samples) > 0
    assert all(s.ratio == 1.0 for s in report.samples)
    assert set(report.kappa_hat.values()) == {1.0}
    assert report.skipped_unreachable == 0


def test_ratios_are_at_least_one_on_mobile_sequence() -> None:
    n = 200
    domain = make_domain(n)
    r_n = math.sqrt(2.0 * math.log(n))
    positions = uniform_positions(n, domain.side, seed=30)
    model = RandomWalk(max_speed=1.0)
    graphs = []
    for t in range(8):
        graphs.append(build_geometric_graph(positions, r_n))
        positions = step(model, positions, domain, seed=31, t=t)
    report = measure_smoothness(graphs, tau=1, pair_sample=25, seed=2)
    assert len(report.samples) > 0
    assert all(s.ratio >= 1.0 for s in report.samples)
    assert all(s.tau == 1 for s in report.samples)
    for bucket, kappa in report.kappa_hat.items():
        assert kappa == max(s.ratio for s in report.samples if s.bucket == bucket)


def test_unreachable_pairs_are_skipped_and_counted() -> None:
    g = ConnectivityGraph.from_edges(8, [(0, 1), (1, 2), (3, 4), (4, 5), (6, 7)])
    report = measure_smoothness([g, g], tau=1, pair_sample=40, seed=5)
    total = len(report.samples) + report.skipped_unreachable
    assert total == 40
    assert report.skipped_unreachable > 0
    assert all(s.ratio >= 1.0 for s in report.samples)


def test_measure_smoothness_validates_inputs() -> None:
    g = ring_graph(6)
    with pytest.raises(ParameterError):
        measure_smoothness([g, g], tau=2, pair_sample=10, seed=0)
    with pytest.raises(ParameterError):
        measure_smoothness([g, g], tau=1, pair_sample=0, seed=0)


def test_buckets_are_powers_of_two() -> None:
    g = ring_graph(20)  # distances up to 10
    report = measure_smoothness([g, g], tau=1, pair_sample=60, seed=7)
    for s in report.samples:
        assert s.bucket == 2 ** math.ceil(math.log2(max(s.d_before, 1)))
    assert set(report.kappa_hat) <= {1, 2, 4, 8, 16}


def test_empirical_ratios_stay_below_closed_form_bound() -> None:
    # Walkers at speed 1 on a supercritical graph: for pairs far enough apart
    # that the bound's first branch is defined (r_n * d > 20 * tau * S), the
    # measured one-step ratio must sit below the closed form essentially
    # always.
    n = 300
    domain = make_domain(n)
    r_n = math.sqrt(2.0 * math.log(n))
    positions = uniform_positions(n, domain.side, seed=40)
    model = RandomWalk(max_speed=1.0)
    graphs = []
    for t in range(12):
        graphs.append(build_geometric_graph(positions, r_n))
        positions = step(model, positions, domain, seed=41, t=t)
    report = measure_smoothness(graphs, tau=1, pair_sample=200, seed=8)
    eligible = [s for s in report.samples if r_n * s.d_before > 20.0 * 1 * 1.0]
    assert len(eligible) >= 50
    ok = sum(
        1
        for s in eligible
        if s.ratio <= theoretical_kappa(r_n, 1.0, s.tau, float(s.d_before))
    )
    assert ok / len(eligible) >= 0.99


# ---------------------------------------------------------------------------
# closed-form bound
# ---------------------------------------------------------------------------


def test_kappa_bound_at_zero_gap_is_sqrt_ten() -> None:
    assert theoretical_kappa(1.0, 1.0, 0.0, 1.0) == pytest.approx(SQRT10)
    assert theoretical_kappa(3.7, 2.0, 0.0, 5.0) == pytest.approx(SQRT10)


def test_kappa_bound_at_zero_speed_matches_zero_gap() -> None:
    assert theoretical_kappa(2.0, 0.0, 7.0, 3.0) == theoretical_kappa(2.0, 1.0, 0.0, 3.0)


def test_kappa_bound_explicit_evaluation() -> None:
    # Straight evaluation of max{ rd/(rd/sqrt10 - 2 sqrt10 tau S),
    #                             sqrt10 (1 + 2 tau S sqrt10/(rd)) }.
    r_n, s, tau, d = 4.0, 1.0, 1.0, 8.0
    rd = r_n * d
    branch1 = rd / (rd / SQRT10 - 2.0 * SQRT10 * tau * s)
    branch2 = SQRT10 * (1.0 + 2.0 * tau * s * SQRT10 / rd)
    assert theoretical_kappa(r_n, s, tau, d) == pytest.approx(max(branch1, branch2))


def test_kappa_bound_raises_when_distance_can_collapse() -> None:
    # rd/sqrt10 <= 2 sqrt10 tau S, i.e. rd <= 20 tau S: gap too wide.
    with pytest.raises(HorizonError):
        theoretical_kappa(1.0, 1.0, 1.0, 1.0)


def test_kappa_bound_validates_parameters() -> None:
    with pytest.raises(ParameterError):
        theoretical_kappa(0.0, 1.0, 1.0, 1.0)
    with pytest.raises(ParameterError):
        theoretical_kappa(1.0, -0.5, 1.0, 1.0)
    with pytest.raises(ParameterError):
        theoretical_kappa(1.0, 1.0, -1.0, 1.0)
    with pytest.raises(ParameterError):
        theoretical_kappa(1.0, 1.0, 1.0, 0.0)


def test_small_gap_constant_is_finite_and_matches_closed_form() -> None:
    value = theoretical_kappa(1.0, 1.0, 0.01, 1.0)
    assert math.isfinite(value)
