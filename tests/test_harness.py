"""Tests for the simulation driver, metrics, experiment presets, the greedy
geographic baseline, and the command-line front end.

Oracles live next to the tests that use them: a line-by-line independent
replication of the driver loop (layout, mobility, beaconing, pair sampling)
compared sample-for-sample against run_simulation, exact clique stretch,
hand-traced greedy forwarding on a three-node line, and frozen cover-growth
values re-measured through the public estimator at the seeds used here.
"""

from __future__ import annotations

import csv
import hashlib
import math
import re
from collections import deque
from dataclasses import replace

import numpy as np
import pytest

from beaconsim import harness
from beaconsim.errors import ParameterError, ProtocolInvariantError
from beaconsim.geometry import DomainSpec, sample_uniform_positions
from beaconsim.graph import ConnectivityGraph, build_geometric_graph, diameter
from beaconsim.harness import (
    BaselineResult,
    SimConfig,
    WallDemo,
    dump_config,
    experiment_doubling_regimes,
    experiment_overhead_scaling,
    experiment_stretch_cdf,
    greedy_georoute_baseline,
    load_config,
    log_fit_r2,
    parse_config,
    radius_for,
    run_simulation,
    wall_demonstration,
    write_cdf_csv,
    write_metrics_csv,
    write_overhead_csv,
)
from beaconsim.mobility import Lockstep, RandomWalk, RandomWaypoint, step
from beaconsim.protocol import ProtocolEngine, ProtocolParams


# ---------------------------------------------------------------------------
# Helpers and oracles
# ---------------------------------------------------------------------------


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


def clique_config(n: int = 24, steps: int = 2, pairs: int = 15) -> SimConfig:
    # A fixed radius wider than the square's diagonal makes every pair
    # adjacent, so every delivered route must be the single direct hop.
    return SimConfig(
        n=n,
        radius_mode="fixed",
        radius=2.0 * math.sqrt(n),
        steps=steps,
        pair_samples=pairs,
    )


# ---------------------------------------------------------------------------
# SimConfig validation and seeding
# ---------------------------------------------------------------------------


def test_config_rejects_bad_fields():
    with pytest.raises(ParameterError):
        SimConfig(n=1)
    with pytest.raises(ParameterError):
        SimConfig(n=50, steps=0)
    with pytest.raises(ParameterError):
        SimConfig(n=50, radius_mode="critical")
    with pytest.raises(ParameterError):
        SimConfig(n=50, radius_mode="fixed", radius=0.0)
    with pytest.raises(ParameterError):
        SimConfig(n=50, mobility_model="teleport")
    with pytest.raises(ParameterError):
        SimConfig(n=50, topology="moat")
    # the engine's mode list names the valid modes, in the config's words
    wrong_mode = "protocol_mode must be one of ('plain', 'load_balanced'), got 'broadcast'"
    with pytest.raises(ParameterError, match=re.escape(wrong_mode)):
        SimConfig(n=50, protocol_mode="broadcast")
    with pytest.raises(ParameterError):
        SimConfig(n=50, theta=0.0)
    with pytest.raises(ParameterError):
        SimConfig(n=50, epsilon=0.0)
    with pytest.raises(ParameterError):
        SimConfig(n=50, max_speed=-1.0)
    with pytest.raises(ParameterError):
        SimConfig(n=50, pair_samples=-1)
    with pytest.raises(ParameterError):
        SimConfig(n=50, nu=0)


def test_static_layouts_refuse_mobility():
    for topology in ("wall", "holes", "comb"):
        with pytest.raises(ParameterError):
            SimConfig(n=200, topology=topology, max_speed=1.0)


def test_with_seed_assigns_four_consecutive_roles():
    cfg = SimConfig(n=50).with_seed(70)
    assert (
        cfg.placement_seed,
        cfg.mobility_seed,
        cfg.permutation_seed,
        cfg.sampling_seed,
    ) == (70, 71, 72, 73)
    # The original is untouched (frozen dataclass semantics).
    assert SimConfig(n=50).placement_seed == 1


def test_radius_for_matches_closed_forms():
    assert radius_for(SimConfig(n=1000)) == pytest.approx(
        math.sqrt(4.0 * math.log(1000))
    )
    assert radius_for(
        SimConfig(n=1000, radius_mode="supercritical", epsilon=1.0)
    ) == pytest.approx(math.sqrt(2.0 * math.log(1000)))
    assert radius_for(
        SimConfig(n=512, radius_mode="subcritical", theta=0.8)
    ) == pytest.approx(math.log(512) ** 0.1)
    assert radius_for(SimConfig(n=64, radius_mode="fixed", radius=2.5)) == 2.5


# ---------------------------------------------------------------------------
# Flat key=value config files
# ---------------------------------------------------------------------------


def test_config_text_round_trip():
    cfg = SimConfig(
        n=120,
        radius_mode="supercritical",
        epsilon=1.0,
        mobility_model="random_walk",
        max_speed=1.0,
        steps=14,
        pair_samples=7,
        levels=3,
        holes_cells=((2, 3), (4, 5)),
    ).with_seed(9)
    assert parse_config(dump_config(cfg)) == cfg


def test_parse_config_handles_comments_blank_lines_and_none():
    text = """
# run description
n = 60
steps=3
levels = none

max_speed = 0.0
"""
    cfg = parse_config(text)
    assert cfg.n == 60 and cfg.steps == 3 and cfg.levels is None


def test_parse_config_rejects_unknown_or_malformed_keys():
    with pytest.raises(ParameterError):
        parse_config("n=60\nwarp_speed=9\n")
    with pytest.raises(ParameterError):
        parse_config("n=60\nsteps\n")
    with pytest.raises(ParameterError):
        parse_config("steps=3\n")  # n is required


def test_load_config_reads_files(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(dump_config(SimConfig(n=80, steps=2)))
    assert load_config(path) == SimConfig(n=80, steps=2)


# ---------------------------------------------------------------------------
# run_simulation: static exactness, determinism, replication, edge handling
# ---------------------------------------------------------------------------


def test_static_clique_delivers_every_pair_at_stretch_one():
    series = run_simulation(clique_config())
    assert series.n_nodes == 24
    assert series.warmup == 0
    assert len(series.steps) == 2
    for st in series.steps:
        assert st.delivery_count == 15
        assert st.skipped_pairs == 0
        for route_hops, bfs_hops in st.stretch_samples:
            assert route_hops == 1 and bfs_hops == 1
    assert series.max_stretch() == 1.0
    assert series.total_delivered() == 30


def test_same_config_twice_is_identical():
    cfg = SimConfig(
        n=60,
        radius_mode="supercritical",
        epsilon=1.0,
        max_speed=1.0,
        steps=12,
        pair_samples=4,
    )
    a = run_simulation(cfg)
    b = run_simulation(cfg)
    assert a == b


def check_driver_loop(monkeypatch, nu: int, T: int, first: int) -> None:
    # Independent replication of the documented driver semantics: uniform
    # placement with the placement seed, one mobility step per round after
    # the first, a fresh geometric graph each round, one beaconing round
    # keyed by the permutation seed, and pair sampling without replacement
    # from a generator keyed by (sampling seed, step). Metrics recorded only
    # once every level has refreshed (max(nu * 2^L, 10) steps when mobile).
    # The replication runs every round from t=0; the driver beacons only
    # from the last full refresh at or before the warm-up's end.
    n, pairs = 60, 5
    cfg = SimConfig(
        n=n,
        radius_mode="supercritical",
        epsilon=3.0,
        max_speed=1.0,
        nu=nu,
        steps=T,
        pair_samples=pairs,
    ).with_seed(30)
    calls = {"round": 0, "graph": 0, "step": 0}

    def spy(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    monkeypatch.setattr(ProtocolEngine, "beaconing_round", spy("round", ProtocolEngine.beaconing_round))
    monkeypatch.setattr(harness, "build_geometric_graph", spy("graph", harness.build_geometric_graph))
    monkeypatch.setattr(harness, "step", spy("step", harness.step))
    series = run_simulation(cfg)
    monkeypatch.undo()
    assert calls == {"round": T - first, "graph": T - first + 1, "step": T - 1}

    domain = DomainSpec.for_nodes(n)
    r_n = math.sqrt(4.0 * math.log(n))
    positions = sample_uniform_positions(n, domain, seed=30)
    g0 = build_geometric_graph(positions, r_n)
    levels = max(0, math.ceil(math.log2(max(diameter(g0).hops, 1))))
    warmup = max(nu * 2**levels, 10)
    assert series.levels == levels == 2
    assert series.warmup == warmup
    assert first == warmup - warmup % (nu * 2**levels)
    assert len(series.steps) == T - warmup

    params = ProtocolParams(kappa=1.0, levels=levels, nu=nu)
    engine = ProtocolEngine(n, params)
    model = RandomWalk(max_speed=1.0)
    recorded = []
    for t in range(T):
        if t > 0:
            positions = step(model, positions, domain, seed=31, t=t)
        g = build_geometric_graph(positions, r_n)
        report = engine.beaconing_round(g, t, seed=32)
        if t < warmup:
            continue
        rng = np.random.default_rng((33, t))
        samples = []
        for _ in range(pairs):
            s, d = (int(x) for x in rng.choice(n, size=2, replace=False))
            dist = bfs_oracle(g, s)
            if math.isinf(dist[d]):
                continue
            receipt = engine.forward(g, s, d)
            samples.append((receipt.route_hops, int(dist[d])))
        recorded.append((t, report.control_packets / n, tuple(samples)))

    assert [st.step for st in series.steps] == [t for t, _, _ in recorded]
    for st, (_, packets, samples) in zip(series.steps, recorded):
        assert st.control_packets_per_node == pytest.approx(packets)
        assert st.stretch_samples == samples


def test_driver_loop_matches_direct_composition(monkeypatch):
    # L = 2: the last full refresh, t = 8, comes before the warm-up's end
    check_driver_loop(monkeypatch, nu=1, T=13, first=8)


def test_driver_loop_skips_every_warmup_round_when_the_warmup_is_a_full_refresh(monkeypatch):
    # nu * 2**L = 16 is the warm-up itself
    check_driver_loop(monkeypatch, nu=4, T=18, first=16)


def test_mobile_run_requires_room_after_warmup():
    cfg = SimConfig(n=60, max_speed=1.0, steps=5, pair_samples=1)
    with pytest.raises(ParameterError):
        run_simulation(cfg)


def test_disconnected_pairs_are_skipped_not_fatal():
    # A subcritical radius fragments the graph; cross-component draws must
    # be skipped and counted while same-component draws still deliver.
    cfg = SimConfig(
        n=80,
        radius_mode="fixed",
        radius=1.2,
        steps=2,
        pair_samples=12,
    )
    with pytest.warns(UserWarning, match="disconnected"):
        series = run_simulation(cfg)
    skipped = series.total_skipped()
    assert skipped > 0
    assert series.total_delivered() + skipped == 2 * 12
    for route_hops, bfs_hops in series.stretch_values_pairs():
        assert route_hops >= bfs_hops >= 1


def test_stretch_never_exceeds_the_route_bound():
    cfg = SimConfig(
        n=150,
        radius_mode="supercritical",
        epsilon=1.0,
        max_speed=1.0,
        steps=14,
        pair_samples=6,
    ).with_seed(55)
    series = run_simulation(cfg)
    assert series.total_delivered() > 0
    for route_hops, bfs_hops in series.stretch_values_pairs():
        assert route_hops <= 6 * 1.0**2 * bfs_hops


def test_wall_and_holes_layouts_drop_nodes_and_still_run():
    wall_cfg = SimConfig(n=200, topology="wall", steps=1, pair_samples=8).with_seed(21)
    wall_series = run_simulation(wall_cfg)
    assert wall_series.n_nodes < 200
    assert wall_series.total_delivered() + wall_series.total_skipped() == 8

    holes_cfg = SimConfig(
        n=200,
        topology="holes",
        holes_cells=((0, 0), (1, 1)),
        steps=1,
        pair_samples=8,
    ).with_seed(21)
    holes_series = run_simulation(holes_cfg)
    assert holes_series.n_nodes < 200


# Frozen: sha256 of the float64 coordinate bytes, so a change to how
# positions are held cannot move a value unnoticed. Trajectories chain 20
# steps at n=200 from placement seed 5 (mobility seed 6); layouts are the
# harness's wall, holes and comb placements.
COORDINATE_DIGESTS = {
    "random_walk": "d115e7950fcd09e9a77c2497a3a033e765bc16e361d93d233198dbc622af8f2a",
    "random_waypoint": "e058db00853b750605321c06005aaa2a10f216c9eecc9513f706920a366761d7",
    "lockstep": "0ef8a8564e555356ad13428075482db319e7e8ae46e9292a47f1eadf516e50e3",
    "wall": "f90cf97ef9a706e9768db311e24059d93770d4a79b01554d79e1f9d31d771d2f",
    "holes": "a90c63dcf68deec58bf9e86b847a75d9f3b836067c65519638e190310170cd10",
    "comb": "0f5b411bf43d567de64ae3d9e35e9ad3d42d2be3944bd2597edbb068d60fb8ec",
}

TRAJECTORY_MODELS = {
    "random_walk": lambda: RandomWalk(max_speed=1.0),
    "random_waypoint": lambda: RandomWaypoint(max_speed=1.0),
    "lockstep": lambda: Lockstep(max_speed=1.0),
}

LAYOUT_CONFIGS = {
    "wall": SimConfig(n=300, topology="wall").with_seed(21),
    "holes": SimConfig(
        n=300, topology="holes", holes_cells=((0, 0), (1, 1), (3, 2))
    ).with_seed(21),
    "comb": SimConfig(n=2, topology="comb", comb_radius=8),
}


def coordinate_bytes(positions) -> bytes:
    return np.ascontiguousarray(positions, dtype=np.float64).tobytes()


@pytest.mark.parametrize("name", sorted(COORDINATE_DIGESTS))
def test_coordinates_match_pinned_digests(name):
    h = hashlib.sha256()
    if name in TRAJECTORY_MODELS:
        domain = DomainSpec.for_nodes(200)
        positions = sample_uniform_positions(200, domain, 5)
        model = TRAJECTORY_MODELS[name]()
        for t in range(20):
            positions = step(model, positions, domain, seed=6, t=t)
            h.update(coordinate_bytes(positions))
    else:
        h.update(coordinate_bytes(harness._build_layout(LAYOUT_CONFIGS[name]).positions))
    assert h.hexdigest() == COORDINATE_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(LAYOUT_CONFIGS))
def test_built_layouts_compare_by_identity(name):
    layout = harness._build_layout(LAYOUT_CONFIGS[name])
    assert (layout == harness._build_layout(LAYOUT_CONFIGS[name])) is False
    assert (layout == layout) is True


def test_mobile_run_leaves_the_initial_placement_unchanged(monkeypatch):
    # run_simulation steps a private copy: the layout it built still holds
    # the initial placement, byte for byte, once the mobile run is over.
    cfg = SimConfig(n=80, max_speed=1.0, steps=14, pair_samples=3).with_seed(12)
    built = []
    build = harness._build_layout

    def keep(config):
        built.append(build(config))
        return built[-1]

    monkeypatch.setattr(harness, "_build_layout", keep)
    run_simulation(cfg)
    (layout,) = built
    placement = sample_uniform_positions(80, DomainSpec.for_nodes(80), cfg.placement_seed)
    assert layout.positions.tobytes() == placement.tobytes()


def test_comb_layout_node_count_comes_from_the_branch_radius():
    cfg = SimConfig(n=2, topology="comb", comb_radius=8, steps=1, pair_samples=5)
    series = run_simulation(cfg)
    # Spine of 4R+1 nodes plus 2R branch nodes on every second column.
    assert series.n_nodes == (4 * 8 + 1) + (2 * 8 + 1) * (2 * 8)
    assert series.total_delivered() == 5


# ---------------------------------------------------------------------------
# Metrics plumbing and CSV output
# ---------------------------------------------------------------------------


def test_metrics_rows_have_fixed_order_and_reconstruct(tmp_path):
    series = run_simulation(clique_config(steps=1))
    rows = series.to_metric_rows()
    names = [name for _, name, _ in rows if name != "stretch"]
    per_step = [
        "control_packets_per_node",
        "control_bits_total",
        "membership_bits",
        "delivery_count",
        "skipped_pairs",
        "probe_transmissions",
    ]
    assert names == per_step

    path = tmp_path / "metrics.csv"
    write_metrics_csv(series, path)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        assert next(reader) == ["step", "metric", "value"]
        body = list(reader)
    assert len(body) == len(rows)


def test_metrics_csv_is_byte_identical_across_runs(tmp_path):
    cfg = clique_config()
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    write_metrics_csv(run_simulation(cfg), first)
    write_metrics_csv(run_simulation(cfg), second)
    assert first.read_bytes() == second.read_bytes()


# ---------------------------------------------------------------------------
# Experiment presets
# ---------------------------------------------------------------------------


def test_overhead_scaling_single_row_under_benchmark(tmp_path):
    base = SimConfig(n=50, max_speed=1.0, steps=6, pair_samples=0).with_seed(41)
    rows = experiment_overhead_scaling([50], trials=1, base_config=base)
    assert len(rows) == 1
    row = rows[0]
    assert row.n == 50
    assert row.benchmark == pytest.approx(100.0 * math.log2(50))
    assert 0 < row.mean <= row.benchmark
    assert row.p5 <= row.mean <= row.p95

    path = tmp_path / "overhead.csv"
    write_overhead_csv(rows, path)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        assert next(reader) == ["n", "mean", "p5", "p95", "benchmark"]
        assert len(list(reader)) == 1


def test_overhead_scaling_measures_each_diameter_once(monkeypatch):
    # The level count measured for the warm-up is handed to the run, so each
    # ladder run computes its exact diameter once.
    calls = []

    def counting_diameter(g, *args, **kwargs):
        calls.append(g.n)
        return diameter(g, *args, **kwargs)

    monkeypatch.setattr(harness, "diameter", counting_diameter)
    base = SimConfig(n=50, max_speed=1.0, steps=6, pair_samples=0).with_seed(41)
    rows = experiment_overhead_scaling([50, 100], 1, base)
    assert [row.n for row in rows] == [50, 100]
    assert calls == [50, 100]


def test_overhead_scaling_empty_input_gives_empty_table():
    base = SimConfig(n=50, max_speed=1.0, steps=6)
    assert experiment_overhead_scaling([], trials=1, base_config=base) == []


def test_overhead_scaling_requires_ascending_sizes():
    base = SimConfig(n=50, max_speed=1.0, steps=6)
    with pytest.raises(ParameterError):
        experiment_overhead_scaling([100, 50], trials=1, base_config=base)


def test_log_fit_r2_is_exact_on_synthetic_log_data():
    ns = [50, 100, 500, 1000, 2000]
    means = [25.0 * math.log2(n) for n in ns]
    slope, intercept, r2 = log_fit_r2(ns, means)
    assert slope == pytest.approx(25.0)
    assert intercept == pytest.approx(0.0, abs=1e-9)
    assert r2 == pytest.approx(1.0)


def test_stretch_cdf_on_clique_is_a_single_step_at_one(tmp_path):
    rows = experiment_stretch_cdf(clique_config())
    assert rows == [(1.0, 1.0)]
    path = tmp_path / "cdf.csv"
    write_cdf_csv(rows, path)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        assert next(reader) == ["stretch", "fraction"]
        assert next(reader) == ["1.0", "1.0"]


def test_stretch_cdf_is_monotone_and_ends_at_one():
    cfg = SimConfig(
        n=80,
        radius_mode="supercritical",
        epsilon=1.0,
        max_speed=1.0,
        steps=12,
        pair_samples=6,
    ).with_seed(7)
    rows = experiment_stretch_cdf(cfg)
    assert rows[-1][1] == pytest.approx(1.0)
    assert all(a[0] < b[0] and a[1] < b[1] for a, b in zip(rows, rows[1:]))
    assert all(value >= 1.0 for value, _ in rows)


def test_doubling_regimes_supercritical_band_and_subcritical_growth():
    # Frozen through the public estimator at these exact settings: layout
    # and center seeds 100, radii (2, 4, 8), 64 centers. The sparse-radius
    # graphs fragment, so their estimates carry the restricted flag.
    rows = experiment_doubling_regimes(
        [512, 2048],
        theta=0.8,
        epsilon=1.0,
        trials=1,
        center_sample=64,
        radii=(2, 4, 8),
        seed=100,
    )
    table = {(row.n, row.regime): row for row in rows}
    assert table[(512, "supercritical")].alpha_hat == 10.0
    assert table[(2048, "supercritical")].alpha_hat == 11.0
    assert table[(512, "subcritical")].alpha_hat == 9.0
    assert table[(2048, "subcritical")].alpha_hat == 11.0
    assert not table[(512, "supercritical")].restricted
    assert table[(512, "subcritical")].restricted
    assert table[(2048, "subcritical")].restricted


def test_doubling_regimes_zero_trials_is_empty():
    assert (
        experiment_doubling_regimes([512], theta=0.8, epsilon=1.0, trials=0) == []
    )


# ---------------------------------------------------------------------------
# Greedy geographic baseline
# ---------------------------------------------------------------------------


def test_baseline_hand_traced_local_minimum():
    positions = np.array([[3.0, 0.0], [4.0, 0.0], [10.0, 0.0]])
    g = build_geometric_graph(positions, 1.5)
    # From node 0 the only neighbor (node 1) is strictly closer to node 2,
    # so one hop is taken; node 1 has no closer neighbor and gets stuck.
    result = greedy_georoute_baseline(g, positions, 0, 2)
    assert result == BaselineResult(delivered=False, hops=1, route=(0, 1))


def test_baseline_delivers_to_adjacent_target_in_one_hop():
    positions = np.array([[1.0, 1.0], [1.5, 1.0], [1.0, 1.6]])
    g = build_geometric_graph(positions, 5.0)
    for dest in (1, 2):
        result = greedy_georoute_baseline(g, positions, 0, dest)
        assert result.delivered and result.hops == 1


def test_baseline_breaks_distance_ties_toward_the_lower_id():
    # Nodes 1 and 2 sit symmetrically about the axis to the target, exactly
    # equidistant from it; the walk must pick the lower id.
    positions = np.array([[1.0, 2.0], [2.0, 3.0], [2.0, 1.0], [3.0, 2.0]])
    g = build_geometric_graph(positions, 1.6)
    result = greedy_georoute_baseline(g, positions, 0, 3)
    assert result.delivered
    assert result.route == (0, 1, 3)


def test_baseline_source_equals_dest():
    positions = np.array([[1.0, 1.0], [2.0, 1.0]])
    g = build_geometric_graph(positions, 2.0)
    assert greedy_georoute_baseline(g, positions, 0, 0) == BaselineResult(
        delivered=True, hops=0, route=(0,)
    )


def test_baseline_rejects_a_position_count_that_is_not_the_node_count():
    positions = np.array([[1.0, 1.0], [2.0, 1.0], [3.0, 1.0]])
    g = build_geometric_graph(positions, 2.0)
    with pytest.raises(ParameterError):
        greedy_georoute_baseline(g, positions[:2], 0, 1)


# ---------------------------------------------------------------------------
# Wall demonstration
# ---------------------------------------------------------------------------


def test_wall_demonstration_protocol_beats_greedy():
    # Frozen at n=200, seed 21, gap one radius wide: the greedy walk dies
    # against the wall on 30 of 100 cross-wall pairs while hierarchical
    # forwarding delivers them all within the hard route bound.
    demo = wall_demonstration(n=200, seed=21, pair_count=100)
    assert isinstance(demo, WallDemo)
    assert demo.n_nodes == 177
    assert demo.pair_count == 100
    assert demo.baseline_failure_rate == pytest.approx(0.30)
    assert demo.protocol_delivery_rate == 1.0
    assert 1.0 <= demo.worst_stretch <= 6.0


def overlong_forward(monkeypatch):
    """Make every forward report a route far over the 6*kappa^2*d bound, and
    record each call of the shared route-bound check."""
    checked = []
    real_forward = ProtocolEngine.forward
    real_check = harness._check_route_bound

    def forward(self, g, source, dest):
        receipt = real_forward(self, g, source, dest)
        return replace(receipt, route_hops=10**6)

    def check(source, dest, *args):
        checked.append((source, dest))
        real_check(source, dest, *args)

    monkeypatch.setattr(ProtocolEngine, "forward", forward)
    monkeypatch.setattr(harness, "_check_route_bound", check)
    return checked


def test_run_simulation_raises_on_a_route_over_the_bound(monkeypatch):
    checked = overlong_forward(monkeypatch)
    cfg = SimConfig(n=60, steps=1, pair_samples=5).with_seed(3)
    with pytest.raises(ProtocolInvariantError, match="over the bound 6.0 x"):
        run_simulation(cfg)
    assert len(checked) == 1


def test_wall_demonstration_raises_on_a_route_over_the_bound(monkeypatch):
    checked = overlong_forward(monkeypatch)
    with pytest.raises(ProtocolInvariantError, match="over the bound 6.0 x"):
        wall_demonstration(n=200, seed=21, pair_count=10)
    assert len(checked) == 1


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------


def test_cli_run_writes_metrics_and_summary(tmp_path, capsys):
    from beaconsim.cli import main

    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(dump_config(clique_config()))
    out = tmp_path / "out"
    code = main(
        ["run", "--config", str(cfg_path), "--out", str(out), "--csv", "--summary"]
    )
    assert code == 0
    assert (out / "metrics.csv").exists()
    summary = (out / "summary.txt").read_text()
    assert "delivery" in summary and "PASS" in summary
    assert "steps=2" in capsys.readouterr().out


def test_cli_run_is_byte_identical_across_invocations(tmp_path):
    from beaconsim.cli import main

    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(dump_config(clique_config()))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", str(cfg_path), "--out", str(out_a), "--csv"]) == 0
    assert main(["run", "--config", str(cfg_path), "--out", str(out_b), "--csv"]) == 0
    assert (out_a / "metrics.csv").read_bytes() == (out_b / "metrics.csv").read_bytes()


def test_cli_seed_flag_overrides_all_seed_roles(tmp_path):
    from beaconsim.cli import main

    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(
        dump_config(
            SimConfig(
                n=60,
                radius_mode="supercritical",
                epsilon=1.0,
                max_speed=1.0,
                steps=12,
                pair_samples=4,
            )
        )
    )
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    main(["run", "--config", str(cfg_path), "--out", str(out_a), "--csv", "--seed", "9"])
    main(
        ["run", "--config", str(cfg_path), "--out", str(out_b), "--csv", "--seed", "10"]
    )
    assert (out_a / "metrics.csv").read_bytes() != (out_b / "metrics.csv").read_bytes()


def test_cli_stretch_writes_cdf(tmp_path, capsys):
    from beaconsim.cli import main

    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(dump_config(clique_config()))
    out = tmp_path / "out"
    assert main(["stretch", "--config", str(cfg_path), "--out", str(out)]) == 0
    # every clique route is one hop, so the CDF has one distinct value
    assert capsys.readouterr().out == "values=1 max=1.000\n"
    with open(out / "cdf.csv", newline="") as fh:
        assert next(csv.reader(fh)) == ["stretch", "fraction"]


def test_cli_overhead_writes_table(tmp_path):
    from beaconsim.cli import main

    cfg_path = tmp_path / "base.cfg"
    cfg_path.write_text(
        dump_config(SimConfig(n=50, max_speed=1.0, steps=4, pair_samples=0).with_seed(41))
    )
    out = tmp_path / "out"
    code = main(
        [
            "overhead",
            "--config",
            str(cfg_path),
            "--sizes",
            "50",
            "--trials",
            "1",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    with open(out / "overhead.csv", newline="") as fh:
        assert next(csv.reader(fh)) == ["n", "mean", "p5", "p95", "benchmark"]


def test_cli_regimes_prints_rows(tmp_path, capsys):
    from beaconsim.cli import main

    out = tmp_path / "out"
    code = main(
        [
            "regimes",
            "--sizes",
            "512",
            "--trials",
            "1",
            "--centers",
            "64",
            "--seed",
            "100",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    assert "supercritical" in capsys.readouterr().out
    rows = experiment_doubling_regimes(
        [512], theta=0.8, epsilon=1.0, trials=1, center_sample=64, seed=100
    )
    # byte-stable like the other tables: \r\n line ends, floats as repr
    lines = ["n,regime,alpha_hat,restricted"] + [
        f"{row.n},{row.regime},{row.alpha_hat!r},{int(row.restricted)}" for row in rows
    ]
    assert (out / "regimes.csv").read_bytes() == "".join(f"{line}\r\n" for line in lines).encode()


def test_cli_regimes_defaults_pass_their_own_check(capsys):
    """README's size pair with every other option at its default: one trial
    per size is too coarse for the sparse radius's strict increase, so the
    default trial count is the acceptance check's five."""
    from beaconsim.cli import main

    assert main(["regimes", "--sizes", "512,2048"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert len(rows) == 4 and all(row.startswith("n=") for row in rows)


def test_cli_baseline_reports_rates(tmp_path, capsys):
    from beaconsim.cli import main

    code = main(["baseline", "--n", "200", "--seed", "21", "--pairs", "50"])
    assert code == 0
    printed = capsys.readouterr().out
    assert "baseline_failure_rate" in printed and "protocol_delivery_rate" in printed
