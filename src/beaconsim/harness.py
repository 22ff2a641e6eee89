"""Simulation driver, metrics, experiment presets, and a greedy-geographic
forwarding baseline.

A run is described by one frozen SimConfig: node count, radius regime,
mobility, layout, protocol parameters, step count, per-step pair samples, and
four independent seed roles (placement, mobility, permutation, sampling).
run_simulation executes the rounds and returns a MetricsSeries whose recorded
window starts after every beacon level has refreshed at least once when nodes
move. Experiment presets aggregate runs into the standard tables: control
overhead against a 100*log2(n) envelope, the stretch distribution, and the
cover-growth contrast between radius regimes. Everything is deterministic
given the config, down to byte-identical CSV output.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, fields, replace
from typing import NamedTuple, Optional, Sequence

import numpy as np
from scipy.sparse.csgraph import connected_components

from .errors import ParameterError, ProtocolInvariantError
from .geometry import DomainSpec, Position, SquareletGrid, sample_uniform_positions
from .graph import (
    ConnectivityGraph,
    bfs_distances,
    build_geometric_graph,
    diameter,
    estimate_doubling_dimension,
)
from .mobility import Lockstep, RandomWalk, RandomWaypoint, step
from .protocol import ProtocolEngine, ProtocolParams
from .topology import comb_udg, remove_squarelets, subcritical_positions, wall_graph, wall_topology

__all__ = [
    "BaselineResult",
    "MetricsSeries",
    "OverheadRow",
    "RegimeRow",
    "SimConfig",
    "StepMetrics",
    "WallDemo",
    "dump_config",
    "experiment_doubling_regimes",
    "experiment_overhead_scaling",
    "experiment_stretch_cdf",
    "greedy_georoute_baseline",
    "load_config",
    "log_fit_r2",
    "parse_config",
    "radius_for",
    "run_simulation",
    "wall_demonstration",
    "write_cdf_csv",
    "write_metrics_csv",
    "write_overhead_csv",
]

_RADIUS_MODES = ("supercritical", "subcritical", "fixed")
_MOBILITY_MODELS = ("random_walk", "lockstep", "random_waypoint")
_TOPOLOGIES = ("plain", "wall", "holes", "comb")
_PROTOCOL_MODES = ("plain", "load_balanced")
_STATIC_TOPOLOGIES = ("wall", "holes", "comb")


# ---------------------------------------------------------------------------
# Run description
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SimConfig:
    """One complete run description; every field has a flat key=value form."""

    n: int
    radius_mode: str = "supercritical"
    epsilon: float = 3.0
    theta: float = 0.8
    radius: float = 0.0
    mobility_model: str = "random_walk"
    max_speed: float = 0.0
    topology: str = "plain"
    hole_width: float = 0.0
    holes_cells: tuple[tuple[int, int], ...] = ()
    comb_radius: int = 8
    protocol_mode: str = "plain"
    kappa: float = 1.0
    nu: int = 1
    levels: Optional[int] = None
    alpha_hat: float = 9.0
    steps: int = 1
    pair_samples: int = 0
    placement_seed: int = 1
    mobility_seed: int = 2
    permutation_seed: int = 3
    sampling_seed: int = 4

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ParameterError(f"need at least two nodes, got n={self.n}")
        if self.radius_mode not in _RADIUS_MODES:
            raise ParameterError(
                f"radius_mode must be one of {_RADIUS_MODES}, got {self.radius_mode!r}"
            )
        if self.radius_mode == "fixed" and not self.radius > 0.0:
            raise ParameterError(
                f"fixed radius mode needs radius > 0, got {self.radius}"
            )
        if not self.epsilon > 0.0:
            raise ParameterError(f"epsilon must be positive, got {self.epsilon}")
        if not (0.0 < self.theta <= 1.0):
            raise ParameterError(f"theta must lie in (0, 1], got {self.theta}")
        if self.mobility_model not in _MOBILITY_MODELS:
            raise ParameterError(
                f"mobility_model must be one of {_MOBILITY_MODELS}, "
                f"got {self.mobility_model!r}"
            )
        if self.max_speed < 0.0:
            raise ParameterError(f"max_speed must be >= 0, got {self.max_speed}")
        if self.topology not in _TOPOLOGIES:
            raise ParameterError(
                f"topology must be one of {_TOPOLOGIES}, got {self.topology!r}"
            )
        if self.topology in _STATIC_TOPOLOGIES and self.max_speed != 0.0:
            raise ParameterError(
                f"{self.topology} layouts are static; max_speed must be 0"
            )
        if self.hole_width < 0.0:
            raise ParameterError(f"hole_width must be >= 0, got {self.hole_width}")
        if self.protocol_mode not in _PROTOCOL_MODES:
            raise ParameterError(
                f"protocol_mode must be one of {_PROTOCOL_MODES}, "
                f"got {self.protocol_mode!r}"
            )
        if not (self.kappa > 0.0 and math.isfinite(self.kappa)):
            raise ParameterError(f"kappa must be positive and finite, got {self.kappa}")
        if self.nu < 1:
            raise ParameterError(f"refresh cadence nu must be >= 1, got {self.nu}")
        if self.levels is not None and self.levels < 0:
            raise ParameterError(f"levels must be >= 0, got {self.levels}")
        if self.steps < 1:
            raise ParameterError(f"steps must be >= 1, got {self.steps}")
        if self.pair_samples < 0:
            raise ParameterError(
                f"pair_samples must be >= 0, got {self.pair_samples}"
            )
        for seed in (
            self.placement_seed,
            self.mobility_seed,
            self.permutation_seed,
            self.sampling_seed,
        ):
            if seed < 0:
                raise ParameterError(f"seeds must be non-negative, got {seed}")

    def with_seed(self, seed: int) -> "SimConfig":
        """Derive the four seed roles from one base value."""
        return replace(
            self,
            placement_seed=seed,
            mobility_seed=seed + 1,
            permutation_seed=seed + 2,
            sampling_seed=seed + 3,
        )


def radius_for(config: SimConfig) -> float:
    """Communication radius implied by the configured regime."""
    if config.radius_mode == "supercritical":
        return math.sqrt((1.0 + config.epsilon) * math.log(config.n))
    if config.radius_mode == "subcritical":
        return math.log(config.n) ** ((1.0 - config.theta) / 2.0)
    return config.radius


# ---------------------------------------------------------------------------
# Flat key=value configs
# ---------------------------------------------------------------------------


def _format_value(name: str, value) -> str:
    if name == "holes_cells":
        return ";".join(f"{i}:{j}" for i, j in value)
    if value is None:
        return "none"
    return str(value)


def _parse_value(name: str, raw: str):
    if name == "holes_cells":
        if not raw:
            return ()
        cells = []
        for chunk in raw.split(";"):
            i, _, j = chunk.partition(":")
            cells.append((int(i), int(j)))
        return tuple(cells)
    if name == "levels":
        return None if raw.lower() == "none" else int(raw)
    kind = {f.name: f.type for f in fields(SimConfig)}[name]
    if kind == "int":
        return int(raw)
    if kind == "float":
        return float(raw)
    return raw


def dump_config(config: SimConfig) -> str:
    """Flat key=value text that parse_config maps back to the same config."""
    lines = [
        f"{f.name}={_format_value(f.name, getattr(config, f.name))}"
        for f in fields(SimConfig)
    ]
    return "\n".join(lines) + "\n"


def parse_config(text: str) -> SimConfig:
    """Parse flat key=value lines; '#' starts a comment, blanks are skipped."""
    known = {f.name for f in fields(SimConfig)}
    values: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        key, sep, raw = stripped.partition("=")
        if not sep:
            raise ParameterError(f"line {lineno}: expected key=value, got {line!r}")
        key = key.strip()
        if key not in known:
            raise ParameterError(f"line {lineno}: unknown config key {key!r}")
        try:
            values[key] = _parse_value(key, raw.strip())
        except ValueError as exc:
            raise ParameterError(f"line {lineno}: bad value for {key!r}: {exc}")
    if "n" not in values:
        raise ParameterError("config must set n")
    return SimConfig(**values)


def load_config(path) -> SimConfig:
    with open(path, encoding="utf-8") as fh:
        return parse_config(fh.read())


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


class StepMetrics(NamedTuple):
    step: int
    control_packets_per_node: float
    control_bits_total: int
    membership_bits: int
    delivery_count: int
    skipped_pairs: int
    probe_transmissions: int
    stretch_samples: tuple[tuple[int, int], ...]


_STEP_METRIC_NAMES = (
    "control_packets_per_node",
    "control_bits_total",
    "membership_bits",
    "delivery_count",
    "skipped_pairs",
    "probe_transmissions",
)


@dataclass(frozen=True)
class MetricsSeries:
    """Per-step records from one run plus pooled summary accessors."""

    n_nodes: int
    levels: int
    warmup: int
    steps: tuple[StepMetrics, ...]

    def stretch_values_pairs(self) -> list[tuple[int, int]]:
        return [pair for st in self.steps for pair in st.stretch_samples]

    def stretch_values(self) -> np.ndarray:
        pairs = self.stretch_values_pairs()
        if not pairs:
            return np.empty(0)
        arr = np.asarray(pairs, dtype=float)
        return arr[:, 0] / arr[:, 1]

    def p95_stretch(self) -> float:
        values = self.stretch_values()
        if len(values) == 0:
            raise ParameterError("no stretch samples were recorded")
        return float(np.percentile(values, 95))

    def max_stretch(self) -> float:
        values = self.stretch_values()
        if len(values) == 0:
            raise ParameterError("no stretch samples were recorded")
        return float(values.max())

    def mean_control_packets_per_node(self) -> float:
        if not self.steps:
            raise ParameterError("no steps were recorded")
        return float(np.mean([st.control_packets_per_node for st in self.steps]))

    def total_delivered(self) -> int:
        return sum(st.delivery_count for st in self.steps)

    def total_skipped(self) -> int:
        return sum(st.skipped_pairs for st in self.steps)

    def to_metric_rows(self) -> list[tuple[int, str, float]]:
        """(step, metric, value) rows in a fixed order: the scalar metrics
        for each step, then one 'stretch' row per sample."""
        rows: list[tuple[int, str, float]] = []
        for st in self.steps:
            for name in _STEP_METRIC_NAMES:
                rows.append((st.step, name, float(getattr(st, name))))
            for route_hops, bfs_hops in st.stretch_samples:
                rows.append((st.step, "stretch", route_hops / bfs_hops))
        return rows


def write_metrics_csv(series: MetricsSeries, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "metric", "value"])
        for step_index, metric, value in series.to_metric_rows():
            writer.writerow([step_index, metric, _trim(value)])


def write_cdf_csv(rows: Sequence[tuple[float, float]], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["stretch", "fraction"])
        for value, fraction in rows:
            writer.writerow([_trim(value), _trim(fraction)])


def write_overhead_csv(rows: Sequence["OverheadRow"], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "mean", "p5", "p95", "benchmark"])
        for row in rows:
            writer.writerow(
                [row.n, _trim(row.mean), _trim(row.p5), _trim(row.p95), _trim(row.benchmark)]
            )


def _trim(value: float) -> str:
    """Shortest repr that round-trips, so CSV output is byte-stable."""
    return repr(float(value))


# ---------------------------------------------------------------------------
# Layout construction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Layout:
    positions: list[Position]
    r_n: float
    domain: Optional[DomainSpec]
    static_graph: Optional[ConnectivityGraph]


def _build_layout(config: SimConfig) -> _Layout:
    r_n = radius_for(config)
    if config.topology == "plain":
        domain = DomainSpec.for_nodes(config.n)
        positions = sample_uniform_positions(config.n, domain, config.placement_seed)
        return _Layout(positions=positions, r_n=r_n, domain=domain, static_graph=None)
    if config.topology == "wall":
        # The library default gap of 4 r_n can exceed the square at small n;
        # clamp so the wall still blocks most of the width.
        gap = (
            config.hole_width
            if config.hole_width > 0
            else min(4.0 * r_n, math.sqrt(config.n) / 2.0)
        )
        wall = wall_topology(config.n, r_n, seed=config.placement_seed, hole_width=gap)
        return _Layout(
            positions=list(wall.positions),
            r_n=r_n,
            domain=None,
            static_graph=wall_graph(wall),
        )
    if config.topology == "holes":
        domain = DomainSpec.for_nodes(config.n)
        grid = SquareletGrid.from_radius(domain, r_n)
        sampled = sample_uniform_positions(config.n, domain, config.placement_seed)
        kept = remove_squarelets(sampled, config.holes_cells, grid)
        return _Layout(
            positions=kept,
            r_n=r_n,
            domain=None,
            static_graph=build_geometric_graph(kept, r_n),
        )
    comb = comb_udg(config.comb_radius)
    return _Layout(
        positions=list(comb.positions),
        r_n=1.2,
        domain=None,
        static_graph=comb.graph,
    )


def _largest_component(g: ConnectivityGraph) -> tuple[ConnectivityGraph, np.ndarray]:
    count, labels = connected_components(g.csr, directed=False)
    if count == 1:
        return g, np.arange(g.n)
    keep = np.flatnonzero(labels == np.bincount(labels).argmax())
    return ConnectivityGraph(len(keep), g.csr[keep][:, keep]), keep


def _levels_for(config: SimConfig, g0: ConnectivityGraph) -> int:
    if config.levels is not None:
        return config.levels
    core, kept = _largest_component(g0)
    if len(kept) < g0.n:
        warnings.warn(
            f"initial graph is disconnected ({g0.n - len(kept)} nodes outside "
            "the largest component); level count taken from that component",
            stacklevel=3,
        )
    return ProtocolParams.levels_for_diameter(diameter(core).hops)


def _is_mobile(config: SimConfig) -> bool:
    return config.max_speed > 0.0 and config.topology == "plain"


def _warmup(config: SimConfig, levels: int) -> int:
    """Rounds before recording starts: when nodes move, long enough for every
    level to refresh at least once."""
    return max(config.nu * 2**levels, 10) if _is_mobile(config) else 0


def _initial_graph(layout: _Layout) -> ConnectivityGraph:
    return layout.static_graph or build_geometric_graph(layout.positions, layout.r_n)


def _check_route_bound(
    source: int, dest: int, route_hops: int, hops: int, kappa: float
) -> None:
    """Raise if a delivered route exceeds the hard 6*kappa^2*d bound."""
    bound = 6.0 * kappa**2
    if route_hops > bound * hops:
        raise ProtocolInvariantError(
            f"route {source}->{dest} took {route_hops} hops, "
            f"over the bound {bound} x {hops}"
        )


def _mobility_model(config: SimConfig):
    if config.mobility_model == "random_walk":
        return RandomWalk(max_speed=config.max_speed)
    if config.mobility_model == "lockstep":
        return Lockstep(max_speed=config.max_speed)
    return RandomWaypoint(max_speed=config.max_speed)


# ---------------------------------------------------------------------------
# The driver
# ---------------------------------------------------------------------------


def run_simulation(config: SimConfig) -> MetricsSeries:
    """Execute the configured rounds and record post-warmup metrics.

    Each round: one mobility step (after the first round), a fresh
    connectivity graph, one beaconing round, then ``pair_samples`` forwards
    with a same-step BFS oracle as the stretch denominator. Draws whose
    endpoints sit in different components are skipped and counted. Delivered
    routes are re-validated by the protocol engine and must stay within the
    hard route bound; stretch below one is impossible because routes are
    real paths on the same graph the oracle measures.
    """
    layout = _build_layout(config)
    m = len(layout.positions)
    if m < 2:
        raise ParameterError(f"layout kept only {m} nodes; nothing to route")
    positions = layout.positions
    g = _initial_graph(layout)
    levels = _levels_for(config, g)
    params = ProtocolParams(
        kappa=config.kappa,
        levels=levels,
        nu=config.nu,
        alpha_hat=config.alpha_hat,
    )
    mobile = _is_mobile(config)
    warmup = _warmup(config, levels)
    if config.steps <= warmup and mobile:
        raise ParameterError(
            f"steps={config.steps} leaves no recorded rounds after the "
            f"warmup of {warmup}; raise steps above the warmup"
        )
    engine = ProtocolEngine(m, params, mode=config.protocol_mode)
    model = _mobility_model(config) if mobile else None
    recorded: list[StepMetrics] = []
    for t in range(config.steps):
        if mobile and t > 0:
            positions = step(model, positions, layout.domain, seed=config.mobility_seed, t=t)
            g = build_geometric_graph(positions, layout.r_n)
        report = engine.beaconing_round(g, t, seed=config.permutation_seed)
        if t < warmup:
            continue
        samples: list[tuple[int, int]] = []
        skipped = 0
        probe_tx = 0
        if config.pair_samples > 0:
            rng = np.random.default_rng((config.sampling_seed, t))
            for _ in range(config.pair_samples):
                source, dest = (
                    int(x) for x in rng.choice(m, size=2, replace=False)
                )
                dist = bfs_distances(g, source)
                if math.isinf(dist[dest]):
                    skipped += 1
                    continue
                hops = int(dist[dest])
                receipt = engine.forward(g, source, dest)
                _check_route_bound(source, dest, receipt.route_hops, hops, config.kappa)
                samples.append((receipt.route_hops, hops))
                probe_tx += receipt.probe_transmissions
        recorded.append(
            StepMetrics(
                step=t,
                control_packets_per_node=report.control_packets / m,
                control_bits_total=report.control_bits,
                membership_bits=(report.membership_hops + report.registration_hops)
                * params.membership_packet_bits(m),
                delivery_count=len(samples),
                skipped_pairs=skipped,
                probe_transmissions=probe_tx,
                stretch_samples=tuple(samples),
            )
        )
    return MetricsSeries(n_nodes=m, levels=levels, warmup=warmup, steps=tuple(recorded))


# ---------------------------------------------------------------------------
# Experiment presets
# ---------------------------------------------------------------------------


class OverheadRow(NamedTuple):
    n: int
    mean: float
    p5: float
    p95: float
    benchmark: float


def experiment_overhead_scaling(
    n_list: Sequence[int], trials: int, base_config: SimConfig
) -> list[OverheadRow]:
    """Mean control packets per node per recorded step, for each size.

    ``base_config.steps`` counts recorded rounds; the level count for each
    size is measured once on the initial graph and handed to the run, and its
    warmup is prepended. Trial k shifts the base seed by k. Raises if any
    measured mean exceeds the 100*log2(n) envelope.
    """
    if list(n_list) != sorted(set(n_list)):
        raise ParameterError(f"sizes must be ascending and unique, got {list(n_list)}")
    if trials < 1:
        raise ParameterError(f"need at least one trial, got {trials}")
    rows: list[OverheadRow] = []
    for n in n_list:
        values: list[float] = []
        for k in range(trials):
            cfg = replace(base_config, n=n).with_seed(base_config.placement_seed + k)
            levels = _levels_for(cfg, _initial_graph(_build_layout(cfg)))
            cfg = replace(cfg, levels=levels, steps=_warmup(cfg, levels) + base_config.steps)
            series = run_simulation(cfg)
            values.extend(st.control_packets_per_node for st in series.steps)
        mean = float(np.mean(values))
        benchmark = 100.0 * math.log2(n)
        if mean > benchmark:
            raise ProtocolInvariantError(
                f"mean control packets per node {mean:.1f} exceeded the "
                f"100*log2({n}) = {benchmark:.1f} envelope"
            )
        rows.append(
            OverheadRow(
                n=n,
                mean=mean,
                p5=float(np.percentile(values, 5)),
                p95=float(np.percentile(values, 95)),
                benchmark=benchmark,
            )
        )
    return rows


def log_fit_r2(ns: Sequence[int], means: Sequence[float]) -> tuple[float, float, float]:
    """Least-squares fit of means against log2(n): (slope, intercept, R^2)."""
    if len(ns) != len(means) or len(ns) < 2:
        raise ParameterError("need at least two (n, mean) points")
    x = np.log2(np.asarray(ns, dtype=float))
    y = np.asarray(means, dtype=float)
    slope, intercept = np.polyfit(x, y, 1)
    predicted = slope * x + intercept
    ss_res = float(np.sum((y - predicted) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(slope), float(intercept), r2


def experiment_stretch_cdf(config: SimConfig) -> list[tuple[float, float]]:
    """Pooled empirical stretch distribution: (value, cumulative fraction)."""
    if config.pair_samples < 1:
        raise ParameterError("stretch experiment needs pair_samples >= 1")
    series = run_simulation(config)
    values = np.sort(series.stretch_values())
    if len(values) == 0:
        raise ParameterError("no stretch samples were recorded")
    total = len(values)
    rows: list[tuple[float, float]] = []
    for value in values:
        fraction = float(np.searchsorted(values, value, side="right")) / total
        if not rows or rows[-1][0] != float(value):
            rows.append((float(value), fraction))
    return rows


class RegimeRow(NamedTuple):
    n: int
    regime: str
    alpha_hat: float
    restricted: bool


def experiment_doubling_regimes(
    n_list: Sequence[int],
    theta: float,
    epsilon: float,
    trials: int,
    center_sample: int = 256,
    radii: Sequence[int] = (2, 4, 8),
    seed: int = 100,
) -> list[RegimeRow]:
    """Cover-growth estimates for both radius regimes on shared layouts.

    Trial k samples one layout per size with seed ``seed + k`` and estimates
    the growth constant under the wide radius sqrt((1+epsilon) ln n) and the
    sparse radius (ln n)^((1-theta)/2) on the same positions. Sparse graphs
    fragment, so their estimate runs on the largest component and the row is
    flagged restricted. Asserts the wide-regime means stay within a 1.5x
    band across sizes while the sparse means strictly increase.
    """
    if not (0.0 < theta <= 1.0):
        raise ParameterError(f"theta must lie in (0, 1], got {theta}")
    if not epsilon > 0.0:
        raise ParameterError(f"epsilon must be positive, got {epsilon}")
    if trials < 0:
        raise ParameterError(f"trials must be >= 0, got {trials}")
    if trials == 0:
        return []
    if list(n_list) != sorted(set(n_list)):
        raise ParameterError(f"sizes must be ascending and unique, got {list(n_list)}")
    rows: list[RegimeRow] = []
    means: dict[str, list[float]] = {"supercritical": [], "subcritical": []}
    for n in n_list:
        for regime in ("supercritical", "subcritical"):
            estimates: list[int] = []
            restricted = False
            for k in range(trials):
                layout_seed = seed + k
                if regime == "supercritical":
                    positions = sample_uniform_positions(
                        n, DomainSpec.for_nodes(n), layout_seed
                    )
                    r_n = math.sqrt((1.0 + epsilon) * math.log(n))
                else:
                    positions, r_n = subcritical_positions(n, theta, layout_seed)
                g = build_geometric_graph(positions, r_n)
                core, kept = _largest_component(g)
                restricted = restricted or len(kept) < g.n
                est = estimate_doubling_dimension(
                    core, radii, center_sample=center_sample, seed=layout_seed
                )
                estimates.append(est.alpha_hat)
            mean = float(np.mean(estimates))
            means[regime].append(mean)
            rows.append(
                RegimeRow(n=n, regime=regime, alpha_hat=mean, restricted=restricted)
            )
    wide = means["supercritical"]
    if max(wide) > 1.5 * min(wide):
        raise ProtocolInvariantError(
            f"wide-radius growth means {wide} left the 1.5x stability band"
        )
    sparse = means["subcritical"]
    if any(b <= a for a, b in zip(sparse, sparse[1:])):
        raise ProtocolInvariantError(
            f"sparse-radius growth means {sparse} failed to increase with size"
        )
    return rows


# ---------------------------------------------------------------------------
# Greedy geographic baseline and the wall demonstration
# ---------------------------------------------------------------------------


class BaselineResult(NamedTuple):
    delivered: bool
    hops: int
    route: tuple[int, ...]


def greedy_georoute_baseline(
    g: ConnectivityGraph,
    positions: Sequence[Position],
    source: int,
    dest: int,
) -> BaselineResult:
    """Forward to the neighbor Euclidean-closest to the target, stopping on
    delivery or at a local minimum (no neighbor strictly closer than the
    current holder). Distance ties go to the lower node id."""
    if len(positions) != g.n:
        raise ParameterError(
            f"{len(positions)} positions for a graph on {g.n} nodes"
        )
    coords = np.asarray([(p.x, p.y) for p in positions])
    target = coords[dest]
    current = source
    route = [source]
    while current != dest:
        nbrs = g.neighbors(current)
        if len(nbrs) == 0:
            return BaselineResult(delivered=False, hops=len(route) - 1, route=tuple(route))
        gaps = np.hypot(coords[nbrs, 0] - target[0], coords[nbrs, 1] - target[1])
        here = float(np.hypot(*(coords[current] - target)))
        if float(gaps.min()) >= here:
            return BaselineResult(delivered=False, hops=len(route) - 1, route=tuple(route))
        # neighbors() is ascending, so argmin lands on the lowest id of a tie.
        current = int(nbrs[int(np.argmin(gaps))])
        route.append(current)
    return BaselineResult(delivered=True, hops=len(route) - 1, route=tuple(route))


class WallDemo(NamedTuple):
    n_nodes: int
    pair_count: int
    baseline_failure_rate: float
    protocol_delivery_rate: float
    worst_stretch: float


def wall_demonstration(
    n: int,
    seed: int,
    pair_count: int = 100,
    hole_width_factor: float = 1.0,
    kappa: float = 1.0,
) -> WallDemo:
    """Cross-wall routing contest on one static wall layout.

    Samples pairs with the source below the wall strip and the target above
    it, then compares the greedy geographic walk against hierarchical
    forwarding after a single beaconing round. Greedy walks die against the
    wall; forwarding must deliver every pair within the hard route bound.
    """
    if pair_count < 1:
        raise ParameterError(f"need at least one pair, got {pair_count}")
    r_n = math.sqrt(4.0 * math.log(n))
    wall = wall_topology(n, r_n, seed=seed, hole_width=hole_width_factor * r_n)
    g = wall_graph(wall)
    m = len(wall.positions)
    strip_lo, strip_hi = wall.strip_y
    below = [i for i, p in enumerate(wall.positions) if p.y < strip_lo]
    above = [i for i, p in enumerate(wall.positions) if p.y > strip_hi]
    if not below or not above:
        raise ParameterError("wall layout left one side empty; raise n")
    rng = np.random.default_rng(seed + 3)
    pairs = [
        (below[int(rng.integers(len(below)))], above[int(rng.integers(len(above)))])
        for _ in range(pair_count)
    ]
    levels = max(1, ProtocolParams.levels_for_diameter(diameter(g).hops))
    engine = ProtocolEngine(m, ProtocolParams(kappa=kappa, levels=levels))
    engine.beaconing_round(g, 0, seed=seed + 2)
    baseline_failures = 0
    delivered = 0
    worst = 0.0
    for source, dest in pairs:
        if not greedy_georoute_baseline(g, wall.positions, source, dest).delivered:
            baseline_failures += 1
        hops = int(bfs_distances(g, source)[dest])
        receipt = engine.forward(g, source, dest)
        _check_route_bound(source, dest, receipt.route_hops, hops, kappa)
        delivered += 1
        worst = max(worst, receipt.route_hops / hops)
    return WallDemo(
        n_nodes=m,
        pair_count=pair_count,
        baseline_failure_rate=baseline_failures / pair_count,
        protocol_delivery_rate=delivered / pair_count,
        worst_stretch=worst,
    )
