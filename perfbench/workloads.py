"""The benchmark's three workloads, each driven through beaconsim's public API.

A workload turns a seed into inputs (``setup``), runs one timed unit of work
(``run``), and checks what came back (``check``) against an oracle computed
outside the timed region.  Every workload is a closed loop with one caller.

- ``mobile-flagship``: ``run_simulation`` on the acceptance flagship run
  (1000 nodes, random walk at speed 1, epsilon 1).  Beaconing rebuilds the
  routing tables every round, so it is write-heavy.  The run is shortened
  from 50 to 20 rounds (16 of them warm-up); pair draws per recorded round
  are raised from 60 to 204 so that forwards per round stay at the
  flagship's 40.8 and the share of forwarding in the run is unchanged.
- ``static-routing``: one static 2000-node layout, set up with one beaconing
  round, then seeded pair draws sent one after another to
  ``ProtocolEngine.forward``: the read side of the same tables.
- ``growth-regimes``: ``experiment_doubling_regimes`` on sizes 512 and 2048
  at full size, the analysis path with no protocol work at all (BFS through
  greedy covers).  It is not shrunk: with 64 centers instead of 256 the
  experiment's strictly-increasing assertion failed on seeds 1027 and 1028,
  which pass with 256.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse.csgraph import shortest_path

import beaconsim as bs

KAPPA = 1.0  # protocol stretch parameter on static-routing; route bound 6 kappa^2
THETA = 0.8  # growth-regimes: sparse radius exponent
EPSILON = 1.0  # growth-regimes: wide radius margin
TRIALS = 5  # growth-regimes: layouts per (size, regime)


@dataclass
class Outcome:
    """What one unit's checks found.  ``attempted`` counts pair draws on the
    routing workloads and regime rows on ``growth-regimes``.  ``failed``
    counts operations the program did not complete or got wrong; ``errors``
    describes the ones it reported itself by raising, ``problems`` the outputs
    the checks found wrong."""

    attempted: int
    failed: int
    skipped: int = 0
    digest: str = ""
    completed: bool = True  # False when the driver call itself raised
    stretch: list[float] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    forward_s: list[float] = field(default_factory=list)  # per-call times, static-routing


def digest_of(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


# ---------------------------------------------------------------------------
# Route checks shared by the routing workloads
# ---------------------------------------------------------------------------


def oracle_hops(draws) -> list[float]:
    """Hop distance of each (graph, source, dest, route) draw, by BFS run
    with scipy directly rather than through beaconsim; inf if unreachable."""
    hops = [math.inf] * len(draws)
    by_graph: dict[int, tuple[object, list[int]]] = {}
    for i, (g, _, _, _) in enumerate(draws):
        by_graph.setdefault(id(g), (g, []))[1].append(i)
    for g, indices in by_graph.values():
        sources = sorted({draws[i][1] for i in indices})
        for start in range(0, len(sources), 256):  # bounds the distance block
            block = sources[start : start + 256]
            dist = shortest_path(g.csr, unweighted=True, indices=block)
            row_of = {source: row for row, source in enumerate(block)}
            for i in indices:
                row = row_of.get(draws[i][1])
                if row is not None:
                    hops[i] = float(dist[row, draws[i][2]])
    return hops


def _edge_keys(g) -> np.ndarray:
    csr = g.csr
    rows = np.repeat(np.arange(g.n, dtype=np.int64), np.diff(csr.indptr))
    return np.sort(rows * g.n + csr.indices.astype(np.int64))


def _walks_edges(route, keys: np.ndarray, n: int) -> bool:
    nodes = np.asarray(route, dtype=np.int64)
    hops = nodes[:-1] * n + nodes[1:]
    pos = np.minimum(np.searchsorted(keys, hops), len(keys) - 1)
    return bool(np.all(keys[pos] == hops))


def check_draws(draws, bound: float, outcome: Outcome) -> list[float]:
    """Fail every draw whose route does not join source and dest over
    existing edges within ``bound`` times the hop distance.  A draw whose
    forward raised (route None) is skipped when the oracle finds the pair
    unreachable, and failed as an error otherwise.  Returns the oracle hop
    distances."""
    hops = oracle_hops(draws)
    keys: dict[int, np.ndarray] = {}
    for (g, source, dest, route), h in zip(draws, hops):
        if route is None:
            if math.isinf(h):
                outcome.skipped += 1
            else:
                outcome.failed += 1
                outcome.errors.append(f"forward {source}->{dest} raised on a connected pair")
            continue
        if id(g) not in keys:
            keys[id(g)] = _edge_keys(g)
        ok = (
            len(route) >= 2
            and route[0] == source
            and route[-1] == dest
            and _walks_edges(route, keys[id(g)], g.n)
            and not math.isinf(h)
        )
        if not ok:
            outcome.failed += 1
            outcome.problems.append(f"route {source}->{dest} is not a path between them")
        elif len(route) - 1 > bound * h:
            outcome.failed += 1
            outcome.problems.append(
                f"route {source}->{dest} took {len(route) - 1} hops, over {bound} x {h:g}"
            )
        else:
            outcome.stretch.append((len(route) - 1) / h)
    return hops


# ---------------------------------------------------------------------------
# mobile-flagship
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MobileFlagship:
    """A run whose seed needs more warm-up rounds than ``steps`` (an initial
    diameter over 16 hops gives 32) makes ``run_simulation`` raise
    ``ParameterError``; the benchmark reports that as its own problem."""

    name: str = "mobile-flagship"
    default_seed: int = 41
    unit_s = 9.0  # about one unit's wall time, set-up and checks included
    n: int = 1000
    steps: int = 20
    pair_samples: int = 204

    def setup(self, seed: int) -> bs.SimConfig:
        return bs.SimConfig(
            n=self.n,
            epsilon=1.0,
            max_speed=1.0,
            steps=self.steps,
            pair_samples=self.pair_samples,
        ).with_seed(seed)

    def planned(self) -> int:
        """Every draw a run of this many rounds could make, warm-up rounds
        included: what a unit that raises is charged when no unit completed."""
        return self.steps * self.pair_samples

    def run(self, config: bs.SimConfig):
        """The driver call, with each forward's route recorded for the checks."""
        draws = []
        forward = bs.ProtocolEngine.forward

        def recording_forward(engine, g, source, dest):
            receipt = forward(engine, g, source, dest)
            draws.append((g, source, dest, receipt.route))
            return receipt

        bs.ProtocolEngine.forward = recording_forward
        try:
            series = bs.run_simulation(config)
        finally:
            bs.ProtocolEngine.forward = forward
        return series, draws

    def check(self, config: bs.SimConfig, output) -> Outcome:
        series, draws = output
        recorded = len(series.steps)
        outcome = Outcome(attempted=recorded * config.pair_samples, failed=0)
        if recorded != config.steps - series.warmup:
            outcome.problems.append(
                f"{recorded} recorded rounds, expected {config.steps - series.warmup}"
            )
        for st in series.steps:
            accounted = st.delivery_count + st.skipped_pairs
            if accounted != config.pair_samples:
                outcome.failed += abs(config.pair_samples - accounted)
                outcome.problems.append(
                    f"round {st.step}: delivered + skipped = {accounted}, "
                    f"attempted {config.pair_samples}"
                )
        outcome.skipped = series.total_skipped()
        hops = check_draws(draws, 6.0 * config.kappa**2, outcome)
        recomputed = [(len(route) - 1, h) for (_, _, _, route), h in zip(draws, hops)]
        if recomputed != series.stretch_values_pairs():
            outcome.failed += 1
            outcome.problems.append("stretch samples disagree with the recorded routes")
        outcome.digest = digest_of(
            (
                series.levels,
                series.warmup,
                series.to_metric_rows(),
                [(source, dest, route) for _, source, dest, route in draws],
            )
        )
        return outcome


# ---------------------------------------------------------------------------
# static-routing
# ---------------------------------------------------------------------------


@dataclass
class StaticInputs:
    graph: bs.ConnectivityGraph
    engine: bs.ProtocolEngine
    pairs: list[tuple[int, int]]


@dataclass(frozen=True)
class StaticRouting:
    name: str = "static-routing"
    default_seed: int = 41
    unit_s = 6.0
    n: int = 2000
    pairs: int = 10_000

    def setup(self, seed: int) -> StaticInputs:
        """Layout, graph, diameter, engine and one beaconing round, with the
        level count chosen as ``run_simulation`` chooses it."""
        domain = bs.DomainSpec.for_nodes(self.n)
        positions = bs.sample_uniform_positions(self.n, domain, seed)
        g = bs.build_geometric_graph(positions, math.sqrt(2.0 * math.log(self.n)))
        hops = bs.diameter(g).hops
        levels = max(0, math.ceil(math.log2(max(hops, 1))))
        engine = bs.ProtocolEngine(self.n, bs.ProtocolParams(kappa=KAPPA, levels=levels))
        engine.beaconing_round(g, 0, seed=seed + 2)
        rng = np.random.default_rng((seed, 3))
        sources = rng.integers(self.n, size=self.pairs)
        dests = (sources + rng.integers(1, self.n, size=self.pairs)) % self.n
        return StaticInputs(g, engine, list(zip(sources.tolist(), dests.tolist())))

    def planned(self) -> int:
        return self.pairs

    def run(self, inputs: StaticInputs):
        """Forward every pair in order, timing each call on its own."""
        g = inputs.graph
        engine = inputs.engine
        clock = time.perf_counter
        routes: list = []
        latencies: list[float] = []
        for source, dest in inputs.pairs:
            start = clock()
            try:
                route = engine.forward(g, source, dest).route
            except bs.BeaconSimError:
                route = None
            latencies.append(clock() - start)
            routes.append(route)
        return routes, latencies

    def check(self, inputs: StaticInputs, output) -> Outcome:
        routes, latencies = output
        outcome = Outcome(attempted=len(inputs.pairs), failed=0)
        g = inputs.graph
        draws = [(g, s, d, route) for (s, d), route in zip(inputs.pairs, routes)]
        check_draws(draws, 6.0 * KAPPA**2, outcome)
        outcome.digest = digest_of((inputs.engine.params.levels, inputs.pairs, routes))
        outcome.forward_s = latencies
        return outcome


# ---------------------------------------------------------------------------
# growth-regimes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GrowthRegimes:
    name: str = "growth-regimes"
    default_seed: int = 100
    unit_s = 15.0
    sizes: tuple[int, ...] = (512, 2048)
    center_sample: int = 256

    def setup(self, seed: int) -> int:
        return seed

    def planned(self) -> int:
        return 2 * len(self.sizes)

    def run(self, seed: int):
        return bs.experiment_doubling_regimes(
            list(self.sizes),
            theta=THETA,
            epsilon=EPSILON,
            trials=TRIALS,
            center_sample=self.center_sample,
            seed=seed,
        )

    def check(self, seed: int, rows) -> Outcome:
        """Re-check from the rows themselves what the experiment asserts:
        wide-radius means within a 1.5x band, sparse means strictly rising."""
        expected = [(n, regime) for n in self.sizes for regime in ("supercritical", "subcritical")]
        outcome = Outcome(attempted=len(expected), failed=0)
        problems = []
        if [(row.n, row.regime) for row in rows] != expected:
            problems.append("regime rows are missing or out of order")
        else:
            wide = [row.alpha_hat for row in rows if row.regime == "supercritical"]
            sparse = [row.alpha_hat for row in rows if row.regime == "subcritical"]
            if min(wide) < 1 or max(wide) > 1.5 * min(wide):
                problems.append(f"wide-radius means {wide} left the 1.5x band")
            if any(b <= a for a, b in zip(sparse, sparse[1:])):
                problems.append(f"sparse-radius means {sparse} do not strictly increase")
        if problems:
            outcome.failed = outcome.attempted
            outcome.problems.extend(problems)
        outcome.digest = digest_of([tuple(row) for row in rows])
        return outcome


WORKLOADS = {w.name: w for w in (MobileFlagship(), StaticRouting(), GrowthRegimes())}
