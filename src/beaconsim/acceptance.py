"""Full-scale acceptance checks, one PASS/FAIL line each.

Every check drives the library through its public entry points at a fixed
scale, seed, and tolerance, so the whole list doubles as a regression gate
and as a worked example of each subsystem.  Run everything with::

    python -m beaconsim.acceptance

or name a subset (``python -m beaconsim.acceptance occupancy wall``).  The
shared 1000-node mobile run backs four checks and is computed once per
process; the full list takes a few minutes, dominated by that run and by
the 2000-node rung of the overhead ladder.
"""

from __future__ import annotations

import argparse
import math
from typing import Callable, NamedTuple, Optional, Sequence

from .errors import HorizonError, ProtocolInvariantError
from .geometry import (
    DomainSpec,
    SquareletGrid,
    occupancy_report,
    sample_uniform_positions,
)
from .graph import bfs_blocks, build_geometric_graph, greedy_cover
from .harness import (
    MetricsSeries,
    SimConfig,
    experiment_doubling_regimes,
    experiment_overhead_scaling,
    log_fit_r2,
    run_simulation,
    wall_demonstration,
)
from .mobility import RandomWalk, measure_smoothness, step, theoretical_kappa
from .protocol import ProtocolEngine, ProtocolParams, RoundReport
from .topology import comb_udg


class CheckResult(NamedTuple):
    """Outcome of one acceptance check."""

    name: str
    passed: bool
    detail: str


# ---------------------------------------------------------------------------
# Shared flagship run: 1000 mobile nodes, 50 rounds, 60 pair draws per
# recorded round. Stretch, delivery, and the route bound all read from it.
# ---------------------------------------------------------------------------


FLAGSHIP_CONFIG = SimConfig(
    n=1000,
    epsilon=1.0,
    max_speed=1.0,
    steps=50,
    pair_samples=60,
).with_seed(41)

_FLAGSHIP: dict[str, object] = {}


def flagship_series() -> MetricsSeries:
    """The shared run's metrics, computed on first use (about half a minute)."""
    if "value" not in _FLAGSHIP and "error" not in _FLAGSHIP:
        try:
            _FLAGSHIP["value"] = run_simulation(FLAGSHIP_CONFIG)
        except Exception as exc:  # reused so dependent checks fail once, fast
            _FLAGSHIP["error"] = exc
    if "error" in _FLAGSHIP:
        raise _FLAGSHIP["error"]  # type: ignore[misc]
    return _FLAGSHIP["value"]  # type: ignore[return-value]


def check_stretch() -> CheckResult:
    """Pooled stretch over the mobile run: p95 <= 1.5 and max <= 6 on at
    least 2000 source/destination draws."""
    series = flagship_series()
    values = series.stretch_values()
    pooled = len(values)
    p95 = series.p95_stretch()
    worst = series.max_stretch()
    kappa = FLAGSHIP_CONFIG.kappa
    passed = pooled >= 2000 and p95 <= 1.5 and worst <= 6.0 * kappa**2
    return CheckResult(
        "stretch",
        passed,
        f"pooled={pooled} (>= 2000), p95={p95:.3f} (<= 1.5), "
        f"max={worst:.3f} (<= {6.0 * kappa**2:g})",
    )


def check_route_bound() -> CheckResult:
    """No delivered route may exceed 6*kappa^2 times the hop distance; the
    driver enforces this per delivery, so a finished run proves the count."""
    series = flagship_series()
    delivered = series.total_delivered()
    return CheckResult(
        "route-bound",
        delivered > 0,
        f"0 of {delivered} delivered routes exceeded 6*kappa^2*d "
        "(enforced on every forward)",
    )


def check_delivery() -> CheckResult:
    """Every sampled pair with a finite hop distance must be delivered."""
    series = flagship_series()
    delivered = series.total_delivered()
    skipped = series.total_skipped()
    attempted = FLAGSHIP_CONFIG.pair_samples * len(series.steps)
    passed = skipped == 0 and delivered == attempted and delivered >= 2000
    return CheckResult(
        "delivery",
        passed,
        f"delivered={delivered} of {attempted} sampled pairs, "
        f"unreachable-skipped={skipped}",
    )


# ---------------------------------------------------------------------------
# Control overhead across sizes
# ---------------------------------------------------------------------------


def check_overhead() -> CheckResult:
    """Mean control packets per node per round stays under 100*log2(n) for
    n in {50 .. 2000} and fits log2(n) with R^2 >= 0.9."""
    base = SimConfig(
        n=50, epsilon=1.0, max_speed=1.0, steps=14, pair_samples=0
    ).with_seed(41)
    rows = experiment_overhead_scaling([50, 100, 500, 1000, 2000], 1, base)
    _, _, r2 = log_fit_r2([row.n for row in rows], [row.mean for row in rows])
    under = all(row.mean <= row.benchmark for row in rows)
    means = ", ".join(f"n={row.n}:{row.mean:.1f}" for row in rows)
    return CheckResult(
        "overhead",
        under and r2 >= 0.9,
        f"{means} all under 100*log2(n); log2 fit R^2={r2:.3f} (>= 0.9)",
    )


# ---------------------------------------------------------------------------
# Cover invariants re-audited from public state, every round of a mobile run
# ---------------------------------------------------------------------------


def _audit_round(engine: ProtocolEngine, g, report: RoundReport) -> tuple[int, int]:
    """Recheck the round's hard guarantees from accessors only: every node
    holds exactly one membership per level, member lists mirror memberships,
    and freshly elected same-level beacons sit more than 2^level apart."""
    levels = engine.params.levels
    owner: list[dict[int, int]] = [dict() for _ in range(levels + 1)]
    for b in range(g.n):
        for level in range(levels + 1):
            for u in engine.member_list(b, level):
                if u in owner[level]:
                    raise ProtocolInvariantError(
                        f"node {u} sits in two level-{level} member lists"
                    )
                owner[level][u] = b
    memberships = 0
    for u in range(g.n):
        for level in range(levels + 1):
            member = engine.membership(u, level)
            if member is None:
                raise ProtocolInvariantError(f"node {u} uncovered at level {level}")
            if engine.beacon_level(member.beacon_id) < level:
                raise ProtocolInvariantError(
                    f"node {u} registered under {member.beacon_id}, which is "
                    f"not a level-{level} beacon"
                )
            if owner[level].get(u) != member.beacon_id:
                raise ProtocolInvariantError(
                    f"member lists disagree with node {u}'s level-{level} choice"
                )
            memberships += 1
    separations = 0
    for level, nodes in report.elected.items():
        if len(nodes) < 2:
            continue
        radius = 2**level
        for block, rows in bfs_blocks(g, nodes, radius):
            for b, dist in zip(block, rows):
                for other in nodes:
                    if other == b:
                        continue
                    if dist[other] <= radius:
                        raise ProtocolInvariantError(
                            f"level-{level} beacons {b} and {other} are only "
                            f"{dist[other]:.0f} hops apart"
                        )
                    separations += 1
    return memberships, separations


def check_cover() -> CheckResult:
    """Cover completeness, single membership, and beacon separation hold
    after each of 12 beaconing rounds on a 300-node mobile layout."""
    n = 300
    domain = DomainSpec.for_nodes(n)
    r_n = math.sqrt(2.0 * math.log(n))
    positions = sample_uniform_positions(n, domain, seed=7)
    g = build_geometric_graph(positions, r_n)
    params = ProtocolParams.for_graph(g, kappa=1.0)
    engine = ProtocolEngine(n, params)
    model = RandomWalk(max_speed=1.0)
    memberships = separations = 0
    rounds = 12
    for t in range(rounds):
        if t:
            positions = step(model, positions, domain, seed=8, t=t)
            g = build_geometric_graph(positions, r_n)
        report = engine.beaconing_round(g, t, seed=9)
        m_checked, s_checked = _audit_round(engine, g, report)
        memberships += m_checked
        separations += s_checked
    return CheckResult(
        "cover",
        True,
        f"{rounds} mobile rounds audited: {memberships} membership checks and "
        f"{separations} separation checks, 0 violations",
    )


# ---------------------------------------------------------------------------
# Cover-growth regimes and the unbounded-growth counterexample
# ---------------------------------------------------------------------------


def check_regimes() -> CheckResult:
    """Growth-constant estimates stay in a 1.5x band under the wide radius
    while strictly increasing under the sparse radius, for n=512 vs 2048."""
    rows = experiment_doubling_regimes(
        [512, 2048], theta=0.8, epsilon=1.0, trials=5, center_sample=256
    )
    wide = {row.n: row.alpha_hat for row in rows if row.regime == "supercritical"}
    sparse = {row.n: row.alpha_hat for row in rows if row.regime == "subcritical"}
    ratio = wide[2048] / wide[512]
    passed = ratio <= 1.5 and sparse[2048] > sparse[512]
    return CheckResult(
        "regimes",
        passed,
        f"wide means {wide[512]:.2f} -> {wide[2048]:.2f} (ratio {ratio:.3f} "
        f"<= 1.5); sparse means {sparse[512]:.2f} -> {sparse[2048]:.2f} "
        "strictly increasing",
    )


def check_comb() -> CheckResult:
    """Covering the comb center's 2R-ball with R-balls needs at least R/4
    centers for R in {8, 16, 32}, so no finite growth constant fits it."""
    sizes = []
    for radius in (8, 16, 32):
        comb = comb_udg(radius)
        cover = greedy_cover(comb.graph, comb.center_id, radius)
        floor = math.ceil(radius / 4)
        if len(cover) < floor:
            return CheckResult(
                "comb",
                False,
                f"R={radius} cover used {len(cover)} centers, under the "
                f"{floor} floor",
            )
        sizes.append(f"R={radius}:{len(cover)} (>= {floor})")
    return CheckResult("comb", True, "cover sizes " + ", ".join(sizes))


# ---------------------------------------------------------------------------
# Hop-distance smoothness under the random walk
# ---------------------------------------------------------------------------


def check_smoothness() -> CheckResult:
    """Measured one-step hop-distance ratios respect the movement bound on
    at least 99% of the sampled pairs where the bound is defined."""
    n = 1000
    domain = DomainSpec.for_nodes(n)
    r_n = math.sqrt(2.0 * math.log(n))
    positions = sample_uniform_positions(n, domain, seed=61)
    graphs = [build_geometric_graph(positions, r_n)]
    model = RandomWalk(max_speed=1.0)
    for t in range(1, 8):
        positions = step(model, positions, domain, seed=62, t=t)
        graphs.append(build_geometric_graph(positions, r_n))
    report = measure_smoothness(graphs, tau=1, pair_sample=300, seed=63)
    defined = satisfied = 0
    for sample in report.samples:
        try:
            bound = theoretical_kappa(r_n, model.max_speed, 1, sample.d_before)
        except HorizonError:
            continue  # pair too close for the bound to say anything
        defined += 1
        if sample.ratio <= bound:
            satisfied += 1
    frac = satisfied / defined if defined else 0.0
    return CheckResult(
        "smoothness",
        defined > 0 and frac >= 0.99,
        f"{satisfied}/{defined} sampled transitions within the bound "
        f"({frac:.4f} >= 0.99); {len(report.samples) - defined} below its "
        "horizon",
    )


# ---------------------------------------------------------------------------
# Squarelet occupancy in the wide-radius regime
# ---------------------------------------------------------------------------


def check_occupancy() -> CheckResult:
    """With 4096 nodes and cells sized to split the side into 17 equal bins
    (cell area ~14.2), every cell is occupied in at least 99 of 100 trials."""
    n = 4096
    domain = DomainSpec.for_nodes(n)
    grid = SquareletGrid.from_radius(domain, r_n=math.sqrt(5.0) * domain.side / 17.0)
    hits = 0
    for seed in range(100):
        positions = sample_uniform_positions(n, domain, seed=seed)
        hits += int(occupancy_report(positions, grid).all_nonempty)
    return CheckResult(
        "occupancy",
        hits >= 99,
        f"{hits}/100 layouts had every squarelet occupied (>= 99)",
    )


# ---------------------------------------------------------------------------
# Wall demonstration: greedy geographic walks die, forwarding does not
# ---------------------------------------------------------------------------


def check_wall() -> CheckResult:
    """Across a wall with one gap, the greedy baseline must strand at least
    20% of pairs while forwarding delivers all of them within the bound."""
    demo = wall_demonstration(n=500, seed=21, pair_count=100)
    passed = (
        demo.baseline_failure_rate >= 0.20
        and demo.protocol_delivery_rate == 1.0
        and demo.worst_stretch <= 6.0
    )
    return CheckResult(
        "wall",
        passed,
        f"baseline stranded {demo.baseline_failure_rate:.0%} of "
        f"{demo.pair_count} pairs (>= 20%); forwarding delivered "
        f"{demo.protocol_delivery_rate:.0%} with worst stretch "
        f"{demo.worst_stretch:.3f} (<= 6.0)",
    )


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------


CHECKS: dict[str, Callable[[], CheckResult]] = {
    "stretch": check_stretch,
    "overhead": check_overhead,
    "route-bound": check_route_bound,
    "delivery": check_delivery,
    "cover": check_cover,
    "regimes": check_regimes,
    "comb": check_comb,
    "smoothness": check_smoothness,
    "occupancy": check_occupancy,
    "wall": check_wall,
}


def run_checks(names: Optional[Sequence[str]] = None) -> list[CheckResult]:
    """Run the named checks (all of them by default); a check that raises
    is reported as FAIL rather than aborting the rest."""
    selected = list(names) if names else list(CHECKS)
    unknown = [name for name in selected if name not in CHECKS]
    if unknown:
        raise KeyError(f"unknown checks {unknown}; available: {list(CHECKS)}")
    results = []
    for name in selected:
        try:
            results.append(CHECKS[name]())
        except Exception as exc:
            results.append(CheckResult(name, False, f"{type(exc).__name__}: {exc}"))
    return results


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="beaconsim-acceptance",
        description="Run the full-scale acceptance checks.",
    )
    parser.add_argument(
        "names",
        nargs="*",
        metavar="check",
        help=f"subset to run (default: all of {', '.join(CHECKS)})",
    )
    args = parser.parse_args(argv)
    try:
        results = run_checks(args.names or None)
    except KeyError as exc:
        parser.error(str(exc))
    width = max(len(result.name) for result in results)
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        print(f"{status}  {result.name:<{width}}  {result.detail}")
    failed = sum(1 for result in results if not result.passed)
    total = len(results)
    print(f"{total - failed}/{total} checks passed")
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
