"""Smoke self-test of the benchmark: every workload at a tiny size, untraced
and traced, in a few seconds.  Run from the repository root with

    python3 -m pytest perfbench -q
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import beaconsim as bs  # noqa: E402
import bench  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    GrowthRegimes,
    MobileFlagship,
    Outcome,
    StaticRouting,
    check_draws,
)

TINY = [
    MobileFlagship(n=100, steps=12, pair_samples=10),
    StaticRouting(n=100, pairs=200),
    GrowthRegimes(sizes=(256, 512), center_sample=16),
]


@pytest.mark.parametrize("workload", TINY, ids=lambda w: w.name)
def test_untraced_and_traced_runs_pass_their_checks_and_agree(workload):
    plain, plain_info = bench.measure(workload, workload.default_seed, seconds=0, trace=False)
    assert plain["correct"], plain_info["problems"]
    assert plain["attempted"] > 0 and plain["failed"] == 0
    assert list(plain["metrics"]) == [name for name, _, _ in bench.END_TO_END]
    assert all(m["value"] > 0 for m in plain["metrics"].values())
    assert len(plain_info["sub_seeds"]) == len(set(plain_info["sub_seeds"])) == bench.MIN_UNITS

    traced, traced_info = bench.measure(workload, workload.default_seed, seconds=0, trace=True)
    assert traced["correct"], traced_info["problems"]
    assert list(traced["metrics"]) == [name for name, _, _ in bench.PER_LAYER]
    assert traced_info["digest"] == plain_info["digest"]


def test_traced_routing_run_reports_protocol_counts():
    workload = TINY[1]
    result, _ = bench.measure(workload, workload.default_seed, seconds=0, trace=True)
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert metrics["protocol.beaconing_round.calls"] == 1
    assert metrics["protocol.forward.calls"] == workload.pairs
    assert metrics["harness.delivered"] == workload.pairs
    assert metrics["protocol.table_entries"] > 0
    assert 0 < metrics["protocol.probe_success_ratio"] <= 1
    assert metrics["trace.driver_self_s"] >= 0


def test_tracer_restores_every_wrapped_function():
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "beaconsim"]
    before = [dict(vars(m)) for m in modules] + [dict(vars(bs.ProtocolEngine))]
    tracer = Tracer()
    tracer.install()
    try:
        bs.bfs_distances(bs.ConnectivityGraph.from_edges(3, [(0, 1), (1, 2)]), 0)
    finally:
        tracer.remove()
    after = [dict(vars(m)) for m in modules] + [dict(vars(bs.ProtocolEngine))]
    assert [span[0] for span in tracer.spans] == ["graph.bfs_distances"]
    assert all(a.items() == b.items() for a, b in zip(before, after))


class FlakyWorkload:
    """Completes its first unit and raises in every later one."""

    name = "flaky"
    unit_s = 1.0

    def setup(self, seed):
        return seed

    def planned(self):
        return 5

    def run(self, seed):
        if seed >= bench.SEED_STRIDE:
            raise bs.ProtocolInvariantError("route over the bound")
        return seed

    def check(self, seed, output):
        return Outcome(attempted=3, failed=0, digest=str(output))


def test_a_unit_that_raises_fails_its_operations_and_leaves_the_timing():
    result, info = bench.measure(FlakyWorkload(), 7, seconds=0, trace=False)
    assert result["correct"]
    assert (result["attempted"], result["failed"]) == (6, 3)
    assert info["error_count"] == 1 and "route over the bound" in info["errors"][0]
    assert info["samples"]["run_s"] == 1


class RejectedWorkload(FlakyWorkload):
    """Asks the library for something it rejects, as a too-short run does."""

    def run(self, seed):
        raise bs.ParameterError("steps=20 is not above the warmup of 32")


def test_a_parameter_error_is_a_benchmark_problem_not_a_library_failure():
    result, info = bench.measure(RejectedWorkload(), 7, seconds=0, trace=False)
    assert not result["correct"]
    assert (result["attempted"], result["failed"]) == (10, 10)
    assert info["error_count"] == 0 and "warmup of 32" in info["problems"][0]


def test_route_checks_fail_bad_routes_and_skip_unreachable_pairs():
    g = bs.ConnectivityGraph.from_edges(5, [(0, 1), (1, 2), (2, 3)])
    outcome = Outcome(attempted=5, failed=0)
    draws = [
        (g, 0, 2, (0, 1, 2)),  # shortest path
        (g, 0, 2, (0, 2)),  # no edge 0-2
        (g, 0, 3, (0, 1, 2)),  # ends short of the destination
        (g, 0, 4, None),  # unreachable, forward raised
        (g, 0, 3, None),  # reachable, forward raised
    ]
    hops = check_draws(draws, 6.0, outcome)
    assert hops[:3] == [2.0, 2.0, 3.0] and math.isinf(hops[3])
    assert (outcome.failed, outcome.skipped, outcome.stretch) == (3, 1, [1.0])
    assert (len(outcome.problems), len(outcome.errors)) == (2, 1)
    long_way = Outcome(attempted=1, failed=0)
    check_draws([(g, 0, 1, (0, 1, 2, 1, 2, 1, 2, 1))], 6.0, long_way)
    assert long_way.failed == 1


def test_benchmark_json_matches_what_the_benchmark_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(bench.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(bench.PER_LAYER)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert max(bounds.values()) <= 0.25 and bounds["setup_s"] == max(bounds.values())


def test_run_exits_nonzero_without_the_library_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "growth-regimes",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
