"""Measurement loop and metric derivation for the beaconsim benchmark.

An untraced run repeats units (set-up, then the timed driver call, then the
output checks) on sub-seeds derived from the run's seed and reports medians.
A traced run alternates an untraced and a traced unit on the run's own seed
and reports the per-layer metrics of the traced units; the two must produce
the same digest.  How many units a run makes follows from the time budget and
the workload's nominal unit cost alone, never from how fast the units go, so
a run measures the same inputs on any machine and at any speed of the code.
"""

from __future__ import annotations

import gc
import os
import platform
import resource
import statistics
import time
import traceback
from collections import Counter

import numpy as np
import scipy
from beaconsim import ParameterError

from tracing import LAYERS, Tracer, span_stats, table_sizes, write_spans
from workloads import Outcome, digest_of

SEED_STRIDE = 1000  # unit k of a run uses seed + k * SEED_STRIDE
MIN_UNITS = 2
IMPORT_SAMPLES = 8  # at least; spread over the run, a few before each unit

END_TO_END = (
    ("setup_s", "s", "lower"),
    ("run_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

# Span names whose call counts, self times or percentiles are reported.
_CALLS = (
    "protocol.beaconing_round",
    "protocol.forward",
    "graph.bfs_distances",
    "graph.greedy_cover",
    "graph.build_geometric_graph",
    "mobility.step",
)
_SELF = _CALLS + (
    "graph.estimate_doubling_dimension",
    "graph.diameter",
    "geometry.sample_uniform_positions",
    "topology.subcritical_positions",
    "harness.run_simulation",
    "harness.experiment_doubling_regimes",
)
_PERCENTILES = (
    ("protocol.beaconing_round", "ms_p50", 50),
    ("protocol.beaconing_round", "ms_max", 100),
    ("protocol.forward", "ms_p50", 50),
    ("protocol.forward", "ms_p99", 99),
    ("graph.build_geometric_graph", "ms_p50", 50),
    ("mobility.step", "ms_p50", 50),
)
_COUNTS = (
    "protocol.flood_transmissions",
    "protocol.membership_packets",
    "protocol.control_packets",
    "protocol.probes",
    "protocol.probes_broken",
    "protocol.probe_transmissions",
    "protocol.route_hops",
    "graph.edges",
)

PER_LAYER = (
    tuple((f"{name}.calls", "count", "lower") for name in _CALLS)
    + tuple((f"{name}.self_s", "s", "lower") for name in _SELF)
    + tuple((f"{name}.{stat}", "ms", "lower") for name, stat, _ in _PERCENTILES)
    + tuple((f"{layer}.self_s", "s", "lower") for layer in LAYERS)
    + tuple((name, "count", "lower") for name in _COUNTS)
    + (
        ("protocol.probe_success_ratio", "ratio", "higher"),
        ("protocol.table_entries", "count", "lower"),
        ("protocol.membership_load", "count", "lower"),
        ("harness.delivered", "count", "higher"),
        ("harness.skipped", "count", "lower"),
        ("harness.stretch_p95", "ratio", "lower"),
        ("harness.stretch_max", "ratio", "lower"),
        ("trace.overhead_s", "s", "lower"),
        ("trace.driver_self_s", "s", "lower"),
    )
)


def environment() -> dict:
    """Versions the outputs depend on; digests compare only on one stack."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
    }


def run_unit(workload, seed: int, tracer: Tracer | None = None):
    """Set up, run and check one unit.  Returns (setup_s, run_s, outcome).
    When the program raises, every operation the unit planned has failed.
    A ``ParameterError`` means the benchmark asked for something the library
    rejects, so it is the benchmark's problem rather than a library failure."""
    gc.collect()
    if tracer is not None:
        tracer.install()
    start = time.perf_counter()
    setup_end = None
    error = None
    rejected = None
    try:
        inputs = workload.setup(seed)
        setup_end = time.perf_counter()
        output = workload.run(inputs)
    except ParameterError:
        rejected = traceback.format_exc(limit=4)
    except Exception:
        error = traceback.format_exc(limit=4)
    finally:
        end = time.perf_counter()
        if tracer is not None:
            tracer.remove()
    setup_end = setup_end or end
    planned = workload.planned()
    if rejected is not None:
        outcome = Outcome(planned, planned, completed=False, problems=[rejected])
    elif error is not None:
        outcome = Outcome(planned, planned, completed=False, errors=[error])
    else:
        try:
            outcome = workload.check(inputs, output)
        except Exception:
            outcome = Outcome(planned, planned, problems=[traceback.format_exc(limit=4)])
    return setup_end - start, end - setup_end, outcome


def unit_count(workload, seconds: float) -> int:
    """Untraced units that fill ``seconds`` at the workload's nominal cost."""
    return max(MIN_UNITS, round(seconds / workload.unit_s))


def measure_untraced(workload, seed: int, seconds: float, time_import=None):
    """``time_import``, when given, times one fresh import of the library;
    its samples are taken between units so that they span the run."""
    setup_times: list[float] = []
    run_times: list[float] = []
    import_times: list[float] = []
    outcomes: list[Outcome] = []
    sub_seeds: list[int] = []
    units = unit_count(workload, seconds)
    for k in range(units):
        if time_import is not None:
            import_times.extend(time_import() for _ in range(-(-IMPORT_SAMPLES // units)))
        sub_seed = seed + SEED_STRIDE * k
        setup_s, run_s, outcome = run_unit(workload, sub_seed)
        sub_seeds.append(sub_seed)
        setup_times.append(setup_s)
        run_times.append(run_s)
        outcomes.append(outcome)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    # A driver call that raised stopped early; its time is not the workload's.
    completed = [i for i, o in enumerate(outcomes) if o.completed] or range(len(outcomes))
    import_s = statistics.median(import_times) if import_times else 0.0
    values = {
        "setup_s": import_s + statistics.median(setup_times[i] for i in completed),
        "run_s": statistics.median(run_times[i] for i in completed),
        "peak_rss_mb": peak_mb,
    }
    info = {
        "sub_seeds": sub_seeds,
        "digest": outcomes[0].digest,
        "samples": {"setup_s": len(completed), "run_s": len(completed), "peak_rss_mb": 1},
        "import_times_s": import_times,
        "setup_times_s": setup_times,
        "run_times_s": run_times,
    }
    forward_s = [x for o in outcomes for x in o.forward_s]
    if forward_s:
        info["forwards"] = len(forward_s)
        info["forwards_per_s"] = len(forward_s) / sum(forward_s)
        info["forward_ms_p50"] = 1000 * float(np.percentile(forward_s, 50))
        info["forward_ms_p99"] = 1000 * float(np.percentile(forward_s, 99))
    return values, outcomes, [], info


def layer_values(tracer: Tracer, wall_s: float, outcome: Outcome) -> tuple[dict, list[str]]:
    """Per-layer metrics of one traced unit (all but ``trace.overhead_s``),
    and a problem if its spans overlap or overrun the traced ``wall_s``."""
    stats = span_stats(tracer.spans, wall_s)
    by_name = stats["by_name"]
    empty = {"calls": 0, "self_s": 0.0, "durations": []}
    values: dict[str, float] = {}
    for name in _CALLS:
        values[f"{name}.calls"] = by_name.get(name, empty)["calls"]
    for name in _SELF:
        values[f"{name}.self_s"] = by_name.get(name, empty)["self_s"]
    for name, stat, q in _PERCENTILES:
        durations = by_name.get(name, empty)["durations"]
        values[f"{name}.{stat}"] = 1000 * float(np.percentile(durations, q)) if durations else 0.0
    for layer in LAYERS:
        values[f"{layer}.self_s"] = sum(
            (entry["self_s"] for name, entry in by_name.items() if name.startswith(layer + ".")),
            0.0,
        )
    for name in _COUNTS:
        values[name] = tracer.counts[name]
    probes = tracer.counts["protocol.probes"]
    values["protocol.probe_success_ratio"] = (
        tracer.counts["protocol.probes_successful"] / probes if probes else 0.0
    )
    entries, load = table_sizes(tracer.engine) if tracer.engine is not None else (0, 0)
    values["protocol.table_entries"] = entries
    values["protocol.membership_load"] = load
    values["harness.delivered"] = len(outcome.stretch)
    values["harness.skipped"] = outcome.skipped
    values["harness.stretch_p95"] = (
        float(np.percentile(outcome.stretch, 95)) if outcome.stretch else 0.0
    )
    values["harness.stretch_max"] = max(outcome.stretch, default=0.0)
    values["trace.driver_self_s"] = stats["driver_self_s"]

    problems = []
    if stats["driver_self_s"] < 0 or any(e["self_s"] < -1e-9 for e in by_name.values()):
        problems.append("a self time is negative: spans overlap or overrun the traced unit")
    return values, problems


def measure_traced(workload, seed: int, seconds: float, spans_path=None):
    untraced_walls: list[float] = []
    traced_walls: list[float] = []
    per_unit: list[dict] = []
    outcomes: list[Outcome] = []
    problems: list[str] = []
    count_digests: set[str] = set()
    tracer = None
    for _ in range(max(1, unit_count(workload, seconds) // 2)):
        setup_s, run_s, plain = run_unit(workload, seed)
        untraced_walls.append(setup_s + run_s)
        tracer = Tracer()
        setup_s, run_s, traced = run_unit(workload, seed, tracer)
        traced_walls.append(setup_s + run_s)
        outcomes.extend((plain, traced))
        if traced.digest != plain.digest:
            problems.append("the traced unit's outputs differ from the untraced unit's")
        values, accounting = layer_values(tracer, setup_s + run_s, traced)
        problems.extend(accounting)
        per_unit.append(values)
        calls = Counter(span[0] for span in tracer.spans)
        count_digests.add(digest_of((sorted(calls.items()), sorted(tracer.counts.items()))))
    if len(count_digests) > 1:
        problems.append("per-layer counts differ between traced units of one seed")
    values = {
        name: statistics.median(unit[name] for unit in per_unit) for name, _, _ in PER_LAYER
        if name != "trace.overhead_s"
    }
    values["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(untraced_walls)
    if spans_path is not None:
        write_spans(tracer.spans, spans_path)
    info = {
        "digest": outcomes[0].digest,
        "count_digest": sorted(count_digests)[0],
        "samples": {"traced_units": len(traced_walls), "untraced_units": len(untraced_walls)},
        "traced_walls_s": traced_walls,
        "untraced_walls_s": untraced_walls,
    }
    return values, outcomes, problems, info


def measure(workload, seed: int, seconds: float, trace: bool, time_import=None,
            spans_path=None) -> tuple[dict, dict]:
    """Run ``workload`` for about ``seconds`` and return (result, info): the
    result line the benchmark prints last, and everything else it records.

    ``correct`` is false when a check finds an output wrong, digests differ
    or spans do not nest.  Operations the program itself reports failed, by
    raising, count in ``failed`` and leave ``correct`` alone."""
    if trace:
        values, outcomes, problems, info = measure_traced(workload, seed, seconds, spans_path)
        units = PER_LAYER
    else:
        values, outcomes, problems, info = measure_untraced(workload, seed, seconds, time_import)
        units = END_TO_END
    # A unit that raised is charged what a completed unit attempts: for
    # mobile-flagship, the planned count also covers the draw-free warm-up.
    completed = [o.attempted for o in outcomes if o.completed]
    for outcome in outcomes:
        if not outcome.completed and completed:
            outcome.attempted = outcome.failed = statistics.median_low(completed)
    errors = [error for outcome in outcomes for error in outcome.errors]
    for outcome in outcomes:
        problems.extend(outcome.problems)
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    info.update(
        workload=workload.name,
        seed=seed,
        seconds=seconds,
        trace=int(trace),
        skipped=sum(o.skipped for o in outcomes),
        problems=problems[:5],
        problem_count=len(problems),
        errors=errors[:5],
        error_count=len(errors),
        **environment(),
    )
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit, _ in units},
    }
    return result, info
