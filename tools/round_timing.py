"""Time one beaconing round at several network sizes.

For each size n the script lays out n uniform nodes on the square of side
sqrt(n), links them within sqrt(2 ln n) (the static-routing layout of
perfbench), takes the level count from the exact hop diameter with kappa 1,
and times ``ProtocolEngine.beaconing_round`` on a fresh engine at t=0 (the
first round, every level re-elected) and then at t=1 (gamma 0: only level 0
re-elected). A round leaves its whole table write to the table's first
read, so the t=1 round makes no table write of its own; it applies the
unread t=0 round's write, without the level-0 cells that t=1 clears. After
the t=1 round each run times ``ProtocolEngine.dump_state_csv``, whose read
makes the round's whole write before it builds the dump, as ``t1_write_s``:
the clear, the level-0 search, the one merge and the dump; and the time
inside that one ``_Table.merge`` as ``t1_merge_s``. A round also
leaves its level-0 transmission count to the first read of its report, so
``t1_s`` does not include it: each run times that read on a second engine's
t=1 round, before any read of that engine's table (so the report counts
with a search of its own), as ``t1_count_s``. Each size is run
``--runs`` times; times are process CPU seconds. Each size also reports the
routing-table entries per node after the t=1 round, summed from the
dump's ``table_entries`` column. After the last run's t=1 round it forwards
1,000 seeded pairs, drawn as perfbench static-routing draws them, and
reports forwards per process CPU second, probes per forward and broken
probes per forward; a pair the layout leaves unconnected counts as a
forward with no probes and is reported in ``undelivered``. The result is
printed as JSON.

    python3 tools/round_timing.py                      # n = 500, 1000, 2000, 4000, seed 41
    python3 tools/round_timing.py --sizes 1000 --runs 5

The library is imported from the ``src`` directory next to this one.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import time
from pathlib import Path

for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

import beaconsim as bs  # noqa: E402

FORWARDS = 1000  # seeded pairs forwarded after the t=1 round


class MergeTally:
    """Stands in for one table's ``_Table.merge``: sums the process time
    spent inside it."""

    def __init__(self, merge):
        self.merge = merge
        self.seconds = 0.0

    def __call__(self, *args):
        start = time.process_time()
        self.merge(*args)
        self.seconds += time.process_time() - start


def time_rounds(n: int, seed: int, runs: int) -> dict:
    domain = bs.DomainSpec.for_nodes(n)
    positions = bs.sample_uniform_positions(n, domain, seed)
    g = bs.build_geometric_graph(positions, math.sqrt(2.0 * math.log(n)))
    levels = bs.ProtocolParams.levels_for_diameter(bs.diameter(g).hops)
    params = bs.ProtocolParams(kappa=1.0, levels=levels)
    first, second, write, merge, count = [], [], [], [], []
    for _ in range(runs):
        engine = bs.ProtocolEngine(n, params)
        for t, times in ((0, first), (1, second)):
            start = time.process_time()
            engine.beaconing_round(g, t, seed=seed + 2)
            times.append(round(time.process_time() - start, 4))
        state = io.StringIO()
        tally = engine._table.merge = MergeTally(engine._table.merge)
        start = time.process_time()
        engine.dump_state_csv(state)  # the first read makes the t=1 round's write
        write.append(round(time.process_time() - start, 4))
        del engine._table.merge
        merge.append(round(tally.seconds, 4))
        counting = bs.ProtocolEngine(n, params)
        counting.beaconing_round(g, 0, seed=seed + 2)
        report = counting.beaconing_round(g, 1, seed=seed + 2)
        start = time.process_time()
        report.flood_transmissions  # the first read counts the level-0 floods
        count.append(round(time.process_time() - start, 4))
    state.seek(0)
    entries = sum(int(row["table_entries"]) for row in csv.DictReader(state))
    forwards_per_s, probes_per_forward, broken_per_forward, undelivered = time_forwards(
        engine, g, seed
    )
    return {
        "levels": levels,
        "edges": g.num_edges,
        "t0_s": first,
        "t1_s": second,
        "t1_write_s": write,
        "t1_merge_s": merge,
        "t1_count_s": count,
        "t1_entries_per_node": round(entries / n, 1),
        "forwards_per_cpu_s": forwards_per_s,
        "probes_per_forward": probes_per_forward,
        "broken_per_forward": broken_per_forward,
        "undelivered": undelivered,
    }


def time_forwards(engine: bs.ProtocolEngine, g: bs.ConnectivityGraph, seed: int) -> tuple:
    """Forward ``FORWARDS`` seeded pairs of distinct nodes one after another."""
    n = g.n
    rng = np.random.default_rng((seed, 3))
    sources = rng.integers(n, size=FORWARDS)
    dests = (sources + rng.integers(1, n, size=FORWARDS)) % n
    probes = broken = undelivered = 0
    start = time.process_time()
    for source, dest in zip(sources.tolist(), dests.tolist()):
        try:
            sent = engine.forward(g, source, dest).probes
        except bs.DeliveryError:
            undelivered += 1
            continue
        probes += len(sent)
        broken += sum(probe.broken for probe in sent)
    elapsed = time.process_time() - start
    return (
        round(FORWARDS / elapsed, 1),
        round(probes / FORWARDS, 2),
        round(broken / FORWARDS, 4),
        undelivered,
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", default="500,1000,2000,4000")
    parser.add_argument("--seed", type=int, default=41)
    parser.add_argument("--runs", type=int, default=3)
    args = parser.parse_args(argv)
    sizes = [int(size) for size in args.sizes.split(",")]
    result = {
        "seed": args.seed,
        "runs": args.runs,
        "clock": "process_time",
        "sizes": {str(n): time_rounds(n, args.seed, args.runs) for n in sizes},
    }
    print(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
