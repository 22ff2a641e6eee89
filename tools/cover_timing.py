"""Time the growth estimator's greedy covers, split into BFS and cover loop.

For each size n and radius regime of the regimes check, the script lays out
``--trials`` node sets (seeds ``seed`` .. ``seed + trials - 1``) as
``experiment_doubling_regimes`` does: the wide radius sqrt(2 ln n) on uniform
positions, and the sparse radius (ln n)^0.1 on the subcritical positions.
Each estimate runs on the layout's largest component with 256 sampled
centers and radii 2, 4 and 8, the settings of the regimes check.

Every scipy search the graph module makes is counted and timed. Per
(n, regime) the script reports the rows (BFS sources) searched at each hop
limit, the scipy calls, the process time inside scipy's search, and the
cover loop's own time: the estimator's process time less its time in scipy.
Each layout is estimated ``--runs`` times; the times are summed over the
layouts of one run, in process CPU seconds, and listed per run. The result
is printed as JSON.

    python3 tools/cover_timing.py                      # n = 512, 2048, 5 trials, seed 100
    python3 tools/cover_timing.py --sizes 2048 --runs 3

The library is imported from the ``src`` directory next to this one.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from collections import Counter
from pathlib import Path

for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

import beaconsim as bs  # noqa: E402
import beaconsim.graph as graph  # noqa: E402

THETA = 0.8  # sparse radius exponent of the regimes check
EPSILON = 1.0  # wide radius margin of the regimes check
CENTERS = 256
RADII = (2, 4, 8)


class SearchTally:
    """Stands in for the graph module's ``dijkstra``: counts each call's
    sources by hop limit and sums the process time spent inside it."""

    def __init__(self, search):
        self.search = search
        self.rows: Counter[float] = Counter()
        self.calls = 0
        self.seconds = 0.0

    def __call__(self, csgraph, *args, indices=None, limit=np.inf, **kwargs):
        start = time.process_time()
        dist = self.search(csgraph, *args, indices=indices, limit=limit, **kwargs)
        self.seconds += time.process_time() - start
        self.calls += 1
        self.rows[float(limit)] += len(np.atleast_1d(indices))
        return dist


def regime_layout(n: int, regime: str, seed: int) -> bs.ConnectivityGraph:
    if regime == "supercritical":
        positions = bs.sample_uniform_positions(n, bs.DomainSpec.for_nodes(n), seed)
        g = bs.build_geometric_graph(positions, math.sqrt((1.0 + EPSILON) * math.log(n)))
    else:
        g = bs.build_geometric_graph(*bs.subcritical_positions(n, THETA, seed))
    return graph._largest_component(g)[0]


def time_covers(n: int, regime: str, seed: int, trials: int, runs: int) -> dict:
    layouts = [(regime_layout(n, regime, seed + k), seed + k) for k in range(trials)]
    search = graph.dijkstra
    scipy_s, loop_s = [], []
    try:
        for _ in range(runs):
            tally = SearchTally(search)
            graph.dijkstra = tally
            total = 0.0
            for g, layout_seed in layouts:
                start = time.process_time()
                graph.estimate_doubling_dimension(g, RADII, CENTERS, layout_seed)
                total += time.process_time() - start
            scipy_s.append(round(tally.seconds, 4))
            loop_s.append(round(total - tally.seconds, 4))
    finally:
        graph.dijkstra = search
    return {
        "nodes": [g.n for g, _ in layouts],
        "rows_by_limit": {
            (str(int(limit)) if math.isfinite(limit) else "inf"): rows
            for limit, rows in sorted(tally.rows.items(), reverse=True)
        },
        "scipy_calls": tally.calls,
        "scipy_s": scipy_s,
        "cover_loop_s": loop_s,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", default="512,2048")
    parser.add_argument("--seed", type=int, default=100)
    parser.add_argument("--trials", type=int, default=5)
    parser.add_argument("--runs", type=int, default=3)
    args = parser.parse_args(argv)
    sizes = [int(size) for size in args.sizes.split(",")]
    result = {
        "seed": args.seed,
        "trials": args.trials,
        "runs": args.runs,
        "clock": "process_time",
        "layouts": {
            f"{n}/{regime}": time_covers(n, regime, args.seed, args.trials, args.runs)
            for n in sizes
            for regime in ("supercritical", "subcritical")
        },
    }
    print(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
