"""Run one beaconsim benchmark workload, or all of them.

    python3 perfbench/run.py --workload static-routing --seed 41 --seconds 30 --trace 0
    python3 perfbench/run.py --all

Run from the repository root; the library is imported from ``src/``.  A
single run prints an ``{"info": ...}`` line (seeds, output digest, library
versions, sample counts, failures) and then, as its last line, the result:
``correct``, ``attempted``, ``failed`` and the end-to-end metrics
(``--trace 0``) or the per-layer metrics (``--trace 1``).  It exits 1 when
a check finds an output wrong (``correct`` false); operations the library
reports failed by raising count in ``failed`` only.  ``--all`` runs every
workload untraced and then traced, each in a fresh process, one at a time;
it prints every metric with its unit and sample count, and exits 1 if any
check fails, any operation failed, or the two processes' digests for the
same seed differ.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPANS_DIR = ROOT / ".perfbench"
WORKLOAD_NAMES = ("mobile-flagship", "static-routing", "growth-regimes")
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
CHILD_TIMEOUT_S = 175
# Time from a fresh interpreter's first statement to the end of ``import
# beaconsim`` (numpy and scipy included); the child prints it in seconds.
IMPORT_PROBE = (
    "import time; start = time.perf_counter(); import sys; "
    "sys.path.insert(0, sys.argv[1]); import beaconsim; "
    "print(time.perf_counter() - start)"
)


def time_import() -> float:
    """Import time of one fresh interpreter: the import part of set-up, which
    one process can time only once, so the benchmark samples it in children."""
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
        cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
    )
    return float(proc.stdout)


def run_one(args) -> int:
    if not (SRC / "beaconsim" / "__init__.py").is_file():
        print(f"error: beaconsim sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import beaconsim

    if Path(beaconsim.__file__).resolve().parent != SRC / "beaconsim":
        print(f"error: imported beaconsim from {beaconsim.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import bench
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    seed = workload.default_seed if args.seed is None else args.seed
    spans_path = None
    if args.trace:
        SPANS_DIR.mkdir(exist_ok=True)
        spans_path = SPANS_DIR / f"spans-{workload.name}-{seed}.csv"
    result, info = bench.measure(
        workload, seed, args.seconds, bool(args.trace), time_import=time_import,
        spans_path=spans_path,
    )
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Every workload untraced then traced, one fresh process at a time."""
    ok = True
    for name in WORKLOAD_NAMES:
        digests = []
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            if args.seed is not None:
                cmd += ["--seed", str(args.seed)]
            try:
                proc = subprocess.run(
                    cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
                )
            except subprocess.TimeoutExpired:
                print(f"{name}: trace={trace} run exceeded {CHILD_TIMEOUT_S} s")
                ok = False
                continue
            lines = proc.stdout.strip().splitlines()
            if len(lines) < 2:
                print(f"{name}: trace={trace} run printed no result (exit {proc.returncode})")
                print(proc.stderr.strip())
                ok = False
                continue
            info = json.loads(lines[-2])["info"]
            result = json.loads(lines[-1])
            ok = ok and proc.returncode == 0 and result["correct"] and result["failed"] == 0
            digests.append(info["digest"])
            _report(name, trace, info, result)
        if len(digests) == 2 and digests[0] != digests[1]:
            print(f"{name}: digest differs between two processes with seed {info['seed']}")
            ok = False
    print("all checks passed" if ok else "CHECKS FAILED")
    return 0 if ok else 1


def _report(name: str, trace: int, info: dict, result: dict) -> None:
    kind = "traced" if trace else "untraced"
    print(
        f"== {name} {kind}: seed {info['seed']}, correct={result['correct']}, "
        f"attempted {result['attempted']}, failed {result['failed']}, "
        f"fail_ratio {result['failed'] / result['attempted']:.6g}, skipped {info['skipped']}, "
        f"python {info['python']}, numpy {info['numpy']}, scipy {info['scipy']}, "
        f"nproc {info['nproc']}, digest {info['digest'][:16]}"
    )
    for problem in info["problems"]:
        print(f"   problem: {problem.strip()}")
    for error in info["errors"]:
        print(f"   error: {error.strip().splitlines()[-1]}")
    samples = info["samples"]
    for metric, entry in result["metrics"].items():
        count = samples.get(metric, samples.get("traced_units"))
        print(f"   {metric:44} {entry['value']:>14.6g} {entry['unit']:6} n={count}")
    if "forwards" in info:
        for metric, unit in (("forwards_per_s", "1/s"), ("forward_ms_p50", "ms"),
                             ("forward_ms_p99", "ms")):
            print(f"   {metric:44} {info[metric]:>14.6g} {unit:6} n={info['forwards']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", choices=WORKLOAD_NAMES)
    mode.add_argument("--all", action="store_true", help="run every workload, untraced and traced")
    parser.add_argument("--seed", type=int, help="workload seed (defaults 41 / 41 / 100)")
    parser.add_argument("--seconds", type=float, default=30.0, help="measurement budget per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed is not None and args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds < 0:
        parser.error("--seconds must be non-negative")
    for var in THREAD_VARS:  # before numpy loads, and inherited by --all's children
        os.environ[var] = "1"
    return run_all(args) if args.all else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
