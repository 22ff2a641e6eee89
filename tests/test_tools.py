"""Smoke tests for the committed timing probes in ``tools/``: each runs at a
tiny size and prints JSON with the fields its docstring promises."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def run_tool(name: str, *args: str) -> dict:
    done = subprocess.run(
        [sys.executable, str(TOOLS / name), *args],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return json.loads(done.stdout)


def test_round_timing_reports_rounds_and_table_sizes() -> None:
    result = run_tool("round_timing.py", "--sizes", "128", "--runs", "1")
    size = result["sizes"]["128"]
    assert size["levels"] >= 1 and size["edges"] > 0
    times = ("t0_s", "t1_s", "t1_write_s", "t1_merge_s", "t1_count_s")
    assert [len(size[key]) for key in times] == [1] * len(times)
    assert min(size["t1_write_s"] + size["t1_count_s"]) >= 0
    # the merge runs inside the timed first read
    assert 0 <= size["t1_merge_s"][0] <= size["t1_write_s"][0]
    assert size["t1_entries_per_node"] > 0
    # the seed-41 layout at n=128 is connected, every delivered forward
    # sends at least one probe, and on a static graph no probe breaks
    assert size["undelivered"] == 0
    assert size["forwards_per_cpu_s"] > 0
    assert size["probes_per_forward"] >= 1
    assert size["broken_per_forward"] == 0


def test_cover_timing_reports_rows_per_limit_and_both_times() -> None:
    result = run_tool("cover_timing.py", "--sizes", "128", "--runs", "1", "--trials", "2")
    assert set(result["layouts"]) == {"128/supercritical", "128/subcritical"}
    for layout in result["layouts"].values():
        rows = {int(limit): count for limit, count in layout["rows_by_limit"].items()}
        # Every sampled center (all nodes of each small component) is
        # searched to 16 hops; picked centers only to their cover's radius.
        assert rows[16] == sum(min(256, n) for n in layout["nodes"])
        assert set(rows) <= {16, 8, 4, 2}
        assert layout["scipy_calls"] >= len(layout["nodes"])
        assert len(layout["scipy_s"]) == len(layout["cover_loop_s"]) == 1
        assert min(layout["scipy_s"] + layout["cover_loop_s"]) >= 0
