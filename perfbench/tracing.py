"""Span tracing around beaconsim's public calls, installed from outside the
library so that its code runs unchanged.

Every public function of the six layer modules and every public method of
``ProtocolEngine`` is replaced, in each beaconsim namespace that holds it, by
a wrapper that records one span (name, start, end, parent).  Replacing the
name in every namespace means calls between modules (``harness`` calling
``build_geometric_graph``) and within one (``greedy_cover`` calling
``bfs_distances``) are both seen.  Spans stay in memory until the benchmark
writes them out.  Counts that the program reports in its return values
(flood transmissions, probes, edges) are summed at the same boundaries.
"""

from __future__ import annotations

import csv
import functools
import importlib
import inspect
import io
import sys
import time
from collections import Counter

LAYERS = ("geometry", "graph", "mobility", "topology", "protocol", "harness")


class Tracer:
    """Spans and counts of the calls made between ``install`` and ``remove``;
    ``remove`` restores every original function."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.engine = None  # the engine of the most recent beaconing round
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        hooks = {
            "protocol.beaconing_round": self._on_round,
            "protocol.forward": self._on_forward,
            "graph.build_geometric_graph": self._on_graph,
        }
        wrappers: dict[int, tuple[object, object]] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"beaconsim.{layer}")
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    name = f"{layer}.{attr}"
                    wrappers[id(fn)] = (fn, self._wrap(name, fn, hooks.get(name)))
        engine_cls = importlib.import_module("beaconsim.protocol").ProtocolEngine
        for attr, fn in list(vars(engine_cls).items()):
            if not attr.startswith("_") and inspect.isfunction(fn):
                name = f"protocol.{attr}"
                self._patch(engine_cls, attr, self._wrap(name, fn, hooks.get(name)))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "beaconsim" and not mod_name.startswith("beaconsim."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(module, attr, hit[1])

    def remove(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _wrap(self, name: str, fn, hook):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                hook(args, result)
            return result

        return traced

    # -- counts read from return values ------------------------------------

    def _on_round(self, args, report) -> None:
        self.engine = args[0]
        self.counts["protocol.flood_transmissions"] += report.flood_transmissions
        self.counts["protocol.membership_packets"] += report.membership_packets
        self.counts["protocol.control_packets"] += report.control_packets

    def _on_forward(self, args, receipt) -> None:
        self.counts["protocol.probes"] += len(receipt.probes)
        self.counts["protocol.probes_broken"] += sum(p.broken for p in receipt.probes)
        self.counts["protocol.probes_successful"] += sum(p.success for p in receipt.probes)
        self.counts["protocol.probe_transmissions"] += receipt.probe_transmissions
        self.counts["protocol.route_hops"] += receipt.route_hops

    def _on_graph(self, args, g) -> None:
        self.counts["graph.edges"] += g.num_edges


def table_sizes(engine) -> tuple[int, int]:
    """Live routing-table entries and stored membership records of ``engine``,
    read through its public state dump.  Call with no tracer installed."""
    buf = io.StringIO()
    engine.dump_state_csv(buf)
    buf.seek(0)
    entries = sum(int(row["table_entries"]) for row in csv.DictReader(buf))
    return entries, int(engine.membership_load().sum())


def span_stats(spans: list[list], wall_s: float) -> dict:
    """Per-name call counts, self times and inclusive durations, plus the
    driver's self time: the part of ``wall_s`` no top-level span covers.

    A span's self time is its duration minus the durations of its direct
    children; calls are single-threaded, so children never overlap."""
    child_s = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child_s[parent] += end - start
    by_name: dict[str, dict] = {}
    top_s = 0.0
    for index, (name, start, end, parent) in enumerate(spans):
        duration = end - start
        entry = by_name.setdefault(name, {"calls": 0, "self_s": 0.0, "durations": []})
        entry["calls"] += 1
        entry["self_s"] += duration - child_s[index]
        entry["durations"].append(duration)
        if parent < 0:
            top_s += duration
    return {"by_name": by_name, "driver_self_s": wall_s - top_s}


def write_spans(spans: list[list], path) -> None:
    """One ``index,name,start_s,end_s,parent`` row per span."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("index,name,start_s,end_s,parent\n")
        for index, (name, start, end, parent) in enumerate(spans):
            fh.write(f"{index},{name},{start!r},{end!r},{parent}\n")
