"""Spans and counters for the traced run, recorded from outside the program.

`instrument(tracer)` replaces the public functions of each kmerfab layer at
the attribute its callers look up (for example `kmerfab.stages.canonical_codes`
and `BloomFilter.__contains__`) with a wrapper that records one span: name,
start, end and the span that was open when it was called. Spans stay in
flat arrays in memory and are written to disk once, when the run ends.
`self_times` turns them into per-name call counts, total and self seconds;
`layer_metrics` turns those and the counters into the per-layer metrics.

Layers are named after kmerfab's modules. A span's self time is its duration
minus the durations of its direct children; the process is single-threaded,
so children never overlap.
"""

from __future__ import annotations

import heapq
import json
import time
import types
from array import array
from pathlib import Path

clock = time.perf_counter

# Per-layer metric -> (unit, better). Every traced run reports all of them;
# a layer a workload does not run reports 0.
PER_LAYER = {
    "kmers.canonical_codes.calls": ("count", "lower"),
    "kmers.canonical_codes.s": ("s", "lower"),
    "kmers.windows": ("count", "lower"),
    "kmers.partition_of.calls": ("count", "lower"),
    "kmers.parse_reads.s": ("s", "lower"),
    "bloom.add.calls": ("count", "lower"),
    "bloom.contains.calls": ("count", "lower"),
    "bloom.contains.hit_ratio": ("ratio", "higher"),
    "bloom.s": ("s", "lower"),
    "stages.prune.s": ("s", "lower"),
    "stages.count.s": ("s", "lower"),
    "stages.count.accept_ratio": ("ratio", "higher"),
    "stages.merge_runs.s": ("s", "lower"),
    "stages.merged_entries": ("count", "lower"),
    "stages.filter_candidates.s": ("s", "lower"),
    "stages.merge_indexes.s": ("s", "lower"),
    "stages.group.s": ("s", "lower"),
    "stages.candidates": ("count", "higher"),
    "spill.flush_table.calls": ("count", "lower"),
    "spill.flush_table.s": ("s", "lower"),
    "spill.flush_table.bytes": ("bytes", "lower"),
    "spill.read_run.calls": ("count", "lower"),
    "spill.read_run.s": ("s", "lower"),
    "spill.read_run.bytes": ("bytes", "lower"),
    "spill.append_blob.calls": ("count", "lower"),
    "spill.append_blob.s": ("s", "lower"),
    "spill.append_blob.bytes": ("bytes", "lower"),
    "spill.encode_run.s": ("s", "lower"),
    "spill.decode_run.s": ("s", "lower"),
    "spill.trace_csv.s": ("s", "lower"),
    "fabric.submit.calls": ("count", "lower"),
    "fabric.submit.s": ("s", "lower"),
    "fabric.run.s": ("s", "lower"),
    "fabric.heap_ops": ("count", "lower"),
    "fabric.heap_ops_per_request": ("ratio", "lower"),
    "fabric.backing.s": ("s", "lower"),
    "fabric.device_stats.s": ("s", "lower"),
    "pipeline.run_pipeline.s": ("s", "lower"),
    "pipeline.checkpoint.s": ("s", "lower"),
    "pipeline.fingerprint.s": ("s", "lower"),
    "orchestrator.simulate.calls": ("count", "lower"),
    "orchestrator.simulate.s": ("s", "lower"),
    "orchestrator.compare_strategies.s": ("s", "lower"),
    "orchestrator.instance_step.s": ("s", "lower"),
    "traceanalysis.parse_trace_csv.s": ("s", "lower"),
    "traceanalysis.classify.s": ("s", "lower"),
    "cli.s": ("s", "lower"),
    "trace.coverage": ("ratio", "higher"),
    "trace.overhead_s": ("s", "lower"),
}

# Which end-to-end figure each layer should move, and where. Written down
# before any optimisation, so that a later change can be held to it.
LAYER_MAP = {
    "kmers": "run_s (cal_wall_s) on pipeline_spill and pipeline_inmem; no change on sim_contention",
    "bloom": "run_s (cal_wall_s) on both pipeline workloads, most on pipeline_spill",
    "stages": "run_s (cal_wall_s) and, through merged_entries, peak_rss_mb on pipeline_spill; "
              "run_s only on pipeline_inmem",
    "spill": "run_s (cal_wall_s), device_write_bytes and device_read_bytes on pipeline_spill; "
             "almost nothing on pipeline_inmem (one run per partition)",
    "fabric": "simulate_s and compare_s (cal_wall_s) on sim_contention; an engine rewrite must "
              "leave run_s unchanged on pipeline_* (one serial client per chunk)",
    "pipeline": "run_s (cal_wall_s) and device_write_bytes on pipeline_*",
    "orchestrator": "simulate_s and compare_s (cal_wall_s) on sim_contention",
    "traceanalysis": "trace_s (cal_wall_s) on pipeline_spill; small, kept so a regression shows",
}


class Tracer:
    """Span store: four parallel arrays indexed by span number."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self._stack = [-1]
        self.counts: dict[str, int] = {}

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def current(self) -> str | None:
        """Name of the innermost open span."""
        top = self._stack[-1]
        return None if top < 0 else self.names[self.name_ids[top]]

    def add(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def span(self, name, fn, after=None):
        """Wrap fn so each call records a span; after(args, result) runs
        once the span is closed, with the caller's span open again."""
        nid = self._name_id(name)
        name_ids, parents, starts, ends, stack = (
            self.name_ids, self.parents, self.starts, self.ends, self._stack)

        def traced(*args, **kwargs):
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def counter(self, key, fn):
        """Wrap fn so each call only bumps counts[key]; for calls too cheap
        and too many to time one by one."""
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] = counts.get(key, 0) + 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def write(self, path: Path) -> None:
        """spans.json holds the name table; spans.bin the four arrays."""
        path.mkdir(parents=True, exist_ok=True)
        (path / "spans.json").write_text(json.dumps({
            "names": self.names,
            "spans": len(self.starts),
            "layout": ["name_id:i", "parent:i", "start:d", "end:d"],
            "clock": "time.perf_counter, seconds",
        }))
        with open(path / "spans.bin", "wb") as fh:
            for arr in (self.name_ids, self.parents, self.starts, self.ends):
                arr.tofile(fh)


def read_spans(path: Path):
    """(names, name_ids, parents, starts, ends) as written by Tracer.write."""
    meta = json.loads((path / "spans.json").read_text())
    n = meta["spans"]
    arrays = [array("i"), array("i"), array("d"), array("d")]
    with open(path / "spans.bin", "rb") as fh:
        for arr in arrays:
            arr.fromfile(fh, n)
    return (meta["names"], *arrays)


def self_times(names, name_ids, parents, starts, ends) -> dict[str, dict]:
    """name -> {"calls", "total_s", "self_s"}; self = duration - direct children."""
    n = len(starts)
    child = [0.0] * n
    for i in range(n):
        p = parents[i]
        if p >= 0:
            child[p] += ends[i] - starts[i]
    out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in names}
    for i in range(n):
        d = ends[i] - starts[i]
        entry = out[names[name_ids[i]]]
        entry["calls"] += 1
        entry["total_s"] += d
        entry["self_s"] += d - child[i]
    return out


def layer_self_times(times: dict[str, dict]) -> dict[str, float]:
    """Self seconds summed per layer (the span name's first part). Their sum
    is the traced duration of the CLI calls."""
    out: dict[str, float] = {}
    for name, t in times.items():
        layer = name.split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + t["self_s"]
    return out


def instrument(tracer: Tracer) -> None:
    """Install every wrapper. Call once per process, before the CLI runs."""
    import kmerfab.bloom as bloom
    import kmerfab.cli as cli
    import kmerfab.fabric as fabric
    import kmerfab.orchestrator as orchestrator
    import kmerfab.pipeline as pipeline
    import kmerfab.spill as spill
    import kmerfab.stages as stages
    import kmerfab.traceanalysis as traceanalysis

    add = tracer.add

    def windows(args, out):
        add("kmers.windows", len(out))
        if tracer.current() == "stages.count":
            add("stages.count.scanned", len(out))

    def merged(args, table):
        add("stages.merged_entries", len(table.entries))
        add("stages.count.accepted", sum(n + t for n, t in table.entries.values()))

    wraps = [
        (stages, "canonical_codes", "kmers.canonical_codes", windows),
        (cli, "parse_reads", "kmers.parse_reads", None),
        (bloom.BloomFilter, "add", "bloom.add", None),
        (bloom.BloomFilter, "__contains__", "bloom.contains",
         lambda args, hit: hit and add("bloom.contains.hits")),
        (pipeline, "prune", "stages.prune", None),
        (pipeline, "count", "stages.count", None),
        (pipeline, "merge_runs", "stages.merge_runs", merged),
        (pipeline, "filter_candidates", "stages.filter_candidates", None),
        (pipeline, "merge_indexes", "stages.merge_indexes", None),
        (pipeline, "group", "stages.group", None),
        (spill.SpillStore, "flush_table", "spill.flush_table",
         lambda args, handle: add("spill.flush_table.bytes", handle.length)),
        (spill.SpillStore, "read_run", "spill.read_run",
         lambda args, rows: add("spill.read_run.bytes", args[1].length)),
        (spill.SpillStore, "append_blob", "spill.append_blob",
         lambda args, handle: add("spill.append_blob.bytes", handle.length)),
        (spill.SpillStore, "trace_csv", "spill.trace_csv", None),
        (spill, "encode_run", "spill.encode_run", None),
        (pipeline, "encode_run", "spill.encode_run", None),
        (spill, "decode_run", "spill.decode_run", None),
        (pipeline, "decode_run", "spill.decode_run", None),
        (fabric.FabricEngine, "submit", "fabric.submit", None),
        (fabric.FabricEngine, "run", "fabric.run", None),
        (fabric.FabricEngine, "device_stats", "fabric.device_stats", None),
        (fabric.MemoryBacking, "write", "fabric.backing", None),
        (fabric.MemoryBacking, "read", "fabric.backing", None),
        (fabric.FileBacking, "write", "fabric.backing", None),
        (fabric.FileBacking, "read", "fabric.backing", None),
        (cli, "run_pipeline", "pipeline.run_pipeline",
         lambda args, result: add("stages.candidates", len(result.index.candidates))),
        (pipeline.Checkpoints, "save", "pipeline.checkpoint", None),
        (pipeline.PipelineConfig, "fingerprint", "pipeline.fingerprint", None),
        (cli, "simulate", "orchestrator.simulate", None),
        (orchestrator, "simulate", "orchestrator.simulate", None),
        (cli, "compare_strategies", "orchestrator.compare_strategies", None),
        (traceanalysis, "parse_trace_csv", "traceanalysis.parse_trace_csv", None),
        (traceanalysis, "classify", "traceanalysis.classify", None),
    ]
    for owner, attr, name, after in wraps:
        setattr(owner, attr, tracer.span(name, getattr(owner, attr), after))
    stages.partition_of = tracer.counter("kmers.partition_of.calls", stages.partition_of)

    # The engine resumes each simulated instance's generator from inside
    # FabricEngine.run; timing each step keeps the workload model's own time
    # out of fabric.run.
    instance_proc = orchestrator._instance_proc

    def traced_instance_proc(*args):
        gen = instance_proc(*args)
        return types.SimpleNamespace(send=tracer.span("orchestrator.instance_step", gen.send))

    orchestrator._instance_proc = traced_instance_proc

    # kmerfab.fabric reaches heapq through its module global; only pushes count
    fabric.heapq = types.SimpleNamespace(
        heappush=tracer.counter("fabric.heap_ops", heapq.heappush),
        heappop=heapq.heappop,
    )


def layer_metrics(times: dict[str, dict], counts: dict[str, int]) -> dict[str, float]:
    """Every PER_LAYER metric except trace.overhead_s, which needs the
    untraced runs."""

    def calls(name):
        return times.get(name, {}).get("calls", 0)

    def self_s(*names):
        return sum(times.get(name, {}).get("self_s", 0.0) for name in names)

    def ratio(num, den):
        return num / den if den else 0.0

    cli_spans = [name for name in times if name.startswith("cli.")]
    cli_total = sum(times[name]["total_s"] for name in cli_spans)
    m = {
        "kmers.canonical_codes.calls": calls("kmers.canonical_codes"),
        "kmers.canonical_codes.s": self_s("kmers.canonical_codes"),
        "kmers.windows": counts.get("kmers.windows", 0),
        "kmers.partition_of.calls": counts.get("kmers.partition_of.calls", 0),
        "kmers.parse_reads.s": self_s("kmers.parse_reads"),
        "bloom.add.calls": calls("bloom.add"),
        "bloom.contains.calls": calls("bloom.contains"),
        "bloom.contains.hit_ratio": ratio(counts.get("bloom.contains.hits", 0),
                                          calls("bloom.contains")),
        "bloom.s": self_s("bloom.add", "bloom.contains"),
        "stages.count.accept_ratio": ratio(counts.get("stages.count.accepted", 0),
                                           counts.get("stages.count.scanned", 0)),
        "stages.merged_entries": counts.get("stages.merged_entries", 0),
        "stages.candidates": counts.get("stages.candidates", 0),
        "fabric.submit.calls": calls("fabric.submit"),
        "fabric.heap_ops": counts.get("fabric.heap_ops", 0),
        "fabric.heap_ops_per_request": ratio(counts.get("fabric.heap_ops", 0),
                                             calls("fabric.submit")),
        "fabric.backing.s": self_s("fabric.backing"),
        "orchestrator.simulate.calls": calls("orchestrator.simulate"),
        "cli.s": self_s(*cli_spans),
        "trace.coverage": ratio(cli_total - self_s(*cli_spans), cli_total),
    }
    for stage in ("prune", "count", "merge_runs", "filter_candidates", "merge_indexes", "group"):
        m[f"stages.{stage}.s"] = self_s(f"stages.{stage}")
    for op in ("flush_table", "read_run", "append_blob"):
        m[f"spill.{op}.calls"] = calls(f"spill.{op}")
        m[f"spill.{op}.s"] = self_s(f"spill.{op}")
        m[f"spill.{op}.bytes"] = counts.get(f"spill.{op}.bytes", 0)
    for name in ("spill.encode_run", "spill.decode_run", "spill.trace_csv",
                 "fabric.submit", "fabric.run", "fabric.device_stats",
                 "pipeline.run_pipeline", "pipeline.checkpoint", "pipeline.fingerprint",
                 "orchestrator.simulate", "orchestrator.compare_strategies",
                 "orchestrator.instance_step",
                 "traceanalysis.parse_trace_csv", "traceanalysis.classify"):
        m[f"{name}.s"] = self_s(name)
    return m
