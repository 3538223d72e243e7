"""The benchmark's traced run (perfbench/tracing.py) wraps kmerfab functions by
name and reads fields of their results, so renaming or deleting one of them
breaks `perfbench/run.py --trace 1`. This runs its wrappers on the toy config
and on the default simulation scenario with all three instances on one host,
so that memory pressure adds spill writes to the flush writes. It also runs
one untraced iteration of each pipeline workload of the benchmark, whose
checks read the files the program writes, and pins the files `kmerfab run`
writes on the benchmark's input under both pipeline workloads' settings, and
bounds the payload of each run spilled under the spill setting."""

import hashlib
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

from kmerfab.cli import main
from kmerfab.fabric import Namespace, VirtualDevice
from kmerfab.kmers import parse_reads
from kmerfab.spill import SpillStore
from kmerfab.stages import ReadCodes, count, prune
from conftest import CountingWords

REPO = Path(__file__).resolve().parents[1]

TRACED_RUN = """
import sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import tracing
from kmerfab.cli import main

tracer = tracing.Tracer()
tracing.instrument(tracer)
assert main(["run", "--config", "configs/toy_run.conf", "--out", sys.argv[3]]) == 0
for key in ("kmers.windows", "stages.merged_entries", "stages.candidates",
            "spill.flush_table.bytes", "spill.append_blob.bytes"):
    assert tracer.counts.get(key, 0) > 0, key
# a stage called other than through the wrapped name would read 0 seconds
times = tracing.self_times(tracer.names, tracer.name_ids, tracer.parents,
                           tracer.starts, tracer.ends)
for stage in ("prune", "count", "merge_runs", "filter_candidates", "merge_indexes", "group"):
    assert times.get(f"stages.{stage}", {}).get("calls", 0) >= 1, stage
metrics = tracing.layer_metrics(times, tracer.counts)
for key in ("stages.count.s", "stages.merge_runs.s"):
    assert metrics[key] > 0, key
"""

PIPELINE_ITERATION = """
import sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
import inputs
import run

work, workload = Path(sys.argv[2]), sys.argv[3]
# the pipeline workloads the test runs this for are every one the benchmark has
assert sorted(run.PIPELINES) == sys.argv[4:], sorted(run.PIPELINES)
inputs.write_inputs(101, work)
conf = work / f"{workload}.conf"
conf.write_text(inputs.run_config(work / "normal.fa", work / "tumoral.fa",
                                  chunk_size=run.CHUNK_SIZE, **run.PIPELINES[workload]))
ledger = run.Ledger()
sample = run.pipeline_iteration(ledger, conf, work / "out", None)
# kmerfab run, kmerfab trace, and the two output checks made without a reference
assert (ledger.attempted, ledger.failed) == (4, 0), (ledger.attempted, ledger.failed)
assert sample["device_write_bytes"] > 0
"""

TRACED_SIMULATE = """
import sys
import types
from pathlib import Path
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import tracing
from kmerfab import fabric, orchestrator
from kmerfab.cli import main

# the shipped defaults, with one host (an empty scenario file loads the defaults)
scenario = Path(sys.argv[3]).parent / "one_host.conf"
scenario.write_text("hosts = 1\\n")
args = ["simulate", "--config", str(scenario), "--out", sys.argv[3]]

# untraced: count the finished requests the engine sends back to the processes
completed = 0
instance_proc = orchestrator._instance_proc


def counting_instance_proc(*proc_args):
    gen = instance_proc(*proc_args)

    def send(value):
        global completed
        completed += isinstance(value, fabric.IoRequest)
        return gen.send(value)

    return types.SimpleNamespace(send=send)


orchestrator._instance_proc = counting_instance_proc
assert main(args) == 0
orchestrator._instance_proc = instance_proc

tracer = tracing.Tracer()
tracing.instrument(tracer)
assert main(args) == 0
times = tracing.self_times(tracer.names, tracer.name_ids, tracer.parents,
                           tracer.starts, tracer.ends)
metrics = tracing.layer_metrics(times, tracer.counts)
for key in ("fabric.heap_ops", "fabric.submit.calls", "fabric.run.s", "fabric.device_stats.s",
            "orchestrator.instance_step.s"):
    assert metrics[key] > 0, key
# a request started other than through submit would go uncounted
assert metrics["fabric.submit.calls"] == completed > 0, (metrics["fabric.submit.calls"], completed)
"""


# perfbench/run.py's PIPELINES, which the iteration script checks against
PIPELINE_WORKLOADS = ["pipeline_inmem", "pipeline_spill"]


def test_benchmark_wrappers_trace_a_toy_run(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_RUN, str(REPO / "src"), str(REPO / "perfbench"),
         str(tmp_path / "out")],
        cwd=REPO, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "candidates:" in proc.stdout


def test_benchmark_wrappers_trace_a_simulation(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_SIMULATE, str(REPO / "src"), str(REPO / "perfbench"),
         str(tmp_path / "out")],
        cwd=REPO, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "instances:" in proc.stdout


@pytest.mark.parametrize("workload", PIPELINE_WORKLOADS)
def test_benchmark_pipeline_iteration_passes_its_checks(tmp_path, workload):
    """Each pipeline workload's settings, as the benchmark runs them: P = 4
    with a 512-entry table, and P = 1 with an unbounded one, whose trace
    holds the checkpoint writes alone."""
    proc = subprocess.run(
        [sys.executable, "-c", PIPELINE_ITERATION, str(REPO / "perfbench"), str(tmp_path),
         workload, *PIPELINE_WORKLOADS],
        cwd=REPO, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def load_benchmark_inputs():
    """perfbench/inputs.py, loaded from its file under a name of its own."""
    spec = importlib.util.spec_from_file_location("perfbench_inputs",
                                                  REPO / "perfbench" / "inputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# sha256 of `kmerfab run`'s files on the benchmark's seed-101 input with 4 KiB
# chunks, per workload's (partitions, capacity_limit). The shipped toy config
# runs P = 2 at capacity 256 only; a change to them re-pins these and says why.
# pipeline_spill's device0.dat and trace.csv were last re-pinned when spill
# runs were stored as their non-zero byte planes where they were 16-byte
# records: its device fell from 1,102,637 to 640,065 bytes. pipeline_inmem
# spills no run; its were last re-pinned when filter.pN stored its read sets
# as LEB128 gaps (KFIDXv2) where it stored bitmaps: its one blob fell from
# 118,072 to 33,325 bytes
BENCHMARK_DIGESTS = {
    "pipeline_spill": ((4, 512), {
        "index.bin": "97a3c839e84f2c9934dc82716c4fa3fdc8c8ff4edb1f02dfef3cba6630922ffc",
        "groups.csv": "61f6bf9033ab610aa972963be2b435e0f490e629c09728484c4e10a264875b9c",
        "device0.dat": "1596f5bb7754fe0604dc2ee19fea4cb0fee6d706349976d77ac6db7e718d2114",
        "trace.csv": "488a8e41a947b62a67775f97ee57add5777fd85732abdc7a3b0d27457b569140",
    }),
    "pipeline_inmem": ((1, 0), {
        "index.bin": "97a3c839e84f2c9934dc82716c4fa3fdc8c8ff4edb1f02dfef3cba6630922ffc",
        "groups.csv": "61f6bf9033ab610aa972963be2b435e0f490e629c09728484c4e10a264875b9c",
        "device0.dat": "97023691a8a723788123bba5ea276afa3639dfd24bda1c7131ceeb641e27e3da",
        "trace.csv": "4fe40649367ee16a644673089ebe73f72a5998f86f6f0aaf63e6a17c26f6e9aa",
    }),
}


@pytest.mark.parametrize("workload", sorted(BENCHMARK_DIGESTS))
def test_benchmark_input_outputs_are_pinned(tmp_path, workload):
    (partitions, capacity_limit), expect = BENCHMARK_DIGESTS[workload]
    inputs = load_benchmark_inputs()
    inputs.write_inputs(101, tmp_path)
    conf = tmp_path / "run.conf"
    conf.write_text(inputs.run_config(tmp_path / "normal.fa", tmp_path / "tumoral.fa",
                                      partitions=partitions, capacity_limit=capacity_limit,
                                      chunk_size=4096))
    out = tmp_path / "out"
    assert main(["run", "--config", str(conf), "--out", str(out)]) == 0
    assert {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in expect} == expect


# count's prune-filter probes over all partitions on the same input: a code
# that passes probes once per pass, so the total is the same at any capacity
BENCHMARK_COUNT_PROBES = 53_264


@pytest.mark.parametrize("workload", sorted(BENCHMARK_DIGESTS))
def test_benchmark_input_count_probes_are_pinned(tmp_path, workload):
    (partitions, capacity_limit), _ = BENCHMARK_DIGESTS[workload]
    inputs = load_benchmark_inputs()
    inputs.write_inputs(101, tmp_path)
    reads = [parse_reads((tmp_path / f"{origin}.fa").read_text().splitlines())
             for origin in ("normal", "tumoral")]
    codes = ReadCodes(*reads, inputs.K, partitions)
    pf = prune(codes, inputs.RUN_SETTINGS["prune_fp"])
    pf._words = words = CountingWords("Q", pf._words)
    store = SpillStore(Namespace(VirtualDevice(0, capacity=1 << 30), 0, 1 << 30),
                       chunk_size=4096)
    for p in range(partitions):
        count(codes, pf, p, capacity_limit or None, store)
    assert words.probes == BENCHMARK_COUNT_PROBES


def test_benchmark_spill_runs_store_few_planes(tmp_path):
    """Every count on the benchmark input is under 256 and runs are mostly of
    one origin, so a spilled run stores its 8 code planes and at most one
    plane of n_count and one of t_count: at most 10 + 10 n payload bytes for
    n records, where 16-byte records took 16 n."""
    inputs = load_benchmark_inputs()
    inputs.write_inputs(101, tmp_path)
    reads = [parse_reads((tmp_path / f"{origin}.fa").read_text().splitlines())
             for origin in ("normal", "tumoral")]
    codes = ReadCodes(*reads, inputs.K, 4)
    pf = prune(codes, inputs.RUN_SETTINGS["prune_fp"])
    store = SpillStore(Namespace(VirtualDevice(0, capacity=1 << 30), 0, 1 << 30),
                       chunk_size=4096)
    runs = [h for p in range(4) for h in count(codes, pf, p, 512, store)[0]]
    assert len(runs) == 130
    for h in runs:
        payload = store.read_blob(h)
        n = len(store.read_run(h)[0])
        assert n == 512 and len(payload) <= 10 + 10 * n, (h, len(payload))
