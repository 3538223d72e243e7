"""The benchmark's traced run (perfbench/tracing.py) wraps kmerfab functions by
name and reads fields of their results, so renaming or deleting one of them
breaks `perfbench/run.py --trace 1`. This runs its wrappers on the toy config
and on the default simulation scenario."""

import subprocess
import sys
from pathlib import Path

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
"""

TRACED_SIMULATE = """
import sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import tracing
from kmerfab.cli import main

tracer = tracing.Tracer()
tracing.instrument(tracer)
assert main(["simulate", "--config", "configs/scenario_default.conf",
             "--out", sys.argv[3]]) == 0
times = tracing.self_times(tracer.names, tracer.name_ids, tracer.parents,
                           tracer.starts, tracer.ends)
metrics = tracing.layer_metrics(times, tracer.counts)
for key in ("fabric.heap_ops", "fabric.submit.calls", "fabric.run.s", "fabric.device_stats.s"):
    assert metrics[key] > 0, key
"""


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
