"""Append one benchmark record per workload, and one scale probe, to the
trajectory files at the repository root.

    python3 scripts/bench_record.py [--tree DIR] [--seed 101] [--seconds 33]

--tree names a clean checkout of the commit to measure (default: this
repository); the records always go to this repository's root, so older
commits can be measured from a clone and recorded here.

Benchmark: `perfbench/run.py --workload W --seed N --seconds S` runs once per
workload in the measured tree, after every `__pycache__` there is removed
(a cached import reads 20-25 % faster in `setup_s`). BENCH_<W>.json gets the
commit, seed, seconds, iteration count, operations attempted and failed, the
four gated medians and the raw `wall_s` median.

Scale probe: `kmerfab run` on the harness input at the seed, with
GENOME_LEN, READS_PER_SAMPLE and VARIANTS of perfbench/inputs.py multiplied
by x = 1, 4, 16, on two settings: "spill" (P = 4, capacity 512) and "inmem"
(P = 1, unbounded), 4 KiB chunks and a file-backed device. Each run is its
own process on an empty output directory; it records the process wall time
and its max RSS, then a second run records the tracemalloc peak (max RSS
moves with glibc's mmap threshold, the tracemalloc peak does not). The sizes
of index.bin and device0.dat and the candidate count come from the first
run. BENCH_scale.json gets one record per call.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from datetime import datetime, timezone
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("pipeline_spill", "pipeline_inmem", "sim_contention")
GATED = ("setup_s", "cal_wall_s", "peak_rss_mb", "device_write_bytes")
SCALES = (1, 4, 16)
SETTINGS = {"spill": (4, 512), "inmem": (1, 0)}  # partitions, capacity_limit
SCALED = ("GENOME_LEN", "READS_PER_SAMPLE", "VARIANTS")
CHUNK = 4096
# one `kmerfab run` in this process; its last stdout line is its own measurement
PROBE = """
import json, resource, sys, tracemalloc
from kmerfab.cli import main
traced = sys.argv[3] == "1"
if traced:
    tracemalloc.start()
rc = main(["run", "--config", sys.argv[1], "--out", sys.argv[2]])
peak = tracemalloc.get_traced_memory()[1] / 2**20 if traced else None
rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(json.dumps({"rc": rc, "max_rss_mb": rss, "tracemalloc_peak_mb": peak}))
"""


def drop_pycache(tree: Path) -> None:
    for cache in tree.rglob("__pycache__"):
        shutil.rmtree(cache, ignore_errors=True)


def commit_of(tree: Path) -> str:
    return subprocess.run(["git", "-C", str(tree), "rev-parse", "--short", "HEAD"],
                          capture_output=True, text=True, check=True).stdout.strip()


def append(path: Path, record: dict) -> None:
    records = json.loads(path.read_text()) if path.exists() else []
    records.append(record)
    path.write_text(json.dumps(records, indent=1) + "\n")


def bench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    drop_pycache(tree)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds)],
                          cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"perfbench/run.py --workload {workload} failed:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    last = json.loads(lines[-1])
    named = {}
    for line in lines[:-1]:
        name, sep, value = line.strip().partition(" = ")
        if sep:
            named[name] = float(value.split()[0])
    iterations = int(lines[0].split(": ", 1)[1].split(" iterations")[0])
    return {"iterations": iterations, "attempted": last["attempted"], "failed": last["failed"],
            "medians": {name: last["metrics"][name]["value"] for name in GATED},
            "wall_s": named["wall_s"]}


def load_inputs(tree: Path):
    spec = importlib.util.spec_from_file_location("bench_inputs", tree / "perfbench" / "inputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def probe_run(tree: Path, cfg: Path, out: Path, traced: bool) -> tuple[float, dict, str]:
    shutil.rmtree(out, ignore_errors=True)
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", PROBE, str(cfg), str(out), str(int(traced))],
                          env={**os.environ, "PYTHONPATH": str(tree / "src")},
                          capture_output=True, text=True)
    wall = time.perf_counter() - t0
    measured = json.loads(proc.stdout.splitlines()[-1]) if proc.stdout else {"rc": None}
    if proc.returncode != 0 or measured["rc"] != 0:
        sys.exit(f"kmerfab run on {cfg} failed:\n{proc.stderr}")
    return wall, measured, proc.stdout


def scale_probe(tree: Path, seed: int) -> list[dict]:
    inputs = load_inputs(tree)
    base = {name: getattr(inputs, name) for name in SCALED}
    rows = []
    with tempfile.TemporaryDirectory(prefix="kmerfab-scale-") as scratch:
        for x in SCALES:
            for name, value in base.items():
                setattr(inputs, name, value * x)
            work = Path(scratch) / f"x{x}"
            inputs.write_inputs(seed, work)
            for setting, (partitions, capacity_limit) in SETTINGS.items():
                cfg = work / f"{setting}.conf"
                cfg.write_text(inputs.run_config(work / "normal.fa", work / "tumoral.fa",
                                                 partitions, capacity_limit, CHUNK))
                out = work / f"out_{setting}"
                wall, measured, stdout = probe_run(tree, cfg, out, traced=False)
                row = {"x": x, "setting": setting, "wall_s": round(wall, 4),
                       "max_rss_mb": round(measured["max_rss_mb"], 2),
                       "index_bin_bytes": (out / "index.bin").stat().st_size,
                       "device0_dat_bytes": (out / "device0.dat").stat().st_size,
                       "candidates": int(stdout.split("candidates: ")[1].split(",")[0])}
                _, measured, _ = probe_run(tree, cfg, out, traced=True)
                row["tracemalloc_peak_mb"] = round(measured["tracemalloc_peak_mb"], 2)
                rows.append(row)
                print(json.dumps(row), flush=True)
    return rows


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--tree", type=Path, default=ROOT)
    ap.add_argument("--seed", type=int, default=101)
    ap.add_argument("--seconds", type=float, default=33)
    args = ap.parse_args(argv)
    tree = args.tree.resolve()
    stamp = {"commit": commit_of(tree),
             "date": datetime.now(timezone.utc).isoformat(timespec="seconds"),
             "host": {"cpus": os.cpu_count(), "machine": platform.machine(),
                      "python": platform.python_version()},
             "seed": args.seed}
    for workload in WORKLOADS:
        record = {**stamp, "seconds": args.seconds, **bench(tree, workload, args.seed,
                                                              args.seconds)}
        append(ROOT / f"BENCH_{workload}.json", record)
        print(workload, json.dumps(record), flush=True)
    append(ROOT / "BENCH_scale.json", {**stamp, "chunk_size": CHUNK,
                                       "rows": scale_probe(tree, args.seed)})
    return 0


if __name__ == "__main__":
    sys.exit(main())
