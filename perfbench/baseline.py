"""Measure a baseline: one run per seed on each workload, then one traced run.

    python3 perfbench/baseline.py

Run from the repository root, with nothing else busy. It runs every
workload of BENCHMARK.json with seeds 1 to 10. For every end-to-end
metric it records the value of each run and their median, quartiles and
spread (quartile distance over the median, as statistics.quantiles(n=4)
gives them) next to the metric's bound in BENCHMARK.json; a spread should
stay under a third of the bound. The result goes to perfbench/baseline.json.
It also keeps the per-command figures and
input properties of each run's record, the per-layer metrics of one traced
run per workload, the layer map, and the machine it ran on.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SEEDS = list(range(1, 11))


def machine() -> dict:
    model = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": model, "python": platform.python_version(),
            "platform": platform.platform()}


def bench(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """(final JSON line, result record) of one run.py run."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    record = json.loads((HERE / "out" / workload / "result.json").read_text())
    return json.loads(proc.stdout.splitlines()[-1]), record


def summary(values: list[float], bound: float | None) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    out = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}
    if bound is not None:
        out["bound"] = bound
    return out


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = [w["name"] for w in spec["workloads"]]
    doc = {"machine": machine(), "date": time.strftime("%Y-%m-%d"),
           "run_seconds": spec["run_seconds"], "seeds": SEEDS,
           "layer_map": tracing.LAYER_MAP, "workloads": {}}
    for workload in workloads:
        runs, records = [], []
        for seed in SEEDS:
            line, record = bench(workload, seed, spec["run_seconds"], 0)
            runs.append(line)
            records.append(record)
            metrics = {k: v["value"] for k, v in line["metrics"].items()}
            print(f"{workload} seed {seed}: correct={line['correct']} "
                  f"{line['failed']}/{line['attempted']} failed {metrics}", flush=True)
        entry = {
            "correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": {name: dict(values=[r["metrics"][name]["value"] for r in runs],
                                      unit=runs[0]["metrics"][name]["unit"],
                                      **summary([r["metrics"][name]["value"] for r in runs],
                                                bounds[name]))
                           for name in bounds},
            "figures": {name: summary([rec["figures"][name] for rec in records], None)
                        for name in records[0]["figures"]},
            "inputs": [rec["inputs"] for rec in records],
        }
        line, record = bench(workload, SEEDS[0], spec["run_seconds"], 1)
        entry["traced"] = {"seed": SEEDS[0], "correct": line["correct"],
                           "untraced": {k: record["figures"][k] for k in ("wall_s", "cal_wall_s")},
                           "traced": {k: record["traced"][k]
                                      for k in ("wall_s", "cal_wall_s", "raw_overhead_s")},
                           "layer_self_s": record["layer_self_s"],
                           "layer_self_cal_s": record["layer_self_cal_s"],
                           "per_layer": record["layers"]}
        doc["workloads"][workload] = entry
        for name, s in entry["end_to_end"].items():
            flag = "" if s["spread"] < s["bound"] / 3 else "  <-- spread above bound/3"
            print(f"{workload} {name}: median {s['median']:.6g} spread {s['spread']:.4f} "
                  f"(bound {s['bound']}){flag}", flush=True)
    (HERE / "baseline.json").write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
