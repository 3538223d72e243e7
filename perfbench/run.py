"""kmerfab benchmark: three workloads driven through `kmerfab.cli.main`.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the program is imported from `src/`. Each
workload iteration runs in a fresh single-threaded worker process
(perfbench/worker.py), one process at a time:

  pipeline_spill  `run` (partitions 4, capacity_limit 512, 4 KiB chunks)
                  then `trace` on the generated input
  pipeline_inmem  `run` (partitions 1, unbounded table) then `trace` on the
                  same generated input
  sim_contention  `simulate` (6 instances on a 3-wide composed_shared over
                  2 hosts, fabric attachment) then `compare` on
                  configs/compare_n5.conf, both with --seed

The seed feeds the input generator (perfbench/inputs.py) or the simulation
seed; the program sees only the generated files and the --seed flag.
Iterations repeat until S seconds have passed, and medians are reported.

device_write_bytes is the bytes `run` wrote to its namespace, summed from
its trace.csv, on pipeline_*. On sim_contention it is the bytes the
simulated devices served, integrated from `simulate`'s bandwidth.csv; a
correct engine keeps it at the scenario's fixed output (10.5 GB), so there
it only fills the slot every workload must report.

Shared hosts drift in speed: on the 2-vCPU Xeon VM the baseline was
measured on, the wall time of one iteration moved by up to half between
runs tens of seconds apart, far more than medians within a run absorb.
So each worker interrupts its calls every 0.2 s to time a short fixed
calibration loop (worker.Sampler), and cal_wall_s rescales the
iteration's wall time to the speed at which that loop takes CAL_REF_S:
wall_s * CAL_REF_S / (median sample). Call and span times leave the
sampling time out. The loop never changes, so a faster program lowers
cal_wall_s by the same factor as wall_s. Raw wall_s is printed and
recorded beside it.

Set-up time is sampled at every process spawn: SETUP_PROBES processes that
only import kmerfab.cli, then every worker. Every CLI call and every output
check counts as one operation; a non-zero exit or a failed check is a
failure.

With --trace 0 the last stdout line holds the end-to-end metrics. With
--trace 1 the same untraced iterations run, then one more iteration under
the wrappers of perfbench/tracing.py, and the last line holds the
per-layer metrics, including the tracing overhead: the traced cal_wall_s
minus the untraced median. Lines before it print every figure by name and
unit; the full record, with the input's properties, goes to
perfbench/out/<workload>/.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import struct
import subprocess
import sys
import time
import zlib
from pathlib import Path

import inputs
import tracing

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = HERE / "out"
COMPARE_CONFIG = ROOT / "configs" / "compare_n5.conf"

HARD_LIMIT_S = 170.0  # the whole run must end within 180 s
CAL_REF_S = 0.0075  # calibration sample time that defines the reference speed
SETUP_PROBES = 5
CHUNK_SIZE = 4096
PIPELINES = {
    "pipeline_spill": {"partitions": 4, "capacity_limit": 512},
    "pipeline_inmem": {"partitions": 1, "capacity_limit": 0},
}
WORKLOADS = [*PIPELINES, "sim_contention"]

# Memory-pressure keys are spelled out so the byte check can recompute them.
SIM_SCENARIO = {
    "instances": 6,
    "strategy": "composed_shared",
    "composed_width": 3,
    "hosts": 2,
    "attachment": "fabric",
    "total_output": 1_500_000_000,
    "working_set": 320_000_000,
    "host_memory": 800_000_000,
    "spill_factor": 1.0,
}

END_TO_END = {
    "setup_s": "s",
    "cal_wall_s": "s",
    "peak_rss_mb": "MB",
    "device_write_bytes": "bytes",
}
MIN_APPEND_AWARE = 0.85
START = time.perf_counter()


class Ledger:
    """Operations attempted and failed, and set-up samples. Every failure
    is reported on stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.setup: list[float] = []

    def record(self, what: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED {what}: {detail}", file=sys.stderr)
        return ok

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def spawn_worker(ledger: Ledger, spec: dict | None) -> tuple[dict | None, str]:
    """(worker result or None, stderr). Every spawn adds a set-up sample."""
    cmd = [sys.executable, str(HERE / "worker.py"), str(SRC)]
    if spec is not None:
        cmd.append(json.dumps(spec))
    timeout = max(1.0, HARD_LIMIT_S - (time.perf_counter() - START))
    t_spawn = monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, f"worker timed out after {timeout:.0f} s"
    try:
        result = json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return None, f"exit {proc.returncode}: {proc.stderr[-2000:]}"
    ledger.setup.append(result["ready"] - t_spawn)
    return result, proc.stderr


def run_calls(ledger: Ledger, calls: list[list[str]], spans: Path | None = None) -> dict | None:
    """Run CLI calls in one worker; each call is one operation."""
    result, err = spawn_worker(ledger, {"calls": calls, "spans": str(spans) if spans else None})
    if result is None:
        for argv in calls:
            ledger.record(f"kmerfab {argv[0]}", False, err)
        return None
    ok = True
    for call in result["calls"]:
        ok &= ledger.record(f"kmerfab {call['argv'][0]}", call["code"] == 0,
                            f"exit {call['code']}: {call['stderr'].strip()}")
    return result if ok else None


def timings(result: dict) -> dict[str, float]:
    """wall_s and cal_wall_s of one worker's calls, plus each call's seconds
    under `<command>_s`; all without the sampling time."""
    calls = result["calls"]
    out = {f"{call['argv'][0]}_s": call["s"] for call in calls}
    out["wall_s"] = sum(call["s"] for call in calls)
    out["calibration_s"] = statistics.median(result["calibration_s"])
    out["cal_wall_s"] = out["wall_s"] * CAL_REF_S / out["calibration_s"]
    return out


def probe_setup(ledger: Ledger) -> None:
    for _ in range(SETUP_PROBES):
        result, err = spawn_worker(ledger, None)
        ledger.record("import kmerfab.cli", result is not None, err)


# --------------------------------------------------------------------------
# Output checks, all made from the files the CLI wrote


def read_index(data: bytes) -> int:
    """Candidate count of an index.bin; ValueError if damaged."""
    if data[:8] != b"KFIDXv1\x00" or len(data) < 8 + 20 + 4:
        raise ValueError("bad index magic or length")
    body = data[8:-4]
    (crc,) = struct.unpack_from("<I", data, len(data) - 4)
    if zlib.crc32(body) != crc:
        raise ValueError("index checksum mismatch")
    return struct.unpack_from("<IQ", body)[1]


def trace_report(stdout: str) -> dict[str, float]:
    """key=value lines printed by `kmerfab trace`; ValueError if one is not
    a number."""
    report = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition("=")
        if sep:
            report[key.strip()] = float(value)
    return report


CHECK_ERRORS = (OSError, ValueError, IndexError, struct.error)


def check_pipeline(ledger: Ledger, out: Path, trace_stdout: str,
                   reference: dict[str, bytes] | None) -> None:
    """Three checks (two without a reference); a missing or malformed output
    fails the checks that need it."""
    index = groups = None
    try:
        index = (out / "index.bin").read_bytes()
        groups = (out / "groups.csv").read_bytes()
        n_candidates = read_index(index)
        n_groups = max(0, groups.count(b"\n") - 1)
        ok, detail = n_candidates > 0 and n_groups > 0, f"{n_candidates} candidates, {n_groups} groups"
    except CHECK_ERRORS as exc:
        ok, detail = False, str(exc)
    ledger.record("candidates and groups", ok, detail)
    try:
        aware = trace_report(trace_stdout).get("sequential_append_aware", 0.0)
        ok, detail = aware >= MIN_APPEND_AWARE, f"{aware} < {MIN_APPEND_AWARE}"
    except ValueError as exc:
        ok, detail = False, str(exc)
    ledger.record("trace sequential_append_aware", ok, detail)
    if reference is not None:
        ledger.record("partition/spill invariance",
                      index == reference["index.bin"] and groups == reference["groups.csv"],
                      "index.bin or groups.csv differs between pipeline_spill and pipeline_inmem")


def expected_bytes_written(scenario: dict) -> list[int]:
    """Criterion 9: round(total_output x host multiplier), per instance."""
    n, hosts = scenario["instances"], scenario["hosts"]
    per_host = [sum(1 for i in range(n) if i % hosts == h) for h in range(hosts)]
    out = []
    for i in range(n):
        need = per_host[i % hosts] * scenario["working_set"]
        mult = 1.0
        if need > scenario["host_memory"]:
            mult += scenario["spill_factor"] * (need - scenario["host_memory"]) / need
        out.append(round(scenario["total_output"] * mult))
    return out


def check_sim(ledger: Ledger, sim_out: Path, cmp_out: Path, scenario: dict) -> None:
    """Two checks: completions.csv bytes and the summary.txt verdicts; a
    missing or malformed file fails its check."""
    expected = expected_bytes_written(scenario)
    try:
        rows = (sim_out / "completions.csv").read_text().splitlines()[1:]
        written = [int(row.split(",")[3]) for row in rows]
        ok, detail = written == expected, f"wrote {written}, expected {expected}"
    except CHECK_ERRORS as exc:
        ok, detail = False, str(exc)
    ledger.record("completions bytes_written", ok, detail)
    try:
        summary = (cmp_out / "summary.txt").read_text()
        verdicts = [line for line in summary.splitlines() if line.startswith("verdict ")]
        ok = len(verdicts) == 2 and all(v.endswith("= True") for v in verdicts)
        detail = "; ".join(verdicts) or "no verdict lines"
    except OSError as exc:
        ok, detail = False, str(exc)
    ledger.record("compare verdicts", ok, detail)


def served_bytes(bandwidth_csv: Path) -> float:
    """Bytes the simulated devices served, integrated over the fixed-width
    buckets of `simulate`'s bandwidth.csv."""
    rows = [line.split(",") for line in bandwidth_csv.read_text().splitlines()[1:]]
    starts = sorted({int(row[0]) for row in rows})
    bucket_s = (starts[1] - starts[0]) / 1e6  # IndexError if one bucket only
    return sum(float(row[2]) for row in rows) * bucket_s


# --------------------------------------------------------------------------
# Workload iterations; each returns one sample of figures


def device_traffic(trace_csv: Path) -> dict[str, int]:
    traffic = {"write": 0, "read": 0}
    for line in trace_csv.read_text().splitlines()[1:]:
        _, kind, _, length = line.split(",")
        traffic[kind] += int(length)
    return traffic


def runs_per_partition(out: Path, written: int) -> list[int]:
    """Spilled runs counted per partition by walking the record headers at
    the addresses the trace wrote; `count.pN` checkpoints close partitions."""
    stages = json.loads((out / "checkpoints.json").read_text())["stages"]
    closes = {h["start_address"] for name, h in stages.items() if name.startswith("count.p")}
    device = (out / "device0.dat").read_bytes()[:written]
    counts, runs, pos = [], 0, 0
    while pos < len(device):
        magic, _, _, n, _ = struct.unpack_from("<8sIIQQ", device, pos)
        if pos in closes:
            counts.append(runs)
            runs = 0
        if magic == b"KFRUNv1\x00":
            runs += 1
            pos += 32 + 16 * n
        else:
            pos += 32 + n
    return counts


def pipeline_iteration(ledger: Ledger, conf: Path, out: Path,
                       reference: dict[str, bytes] | None, spans: Path | None = None) -> dict | None:
    shutil.rmtree(out, ignore_errors=True)
    result = run_calls(ledger, [["run", "--config", str(conf), "--out", str(out)],
                                ["trace", "--input", str(out / "trace.csv")]], spans)
    if result is None:
        return None
    check_pipeline(ledger, out, result["calls"][1]["stdout"], reference)
    try:
        traffic = device_traffic(out / "trace.csv")
        runs = runs_per_partition(out, traffic["write"])
    except (*CHECK_ERRORS, KeyError) as exc:
        ledger.record("device traffic from trace.csv", False, str(exc))
        return None
    return {
        **timings(result),
        "peak_rss_mb": result["peak_rss_mb"],
        "device_write_bytes": traffic["write"],
        "device_read_bytes": traffic["read"],
        "runs_per_partition": runs,
        "counts": result.get("counts"),
    }


def sim_iteration(ledger: Ledger, work: Path, seed: int, spans: Path | None = None) -> dict | None:
    sim_out, cmp_out = work / "simulate", work / "compare"
    shutil.rmtree(sim_out, ignore_errors=True)
    shutil.rmtree(cmp_out, ignore_errors=True)
    result = run_calls(ledger, [
        ["simulate", "--config", str(work / "scenario.conf"), "--out", str(sim_out),
         "--seed", str(seed)],
        ["compare", "--config", str(COMPARE_CONFIG), "--out", str(cmp_out), "--seed", str(seed)],
    ], spans)
    if result is None:
        return None
    check_sim(ledger, sim_out, cmp_out, SIM_SCENARIO)
    try:
        served = served_bytes(sim_out / "bandwidth.csv")
    except CHECK_ERRORS as exc:
        ledger.record("device traffic from bandwidth.csv", False, str(exc))
        return None
    return {
        **timings(result),
        "peak_rss_mb": result["peak_rss_mb"],
        "device_write_bytes": served,
        "counts": result.get("counts"),
    }


def prepare(workload: str, seed: int, work: Path, ledger: Ledger):
    """Write the workload's inputs; return (iterate(spans), input properties)."""
    if workload == "sim_contention":
        (work / "scenario.conf").write_text(
            "".join(f"{k} = {v}\n" for k, v in SIM_SCENARIO.items()))
        return (lambda spans=None: sim_iteration(ledger, work, seed, spans)), {"seed": seed}

    props = inputs.write_inputs(seed, work)
    confs = {}
    for name, settings in PIPELINES.items():
        confs[name] = work / f"{name}.conf"
        confs[name].write_text(inputs.run_config(
            work / "normal.fa", work / "tumoral.fa", chunk_size=CHUNK_SIZE, **settings))
    # the other pipeline configuration once, as the invariance reference
    other = next(name for name in PIPELINES if name != workload)
    ref_out = work / other
    reference = None
    if pipeline_iteration(ledger, confs[other], ref_out, None) is not None:
        reference = {name: (ref_out / name).read_bytes() for name in ("index.bin", "groups.csv")}
    props["seed"] = seed
    out = work / "iteration"
    return (lambda spans=None: pipeline_iteration(ledger, confs[workload], out, reference, spans)), props


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    missing = [p for p in (SRC / "kmerfab" / "cli.py", COMPARE_CONFIG) if not p.exists()]
    if missing:
        print(f"error: run from the kmerfab repository root; missing {missing[0]}",
              file=sys.stderr)
        return 2

    work = OUT / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ledger = Ledger()
    probe_setup(ledger)
    iterate, props = prepare(args.workload, args.seed, work, ledger)

    samples = []
    t0 = time.perf_counter()
    while True:
        sample = iterate()
        if sample is not None:
            samples.append(sample)
        if time.perf_counter() - t0 >= args.seconds:
            break
    setup = ledger.setup
    if not samples:
        print("error: no successful iteration", file=sys.stderr)
        return 1

    figures = {"setup_s": statistics.median(setup)}
    keys = [k for k in samples[0] if k not in ("counts", "runs_per_partition")]
    figures.update({k: statistics.median(s[k] for s in samples) for k in keys})
    record = {"workload": args.workload, "inputs": props, "setup_samples": setup,
              "samples": [{k: v for k, v in s.items() if k != "counts"} for s in samples]}
    if "runs_per_partition" in samples[0]:
        props["runs_per_partition"] = samples[0]["runs_per_partition"]

    if args.trace:
        traced = iterate(work / "spans")
        if traced is None:
            print("error: traced iteration failed", file=sys.stderr)
            return 1
        times = tracing.self_times(*tracing.read_spans(work / "spans"))
        layers = tracing.layer_metrics(times, traced["counts"])
        # Calibrated, like the gated time: raw wall time drifts between
        # iterations by more than tracing costs.
        layers["trace.overhead_s"] = traced["cal_wall_s"] - figures["cal_wall_s"]
        record["traced"] = {k: v for k, v in traced.items() if k != "counts"}
        record["traced"]["raw_overhead_s"] = traced["wall_s"] - figures["wall_s"]
        record["layers"] = layers
        record["layer_self_s"] = tracing.layer_self_times(times)
        # self seconds at the reference speed of cal_wall_s; they sum to the
        # traced cal_wall_s
        scale = traced["cal_wall_s"] / traced["wall_s"]
        record["layer_self_cal_s"] = {layer: secs * scale
                                      for layer, secs in record["layer_self_s"].items()}
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, (unit, _) in tracing.PER_LAYER.items()}
    else:
        metrics = {name: {"value": figures[name], "unit": unit}
                   for name, unit in END_TO_END.items()}

    figures["error_rate"] = ledger.error_rate
    record["figures"] = figures
    (work / "result.json").write_text(json.dumps(record, indent=1))

    print(f"workload {args.workload} seed {args.seed}: {len(samples)} iterations, "
          f"{len(setup)} set-up samples; inputs {json.dumps(props)}")
    for key in ("wall_s", "cal_wall_s"):
        print(f"  {key} per iteration: {[s[key] for s in samples]}")
    units = {"peak_rss_mb": "MB", "error_rate": "ratio"}
    for name, value in figures.items():
        unit = units.get(name, "bytes" if name.endswith("_bytes") else "s")
        print(f"  {name} = {value} {unit}")
    if args.trace:
        print(f"  traced iteration: wall_s = {traced['wall_s']} s, "
              f"cal_wall_s = {traced['cal_wall_s']} s; self time by layer, "
              f"raw and at the reference speed:")
        for layer, secs in sorted(record["layer_self_s"].items(), key=lambda kv: -kv[1]):
            print(f"    {layer} = {secs} s, {record['layer_self_cal_s'][layer]} s")
        print(f"  untraced cal_wall_s = sum of reference-speed self times - trace.overhead_s "
              f"= {sum(record['layer_self_cal_s'].values()) - layers['trace.overhead_s']} s "
              f"(median {figures['cal_wall_s']} s)")
        print(f"  trace.overhead_s = {layers['trace.overhead_s']} s "
              f"(raw wall_s difference, drift included: {record['traced']['raw_overhead_s']} s)")
        for name, (unit, _) in tracing.PER_LAYER.items():
            print(f"  {name} = {layers[name]} {unit}")
    print(json.dumps({"correct": ledger.failed == 0, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
