"""Command-line entry point: run, simulate, compare, trace.

Exit codes: 0 success, 1 runtime failure, 2 usage or config error.
All artifacts are CSV or flat text, reproducible byte-for-byte per seed.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from . import config as cfg
from . import traceanalysis
from .fabric import (
    ATTACH_FABRIC,
    ATTACH_LOCAL,
    DEFAULT_BW,
    CompositionError,
    FileBacking,
    Namespace,
    VirtualDevice,
)
from .kmers import MAX_K, ParseError, parse_reads
from .orchestrator import (
    DEMAND_SLACK,
    REFERENCE_BW,
    AllocationPlan,
    HostModel,
    PlanError,
    PoolConfig,
    WorkloadModel,
    compare_strategies,
    plan,
    simulate,
)
from .pipeline import Checkpoints, PipelineConfig, run_pipeline
from .spill import DEFAULT_CHUNK, SpillStore
from .stages import PRUNE_FP

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2

_RUN_KEYS = {
    "normal", "tumoral", "k", "partitions", "capacity_limit", "tau_t", "tau_n",
    "min_candidates", "prune_fp", "chunk_size", "device_bw", "device_capacity",
    "namespace_size", "attachment",
}

_SCENARIO_KEYS = {
    "instances", "strategy", "composed_width", "hosts", "host_memory",
    "spill_factor", "attachment", "repeats", "seed", "devices", "device_bw",
    "device_capacity", "stripe_size", "fabric_latency_us", "total_output",
    "avg_bw", "working_set", "flush_chunk", "spill_chunk", "jitter",
}


def _load_pool(kv: dict[str, str]) -> PoolConfig:
    pool = PoolConfig()
    pool.n_devices = cfg.get_int(kv, "devices", pool.n_devices, cfg.POSITIVE)
    pool.device_bw = cfg.get_float(kv, "device_bw", pool.device_bw, cfg.ABOVE_ZERO)
    pool.device_capacity = cfg.get_int(kv, "device_capacity", pool.device_capacity,
                                       cfg.POSITIVE)
    pool.stripe_size = cfg.get_int(kv, "stripe_size", pool.stripe_size, cfg.POSITIVE)
    latency_us = cfg.get_float(kv, "fabric_latency_us", pool.fabric_latency * 1e6,
                               cfg.NON_NEGATIVE)
    pool.fabric_latency = latency_us / 1e6
    for key in kv:
        if key.startswith("efficiency.width"):
            width = int(key.removeprefix("efficiency.width"))
            pool.curves[width] = cfg.get_curve(kv, key)
            try:  # checked as it loads, so simulate and compare accept one set of files
                pool.curve_for(width)
            except ValueError as exc:
                raise cfg.ConfigError(f"key {key!r}: {exc}") from exc
    return pool


def _load_workload(kv: dict[str, str]) -> WorkloadModel:
    w = WorkloadModel()
    w.total_output_bytes = cfg.get_int(kv, "total_output", w.total_output_bytes, cfg.POSITIVE)
    w.avg_demand_bw = cfg.get_float(kv, "avg_bw", w.avg_demand_bw, cfg.POSITIVE)
    limit = REFERENCE_BW * (1.0 + DEMAND_SLACK)  # compute_interval is positive below it
    if w.avg_demand_bw >= limit:
        raise cfg.ConfigError(
            f"key 'avg_bw': expected a value below {limit:g}, got {w.avg_demand_bw!r}")
    w.working_set_bytes = cfg.get_int(kv, "working_set", w.working_set_bytes, cfg.NON_NEGATIVE)
    w.flush_bytes = cfg.get_int(kv, "flush_chunk", w.flush_bytes, cfg.POSITIVE)
    w.spill_chunk_bytes = cfg.get_int(kv, "spill_chunk", w.spill_chunk_bytes, cfg.POSITIVE)
    w.jitter = cfg.get_float(kv, "jitter", w.jitter, (0.0, 1.0))
    return w


def _load_scenario(path: Path):
    kv = cfg.load_kv(path)
    # one key per width: no width 0, and no leading zero to name a width twice
    cfg.check_keys(kv, _SCENARIO_KEYS, patterns=[r"efficiency\.width[1-9]\d*"])
    pool = _load_pool(kv)
    workload = _load_workload(kv)
    host = HostModel(
        memory_bytes=cfg.get_int(kv, "host_memory", HostModel.memory_bytes, cfg.NON_NEGATIVE),
        spill_factor=cfg.get_float(kv, "spill_factor", HostModel.spill_factor, cfg.NON_NEGATIVE),
    )
    scenario = {
        "instances": cfg.get_int(kv, "instances", 3, cfg.POSITIVE),
        "strategy": cfg.get_str(kv, "strategy", "single_shared",
                                choices={"single_shared", "composed_shared",
                                         "dedicated_plus_shared"}),
        "composed_width": cfg.get_int(kv, "composed_width", 2, (2, math.inf)),
        "hosts": cfg.get_int(kv, "hosts", 6, cfg.POSITIVE),
        "attachment": cfg.get_str(kv, "attachment", ATTACH_FABRIC,
                                  choices={ATTACH_LOCAL, ATTACH_FABRIC}),
        # compare needs three seeds per strategy; simulate accepts the same files
        "repeats": cfg.get_int(kv, "repeats", 6, (3, math.inf)),
        "seed": cfg.get_int(kv, "seed", 1),
    }
    return scenario, pool, workload, host


def cmd_run(args) -> int:
    kv = cfg.load_kv(args.config)
    cfg.check_keys(kv, _RUN_KEYS)
    for key in ("normal", "tumoral"):
        if key not in kv:
            raise cfg.ConfigError(f"missing required key {key!r}")
    normal_path = Path(kv["normal"])
    tumoral_path = Path(kv["tumoral"])
    for path in (normal_path, tumoral_path):
        if not path.is_file():
            print(f"error: input file not found: {path}", file=sys.stderr)
            return EXIT_USAGE

    # every key is range-checked here, before anything is written to the output directory
    pipe_cfg = PipelineConfig(
        k=cfg.get_int(kv, "k", PipelineConfig.k, (1, MAX_K)),
        partitions=cfg.get_int(kv, "partitions", PipelineConfig.partitions, cfg.POSITIVE),
        capacity_limit=cfg.get_int(kv, "capacity_limit", PipelineConfig.capacity_limit,
                                   cfg.NON_NEGATIVE) or None,  # 0 = unbounded
        # prune only removes multiplicity-1 k-mers; tau_t >= 2 keeps every
        # possible candidate out of its reach
        tau_t=cfg.get_int(kv, "tau_t", PipelineConfig.tau_t, (2, math.inf)),
        tau_n=cfg.get_int(kv, "tau_n", PipelineConfig.tau_n, cfg.NON_NEGATIVE),
        min_candidates=cfg.get_int(kv, "min_candidates", PipelineConfig.min_candidates,
                                   cfg.POSITIVE),
        prune_fp=cfg.get_float(kv, "prune_fp", PipelineConfig.prune_fp, PRUNE_FP),
    )
    device = VirtualDevice(
        0,
        max_seq_write_bw=cfg.get_float(kv, "device_bw", DEFAULT_BW, cfg.ABOVE_ZERO),
        capacity=cfg.get_int(kv, "device_capacity", 1_000_000_000, cfg.POSITIVE),
    )
    ns = Namespace(
        parent=device, offset=0,
        size=cfg.get_int(kv, "namespace_size", device.capacity, (1, device.capacity)),
        attachment=cfg.get_str(kv, "attachment", ATTACH_LOCAL,
                               choices={ATTACH_LOCAL, ATTACH_FABRIC}),
        name="pipeline",
    )
    store = SpillStore(ns, chunk_size=cfg.get_int(kv, "chunk_size", DEFAULT_CHUNK,
                                                  cfg.POSITIVE))

    with open(normal_path) as fh:
        normal = parse_reads(fh)
    with open(tumoral_path) as fh:
        tumoral = parse_reads(fh)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    device.backing = FileBacking(out / "device0.dat")
    checkpoints = Checkpoints(store, pipe_cfg.fingerprint(normal, tumoral),
                              pipe_cfg.partitions, path=out / "checkpoints.json")

    result = run_pipeline(normal, tumoral, pipe_cfg, store, checkpoints)

    (out / "index.bin").write_bytes(result.index.to_bytes(normal, tumoral))
    group_lines = ["seed_origin,seed_id,n_members,members,shared_kmers"]
    for g in result.groups:  # a seed is a tumoral read
        members = [*(f"n{i}" for i in g.normal_ids), *(f"t{i}" for i in g.tumoral_ids)]
        codes = ";".join(str(c) for c in sorted(g.shared_kmers))
        group_lines.append(f"tumoral,{g.seed},{len(members)},{';'.join(members)},{codes}")
    (out / "groups.csv").write_text("\n".join(group_lines) + "\n")
    (out / "trace.csv").write_text(store.trace_csv())

    for stage, secs in result.stage_seconds.items():
        marker = " (checkpoint)" if stage in result.skipped else ""
        print(f"stage {stage}: {secs * 1000:.1f} ms{marker}")
    print(f"candidates: {len(result.index.candidates)}, groups: {len(result.groups)}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    scenario, pool, workload, host = _load_scenario(Path(args.config))
    seed = args.seed if args.seed is not None else scenario["seed"]
    alloc: AllocationPlan = plan(
        scenario["strategy"], scenario["instances"], pool, scenario["hosts"],
        scenario["composed_width"],
    )
    result = simulate(alloc, workload, pool, host, seed=seed,
                      attachment=scenario["attachment"], stats=True)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    lines = ["instance,seed,completion_s,bytes_written"]
    for i, t in enumerate(result.completion_s):
        lines.append(f"{i},{seed},{t:.6f},{result.bytes_written[i]}")
    (out / "completions.csv").write_text("\n".join(lines) + "\n")
    stat_lines = ["bucket_start_us,device_id,bytes_per_s"]
    for dev_id in sorted(result.device_stats):
        for t, bw in result.device_stats[dev_id]:
            stat_lines.append(f"{t * 1e6:.0f},{dev_id},{bw:.0f}")
    (out / "bandwidth.csv").write_text("\n".join(stat_lines) + "\n")
    print(f"instances: {len(result.completion_s)}, mean completion {result.mean:.4f}s")
    return EXIT_OK


def cmd_compare(args) -> int:
    scenario, pool, workload, host = _load_scenario(Path(args.config))
    seed = args.seed if args.seed is not None else scenario["seed"]
    report = compare_strategies(
        scenario["instances"], pool, scenario["hosts"], scenario["repeats"],
        workload=workload, host=host, attachment=scenario["attachment"],
        base_seed=seed, composed_width=scenario["composed_width"],
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "strategies.csv").write_text(report.csv())
    (out / "summary.txt").write_text(report.summary())
    print(report.summary(), end="")
    return EXIT_OK


def cmd_trace(args) -> int:
    input_path = Path(args.input)
    if not input_path.is_file():
        print(f"error: trace input not found: {input_path}", file=sys.stderr)
        return EXIT_USAGE
    with open(input_path) as fh:
        if args.format == "blktrace":
            records = traceanalysis.parse_blktrace(fh)
        else:
            records = traceanalysis.parse_trace_csv(fh)
    report = traceanalysis.classify(records, args.stream_limit)
    print(f"total_writes={report.total_writes}")
    print(f"sequential_naive={report.sequential_naive:.4f}")
    print(f"sequential_append_aware={report.sequential_append_aware:.4f}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kmerfab",
        description="k-mer candidate pipeline and disaggregated-storage simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the pipeline on FASTA-like inputs")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", required=True)
    p_run.set_defaults(fn=cmd_run)

    p_sim = sub.add_parser("simulate", help="simulate one allocation scenario")
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--out", required=True)
    p_sim.add_argument("--seed", type=int, default=None)
    p_sim.set_defaults(fn=cmd_simulate)

    p_cmp = sub.add_parser("compare", help="compare allocation strategies")
    p_cmp.add_argument("--config", required=True)
    p_cmp.add_argument("--out", required=True)
    p_cmp.add_argument("--seed", type=int, default=None)
    p_cmp.set_defaults(fn=cmd_compare)

    p_tr = sub.add_parser("trace", help="classify a write trace")
    p_tr.add_argument("--input", required=True)
    p_tr.add_argument("--format", default="csv", choices=["csv", "blktrace"])
    p_tr.add_argument("--stream-limit", type=int, default=traceanalysis.DEFAULT_STREAM_LIMIT)
    p_tr.set_defaults(fn=cmd_trace)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    # a file at --out or above it is a usage error, found before any input is read
    out = Path(getattr(args, "out", "."))
    files = [p for p in (out, *out.parents) if p.exists() and not p.is_dir()]
    if files:
        print(f"error: --out {out}: {files[0]} is not a directory", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.fn(args)
    except (cfg.ConfigError, ParseError, ValueError, PlanError, CompositionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # runtime failures keep the stage/instance name
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
