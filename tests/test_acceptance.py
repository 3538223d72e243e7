"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""

import random
import statistics
import time

import pytest

from kmerfab.cli import main as cli_main
from kmerfab.fabric import (
    ATTACH_FABRIC,
    ATTACH_LOCAL,
    ComposedDevice,
    EfficiencyCurve,
    FabricEngine,
    Namespace,
    VirtualDevice,
    partition_namespaces,
)
from kmerfab.orchestrator import (
    HostModel,
    PoolConfig,
    STRATEGY_COMPOSED,
    STRATEGY_DEDICATED,
    STRATEGY_SINGLE,
    WorkloadModel,
    compare_strategies,
    plan,
    simulate,
)
from kmerfab.pipeline import PipelineConfig, run_pipeline
from kmerfab.spill import SpillStore
from kmerfab.traceanalysis import IoRecord, classify
from conftest import random_instance
from oracle import (
    candidate_view,
    code_of,
    exact_counts,
    expected_groups,
    index_reads,
    kmer_of,
    read_store,
    spans,
)

K = 15
TAU_T = 4
TAU_N = 1
MIN_CANDIDATES = 3
PRUNE_FP = 0.01


def report(criterion, ok, detail):
    print(f"\ncriterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def fresh_store(chunk=1 << 20, size=1 << 30):
    dev = VirtualDevice(0, capacity=size)
    return SpillStore(Namespace(dev, 0, size), chunk_size=chunk)


def run_pipe(normal, tumoral, partitions=1, capacity=None, store=None):
    cfg = PipelineConfig(k=K, partitions=partitions, capacity_limit=capacity,
                         tau_t=TAU_T, tau_n=TAU_N,
                         min_candidates=MIN_CANDIDATES, prune_fp=PRUNE_FP)
    return run_pipeline(normal, tumoral, cfg, store or fresh_store())


@pytest.fixture(scope="module")
def pipeline_batch():
    """50 randomized instances with pipeline outputs and exact oracles."""
    batch = []
    t0 = time.perf_counter()
    for i in range(50):
        normal, tumoral = random_instance(seed=1000 + i)
        result = run_pipe(normal, tumoral)
        counts = exact_counts(normal, tumoral, K)
        batch.append((normal, tumoral, result, counts))
    return batch, time.perf_counter() - t0


def test_criterion_1_pipeline_oracle_equivalence(pipeline_batch):
    batch, build_s = pipeline_batch
    t0 = time.perf_counter()
    mismatches = 0
    for normal, tumoral, result, counts in batch:
        per_kmer, stored = candidate_view(normal, tumoral, K, TAU_T, TAU_N)
        got = {kmer_of(c, K): e for c, e in result.index.candidates.items()}
        if set(got) != set(per_kmer):
            mismatches += 1
            continue
        for s, e in per_kmer.items():
            entry = got[s]
            if (entry.n_count, entry.t_count) != (e["n"], e["t"]):
                mismatches += 1
                break
            if entry.normal_ids != sorted(e["normal_ids"]):
                mismatches += 1
                break
            if entry.tumoral_ids != sorted(e["tumoral_ids"]):
                mismatches += 1
                break
        else:
            if index_reads(result.index.to_bytes(normal, tumoral)) != read_store(
                    normal, tumoral, stored):
                mismatches += 1
                continue
            want = expected_groups(normal, tumoral, K, TAU_T, TAU_N, MIN_CANDIDATES)
            got_groups = [(g.seed, g.normal_ids, g.tumoral_ids,
                           {kmer_of(c, K) for c in g.shared_kmers}) for g in result.groups]
            if got_groups != want:
                mismatches += 1
    elapsed = build_s + (time.perf_counter() - t0)
    ok = mismatches == 0 and elapsed < 60.0
    report(1, ok, f"50 instances, {mismatches} mismatches, {elapsed:.1f}s (< 60s)")


def test_criterion_2_partition_spill_invariance():
    t0 = time.perf_counter()
    worst = 0
    for i in range(10):
        normal, tumoral = random_instance(seed=2000 + i, n_reads=150)
        reference = None
        for partitions in (1, 2, 4):
            for capacity in (64, 1024, None):
                result = run_pipe(normal, tumoral, partitions, capacity)
                blob = result.index.to_bytes(normal, tumoral)
                if reference is None:
                    reference = blob
                elif blob != reference:
                    worst += 1
    elapsed = time.perf_counter() - t0
    ok = worst == 0 and elapsed < 60.0
    report(2, ok, f"10 instances x 9 configs byte-identical, {elapsed:.1f}s (< 60s)")


def test_criterion_3_prune_soundness(pipeline_batch):
    batch, _ = pipeline_batch
    false_negatives = 0
    singles = 0
    false_positives = 0
    for normal, tumoral, _, counts in batch:
        from kmerfab.stages import ReadCodes, prune
        pf = prune(ReadCodes(normal, tumoral, K), PRUNE_FP)
        for s, (n, t) in counts.items():
            code = code_of(s)
            if n + t >= 2:
                if code not in pf:
                    false_negatives += 1
            else:
                singles += 1
                if code in pf:
                    false_positives += 1
    rate = false_positives / singles if singles else 0.0
    ok = false_negatives == 0 and singles >= 10_000 and rate <= 1.5 * PRUNE_FP
    report(3, ok, f"0 FN required (got {false_negatives}); "
                  f"FP {rate:.4f} <= {1.5 * PRUNE_FP} over {singles} singles")


def test_criterion_4_sequentiality():
    normal, tumoral = random_instance(seed=404, n_reads=200)
    store = fresh_store(chunk=1 << 14)
    run_pipe(normal, tumoral, partitions=2, capacity=64, store=store)
    pipeline_report = classify(store.io_trace())

    trace = []
    a, b = 0, 1 << 40
    for i in range(60):
        trace.append(IoRecord(2 * i, "write", a, 4096))
        a += 4096
        trace.append(IoRecord(2 * i + 1, "write", b, 4096))
        b += 4096
    two = classify(trace)
    ok = (pipeline_report.sequential_append_aware >= 0.85
          and two.naive_sequential == 0
          and two.append_aware_sequential == two.total_writes - 2)
    report(4, ok, f"pipeline append-aware {pipeline_report.sequential_append_aware:.3f} "
                  f">= 0.85 over {pipeline_report.total_writes} writes; "
                  f"interleaved fixture naive=0, aware=all-but-first")


def test_criterion_5_conservation_and_linearity():
    # conservation under heavy contention, mixed sizes
    engine = FabricEngine()
    dev = VirtualDevice(0, capacity=1 << 40)
    spaces = partition_namespaces(dev, [1 << 35] * 4)
    rng = random.Random(55)
    completions = []
    for i, ns in enumerate(spaces):
        engine.attach(ns)
        cursor = 0
        for _ in range(40):
            size = rng.randrange(1 << 12, 1 << 24)
            engine.submit(ns, cursor, size, on_complete=completions.append)
            cursor += size
    engine.run()
    max_err = max(abs(c.served_bytes - c.length) for c in completions)

    # linearity: m saturating streams on an m-composition
    lin_ok = True
    lin_detail = []
    pool = PoolConfig()
    for m in (2, 3):
        devs = [VirtualDevice(i, capacity=1 << 40,
                              efficiency_curve=pool.curve_for(m)) for i in range(m)]
        comp = ComposedDevice(devs)
        eng = FabricEngine()
        spaces = partition_namespaces(comp, [1 << 36] * m)
        done = []
        for i, ns in enumerate(spaces):
            eng.attach(ns)
            eng.submit(ns, 0, 4_000_000_000, on_complete=done.append)
        eng.run()
        elapsed = max(c.finish_time for c in done)
        agg = m * 4_000_000_000 / elapsed
        lin_detail.append(f"{m}x: {agg / 1e9:.3f} GB/s")
        if abs(agg - m * 2e9) / (m * 2e9) > 0.01:
            lin_ok = False

    # per-member balance within one stripe for a sequential stream
    comp = ComposedDevice([VirtualDevice(i, capacity=1 << 40) for i in range(2)],
                          stripe_size=128 * 1024)
    split = [0, 0]
    for member, _, take in spans(comp, 0, 1 << 30):
        split[comp.members.index(member)] += take
    balance_ok = abs(split[0] - split[1]) <= 128 * 1024

    ok = max_err <= 1.0 and lin_ok and balance_ok
    report(5, ok, f"conservation max err {max_err:.2e} bytes <= 1; "
                  f"linearity {', '.join(lin_detail)} within 1%; balance within a stripe")


def sweep(width, n_values, repeats=6):
    pool = PoolConfig()
    workload = WorkloadModel()
    host = HostModel()
    strategy = STRATEGY_SINGLE if width == 1 else STRATEGY_COMPOSED
    out = {}
    for n in n_values:
        alloc = plan(strategy, n, pool, n_hosts=n, composed_width=width)
        out[n] = statistics.fmean(
            simulate(alloc, workload, pool, host, seed=1 + r).mean
            for r in range(repeats))
    return out


def test_criterion_6_threshold_reproduction():
    details = []
    ok = True
    t_sweeps = []

    t0 = time.perf_counter()
    single = sweep(1, [1, 2, 3, 4, 5, 6])
    t_sweeps.append(time.perf_counter() - t0)
    for n in (1, 2):
        if single[n] / single[1] > 1.05:
            ok = False
    for n in (4, 5, 6):
        if single[n] / single[1] <= 1.05:
            ok = False
    details.append("1x: " + " ".join(f"n{n}={single[n] / single[1]:.3f}" for n in single))

    t0 = time.perf_counter()
    two = sweep(2, [1, 2, 3, 4])
    t_sweeps.append(time.perf_counter() - t0)
    for n in (1, 2, 3):
        if two[n] / two[1] > 1.05:
            ok = False
    if two[4] / two[1] <= 1.05:
        ok = False
    details.append("2x: " + " ".join(f"n{n}={two[n] / two[1]:.3f}" for n in two))

    t0 = time.perf_counter()
    three = sweep(3, [1, 2, 3, 4, 5, 6])
    t_sweeps.append(time.perf_counter() - t0)
    for n in range(1, 7):
        if three[n] / three[1] > 1.05:
            ok = False
    details.append("3x: " + " ".join(f"n{n}={three[n] / three[1]:.3f}" for n in three))

    if max(t_sweeps) >= 10.0:
        ok = False
    details.append(f"sweeps {', '.join(f'{t:.1f}s' for t in t_sweeps)} (< 10s each)")
    report(6, ok, "; ".join(details))


def co_located_mean(n, attachment, repeats=6):
    pool = PoolConfig()
    workload = WorkloadModel()
    host = HostModel()  # 2.5x working set
    alloc = plan(STRATEGY_SINGLE, n, pool, n_hosts=1)
    return statistics.fmean(
        simulate(alloc, workload, pool, host, seed=1 + r, attachment=attachment).mean
        for r in range(repeats))


def test_criterion_7_fabric_overhead():
    slowdowns = {}
    for n in (1, 2, 3):
        local = co_located_mean(n, ATTACH_LOCAL)
        fabric = co_located_mean(n, ATTACH_FABRIC)
        slowdowns[n] = fabric / local - 1.0
    ok = (abs(slowdowns[3] - 0.06) <= 0.02
          and slowdowns[1] <= 0.01 and slowdowns[2] <= 0.01)
    report(7, ok, "fabric slowdown " +
           ", ".join(f"n{n}={s:+.2%}" for n, s in slowdowns.items()) +
           " (n3 in 6%+-2%, n<=2 <= 1%)")


def test_criterion_8_strategy_comparison():
    rep = compare_strategies(5, PoolConfig(), n_hosts=6, repeats=6, base_seed=1)
    composed = f"{STRATEGY_COMPOSED}(2)"
    mean_b = rep.mean(composed)
    mean_a = rep.mean(STRATEGY_SINGLE)
    dedicated = rep.instance_mean(STRATEGY_DEDICATED, 0)
    under_b = rep.instance_mean(composed, 0)
    gap = dedicated / under_b - 1.0
    ok = mean_b < mean_a and abs(gap) <= 0.03
    report(8, ok, f"mean(b)={mean_b:.3f} < mean(a)={mean_a:.3f}; "
                  f"dedicated gap {gap:+.2%} within +-3%")


def test_criterion_9_memory_pressure_bytes():
    pool = PoolConfig()
    workload = WorkloadModel()
    host = HostModel()  # M = 2.5 W by default
    results = {}
    for n in (1, 2, 3):
        alloc = plan(STRATEGY_SINGLE, n, pool, n_hosts=1)
        results[n] = simulate(alloc, workload, pool, host, seed=4).bytes_written
    exact_12 = all(b == workload.total_output_bytes for n in (1, 2) for b in results[n])
    greater_3 = all(b > workload.total_output_bytes for b in results[3])
    ok = exact_12 and greater_3
    report(9, ok, f"n<=2 wrote exactly {workload.total_output_bytes}; "
                  f"n=3 wrote {results[3][0]} (> total)")


def test_criterion_10_determinism(tmp_path):
    scenario = tmp_path / "scenario.conf"
    scenario.write_text(
        "instances = 3\nstrategy = composed_shared\ncomposed_width = 2\n"
        "hosts = 3\nrepeats = 3\nseed = 9\n"
        "total_output = 300000000\nworking_set = 32000000\n"
    )
    outs = []
    for name in ("a", "b"):
        sim_out = tmp_path / f"sim_{name}"
        cmp_out = tmp_path / f"cmp_{name}"
        assert cli_main(["simulate", "--config", str(scenario), "--out", str(sim_out)]) == 0
        assert cli_main(["compare", "--config", str(scenario), "--out", str(cmp_out)]) == 0
        outs.append((
            (sim_out / "completions.csv").read_bytes(),
            (sim_out / "bandwidth.csv").read_bytes(),
            (cmp_out / "strategies.csv").read_bytes(),
            (cmp_out / "summary.txt").read_bytes(),
        ))
    ok = outs[0] == outs[1]
    report(10, ok, "simulate and compare artifacts byte-identical across reruns")
