"""Allocation strategies and end-to-end execution-time simulation.

Instances are burst/flush workloads: a compute interval, then spill traffic
when host memory is oversubscribed, then one full-bandwidth flush request,
repeating until the instance has written its (pressure-adjusted) output.
Strategies map instances onto device namespaces; the fabric engine supplies
contention. Everything is deterministic given the seed.
"""

from __future__ import annotations

import random
import statistics
from dataclasses import dataclass, field

from .fabric import (
    ATTACH_FABRIC,
    BoundsError,
    ComposedDevice,
    EfficiencyCurve,
    FabricEngine,
    Namespace,
    VirtualDevice,
    partition_namespaces,
)

STRATEGY_SINGLE = "single_shared"
STRATEGY_COMPOSED = "composed_shared"
STRATEGY_DEDICATED = "dedicated_plus_shared"

# Per-composition-width efficiency curves, calibrated against the measured
# sharing thresholds (parity up to 2 sharers on one device, up to 3 on a
# 2-composition, up to 6 on a 3-composition). Free model parameters: ship as
# config, never bake into the engine.
DEFAULT_CURVES: dict[int, list[float]] = {
    1: [1.0, 1.0, 0.97, 0.78, 0.70],
    2: [1.0, 1.0, 1.0, 0.88, 0.88, 0.80],
    3: [1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.85, 0.80],
}


class PlanError(Exception):
    pass


class SimulationError(Exception):
    pass


# Workload model constants, which no scenario key sets
IO_CHUNK_BYTES = 1024 * 1024  # a flush drains as requests of this size
COMPUTE_SPREAD = 0.8  # share of a cycle's compute done between its chunk writes
CLIENT_ISSUE_BW = 4_000_000_000.0  # host-side chunk issue ceiling
DEMAND_SLACK = 0.10  # calibration headroom inside the +-10% band
REFERENCE_BW = 2_000_000_000.0  # the device avg_demand_bw is calibrated on


@dataclass
class WorkloadModel:
    """Burst/flush instance model (sizes are 1:100 of the measured workload).

    Each cycle computes, then drains flush_bytes as IO_CHUNK_BYTES requests.
    COMPUTE_SPREAD moves that fraction of the cycle's compute in between the
    chunk writes (the next buffer keeps filling while the previous one
    drains), which is what keeps lightly-loaded sharers near parity while
    saturated devices still queue.
    """

    total_output_bytes: int = 1_500_000_000
    avg_demand_bw: float = 477_000_000.0
    working_set_bytes: int = 320_000_000
    flush_bytes: int = 8 * 1024 * 1024
    spill_chunk_bytes: int = 12 * 1024
    jitter: float = 0.05

    def chunks_per_flush(self) -> int:
        return -(-self.flush_bytes // IO_CHUNK_BYTES)

    def compute_interval(self) -> float:
        """Total compute per full cycle. A solo run on the reference device
        then averages avg_demand_bw/(1+DEMAND_SLACK), inside the stated 10%
        band of the demand figure."""
        t = (self.flush_bytes * (1.0 + DEMAND_SLACK) / self.avg_demand_bw
             - self.flush_bytes / REFERENCE_BW)
        if t <= 0:
            raise ValueError("avg_demand_bw must be below the reference bandwidth")
        return t


@dataclass
class HostModel:
    memory_bytes: int = 800_000_000
    spill_factor: float = 1.0

    def written_multiplier(self, n_instances: int, working_set: int) -> float:
        """1 + s * (nW - M)/(nW) once the combined working set exceeds memory."""
        need = n_instances * working_set
        if need <= self.memory_bytes or need == 0:
            return 1.0
        return 1.0 + self.spill_factor * (need - self.memory_bytes) / need


@dataclass
class PoolConfig:
    n_devices: int = 3
    device_bw: float = 2_000_000_000.0
    device_capacity: int = 40_000_000_000
    stripe_size: int = 128 * 1024
    fabric_latency: float = 15e-6
    curves: dict[int, list[float]] = field(default_factory=lambda: {
        w: list(v) for w, v in DEFAULT_CURVES.items()
    })

    def curve_for(self, width: int) -> EfficiencyCurve:
        return EfficiencyCurve(self.curves[width])

    def build_devices(self, ids: list[int]) -> list[VirtualDevice]:
        curve = self.curve_for(len(ids))
        return [
            VirtualDevice(i, self.device_bw, self.device_capacity,
                          efficiency_curve=curve, fabric_latency=self.fabric_latency)
            for i in ids
        ]


@dataclass
class AllocationPlan:
    n_instances: int
    targets: list[list[int]]  # device ids: one = plain device, several = striped composition
    instance_target: list[int]  # instance -> target index
    instance_host: list[int]  # instance -> host index


def plan(strategy: str, n_instances: int, pool: PoolConfig, n_hosts: int,
         composed_width: int = 2) -> AllocationPlan:
    """Map instances to targets and hosts under one of the three strategies.

    Each count is trusted here (`cli._load_scenario` range-checks it as it
    loads); a PlanError is a strategy the counts cannot carry out together,
    or a target width with no efficiency curve."""
    if strategy == STRATEGY_SINGLE:
        targets = [[0]]
        instance_target = [0] * n_instances
    elif strategy == STRATEGY_COMPOSED:
        if pool.n_devices < composed_width:
            raise PlanError(
                f"composed_shared({composed_width}) needs {composed_width} devices, "
                f"pool has {pool.n_devices}"
            )
        targets = [list(range(composed_width))]
        instance_target = [0] * n_instances
    elif strategy == STRATEGY_DEDICATED:
        if pool.n_devices < 2:
            raise PlanError("dedicated_plus_shared needs 2 devices")
        if n_instances < 2:
            raise PlanError("dedicated_plus_shared needs at least 2 instances")
        targets = [[0], [1]]
        instance_target = [0] + [1] * (n_instances - 1)
    else:
        raise PlanError(f"unknown strategy {strategy!r}")
    for target in targets:
        width = len(target)
        if width not in pool.curves:
            raise PlanError(f"no efficiency curve for width {width} "
                            f"(set efficiency.width{width})")
    # one instance per host while hosts remain; co-locate round-robin beyond
    instance_host = [i % n_hosts for i in range(n_instances)]
    return AllocationPlan(n_instances, targets, instance_target, instance_host)


@dataclass
class SimResult:
    completion_s: list[float]
    bytes_written: list[int]
    seed: int
    device_stats: dict[int, list[tuple[float, float]]] = field(default_factory=dict)

    @property
    def mean(self) -> float:
        return statistics.fmean(self.completion_s)


def _instance_proc(idx, namespace, workload, multiplier, rng, engine, done):
    total = workload.total_output_bytes
    spill_total = round(total * (multiplier - 1.0))
    flush = workload.flush_bytes
    spill_chunk = workload.spill_chunk_bytes
    t_compute = workload.compute_interval()
    n_chunks = workload.chunks_per_flush()
    t_upfront = t_compute * (1.0 - COMPUTE_SPREAD)
    t_prep = t_compute * COMPUTE_SPREAD / n_chunks  # between chunk writes
    jitter = workload.jitter

    # one solo cycle on this namespace's target, for uniform phase spreading
    pace = IO_CHUNK_BYTES / CLIENT_ISSUE_BW
    svc = IO_CHUNK_BYTES / namespace.parent.max_seq_write_bw
    cycle_est = t_compute + n_chunks * max(pace, svc)

    regular_written = 0
    spill_written = 0
    cursor = 0
    bytes_written = 0
    first = True
    try:
        while regular_written < total:
            if first:
                # start-phase randomization, part of the seeded interval jitter
                yield ("sleep", rng.uniform(0.0, 2.0 * cycle_est))
                first = False
            elif t_upfront > 0:
                yield ("sleep", t_upfront * rng.uniform(1.0 - jitter, 1.0 + jitter))
            burst = min(flush, total - regular_written)
            # memory-pressure spill traffic, paced with the regular output
            spill_due = spill_total * (regular_written + burst) // total
            while spill_written < spill_due:
                chunk = min(spill_chunk, spill_due - spill_written)
                yield ("write", namespace, cursor, chunk)
                cursor += chunk
                spill_written += chunk
                bytes_written += chunk
            flushed = 0
            while flushed < burst:
                if t_prep > 0:
                    yield ("sleep", t_prep * rng.uniform(1.0 - jitter, 1.0 + jitter))
                chunk = min(IO_CHUNK_BYTES, burst - flushed)
                pace_until = engine.now + chunk / CLIENT_ISSUE_BW
                yield ("write", namespace, cursor, chunk)
                if engine.now < pace_until:  # issue ceiling, not device idling
                    yield ("sleep", pace_until - engine.now)
                cursor += chunk
                flushed += chunk
            regular_written += burst
            bytes_written += burst
    except BoundsError as exc:
        raise SimulationError(f"instance {idx} exceeded its namespace: {exc}") from exc
    engine.detach(namespace)
    done[idx] = (engine.now, bytes_written)


def simulate(
    allocation: AllocationPlan,
    workload: WorkloadModel,
    pool: PoolConfig,
    host: HostModel,
    seed: int,
    attachment: str = ATTACH_FABRIC,
    stats: bool = False,
) -> SimResult:
    """Run one deterministic simulation of the planned instances. A namespace
    too small for its instance's output is a PlanError, raised before the run."""
    engine = FabricEngine(stats=stats)
    devices: dict[int, VirtualDevice] = {}
    parents = []
    for target in allocation.targets:
        built = pool.build_devices(target)
        for dev in built:
            devices[dev.id] = dev
        parents.append(built[0] if len(built) == 1 else ComposedDevice(built, pool.stripe_size))

    # equal namespaces per target, carved over each target's instances
    per_target: dict[int, list[int]] = {t: [] for t in range(len(allocation.targets))}
    for inst, tgt in enumerate(allocation.instance_target):
        per_target[tgt].append(inst)
    namespaces: dict[int, Namespace] = {}
    for tgt, instances in per_target.items():
        if not instances:
            continue
        parent = parents[tgt]
        size = parent.capacity // len(instances)
        spaces = partition_namespaces(parent, [size] * len(instances),
                                      attachment=attachment,
                                      names=[f"i{i}" for i in instances])
        for inst, ns in zip(instances, spaces):
            namespaces[inst] = ns

    # per-host written-bytes multiplier from memory oversubscription
    host_load: dict[int, int] = {}
    for h in allocation.instance_host:
        host_load[h] = host_load.get(h, 0) + 1
    multipliers = [
        host.written_multiplier(host_load[allocation.instance_host[i]],
                                workload.working_set_bytes)
        for i in range(allocation.n_instances)
    ]

    needed = [round(workload.total_output_bytes * m) for m in multipliers]
    for i, nbytes in enumerate(needed):
        if nbytes > namespaces[i].size:
            raise PlanError(
                f"instance {i} needs {nbytes} bytes, namespace holds {namespaces[i].size}"
            )

    done: dict[int, tuple[float, int]] = {}
    for i in range(allocation.n_instances):
        engine.attach(namespaces[i])
    for i in range(allocation.n_instances):
        rng = random.Random(seed * 1_000_003 + i)
        engine.spawn(_instance_proc(i, namespaces[i], workload, multipliers[i],
                                    rng, engine, done))
    engine.run()
    if len(done) != allocation.n_instances:
        missing = sorted(set(range(allocation.n_instances)) - set(done))
        raise SimulationError(f"instances never completed: {missing}")

    result = SimResult(
        completion_s=[done[i][0] for i in range(allocation.n_instances)],
        bytes_written=[done[i][1] for i in range(allocation.n_instances)],
        seed=seed,
    )
    if stats:
        for dev_id, dev in devices.items():
            result.device_stats[dev_id] = engine.device_stats(dev)
    return result


@dataclass
class StrategyReport:
    results: dict[str, list[SimResult]]
    composed_width: int

    def mean(self, strategy: str) -> float:
        return statistics.fmean(r.mean for r in self.results[strategy])

    def instance_mean(self, strategy: str, instance: int) -> float:
        return statistics.fmean(r.completion_s[instance] for r in self.results[strategy])

    def verdicts(self) -> dict[str, bool]:
        composed = f"{STRATEGY_COMPOSED}({self.composed_width})"
        out = {}
        if composed in self.results and STRATEGY_SINGLE in self.results:
            out["composed_beats_single"] = self.mean(composed) < self.mean(STRATEGY_SINGLE)
        if composed in self.results and STRATEGY_DEDICATED in self.results:
            dedicated = self.instance_mean(STRATEGY_DEDICATED, 0)
            shared = self.instance_mean(composed, 0)
            out["dedicated_no_gain"] = dedicated >= shared * 0.97
        return out

    def csv(self) -> str:
        lines = ["strategy,instance,seed,completion_s"]
        for strategy in sorted(self.results):
            for res in self.results[strategy]:
                for inst, t in enumerate(res.completion_s):
                    lines.append(f"{strategy},{inst},{res.seed},{t:.6f}")
        return "\n".join(lines) + "\n"

    def summary(self) -> str:
        lines = []
        for strategy in sorted(self.results):
            times = [t for r in self.results[strategy] for t in r.completion_s]
            mean = statistics.fmean(times)
            lines.append(
                f"{strategy}: mean={mean:.4f}s min={min(times):.4f}s max={max(times):.4f}s"
            )
        for name, value in sorted(self.verdicts().items()):
            lines.append(f"verdict {name} = {value}")
        return "\n".join(lines) + "\n"


def compare_strategies(
    n_instances: int,
    pool: PoolConfig,
    n_hosts: int,
    repeats: int,
    workload: WorkloadModel | None = None,
    host: HostModel | None = None,
    attachment: str = ATTACH_FABRIC,
    base_seed: int = 1,
    composed_width: int = 2,
) -> StrategyReport:
    """Simulate the three allocation strategies over distinct seeds (at
    least three, which `cli._load_scenario` checks)."""
    workload = workload or WorkloadModel()
    host = host or HostModel()
    strategies = [
        (STRATEGY_SINGLE, STRATEGY_SINGLE),
        (STRATEGY_COMPOSED, f"{STRATEGY_COMPOSED}({composed_width})"),
        (STRATEGY_DEDICATED, STRATEGY_DEDICATED),
    ]
    results: dict[str, list[SimResult]] = {}
    for strategy, label in strategies:
        alloc = plan(strategy, n_instances, pool, n_hosts, composed_width)
        results[label] = [
            simulate(alloc, workload, pool, host, seed=base_seed + r, attachment=attachment)
            for r in range(repeats)
        ]
    return StrategyReport(results, composed_width)
