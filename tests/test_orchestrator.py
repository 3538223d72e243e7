"""Allocation planning, workload/host models, simulation properties."""

import statistics

import pytest

from kmerfab.fabric import ATTACH_FABRIC, ATTACH_LOCAL
from kmerfab.orchestrator import (
    HostModel,
    PlanError,
    PoolConfig,
    STRATEGY_COMPOSED,
    STRATEGY_DEDICATED,
    STRATEGY_SINGLE,
    WorkloadModel,
    compare_strategies,
    plan,
    simulate,
)


def small_workload(**kw):
    """Scaled-down instance so unit tests stay fast."""
    params = dict(total_output_bytes=150_000_000, working_set_bytes=32_000_000)
    params.update(kw)
    return WorkloadModel(**params)


def small_host():
    return HostModel(memory_bytes=80_000_000)  # 2.5x the small working set


# -- plan ----------------------------------------------------------------


def test_plan_single_shared():
    alloc = plan(STRATEGY_SINGLE, 3, PoolConfig(), n_hosts=6)
    assert len(alloc.targets) == 1
    assert alloc.targets[0] == [0]
    assert alloc.instance_target == [0, 0, 0]
    assert alloc.instance_host == [0, 1, 2]


def test_plan_dedicated_plus_shared():
    alloc = plan(STRATEGY_DEDICATED, 5, PoolConfig(), n_hosts=6)
    assert alloc.targets[0] == [0]
    assert alloc.targets[1] == [1]
    assert alloc.instance_target == [0, 1, 1, 1, 1]


def test_plan_composed_single_instance():
    alloc = plan(STRATEGY_COMPOSED, 1, PoolConfig(), n_hosts=6, composed_width=2)
    assert alloc.targets[0] == [0, 1]
    assert alloc.instance_target == [0]


def test_plan_colocation_only_when_hosts_exhausted():
    alloc = plan(STRATEGY_SINGLE, 5, PoolConfig(), n_hosts=3)
    assert alloc.instance_host == [0, 1, 2, 0, 1]


def test_plan_errors():
    pool = PoolConfig(n_devices=1)
    with pytest.raises(PlanError):
        plan(STRATEGY_COMPOSED, 2, pool, n_hosts=2, composed_width=2)
    with pytest.raises(PlanError):
        plan(STRATEGY_DEDICATED, 5, pool, n_hosts=2)
    with pytest.raises(PlanError):
        plan("mystery", 1, PoolConfig(), n_hosts=1)


def test_plan_rejects_width_without_curve():
    # no silent fall back to the width-1 curve
    pool = PoolConfig(n_devices=4)
    with pytest.raises(PlanError, match="efficiency.width4"):
        plan(STRATEGY_COMPOSED, 4, pool, n_hosts=4, composed_width=4)
    pool.curves[4] = [1.0]
    assert plan(STRATEGY_COMPOSED, 4, pool, n_hosts=4, composed_width=4).targets


# -- host memory model ----------------------------------------------------


def test_memory_multiplier_thresholds():
    host = HostModel(memory_bytes=800_000_000)
    w = 320_000_000
    assert host.written_multiplier(1, w) == 1.0
    assert host.written_multiplier(2, w) == 1.0
    m3 = host.written_multiplier(3, w)
    assert m3 == pytest.approx(1 + (3 * w - 800_000_000) / (3 * w))
    assert host.written_multiplier(4, w) > m3


def test_memory_pressure_written_bytes_exact():
    # M = 2.5 W: n <= 2 writes exactly B, n = 3 strictly more
    workload = small_workload()
    host = small_host()
    pool = PoolConfig()
    for n in (1, 2):
        alloc = plan(STRATEGY_SINGLE, n, pool, n_hosts=1)
        res = simulate(alloc, workload, pool, host, seed=3)
        assert res.bytes_written == [workload.total_output_bytes] * n
    alloc = plan(STRATEGY_SINGLE, 3, pool, n_hosts=1)
    res = simulate(alloc, workload, pool, host, seed=3)
    expected = round(workload.total_output_bytes * host.written_multiplier(
        3, workload.working_set_bytes))
    assert res.bytes_written == [expected] * 3
    assert all(b > workload.total_output_bytes for b in res.bytes_written)


# -- simulate -------------------------------------------------------------


def test_solo_completion_closed_form():
    workload = small_workload()
    pool = PoolConfig()
    alloc = plan(STRATEGY_SINGLE, 1, pool, n_hosts=1)
    res = simulate(alloc, workload, pool, HostModel(), seed=1, attachment=ATTACH_LOCAL)
    n_flushes = -(-workload.total_output_bytes // workload.flush_bytes)
    expect = (workload.total_output_bytes / pool.device_bw
              + n_flushes * workload.compute_interval())
    # plus the randomized start phase, at most two cycles
    cycle = workload.compute_interval() + workload.flush_bytes / pool.device_bw
    assert expect <= res.completion_s[0] <= expect + 2.1 * cycle


def test_solo_average_bandwidth_within_band():
    workload = WorkloadModel()  # full-size run so the start phase is negligible
    pool = PoolConfig()
    alloc = plan(STRATEGY_SINGLE, 1, pool, n_hosts=1)
    means = []
    for seed in range(1, 7):
        res = simulate(alloc, workload, pool, HostModel(), seed=seed,
                       attachment=ATTACH_LOCAL)
        means.append(res.bytes_written[0] / res.completion_s[0])
    avg = statistics.fmean(means)
    assert abs(avg - workload.avg_demand_bw) / workload.avg_demand_bw <= 0.10


def test_two_sharers_near_parity():
    workload = small_workload()
    pool = PoolConfig()
    host = HostModel()
    solo = statistics.fmean(
        simulate(plan(STRATEGY_SINGLE, 1, pool, 1), workload, pool, host, seed=s).mean
        for s in range(1, 7))
    duo = statistics.fmean(
        simulate(plan(STRATEGY_SINGLE, 2, pool, 2), workload, pool, host, seed=s).mean
        for s in range(1, 7))
    assert duo / solo <= 1.05


def test_determinism_same_seed():
    workload = small_workload()
    pool = PoolConfig()
    host = small_host()
    alloc = plan(STRATEGY_DEDICATED, 4, pool, n_hosts=2)
    a = simulate(alloc, workload, pool, host, seed=7)
    b = simulate(alloc, workload, pool, host, seed=7)
    assert a.completion_s == b.completion_s
    assert a.bytes_written == b.bytes_written
    c = simulate(alloc, workload, pool, host, seed=8)
    assert c.completion_s != a.completion_s


def test_namespace_too_small_names_instance():
    workload = small_workload()
    pool = PoolConfig(device_capacity=200_000_000)
    host = small_host()
    alloc = plan(STRATEGY_SINGLE, 3, pool, n_hosts=1)  # pressured: > B/instance
    with pytest.raises(PlanError, match="instance 0 needs"):
        simulate(alloc, workload, pool, host, seed=1)


def test_sim_result_summaries():
    workload = small_workload()
    pool = PoolConfig()
    alloc = plan(STRATEGY_SINGLE, 4, pool, n_hosts=4)
    res = simulate(alloc, workload, pool, HostModel(), seed=5)
    assert res.mean == pytest.approx(statistics.fmean(res.completion_s))
    q1, q2, q3 = statistics.quantiles(res.completion_s, n=4)
    assert min(res.completion_s) <= q1 <= q2 <= q3 <= max(res.completion_s)


def test_device_stats_emitted_when_requested():
    workload = small_workload()
    pool = PoolConfig()
    alloc = plan(STRATEGY_COMPOSED, 2, pool, n_hosts=2, composed_width=2)
    res = simulate(alloc, workload, pool, HostModel(), seed=1, stats=True)
    assert set(res.device_stats) == {0, 1}
    assert any(bw > 0 for _, bw in res.device_stats[0])


def test_compare_strategies_report():
    workload = small_workload()
    report = compare_strategies(5, PoolConfig(), n_hosts=6, repeats=3,
                                workload=workload, host=HostModel())
    assert set(report.results) == {
        STRATEGY_SINGLE, f"{STRATEGY_COMPOSED}(2)", STRATEGY_DEDICATED}
    csv = report.csv()
    assert csv.splitlines()[0] == "strategy,instance,seed,completion_s"
    assert len(csv.splitlines()) == 1 + 3 * 3 * 5
    assert "verdict" in report.summary()


def test_compare_verdicts_key_on_compared_width():
    report = compare_strategies(4, PoolConfig(), n_hosts=4, repeats=3,
                                workload=small_workload(), host=small_host(),
                                composed_width=3)
    assert f"{STRATEGY_COMPOSED}(3)" in report.results
    assert set(report.verdicts()) == {"composed_beats_single", "dedicated_no_gain"}
    assert "verdict composed_beats_single" in report.summary()


def test_single_instance_same_across_strategies():
    # any strategy with one device and one instance gives identical times
    workload = small_workload()
    pool = PoolConfig()
    host = HostModel()
    t_single = simulate(plan(STRATEGY_SINGLE, 1, pool, 1), workload, pool, host,
                        seed=9).completion_s[0]
    alloc_ded = plan(STRATEGY_DEDICATED, 2, pool, n_hosts=2)
    t_ded = simulate(alloc_ded, workload, pool, host, seed=9).completion_s[0]
    assert t_ded == pytest.approx(t_single, rel=1e-12)
