"""Fabric simulator: striping, namespaces, arbitration, conservation."""

import random
import tracemalloc
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kmerfab import fabric
from kmerfab.fabric import (
    ATTACH_FABRIC,
    ATTACH_LOCAL,
    BoundsError,
    CapacityError,
    ComposedDevice,
    CompositionError,
    EfficiencyCurve,
    FabricEngine,
    Namespace,
    VirtualDevice,
    partition_namespaces,
)

GB = 1_000_000_000
TB = 1_000_000_000_000
# the arbitration tests below are hand-integrated against this curve
CURVE = EfficiencyCurve([1.0, 1.0, 0.97, 0.88, 0.80])


def device(i=0, capacity=4 * TB, efficiency_curve=CURVE, **kw):
    return VirtualDevice(i, capacity=capacity, efficiency_curve=efficiency_curve, **kw)


def ns_of(parent, size=None, attachment=ATTACH_LOCAL):
    return Namespace(parent, 0, size or parent.capacity, attachment)


def run_writes(engine, jobs):
    """jobs: (namespace, start, length); returns completions in issue order."""
    done = {}
    for i, (ns, start, length) in enumerate(jobs):
        engine.attach(ns)
        engine.submit(ns, start, length,
                      on_complete=lambda c, i=i: done.__setitem__(i, c))
    engine.run()
    return [done[i] for i in range(len(jobs))]


def served_bw(c):
    return c.length / (c.finish_time - c.issue_time)


def spans_totals(parent, start, length):
    """(member, bytes) of [start, start + length) per member, summed over the
    spans walk in its order."""
    totals = {}
    for member, _, take in parent.spans(start, length):
        totals[member] = totals.get(member, 0) + take
    return list(totals.items())


def member_split(parent, start, length):
    """Bytes of [start, start + length) per member index, counted through spans."""
    return {parent.members.index(m): n for m, n in spans_totals(parent, start, length)}


def steady_buckets(engine, dev, end):
    """Bandwidth of the stats buckets that close by time end."""
    return [bw for t, bw in engine.device_stats(dev) if t + fabric.BUCKET_S <= end]


# -- composition -------------------------------------------------------------


def test_compose_aggregate_bandwidth():
    two = ComposedDevice([device(0), device(1)])
    three = ComposedDevice([device(0), device(1), device(2)])
    assert two.max_seq_write_bw == 4 * GB
    assert three.max_seq_write_bw == 6 * GB
    assert two.capacity == 8 * TB


def test_compose_requires_equal_capacity():
    with pytest.raises(CompositionError):
        ComposedDevice([device(0, capacity=TB), device(1, capacity=2 * TB)])
    with pytest.raises(CompositionError):
        ComposedDevice([device(0)])


def test_striping_splits_evenly():
    comp = ComposedDevice([device(0), device(1)], stripe_size=128 * 1024)
    split = member_split(comp, 0, 256 * 1024)
    assert split == {0: 128 * 1024, 1: 128 * 1024}


def test_sequential_stream_balance_within_one_stripe():
    comp = ComposedDevice([device(0), device(1)], stripe_size=128 * 1024)
    split = member_split(comp, 0, 1 << 30)
    assert abs(split[0] - split[1]) <= 128 * 1024
    # unaligned stream, three members
    comp3 = ComposedDevice([device(0), device(1), device(2)], stripe_size=128 * 1024)
    split3 = member_split(comp3, 37_123, 1 << 30)
    assert sum(split3.values()) == 1 << 30
    assert max(split3.values()) - min(split3.values()) <= 128 * 1024


def test_striping_data_roundtrip():
    comp = ComposedDevice([device(0), device(1), device(2)], stripe_size=64)
    rng = random.Random(3)
    blob = bytes(rng.randrange(256) for _ in range(5000))
    comp.write_data(123, blob)
    assert comp.read_data(123, len(blob)) == blob


@settings(max_examples=200, deadline=None)
@given(width=st.integers(2, 4), stripe=st.integers(1, 64),
       start=st.integers(0, 5000), length=st.integers(0, 700))
def test_spans_match_per_byte_reference(width, stripe, start, length):
    comp = ComposedDevice([device(i) for i in range(width)], stripe_size=stripe)
    # byte a lives in stripe a // s, on member stripe % m, at (stripe // m) * s + a % s
    expect = [(a // stripe % width, a // stripe // width * stripe + a % stripe)
              for a in range(start, start + length)]
    got = []
    for member, off, take in comp.spans(start, length):
        assert 0 < take <= stripe
        got += [(comp.members.index(member), off + i) for i in range(take)]
    assert got == expect


@settings(max_examples=300, deadline=None)
@given(width=st.integers(2, 5), stripe=st.integers(1, 64),
       start=st.integers(0, 5000), length=st.integers(1, 700))
@example(width=3, stripe=64, start=128, length=64)  # exactly one stripe
@example(width=3, stripe=64, start=128, length=192)  # exactly one cycle
@example(width=3, stripe=64, start=128, length=193)  # one byte over a cycle
@example(width=3, stripe=64, start=63, length=700)  # starts on a stripe's last byte
@example(width=4, stripe=1, start=5, length=9)  # one-byte stripes
def test_member_bytes_match_spans(width, stripe, start, length):
    comp = ComposedDevice([device(i) for i in range(width)], stripe_size=stripe)
    # the engine starts one flow per pair in this order, so the order counts too
    assert comp.member_bytes(start, length) == spans_totals(comp, start, length)


def test_member_bytes_of_a_single_device():
    dev = device()
    assert dev.member_bytes(12_345, 678) == [(dev, 678)] == spans_totals(dev, 12_345, 678)


# -- namespaces ---------------------------------------------------------------


def test_partition_full_passthrough():
    dev = device()
    (ns,) = partition_namespaces(dev, [dev.capacity])
    assert ns.offset == 0 and ns.size == dev.capacity


def test_partition_three_equal():
    dev = device(capacity=3 * TB)
    spaces = partition_namespaces(dev, [TB, TB, TB])
    assert [s.offset for s in spaces] == [0, TB, 2 * TB]


def test_partition_oversubscription():
    dev = device(capacity=TB)
    with pytest.raises(CapacityError):
        partition_namespaces(dev, [TB, 1])


def test_namespace_bounds():
    dev = device(capacity=TB)
    ns, _ = partition_namespaces(dev, [1000, 1000])
    engine = FabricEngine()
    with pytest.raises(BoundsError):
        engine.submit(ns, 990, 20)
    with pytest.raises(BoundsError):
        ns.write_data(1000, b"x")


def test_namespace_isolation_addresses():
    # neighbor traffic never changes addresses seen by a namespace, only timing
    def addresses(with_neighbor):
        engine = FabricEngine()
        dev = device()
        a, b = partition_namespaces(dev, [TB, TB])
        jobs = [(a, i * 1000, 1000) for i in range(5)]
        if with_neighbor:
            jobs += [(b, i * 777, 777) for i in range(5)]
        comps = run_writes(engine, jobs)
        return [(c.namespace.name, c.start, c.length) for c in comps[:5]]

    assert addresses(False) == addresses(True)


# -- arbitration --------------------------------------------------------------


def test_solo_write_full_bandwidth():
    engine = FabricEngine()
    (comp,) = run_writes(engine, [(ns_of(device()), 0, 2 * GB)])
    assert comp.finish_time == pytest.approx(1.0, abs=1e-9)


def test_two_equal_writers_split():
    engine = FabricEngine()
    dev = device()
    a, b = partition_namespaces(dev, [TB, TB])
    comps = run_writes(engine, [(a, 0, 2 * GB), (b, 0, 2 * GB)])
    for c in comps:
        assert c.finish_time == pytest.approx(2.0, abs=1e-9)


def test_three_writers_efficiency_factor():
    # hand-integrated: each gets 0.97 * 2 GB/s / 3 = 0.64667 GB/s
    engine = FabricEngine()
    dev = device()
    spaces = partition_namespaces(dev, [TB] * 3)
    comps = run_writes(engine, [(ns, 0, 2 * GB) for ns in spaces])
    expect = 2 * GB / (0.97 * 2 * GB / 3)
    for c in comps:
        assert c.finish_time == pytest.approx(expect, rel=1e-12)
        assert served_bw(c) == pytest.approx(0.97 * 2 * GB / 3, rel=1e-9)


def test_fabric_latency_added_once():
    engine = FabricEngine()
    dev = device()
    (c_local,) = run_writes(engine, [(ns_of(dev), 0, GB)])
    engine2 = FabricEngine()
    (c_fabric,) = run_writes(
        engine2, [(ns_of(device(), attachment=ATTACH_FABRIC), 0, GB)])
    assert c_fabric.finish_time - c_local.finish_time == pytest.approx(15e-6, abs=1e-12)
    assert c_fabric.finish_time >= c_fabric.issue_time + 15e-6 + GB / (2 * GB)


def test_conservation_under_contention():
    engine = FabricEngine()
    dev = device()
    spaces = partition_namespaces(dev, [TB] * 4)
    rng = random.Random(11)
    jobs = []
    for ns in spaces:
        cursor = 0
        for _ in range(20):
            size = rng.randrange(1 << 16, 1 << 24)
            jobs.append((ns, cursor, size))
            cursor += size
    comps = run_writes(engine, jobs)
    for c in comps:
        assert abs(c.served_bytes - c.length) <= 1.0


def test_work_conservation_aggregate_rate():
    # with k active sharers the device serves e(k) * max bandwidth
    engine = FabricEngine(stats=True)
    dev = device()
    spaces = partition_namespaces(dev, [TB] * 3)
    comps = run_writes(engine, [(ns, 0, GB) for ns in spaces])
    steady = steady_buckets(engine, dev, min(c.finish_time for c in comps))
    assert len(steady) > 100
    for bw in steady:
        assert bw == pytest.approx(0.97 * 2 * GB, rel=1e-9)


def test_composition_linearity_saturating_streams():
    # m saturating streams on an m-composition serve m x 2 GB/s within 1%
    for m in (2, 3):
        curve = EfficiencyCurve([1.0] * m)
        devs = [device(i, efficiency_curve=curve) for i in range(m)]
        comp = ComposedDevice(devs)
        engine = FabricEngine()
        spaces = partition_namespaces(comp, [TB] * m)
        comps = run_writes(engine, [(ns, 0, 4 * GB) for ns in spaces])
        total = m * 4 * GB
        elapsed = max(c.finish_time for c in comps)
        assert total / elapsed == pytest.approx(m * 2 * GB, rel=0.01)


def test_monotonic_degradation_with_sharers():
    times = []
    for n in (1, 2, 3, 4):
        engine = FabricEngine()
        dev = device()
        spaces = partition_namespaces(dev, [TB] * n)
        comps = run_writes(engine, [(ns, 0, GB) for ns in spaces])
        times.append(sum(c.finish_time - c.issue_time for c in comps) / n)
    assert times == sorted(times)


def test_detach_restores_efficiency():
    engine = FabricEngine(stats=True)
    dev = device()
    spaces = partition_namespaces(dev, [TB] * 4)
    for ns in spaces:
        engine.attach(ns)
    done = []
    engine.submit(spaces[0], 0, GB, on_complete=done.append)
    engine.run()
    # four sharers attached: e(4) = 0.88 on CURVE
    assert served_bw(done[0]) == pytest.approx(0.88 * 2 * GB, rel=1e-9)
    for ns in spaces[1:]:
        engine.detach(ns)
    engine.submit(spaces[0], GB, GB, on_complete=done.append)
    engine.run()
    assert served_bw(done[1]) == pytest.approx(2 * GB, rel=1e-9)


def test_determinism_identical_completions():
    def run_once():
        engine = FabricEngine()
        dev = device()
        spaces = partition_namespaces(dev, [TB] * 3)
        rng = random.Random(42)
        jobs = []
        for ns in spaces:
            cursor = 0
            for _ in range(30):
                size = rng.randrange(1 << 12, 1 << 22)
                jobs.append((ns, cursor, size))
                cursor += size
        return [(c.request_id, c.finish_time) for c in run_writes(engine, jobs)]

    assert run_once() == run_once()


def test_flow_far_from_float_exact_still_completes():
    # at 2**53 bytes a per-flow float countdown ends a few bytes short of
    # zero; the virtual clock pops the head flow at its tag regardless
    dev = VirtualDevice(0, capacity=1 << 62)
    a, b = partition_namespaces(dev, [1 << 60, 1 << 60])
    engine = FabricEngine()
    done = []
    engine.submit(a, 0, 2**53 + 12297, on_complete=done.append)
    engine.schedule(1000.0, engine.submit, b, 0, 2**40, done.append)
    engine.run()
    assert sorted(c.request_id for c in done) == [1, 2]
    assert max(c.finish_time for c in done) == pytest.approx(
        (2**53 + 12297 + 2**40) / (2 * GB), rel=1e-9)


def test_small_stripes_take_no_stripe_walk():
    def serve():
        comp = ComposedDevice([device(i) for i in range(3)], stripe_size=512)
        spaces = partition_namespaces(comp, [comp.capacity // 4] * 4, attachment=ATTACH_FABRIC)
        engine = FabricEngine()
        for ns in spaces:
            engine.attach(ns)
        done = []
        # one 1 GiB request and three concurrent 1 MiB ones, none stripe-aligned
        engine.submit(spaces[0], 1001, 1 << 30, on_complete=done.append)
        for i, ns in enumerate(spaces[1:]):
            engine.submit(ns, 300 * i + 7, 1 << 20, on_complete=done.append)
        engine.run()
        return sorted((c.request_id, c.finish_time, c.served_bytes) for c in done)

    # the reference takes its per-member totals from the spans walk, one step per stripe
    with mock.patch.object(ComposedDevice, "member_bytes", spans_totals, create=True):
        reference = serve()

    def no_walk(*_):
        raise AssertionError("the engine walked the stripes")

    with mock.patch.object(ComposedDevice, "spans", no_walk):
        assert serve() == reference
    assert len(reference) == 4


_space = st.integers(0, 3)


@settings(max_examples=50, deadline=None)
@given(
    width=st.integers(1, 3),
    stripe=st.sampled_from([4096, 128 * 1024]),
    attachment=st.sampled_from([ATTACH_LOCAL, ATTACH_FABRIC]),
    jobs=st.lists(st.tuples(_space, st.integers(1, 1 << 26), st.floats(0.0, 0.2)),
                  min_size=1, max_size=25),
    attached=st.sets(_space),
    detaches=st.lists(st.tuples(_space, st.floats(0.0, 0.2)), max_size=4),
)
def test_engine_properties(width, stripe, attachment, jobs, attached, detaches):
    def run_once():
        devs = [device(i) for i in range(width)]
        parent = devs[0] if width == 1 else ComposedDevice(devs, stripe_size=stripe)
        spaces = partition_namespaces(parent, [parent.capacity // 4] * 4,
                                      attachment=attachment)
        engine = FabricEngine()
        for c in attached:
            engine.attach(spaces[c])
        for c, when in detaches:
            engine.schedule(when, engine.detach, spaces[c])
        cursors = [0] * 4
        done = []
        for c, size, when in jobs:
            engine.schedule(when, engine.submit, spaces[c], cursors[c], size,
                            done.append)
            cursors[c] += size
        engine.run()
        return parent, done

    parent, done = run_once()
    assert sorted(c.request_id for c in done) == list(range(1, len(jobs) + 1))
    for c in done:
        assert abs(c.served_bytes - c.length) <= 1.0
        # never faster than the whole parent's bandwidth (float slack only)
        assert c.finish_time - c.issue_time >= c.length / parent.max_seq_write_bw - 1e-12
    _, again = run_once()
    assert ([(c.request_id, c.finish_time) for c in done]
            == [(c.request_id, c.finish_time) for c in again])


# -- stats --------------------------------------------------------------------


def test_idle_device_zero_timeline():
    engine = FabricEngine(stats=True)
    dev = device()
    engine.schedule(0.1, lambda: None)  # the clock runs to 0.1 with nothing served
    engine.run()
    assert engine.now == 0.1
    assert all(bw == 0.0 for _, bw in engine.device_stats(dev))


def test_saturating_writer_timeline_at_max():
    engine = FabricEngine(stats=True)
    dev = device()
    run_writes(engine, [(ns_of(dev), 0, 2 * GB)])
    assert engine.now == 1.0
    stats = engine.device_stats(dev)
    inner = [bw for t, bw in stats if 0.01 <= t < 0.99]
    assert all(bw == pytest.approx(2 * GB, rel=1e-6) for bw in inner)


def test_concurrent_writers_peak_below_solo_peak():
    # four sharers never reach the solo burst peak
    def peak(n):
        engine = FabricEngine(stats=True)
        dev = device()
        spaces = partition_namespaces(dev, [TB] * n)
        comps = run_writes(engine, [(ns, 0, GB) for ns in spaces])
        return max(steady_buckets(engine, dev, min(c.finish_time for c in comps)))

    assert peak(4) < peak(1)


class _SegmentRecorder(FabricEngine):
    """Records every served (t0, t1, aggregate rate) segment per device."""

    def __init__(self, **kw):
        super().__init__(**kw)
        self.segments = {}

    def _serve(self, st, *args, **kw):
        if self.now > st.last_update and st.flows:
            dev_id = next(i for i, s in self._states.items() if s is st)
            self.segments.setdefault(dev_id, []).append(
                (st.last_update, self.now, st.rate * len(st.flows)))
        return super()._serve(st, *args, **kw)


def bucket_segments(segments, bucket_s, end):
    # the end-of-run bucketing that streaming replaced, kept as the reference
    n_buckets = max(1, int(end / bucket_s) + 1)
    acc = [0.0] * n_buckets
    for t0, t1, rate in segments:
        b = int(t0 / bucket_s)
        while t0 < t1 and b < n_buckets:
            edge = min(t1, (b + 1) * bucket_s)
            acc[b] += rate * (edge - t0)
            t0 = edge
            b += 1
    return [(i * bucket_s, acc[i] / bucket_s) for i in range(n_buckets)]


@settings(max_examples=50, deadline=None)
@given(
    width=st.integers(1, 3),
    bucket_s=st.sampled_from([0.001, 0.0037, 0.01]),
    attachment=st.sampled_from([ATTACH_LOCAL, ATTACH_FABRIC]),
    jobs=st.lists(st.tuples(_space, st.integers(1, 1 << 26), st.floats(0.0, 0.2)),
                  min_size=1, max_size=25),
    attaches=st.lists(st.tuples(_space, st.floats(0.0, 0.2)), max_size=4),
    detaches=st.lists(st.tuples(_space, st.floats(0.0, 0.2)), max_size=4),
)
def test_streamed_buckets_match_segment_reference(width, bucket_s, attachment, jobs,
                                                  attaches, detaches):
    devs = [device(i) for i in range(width)]
    parent = devs[0] if width == 1 else ComposedDevice(devs, stripe_size=4096)
    spaces = partition_namespaces(parent, [parent.capacity // 4] * 4, attachment=attachment)
    engine = _SegmentRecorder(stats=True)
    # sharers come and go mid-flow, so the rate changes inside buckets
    for c, when in attaches:
        engine.schedule(when, engine.attach, spaces[c])
    for c, when in detaches:
        engine.schedule(when, engine.detach, spaces[c])
    cursors = [0] * 4
    for c, size, when in jobs:
        engine.schedule(when, engine.submit, spaces[c], cursors[c], size)
        cursors[c] += size
    with mock.patch.object(fabric, "BUCKET_S", bucket_s):
        engine.run()
        for dev in devs:
            assert engine.device_stats(dev) == bucket_segments(
                engine.segments.get(dev.id, []), bucket_s, engine.now)


def test_engine_keeps_no_per_request_history():
    dev = device()
    ns = ns_of(dev)
    engine = FabricEngine(stats=False)
    done = 0

    def count(_):
        nonlocal done
        done += 1

    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for i in range(20_000):
            engine.submit(ns, i * 4096, 4096, on_complete=count)
        engine.run()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert done == 20_000
    assert held < 1 << 20


def test_curve_validation():
    with pytest.raises(ValueError):
        EfficiencyCurve([0.9])  # e(1) != 1
    with pytest.raises(ValueError):
        EfficiencyCurve([1.0, 0.8, 0.9])  # increasing tail
    curve = EfficiencyCurve([1.0, 1.0, 0.97])
    assert curve(1) == 1.0
    assert curve(3) == curve(99) == 0.97
