"""Sequential-vs-random classification."""

import random

import pytest

from kmerfab.traceanalysis import (
    IoRecord,
    classify,
    parse_blktrace,
    parse_trace_csv,
)


def wr(t, start, length):
    return IoRecord(t, "write", start, length)


def test_single_appending_stream():
    trace = [wr(i, i * 4096, 4096) for i in range(100)]
    report = classify(trace)
    assert report.total_writes == 100
    assert report.naive_sequential == 99
    assert report.append_aware_sequential == 99
    assert report.sequential_naive == pytest.approx(0.99)


def test_two_interleaved_streams():
    # A0,B0,A1,B1,...: naive ~0, append-aware 100% minus each first write
    trace = []
    a = 0
    b = 1 << 40
    for i in range(50):
        trace.append(wr(2 * i, a, 8192))
        a += 8192
        trace.append(wr(2 * i + 1, b, 8192))
        b += 8192
    report = classify(trace)
    assert report.total_writes == 100
    assert report.naive_sequential == 0
    assert report.append_aware_sequential == 98


def test_random_writes_low_append_aware():
    rng = random.Random(3)
    trace = [wr(i, rng.randrange(0, 1 << 40) & ~4095, 4096) for i in range(100_000)]
    report = classify(trace)
    assert report.sequential_append_aware < 0.01


def test_append_aware_at_least_naive():
    rng = random.Random(5)
    tails = [0, 1 << 30, 1 << 35]
    trace = []
    for i in range(5000):
        if rng.random() < 0.6:
            s = rng.randrange(3)
            trace.append(wr(i, tails[s], 4096))
            tails[s] += 4096
        else:
            trace.append(wr(i, rng.randrange(0, 1 << 40), 4096))
    report = classify(trace)
    assert report.append_aware_sequential >= report.naive_sequential


def test_stream_limit_eviction():
    # 3 interleaved streams but only 2 tracked tails: LRU evicts one stream
    streams = [0, 1 << 30, 1 << 35]
    trace = []
    t = 0
    for _ in range(30):
        for s in range(3):
            trace.append(wr(t, streams[s], 512))
            streams[s] += 512
            t += 1
    full = classify(trace, open_stream_limit=64)
    limited = classify(trace, open_stream_limit=2)
    assert full.append_aware_sequential > limited.append_aware_sequential
    assert limited.append_aware_sequential <= 1 / 3 + 0.05


def test_a_reused_tail_becomes_the_newest():
    """A write that ends on a tracked tail refreshes it, so a newer tail is
    evicted first. At limit 1, one tail is tracked, and it still works."""
    trace = [wr(0, 0, 10), wr(1, 100, 10), wr(2, 5, 5), wr(3, 200, 10), wr(4, 10, 10)]
    assert classify(trace, open_stream_limit=2).append_aware_sequential == 1
    assert classify([wr(0, 0, 8), wr(1, 8, 8)], open_stream_limit=1).append_aware_sequential == 1


def test_empty_trace_defined_empty():
    report = classify([])
    assert report.total_writes == 0
    assert report.sequential_naive == 0.0
    assert report.sequential_append_aware == 0.0


def test_reads_ignored():
    trace = [IoRecord(0, "read", 0, 4096), wr(1, 0, 4096), wr(2, 4096, 4096)]
    report = classify(trace)
    assert report.total_writes == 2
    assert report.append_aware_sequential == 1


def test_parse_store_csv():
    lines = [
        "time_us,kind,start,length",
        "0.000,write,0,8192",
        "12.5,write,8192,8192",
        "20.0,read,0,4096",
    ]
    records = parse_trace_csv(lines)
    assert len(records) == 3
    assert records[1].time == 12.5e-6  # microseconds in the file, seconds parsed
    assert records[1].start == 8192
    assert records[2].kind == "read"
    report = classify(records)
    assert report.total_writes == 2
    assert report.naive_sequential == 1


def test_parse_blktrace_sectors():
    lines = [
        "# a comment, then a blank line",
        "",
        "0.000 W 100 8",
        "0.001 W 108 8 extra fields",
        "0.002 R 0 8",
        "0.003 D 5 1",
    ]
    records = parse_blktrace(lines)
    assert len(records) == 3  # D skipped
    assert [r.kind for r in records] == ["write", "write", "read"]
    assert records[0].start == 100 * 512
    assert records[0].length == 8 * 512
    report = classify(records)
    assert report.naive_sequential == 1


def test_parse_errors():
    with pytest.raises(ValueError, match="^trace line 2: expected 4 fields, got 3$"):
        parse_trace_csv(["time_us,kind,start,length", "1,write,0"])
    with pytest.raises(ValueError):
        parse_blktrace(["oops"])
    with pytest.raises(ValueError):
        classify([], open_stream_limit=0)
