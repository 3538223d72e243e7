"""Spill store: append contract, run round-trips, corruption, I/O trace."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kmerfab.fabric import CapacityError, Namespace, VirtualDevice
from kmerfab.spill import (
    BlobHandle,
    CorruptionError,
    RunHandle,
    SpillStore,
    decode_handles,
    decode_run,
    encode_handles,
    encode_run,
    HEADER_SIZE,
)


def make_store(size=200 * 1024 * 1024, chunk=8 * 1024 * 1024):
    dev = VirtualDevice(0, capacity=size)
    ns = Namespace(dev, 0, size, name="spill")
    return SpillStore(ns, chunk_size=chunk)


def table(rows):
    return {code: [n, t] for code, n, t in rows}


def test_successive_flushes_append():
    store = make_store()
    h1 = store.flush_table(table([(1, 1, 0), (2, 0, 1)]))
    h2 = store.flush_table(table([(3, 2, 2)]))
    assert h1.start_address == 0
    assert h2.start_address == h1.start_address + h1.length
    assert store.append_cursor == h2.start_address + h2.length


def test_chunking_arithmetic():
    store = make_store(chunk=8 * 1024 * 1024)
    # 20 MiB payload => requests of 8, 8, 4 MiB
    n_entries = (20 * 1024 * 1024 - HEADER_SIZE) // 16
    rows = [(i, 1, 1) for i in range(n_entries)]
    store.flush_table(table(rows))
    sizes = [rec.length for rec in store.io_trace()]
    assert sizes == [8 * 1024 * 1024, 8 * 1024 * 1024, 20 * 1024 * 1024 - 16 * 1024 * 1024]
    starts = [rec.start for rec in store.io_trace()]
    assert starts == [0, 8 * 1024 * 1024, 16 * 1024 * 1024]


def test_roundtrip_random_table():
    rng = random.Random(7)
    store = make_store(chunk=1 << 16)
    rows = sorted(
        (rng.randrange(0, 1 << 62), rng.randrange(0, 1000), rng.randrange(0, 1000))
        for _ in range(5000)
    )
    handle = store.flush_table(table(rows))
    assert store.read_run(handle) == rows
    assert handle.entry_count == len(rows)


def test_flush_sorts_by_code():
    store = make_store()
    handle = store.flush_table({5: [1, 0], 1: [0, 1], 3: [2, 2]})
    assert [r[0] for r in store.read_run(handle)] == [1, 3, 5]


def test_empty_flush_rejected():
    store = make_store()
    with pytest.raises(ValueError):
        store.flush_table({})


def test_tampered_length_detected():
    store = make_store()
    h = store.flush_table(table([(1, 1, 0), (2, 0, 1)]))
    bad = RunHandle(h.start_address, h.length - 16, h.entry_count, h.checksum)
    with pytest.raises(CorruptionError):
        store.read_run(bad)


def test_corrupted_payload_detected():
    store = make_store()
    h = store.flush_table(table([(i, 1, 1) for i in range(100)]))
    store.namespace.write_data(h.start_address + HEADER_SIZE + 4, b"\xff\xff")
    with pytest.raises(CorruptionError):
        store.read_run(h)


def test_unknown_handle_rejected():
    store = make_store()
    with pytest.raises(CorruptionError):
        store.read_run(RunHandle(0, 48, 1, 0))


def test_handle_checksum_must_match_run():
    store = make_store()
    h1 = store.flush_table(table([(1, 1, 0), (2, 0, 1)]))
    h2 = store.flush_table(table([(3, 2, 2), (4, 1, 1)]))
    for bad in (RunHandle(h1.start_address, h1.length, h1.entry_count, h1.checksum ^ 1),
                RunHandle(h1.start_address, h1.length, h1.entry_count, h2.checksum)):
        with pytest.raises(CorruptionError):
            store.read_run(bad)


def test_handle_outside_namespace_rejected():
    store = make_store(size=4096)
    h = store.flush_table(table([(1, 1, 0)]))
    for bad in (RunHandle(4096, h.length, 1, h.checksum),
                RunHandle(h.start_address, 8192, 1, h.checksum),
                RunHandle(h.start_address, 0, 1, h.checksum)):
        with pytest.raises(CorruptionError):
            store.read_run(bad)


def test_handle_read_by_a_fresh_store():
    store = make_store()
    rows = [(1, 1, 0), (2, 0, 1), (9, 3, 3)]
    h = store.flush_table(table(rows))
    fresh = SpillStore(store.namespace, chunk_size=store.chunk_size)
    assert fresh.read_run(h) == rows


@settings(max_examples=50, deadline=None)
@given(fields=st.lists(st.tuples(*[st.integers(0, 2**64 - 1)] * 4), max_size=8))
def test_handle_codec_roundtrip(fields):
    handles = [RunHandle(*f) for f in fields]
    data = encode_handles(handles)
    assert len(data) == 32 * len(handles)
    assert decode_handles(data) == handles
    if data:
        with pytest.raises(CorruptionError):
            decode_handles(data[:-1])


def test_capacity_error_keeps_directory_clean():
    store = make_store(size=1024, chunk=512)
    rows = [(i, 1, 1) for i in range(200)]  # 3232 bytes > 1024
    with pytest.raises(CapacityError):
        store.flush_table(table(rows))
    assert store.io_trace() == []
    assert store.append_cursor == 0


def test_trace_write_records_in_order():
    store = make_store(chunk=1 << 20)
    for i in range(3):
        store.flush_table(table([(i, 1, 1)]))
    trace = store.io_trace()
    assert len(trace) == 3
    assert all(rec.kind == "write" for rec in trace)
    assert [rec.start for rec in trace] == sorted(rec.start for rec in trace)
    times = [rec.time for rec in trace]
    assert times == sorted(times)


def test_empty_store_trace():
    store = make_store()
    assert store.io_trace() == []


def test_blob_roundtrip():
    store = make_store(chunk=1 << 12)
    payload = bytes(range(256)) * 40
    h = store.append_blob(payload)
    assert store.read_blob(h) == payload


def test_blob_handle_checksum_must_match_blob():
    store = make_store()
    h1 = store.append_blob(b"first stage output")
    h2 = store.append_blob(b"other stage output")
    with pytest.raises(CorruptionError):
        store.read_blob(BlobHandle(h2.start_address, h2.length, h2.payload_length, h1.checksum))


def test_run_encoding_is_bit_exact():
    rows = [(0, 0, 0), (1, 2, 3), (2 ** 60, 4, 5)]
    data = encode_run(rows)
    assert data[:8] == b"KFRUNv1\x00"
    assert decode_run(data) == rows
    assert len(data) == HEADER_SIZE + 16 * len(rows)
    # fixed golden bytes so an independent implementation can share fixtures
    assert encode_run([(1, 2, 3)]).hex() == (
        "4b4652554e763100"  # magic
        "01000000"          # version
        "00000000"          # reserved
        "0100000000000000"  # entry count
        "5772431200000000"  # crc32 of payload
        "0100000000000000" "02000000" "03000000"
    )


def test_large_roundtrip_lossless():
    rng = random.Random(21)
    store = make_store(size=64 * 1024 * 1024, chunk=1 << 20)
    rows = sorted(
        (rng.randrange(0, 1 << 62), rng.randrange(0, 1 << 31), rng.randrange(0, 1 << 31))
        for _ in range(1 << 16)
    )
    h = store.flush_table(table(rows))
    assert store.read_run(h) == rows


_ROWS = st.lists(st.tuples(st.integers(0, 2**64 - 1), st.integers(0, 2**32 - 1),
                           st.integers(0, 2**32 - 1)), max_size=50)


@settings(max_examples=100, deadline=None)
@given(rows=_ROWS)
def test_run_codec_roundtrip(rows):
    data = encode_run(rows)
    assert len(data) == HEADER_SIZE + len(rows) * 16
    assert decode_run(data) == rows


@settings(max_examples=100, deadline=None)
@given(payloads=st.lists(st.binary(max_size=300), min_size=1, max_size=4),
       chunk=st.sampled_from([16, 4096]))
@example(payloads=[b""], chunk=16)
def test_blob_codec_roundtrip(payloads, chunk):
    store = make_store(size=1 << 20, chunk=chunk)
    handles = [store.append_blob(p) for p in payloads]
    assert store.append_cursor == sum(HEADER_SIZE + len(p) for p in payloads)
    for payload, handle in zip(payloads, handles):
        assert handle.payload_length == len(payload)
        assert store.read_blob(handle) == payload
