"""Spill store: append contract, run and blob round-trips, corruption, I/O trace."""

import random
import struct
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kmerfab.fabric import (ATTACH_FABRIC, ATTACH_LOCAL, CapacityError, EfficiencyCurve,
                            FabricEngine, Namespace, VirtualDevice)
from kmerfab.spill import (
    BlobHandle,
    CorruptionError,
    SpillStore,
    decode_run,
    encode_run,
    HEADER_SIZE,
)


def make_store(size=200 * 1024 * 1024, chunk=8 * 1024 * 1024):
    dev = VirtualDevice(0, capacity=size)
    ns = Namespace(dev, 0, size, name="spill")
    return SpillStore(ns, chunk_size=chunk)


def table(rows):
    """The packed counts, n_count + (t_count << 32), of (code, n_count, t_count) rows."""
    return {code: n + (t << 32) for code, n, t in rows}


def rows_of(run):
    """The (code, n_count, t_count) rows of a decoded run."""
    codes, counts = run
    return [(code, c & 0xFFFFFFFF, c >> 32) for code, c in zip(codes, counts)]


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
    assert rows_of(store.read_run(handle)) == rows
    assert handle.length == HEADER_SIZE + 16 * len(rows)


def test_flush_sorts_by_code():
    store = make_store()
    handle = store.flush_table(table([(5, 1, 0), (1, 0, 1), (3, 2, 2)]))
    assert [r[0] for r in rows_of(store.read_run(handle))] == [1, 3, 5]


def test_empty_flush_rejected():
    store = make_store()
    with pytest.raises(ValueError):
        store.flush_table({})


def test_tampered_length_detected():
    store = make_store()
    h = store.flush_table(table([(1, 1, 0), (2, 0, 1)]))
    bad = BlobHandle(h.start_address, h.length - 16, h.checksum)
    with pytest.raises(CorruptionError):
        store.read_run(bad)


@pytest.mark.parametrize("chunk", [16, 4096])  # the header spans two chunks, or opens one
def test_damaged_length_reads_no_further_than_the_header(chunk):
    store = make_store(chunk=chunk)
    h = store.flush_table(table([(i, 1, 0) for i in range(300)]))
    writes = len(store.io_trace())
    with pytest.raises(CorruptionError, match="bad blob header"):
        store.read_run(BlobHandle(h.start_address, 90_000_000, h.checksum))
    assert [rec.length for rec in store.io_trace()[writes:]] == [chunk] * -(-HEADER_SIZE // chunk)


def test_read_past_the_written_end_leaves_the_memory_backing_as_it_was():
    # an in-memory namespace of 1e9 bytes; a damaged handle points half-way in
    store = make_store(size=1_000_000_000)
    h = store.flush_table(table([(1, 1, 0)]))
    backing = store.namespace.parent.backing
    written = len(backing._data)
    with pytest.raises(CorruptionError, match="bad blob header"):
        store.read_blob(BlobHandle(500_000_000, 64, 0))
    assert len(backing._data) == written == h.length
    assert backing.read(written - 8, 16) == backing._data[-8:] + bytes(8)


def test_corrupted_payload_detected():
    store = make_store()
    h = store.flush_table(table([(i, 1, 1) for i in range(100)]))
    store.namespace.write_data(h.start_address + HEADER_SIZE + 4, b"\xff\xff")
    with pytest.raises(CorruptionError):
        store.read_run(h)


def test_unknown_handle_rejected():
    store = make_store()
    with pytest.raises(CorruptionError):
        store.read_run(BlobHandle(0, 48, 0))


def test_handle_checksum_must_match_run():
    store = make_store()
    h1 = store.flush_table(table([(1, 1, 0), (2, 0, 1)]))
    h2 = store.flush_table(table([(3, 2, 2), (4, 1, 1)]))
    for bad in (BlobHandle(h1.start_address, h1.length, h1.checksum ^ 1),
                BlobHandle(h1.start_address, h1.length, h2.checksum)):
        with pytest.raises(CorruptionError):
            store.read_run(bad)


def test_handle_outside_namespace_rejected():
    store = make_store(size=4096)
    h = store.flush_table(table([(1, 1, 0)]))
    for bad in (BlobHandle(4096, h.length, h.checksum),
                BlobHandle(h.start_address, 8192, h.checksum),
                BlobHandle(h.start_address, 0, h.checksum)):
        with pytest.raises(CorruptionError):
            store.read_run(bad)


def test_handle_read_by_a_fresh_store():
    store = make_store()
    rows = [(1, 1, 0), (2, 0, 1), (9, 3, 3)]
    h = store.flush_table(table(rows))
    fresh = SpillStore(store.namespace, chunk_size=store.chunk_size)
    assert rows_of(fresh.read_run(h)) == rows


def test_a_blob_may_fill_the_namespace_exactly():
    store = make_store(size=1024, chunk=512)
    h = store.append_blob(bytes(1024 - HEADER_SIZE))
    assert store.append_cursor == h.length == 1024


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


@pytest.mark.parametrize("attachment", [ATTACH_LOCAL, ATTACH_FABRIC])
@pytest.mark.parametrize("chunk", [33, 4096])
def test_store_times_requests_as_the_engine_does(attachment, chunk):
    dev = VirtualDevice(0, max_seq_write_bw=1.7e9, capacity=1 << 20,
                        efficiency_curve=EfficiencyCurve([1.0, 0.8]), fabric_latency=13e-6)
    ns = Namespace(dev, 0, 1 << 20, attachment=attachment)
    store = SpillStore(ns, chunk_size=chunk)
    h = store.flush_table(table([(i, i % 3, 1) for i in range(100)]))
    store.read_run(store.append_blob(encode_run(dict(zip(*store.read_run(h))))))
    trace = store.io_trace()
    assert {rec.kind for rec in trace} == {"write", "read"}
    # reference: the event engine serves the same requests one after another
    engine = FabricEngine()
    issued = []
    for rec in trace:
        issued.append(engine.now)
        engine.submit(ns, rec.start, rec.length)
        engine.run()
    assert [rec.time for rec in trace] == issued
    assert store.now == engine.now


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
        store.read_blob(BlobHandle(h2.start_address, h2.length, h1.checksum))


def test_run_encoding_is_bit_exact():
    rows = [(0, 0, 0), (1, 2, 3), (2 ** 60, 4, 5)]
    data = encode_run(table(rows))
    assert rows_of(decode_run(data)) == rows
    assert len(data) == 16 * len(rows)
    with pytest.raises(CorruptionError):
        decode_run(data[:-1])
    # fixed golden bytes of a one-record run on the device, so an independent
    # implementation can share fixtures
    store = make_store()
    h = store.flush_table(table([(1, 2, 3)]))
    assert store.namespace.read_data(h.start_address, h.length).hex() == (
        "4b46424c4f427631"  # magic
        "01000000"          # version
        "00000000"          # reserved
        "1000000000000000"  # payload length
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
    assert rows_of(store.read_run(h)) == rows


_U32 = st.one_of(st.sampled_from([0, 2**32 - 1]), st.integers(0, 2**32 - 1))
_COUNTS = st.dictionaries(st.integers(0, 2**64 - 1), st.tuples(_U32, _U32), max_size=50)
_EDGES = {0: (0, 0), 1: (2**32 - 1, 0), 2: (0, 2**32 - 1), 2**64 - 1: (2**32 - 1, 2**32 - 1)}


def sorted_rows(counts):
    return sorted((code, n, t) for code, (n, t) in counts.items())


@settings(max_examples=100, deadline=None)
@given(counts=_COUNTS)
@example(counts=_EDGES)
def test_run_codec_roundtrip(counts):
    rows = sorted_rows(counts)
    data = encode_run(table(rows))
    assert len(data) == len(rows) * 16
    assert rows_of(decode_run(data)) == rows


@settings(max_examples=100, deadline=None)
@given(counts=_COUNTS)
@example(counts=_EDGES)
def test_run_encoding_matches_struct_records(counts):
    """Reference: one `<QII` record per row, packed by struct."""
    rows = sorted_rows(counts)
    assert encode_run(table(rows)) == b"".join(struct.pack("<QII", *row) for row in rows)


def test_packed_count_past_64_bits_raises():
    """A t_count of 2**32 or more does not fit its u32 field: encode_run
    raises rather than wrap it, and the store writes nothing."""
    for packed in (1 << 64, (1 << 64) + 5, 1 << 70):
        with pytest.raises(OverflowError):
            encode_run({1: 0, 7: packed})
    store = make_store()
    with pytest.raises(OverflowError):
        store.flush_table({7: 1 << 64})
    assert store.append_cursor == 0 and store.io_trace() == []
    assert encode_run({7: (1 << 64) - 1}) == struct.pack("<QII", 7, 2**32 - 1, 2**32 - 1)


def byteswapped_words(data):
    """`data` with each 8-byte word reversed."""
    return b"".join(data[i:i + 8][::-1] for i in range(0, len(data), 8))


def test_run_codec_on_a_host_of_the_other_byte_order(monkeypatch):
    """The codec takes the host's word order from `sys.byteorder`: told the
    other order, it swaps every word, on the way out and on the way in."""
    rows = sorted_rows({2**64 - 1: (1, 2), 5: (2**32 - 1, 0), 2**40 + 3: (7, 2**32 - 1)})
    little = encode_run(table(rows))
    monkeypatch.setattr(sys, "byteorder", "big" if sys.byteorder == "little" else "little")
    assert encode_run(table(rows)) == byteswapped_words(little)
    assert rows_of(decode_run(byteswapped_words(little))) == rows
    assert rows_of(decode_run(encode_run(table(rows)))) == rows


@settings(max_examples=100, deadline=None)
@given(payloads=st.lists(st.binary(max_size=300), min_size=1, max_size=4),
       chunk=st.sampled_from([16, 4096]))
@example(payloads=[b""], chunk=16)
def test_blob_codec_roundtrip(payloads, chunk):
    store = make_store(size=1 << 20, chunk=chunk)
    handles = [store.append_blob(p) for p in payloads]
    assert store.append_cursor == sum(HEADER_SIZE + len(p) for p in payloads)
    for payload, handle in zip(payloads, handles):
        assert handle.length == HEADER_SIZE + len(payload)
        assert store.read_blob(handle) == payload
