"""Stage operations against the brute-force oracle."""

import hashlib
import random
import struct
import tracemalloc
import zlib
from array import array
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kmerfab import pipeline
from kmerfab.bloom import BloomFilter
from kmerfab.fabric import Namespace, VirtualDevice
from kmerfab.kmers import Origin, Read, canonical_codes, partition_of
from kmerfab.spill import SpillStore
from kmerfab.stages import (
    CandidateEntry,
    CandidateIndex,
    FrequencyTable,
    GroupResult,
    ReadCodes,
    StageError,
    count,
    filter_candidates,
    gap_ids,
    group,
    is_imbalanced,
    merge_indexes,
    merge_runs,
    prune,
)
from conftest import (
    CountingWords,
    filter_state,
    random_instance,
    tandem_repeat_keys,
    word_bytes,
)
from oracle import (
    candidate_view,
    canonical_windows,
    code_of,
    exact_counts,
    expected_groups,
    index_from_bytes,
    index_reads,
    kmer_of,
    read_store,
)

K = 15


def make_store(chunk=1 << 20):
    dev = VirtualDevice(0, capacity=1 << 30)
    return SpillStore(Namespace(dev, 0, 1 << 30), chunk_size=chunk)


def exact_table(normal, tumoral, k=K):
    """No-prune, no-partition frequency table for oracle comparisons."""
    entries = {}
    for read in [*normal, *tumoral]:
        idx = 1 if read.origin is Origin.TUMORAL else 0
        for code in canonical_codes(read.bases, k):
            entries.setdefault(code, [0, 0])[idx] += 1
    return FrequencyTable(entries)


def saturated_filter(n_words=1, n_hashes=1):
    """A filter every code passes: each word has all 64 bits set."""
    bf = BloomFilter(64 * n_words, n_hashes)
    bf._words = array("Q", [2**64 - 1] * n_words)
    return bf


# -- read codes ----------------------------------------------------------


@pytest.mark.parametrize("partitions", [1, 3])
def test_read_codes_split_keeps_each_reads_window_order(partitions):
    normal, tumoral = random_instance(seed=1, n_reads=60)
    codes = ReadCodes(normal, tumoral, K, partitions)
    for p in range(partitions):
        expect = [(r, [c for c in canonical_codes(r.bases, K)
                       if partition_of(c, partitions) == p]) for r in [*normal, *tumoral]]
        assert [(r, list(span)) for r, span in codes.read_spans(p)] == expect
        normal_span, tumoral_span = codes.origin_spans(p)
        assert list(normal_span) == [c for _, cs in expect[:len(normal)] for c in cs]
        assert list(tumoral_span) == [c for _, cs in expect[len(normal):] for c in cs]


# -- prune ---------------------------------------------------------------


def test_prune_single_occurrence_not_contained():
    normal = [Read(0, Origin.NORMAL, "ACGTACGTACGTACGTAC")]
    pf = prune(ReadCodes(normal, [], K), 0.01)
    # every window occurs once (shared prefix windows of this read are unique)
    counts = exact_counts(normal, [], K)
    singles = [s for s, (n, t) in counts.items() if n + t == 1]
    fp = sum(code_of(s) in pf for s in singles)
    assert fp == 0  # tiny filter, well-sized: no false positives here


def test_prune_no_false_negatives():
    normal, tumoral = random_instance(seed=2, n_reads=200)
    pf = prune(ReadCodes(normal, tumoral, K), 0.01)
    counts = exact_counts(normal, tumoral, K)
    for s, (n, t) in counts.items():
        if n + t >= 2:
            assert code_of(s) in pf


def seen_once_after(codes, expected):
    """The seen-once filter prune builds from `codes`, in their order."""
    seen_once = BloomFilter.with_capacity(expected, 0.01)
    seen_multi = BloomFilter.with_capacity(expected, 0.01)
    seen_once.add_or_promote(codes, seen_multi)
    return seen_once


def test_prune_over_buckets_keeps_every_repeat():
    # bucketed codes reach prune partition by partition, not in window order:
    # seen_once is the same set of bits and every repeated k-mer is still in
    normal, tumoral = random_instance(seed=2, n_reads=200)
    whole_codes = ReadCodes(normal, tumoral, K)
    bucketed_codes = ReadCodes(normal, tumoral, K, 3)
    expected = len(whole_codes.codes[0])
    whole = seen_once_after(whole_codes.codes[0], expected)
    bucketed = seen_once_after([c for part in bucketed_codes.codes for c in part], expected)
    assert filter_state(bucketed) == filter_state(whole)
    assert list(whole_codes.codes[0]) != [c for part in bucketed_codes.codes for c in part]
    bucketed = prune(bucketed_codes, 0.01)
    for s, (n, t) in exact_counts(normal, tumoral, K).items():
        if n + t >= 2:
            assert code_of(s) in bucketed


def test_prune_triple_occurrence_guaranteed():
    reads = [Read(i, Origin.NORMAL, "ACGTACGTACGTACG") for i in range(3)]
    pf = prune(ReadCodes(reads, [], K), 0.01)
    assert code_of("ACGTACGTACGTACG") in pf


def test_prune_fp_rate_bounded():
    target = 0.01
    total_singles = 0
    total_fp = 0
    for seed in range(8):
        normal, tumoral = random_instance(seed=100 + seed, n_reads=300)
        pf = prune(ReadCodes(normal, tumoral, K), target)
        counts = exact_counts(normal, tumoral, K)
        singles = [s for s, (n, t) in counts.items() if n + t == 1]
        total_singles += len(singles)
        total_fp += sum(code_of(s) in pf for s in singles)
    assert total_singles >= 10_000
    assert total_fp / total_singles <= 1.5 * target


def test_prune_seen_multi_has_half_the_words():
    normal, tumoral = random_instance(seed=2, n_reads=200)
    codes = ReadCodes(normal, tumoral, K)
    seen_once = BloomFilter.with_capacity(len(codes.codes[0]), 0.01)
    seen_multi = prune(codes, 0.01)
    assert seen_multi.n_bits // 64 == -(-(seen_once.n_bits // 64) // 2)
    assert seen_multi.n_hashes == seen_once.n_hashes


# sha256 of the seen-once and seen-multi words below as little-endian u64s,
# keyed by the checkpoint format. No prune filter is stored: these pin the
# hash, the pattern tables and the word layout, which decide the codes count
# passes and so the spill runs on the device
PRUNE_BITMAP_DIGESTS = {
    "blocked-bloom-mum-prune": (
        "6d4d6e15a6773edb7847f2d24369972e6c8765c6242c1ce5ff54a898bac2d8f0",
        "c84b8202b8dfb373062bd3d76a8cdbc4927f67f82c7c5fa2d6142a1189fa8a10",
    ),
    # filter.pN's read sets became LEB128 gaps; prune is unchanged
    "kfidxv2-leb128-gaps": (
        "6d4d6e15a6773edb7847f2d24369972e6c8765c6242c1ce5ff54a898bac2d8f0",
        "c84b8202b8dfb373062bd3d76a8cdbc4927f67f82c7c5fa2d6142a1189fa8a10",
    ),
}


def test_prune_insert_matches_two_query_reference():
    """The fused insert sets the same bits as `in seen_once` then `.add`, and
    both bitmaps are pinned under the checkpoint format."""
    rng = random.Random(7)
    pool = [rng.getrandbits(2 * K) for _ in range(3000)]
    codes = [rng.choice(pool) for _ in range(9000)]
    fused_once, fused_multi, ref_once, ref_multi = (
        BloomFilter.with_capacity(len(codes), 0.01) for _ in range(4))
    fused_once.add_or_promote(codes, fused_multi)
    for code in codes:
        if code in ref_once:
            ref_multi.add(code)
        else:
            ref_once.add(code)
    assert filter_state(fused_once) == filter_state(ref_once)
    assert filter_state(fused_multi) == filter_state(ref_multi)
    assert tuple(hashlib.sha256(word_bytes(bf)).hexdigest()
                 for bf in (fused_once, fused_multi)) == (
        PRUNE_BITMAP_DIGESTS[pipeline.CHECKPOINT_FORMAT])


# -- count ---------------------------------------------------------------


def test_count_unbounded_writes_no_run():
    """An unbounded table never fills: count returns it whole and the store
    sees no request."""
    normal, tumoral = random_instance(seed=3, n_reads=120)
    store = make_store()
    runs, table = count(ReadCodes(normal, tumoral, K), saturated_filter(), 0, None, store)
    assert runs == []
    assert store.io_trace() == []
    merged = merge_runs(runs, table, store)
    expect = exact_counts(normal, tumoral, K)
    got = {kmer_of(c, K): (n, t) for c, (n, t) in merged.entries.items()}
    assert got == expect


def test_count_capacity_one_spills_every_touch():
    normal, tumoral = random_instance(seed=4, n_reads=30)
    store = make_store()
    runs, table = count(ReadCodes(normal, tumoral, K), saturated_filter(), 0, 1, store)
    total_occurrences = sum(
        n + t for n, t in exact_counts(normal, tumoral, K).values())
    assert len(runs) == total_occurrences
    assert table == {}  # each code fills the table as it enters
    merged = merge_runs(runs, table, store)
    got = {kmer_of(c, K): (n, t) for c, (n, t) in merged.entries.items()}
    assert got == exact_counts(normal, tumoral, K)


@pytest.mark.parametrize("cap", [7, 64, 1024])
def test_count_spill_schedule_invariant(cap):
    normal, tumoral = random_instance(seed=5, n_reads=150)
    store_a = make_store()
    codes = ReadCodes(normal, tumoral, K)
    runs_a, table_a = count(codes, saturated_filter(), 0, cap, store_a)
    assert runs_a and len(table_a) < cap
    store_b = make_store()
    runs_b, table_b = count(codes, saturated_filter(), 0, None, store_b)
    merged_a = merge_runs(runs_a, table_a, store_a).entries
    assert merged_a == merge_runs(runs_b, table_b, store_b).entries


def test_count_partitions_combine_to_whole():
    normal, tumoral = random_instance(seed=6, n_reads=150)
    store = make_store()
    codes = ReadCodes(normal, tumoral, K, 2)
    combined = {}
    for p in range(2):
        part = merge_runs(*count(codes, saturated_filter(), p, None, store), store).entries
        assert not (set(combined) & set(part))
        combined.update(part)
    store2 = make_store()
    runs, table = count(ReadCodes(normal, tumoral, K), saturated_filter(), 0, None, store2)
    assert combined == merge_runs(runs, table, store2).entries


def test_count_probes_prune_filter_only_in_own_partition():
    """A window probes only if its code is not in the table and passed the
    filter in no earlier run of the pass (its code failed the filter, or
    comes first). So every capacity makes the unbounded table's probes, and
    the merged counts are the same."""
    normal, tumoral = random_instance(seed=9, n_reads=120)
    plain = prune(ReadCodes(normal, tumoral, K), 0.01)
    pf = BloomFilter(plain.n_bits, plain.n_hashes)
    pf._words = words = CountingWords("Q", plain._words)
    windows = [c for r in [*normal, *tumoral] for c in canonical_codes(r.bases, K)]
    codes = ReadCodes(normal, tumoral, K, 4)
    for p in range(4):
        own = [c for c in windows if partition_of(c, 4) == p]
        table, misses = set(), 0
        for c in own:
            if c not in table:
                misses += 1
                if c in plain:
                    table.add(c)
        assert misses < len(own)
        merged = []
        for cap in (1, 7, None):
            store = make_store()
            words.probes = 0
            runs, table = count(codes, pf, p, cap, store)
            assert words.probes == misses, cap
            merged.append(merge_runs(runs, table, store).entries)
        assert merged[0] == merged[1] == merged[2]


def probe_first_count(codes, prune_filter, partition_id, capacity_limit, store):
    """Reference count: every window probes the prune filter, then the
    table. Returns the runs and the last table, which it does not flush."""
    runs = []
    entries = {}
    for t_idx, span in enumerate(codes.origin_spans(partition_id)):
        for code in span:
            if code not in prune_filter:
                continue
            if code not in entries:
                entries[code] = 1 << (32 * t_idx)
                if capacity_limit is not None and len(entries) >= capacity_limit:
                    runs.append(store.flush_table(entries))
                    entries.clear()
            else:
                entries[code] += 1 << (32 * t_idx)
    return runs, entries


@pytest.mark.parametrize("partitions", [1, 3])
@pytest.mark.parametrize("cap", [1, 2, 7, None])
def test_count_spill_runs_match_probe_first_reference(cap, partitions):
    normal, tumoral = random_instance(seed=10, n_reads=80)
    codes = ReadCodes(normal, tumoral, K, partitions)
    pf = prune(codes, 0.01)
    for p in range(partitions):
        store, ref_store = make_store(), make_store()
        runs, table = count(codes, pf, p, cap, store)
        ref_runs, ref_table = probe_first_count(codes, pf, p, cap, ref_store)
        assert [store.read_blob(h) for h in runs] == [ref_store.read_blob(h) for h in ref_runs]
        assert runs == ref_runs
        assert table == ref_table
        # a second count of the same codes starts from an empty table of its own
        again, again_table = count(codes, pf, p, cap, store)
        assert [store.read_blob(h) for h in again] == [store.read_blob(h) for h in runs]
        assert again_table == table and again_table is not table


def probe_inputs(kind):
    """One partition's normal and tumoral spans: random 62-bit codes drawn
    with repeats from a pool, or the codes of tandem-repeat reads."""
    rng = random.Random(31)
    if kind == "random":
        pool = [rng.getrandbits(62) for _ in range(600)]
        keys = iter(lambda: rng.choice(pool), None)
    else:
        keys = tandem_repeat_keys(rng)
    return _SpanCodes(array("Q", islice(keys, 900)), array("Q", islice(keys, 900)))


def probe_filter(kind, codes):
    """A filter of `kind`; one with set words holds four of the distinct
    codes in `codes` per word, so some codes pass and some do not."""
    if kind == "empty":
        return BloomFilter(5 * 64, 4)
    if kind == "saturated":
        return saturated_filter(3, 6)
    n_words, n_hashes = {"1 word": (1, 3), "3 words": (3, 5)}.get(kind, (37, 7))
    bf = BloomFilter(64 * n_words, n_hashes)
    distinct = sorted({c for span in codes.origin_spans(0) for c in span})
    for code in distinct[::3][:4 * n_words]:
        bf.add(code)
    return bf


@pytest.mark.parametrize("inputs", ["random", "tandem repeats"])
@pytest.mark.parametrize("kind", ["1 word", "3 words", "37 words", "empty", "saturated"])
def test_count_probe_is_the_filters_membership_test(kind, inputs):
    """count's inline probe passes exactly the codes `in` passes, and its runs
    are those of a count that probes with `in` before the table."""
    codes = probe_inputs(inputs)
    pf = probe_filter(kind, codes)
    windows = [c for span in codes.origin_spans(0) for c in span]
    passed = {c for c in windows if c in pf}
    if kind == "empty":
        assert not passed
    elif kind == "saturated":
        assert passed == set(windows)
    else:
        assert 0 < len(passed) < len(set(windows))
    store = make_store()
    assert merge_runs(*count(codes, pf, 0, None, store), store).entries.keys() == passed
    for cap in (1, 7, None):
        store, ref_store = make_store(), make_store()
        runs, table = count(codes, pf, 0, cap, store)
        ref_runs, ref_table = probe_first_count(codes, pf, 0, cap, ref_store)
        assert [store.read_blob(h) for h in runs] == [ref_store.read_blob(h) for h in ref_runs]
        assert table == ref_table


class _HugeSpan:
    """A normal span of `length` windows that holds none: count must check
    its length before it counts."""

    def __init__(self, length):
        self.length = length

    def __len__(self):
        return self.length

    def __iter__(self):
        return iter(())


class _SpanCodes:
    """Fixed normal and tumoral spans, one partition's as count reads them."""

    def __init__(self, normal, tumoral=()):
        self.spans = normal, tumoral

    def origin_spans(self, partition_id):
        return self.spans


def test_count_refuses_a_normal_span_a_32_bit_count_cannot_hold():
    """2**32 normal windows of one code would carry into its t_count."""
    for length in (2**32, 2**40):
        with pytest.raises(StageError, match=r"2\*\*32"):
            count(_SpanCodes(_HugeSpan(length)), saturated_filter(), 0, None, make_store())
    store = make_store()
    assert count(_SpanCodes(_HugeSpan(2**32 - 1)), saturated_filter(), 0, None, store) == ([], {})
    assert store.append_cursor == 0


def test_merge_keeps_a_t_count_past_32_bits():
    """Sums over runs never wrap: a t_count of 2**32 is kept whole, and the
    index.bin and filter.pN frames, whose u32 fields cannot hold it, refuse
    to serialize it."""
    store = make_store()
    runs = [store.flush_table({7: (2**32 - 1) << 32}), store.flush_table({7: 3 + (1 << 32)})]
    table = merge_runs(runs, {}, store)
    assert table.entries == {7: (3, 2**32)}
    index = filter_candidates(table, ReadCodes([], [], K), 0, tau_t=4, tau_n=3)
    assert index.candidates[7].t_count == 2**32
    for serialize in (index.to_bytes, index.to_checkpoint):
        with pytest.raises(struct.error):
            serialize()


# -- merge_runs ----------------------------------------------------------


def test_merge_single_run_identity():
    store = make_store()
    h = store.flush_table({1: 1 + (2 << 32), 9: 3 << 32})
    assert merge_runs([h], {}, store).entries == {1: (1, 2), 9: (0, 3)}


def test_merge_adds_counts():
    store = make_store()
    h1 = store.flush_table({7: 1})
    h2 = store.flush_table({7: 2 + (3 << 32)})
    assert merge_runs([h1, h2], {}, store).entries == {7: (3, 3)}


def test_merge_folds_runs_into_the_last_table_in_place():
    """count's last table is summed with its runs, codes of either alone kept."""
    store = make_store()
    h = store.flush_table({7: 2 + (1 << 32), 9: 1})
    table = {7: 1 << 32, 8: 3}
    merged = merge_runs([h], table, store)
    assert merged.entries is table
    assert table == {7: (2, 2), 8: (3, 0), 9: (1, 0)}
    assert merge_runs([], {5: 4 + (6 << 32)}, store).entries == {5: (4, 6)}


def test_merge_unreadable_run_named():
    store = make_store()
    h = store.flush_table({1: 1 + (1 << 32)})
    store.namespace.write_data(h.start_address + 40, b"\x00\x01")
    with pytest.raises(StageError, match=str(h.start_address)):
        merge_runs([h], {}, store)


# -- filter --------------------------------------------------------------


def test_imbalance_predicate():
    assert is_imbalanced(0, 5, tau_t=4, tau_n=1)
    assert not is_imbalanced(5, 5, tau_t=4, tau_n=1)
    assert not is_imbalanced(0, 3, tau_t=4, tau_n=1)
    assert is_imbalanced(1, 4, tau_t=4, tau_n=1)


def test_filter_matches_oracle():
    normal, tumoral = random_instance(seed=7, n_reads=200)
    table = exact_table(normal, tumoral)
    idx = filter_candidates(table, ReadCodes(normal, tumoral, K), 0, 4, 1)
    expect, stored = candidate_view(normal, tumoral, K, 4, 1)
    got = {kmer_of(c, K): e for c, e in idx.candidates.items()}
    assert set(got) == set(expect)
    for s, e in expect.items():
        assert got[s].n_count == e["n"]
        assert got[s].t_count == e["t"]
        assert got[s].normal_ids == sorted(e["normal_ids"])
        assert got[s].tumoral_ids == sorted(e["tumoral_ids"])
    assert index_reads(idx.to_bytes()) == []  # a filter.pN checkpoint holds no read
    assert {key for key, _ in index_reads(idx.to_bytes(normal, tumoral))} == stored


def test_filter_read_store_unique():
    normal, tumoral = random_instance(seed=8, n_reads=200)
    idx = filter_candidates(exact_table(normal, tumoral),
                            ReadCodes(normal, tumoral, K), 0, 4, 1)
    reads = index_reads(idx.to_bytes(normal, tumoral))
    _, stored = candidate_view(normal, tumoral, K, 4, 1)
    assert len(reads) == len(stored)
    assert reads == read_store(normal, tumoral, stored)


# -- merge_indexes -------------------------------------------------------


def build_index(normal, tumoral, tau_t=4, tau_n=1):
    return filter_candidates(exact_table(normal, tumoral),
                             ReadCodes(normal, tumoral, K), 0, tau_t, tau_n)


def partition_indexes(normal, tumoral, partitions):
    codes = ReadCodes(normal, tumoral, K, partitions)
    out = []
    for p in range(partitions):
        table = exact_table(normal, tumoral)
        table.entries = {
            c: v for c, v in table.entries.items() if partition_of(c, partitions) == p
        }
        out.append(filter_candidates(table, codes, p, 4, 1))
    return out


def test_merge_empty_identity():
    normal, tumoral = random_instance(seed=9, n_reads=100)
    idx = build_index(normal, tumoral)
    merged = merge_indexes(CandidateIndex(K), build_index(normal, tumoral))
    assert merged.to_bytes() == idx.to_bytes()


def test_merge_partitions_equals_whole():
    normal, tumoral = random_instance(seed=10, n_reads=200)
    whole = build_index(normal, tumoral)
    parts = partition_indexes(normal, tumoral, 4)
    merged = parts[0]
    for nxt in parts[1:]:
        merged = merge_indexes(merged, nxt)
    assert merged.to_bytes() == whole.to_bytes()
    # index.bin holds the merged index and the bases of the reads it lists
    assert merged.to_bytes(normal, tumoral) == whole.to_bytes(normal, tumoral)


def test_merge_associative_and_commutative():
    normal, tumoral = random_instance(seed=12, n_reads=150)

    def fold(order):
        parts = partition_indexes(normal, tumoral, 3)
        acc = parts[order[0]]
        for i in order[1:]:
            acc = merge_indexes(acc, parts[i])
        return acc.to_bytes()

    assert fold([0, 1, 2]) == fold([2, 1, 0]) == fold([1, 0, 2])


def test_merge_k_mismatch():
    with pytest.raises(StageError):
        merge_indexes(CandidateIndex(15), CandidateIndex(16))


def test_merge_rejects_a_shared_candidate():
    # a code lives in one partition, so two filter.pN indexes never share one
    a, b = CandidateIndex(K), CandidateIndex(K)
    a.candidates[5] = CandidateEntry(0, 4, [], [1])
    a.candidates[7] = CandidateEntry(0, 4, [], [2])
    b.candidates[9] = CandidateEntry(1, 4, [3], [2])
    b.candidates[7] = CandidateEntry(0, 5, [], [3])
    with pytest.raises(StageError, match="share candidate 7"):
        merge_indexes(a, b)


def test_index_serialization_roundtrip():
    normal, tumoral = random_instance(seed=13, n_reads=150)
    idx = build_index(normal, tumoral)
    data = idx.to_bytes(normal, tumoral)
    clone = index_from_bytes(data)
    assert clone.to_bytes(normal, tumoral) == data
    assert clone.k == idx.k
    assert clone.candidates == idx.candidates
    _, stored = candidate_view(normal, tumoral, K, 4, 1)
    assert index_reads(data) == read_store(normal, tumoral, stored)


def checkpoint_frame(records, k=K):
    """A `KFIDXv2` frame of `(code, n_count, t_count, normal section, tumoral
    section)` records, built field by field, behind an inner CRC it passes."""
    body = struct.pack("<IQQ", k, len(records), 0)
    for code, n, t, nb, tb in records:
        body += struct.pack("<QIIII", code, n, t, len(nb), len(tb)) + nb + tb
    return b"KFIDXv2\x00" + body + struct.pack("<I", zlib.crc32(body))


def test_checkpoint_wire_format():
    # index.bin's frame; each read set as LEB128 gaps id - previous - 1, the first previous -1
    idx = CandidateIndex(K)
    idx.candidates[300] = CandidateEntry(1, 4, [2], [3, 200])
    idx.candidates[5] = CandidateEntry(0, 4, [], [1, 3])
    assert idx.to_checkpoint() == checkpoint_frame([
        (5, 0, 4, b"", bytes([1, 1])),
        (300, 1, 4, bytes([2]), bytes([3, 0xC4, 1])),  # 196 = 0x44 + (1 << 7)
    ])
    assert gap_ids(bytes([0xFF] * 9 + [1])) == [2**64 - 1]  # a u64's 10 bytes decode


@st.composite
def candidate_indexes(draw):
    """Indexes at every k: codes up to 2**64 - 1, counts up to 2**32 - 1, and
    id lists from empty to ids near 10**6."""
    index = CandidateIndex(draw(st.integers(1, 32)))
    counts = st.integers(0, 2**32 - 1)
    ids = st.lists(st.integers(0, 10**6), max_size=6, unique=True).map(sorted)
    for code in draw(st.lists(st.integers(0, 2**64 - 1), max_size=5, unique=True)):
        index.candidates[code] = CandidateEntry(draw(counts), draw(counts), draw(ids), draw(ids))
    return index


@settings(max_examples=200, deadline=None)
@given(index=candidate_indexes())
def test_checkpoint_round_trips(index):
    payload = index.to_checkpoint()
    clone = CandidateIndex.from_checkpoint(payload)
    assert (clone.k, clone.candidates) == (index.k, index.candidates)
    assert clone.to_checkpoint() == payload


@settings(max_examples=50, deadline=None)
@given(index=candidate_indexes(), extra=st.integers(0, 255))
def test_checkpoint_that_does_not_decode_raises_stage_error(index, extra):
    """Every strict prefix of a payload and a trailing byte, as they stand or
    behind an inner CRC they pass, raise StageError, never IndexError or
    struct.error."""
    payload = bytes(index.to_checkpoint())
    body = payload[8:-4]

    def framed(b):
        return payload[:8] + b + struct.pack("<I", zlib.crc32(b))

    bad = [payload[:n] for n in range(len(payload))] + [payload + bytes([extra])]
    bad += [framed(body[:n]) for n in range(len(body))] + [framed(body + bytes([extra]))]
    for data in bad:
        with pytest.raises(StageError):
            CandidateIndex.from_checkpoint(data)


@pytest.mark.parametrize("section", [b"\x80" * 11, b"\x80" * 10 + b"\x01", b"\x85"],
                         ids=["11_continuation_bytes", "11_byte_gap", "cut_gap"])
def test_checkpoint_gap_that_does_not_decode_raises_stage_error(section):
    with pytest.raises(StageError, match="gap"):
        CandidateIndex.from_checkpoint(checkpoint_frame([(5, 0, 4, b"", section)]))


def test_to_bytes_takes_read_i_from_position_i():
    normal, tumoral = random_instance(seed=13, n_reads=150)
    idx = build_index(normal, tumoral)
    listed = min(i for e in idx.candidates.values() for i in e.tumoral_ids)
    shifted = [Read(r.id + 1, r.origin, r.bases) for r in tumoral]
    with pytest.raises(StageError, match=f"tumoral read at position {listed} has id "
                                         f"{listed + 1}"):
        idx.to_bytes(normal, shifted)


def test_to_bytes_holds_one_buffer():
    # 1,000 candidates whose tumoral bitmaps span 10,000 bytes each: a 10 MB
    # index, with the bases of the 1,001 reads it lists; read i sits at
    # position i of its input: a mapping stands in for the list
    idx = CandidateIndex(K)
    for code in range(1000):
        idx.candidates[code] = CandidateEntry(0, 4, [], [code, 79_999])
    tumoral = {i: Read(i, Origin.TUMORAL, "ACGT" * 25) for i in [*range(1000), 79_999]}
    tracemalloc.start()
    try:
        data = idx.to_bytes([], tumoral)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(data) > 10_000_000
    assert peak <= 1.5 * len(data), peak / len(data)
    assert index_from_bytes(data).candidates == idx.candidates
    assert [key for key, _ in index_reads(data)] == [(Origin.TUMORAL, i) for i in sorted(tumoral)]


def test_filter_index_group_at_read_id_999_999():
    # two tumoral reads, ids 0 and 999_999, share the one candidate: its
    # tumoral bitmap spans 10^6 bits, past every 64-bit and byte edge below it
    kmer = "ACGTACGTACGTACG"
    tumoral = [Read(0, Origin.TUMORAL, kmer), Read(999_999, Origin.TUMORAL, kmer)]
    table = FrequencyTable({code_of(kmer): (0, 2)})
    codes = ReadCodes([], tumoral, K)
    tracemalloc.start()
    try:
        idx = filter_candidates(table, codes, 0, 2, 0)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < 10_000  # the id list, not a 125 KB int as wide as the largest id
    entry = idx.candidates[code_of(kmer)]
    assert (entry.normal_ids, entry.tumoral_ids) == ([], [0, 999_999])
    # read i sits at position i of its input: a mapping stands in for the list
    data = idx.to_bytes([], {0: tumoral[0], 999_999: tumoral[1]})
    *_, nb_len, tb_len = struct.unpack_from("<QIIII", data, 8 + struct.calcsize("<IQQ"))
    assert (nb_len, tb_len) == (0, 125_000)
    assert index_reads(data) == [((Origin.TUMORAL, 0), kmer), ((Origin.TUMORAL, 999_999), kmer)]
    assert index_from_bytes(data).candidates == idx.candidates
    # the filter.pN payload stores the gaps 0 and 999_998 (1 + 3 bytes), not the bitmap
    payload = idx.to_checkpoint()
    *_, nb_len, tb_len = struct.unpack_from("<QIIII", payload, 8 + struct.calcsize("<IQQ"))
    assert (nb_len, tb_len) == (0, 4)
    assert len(payload) <= 64
    clone = CandidateIndex.from_checkpoint(payload)
    assert clone.candidates == idx.candidates
    groups = group(clone, min_candidates=1)
    assert [g.seed for g in groups] == [(Origin.TUMORAL, 0), (Origin.TUMORAL, 999_999)]
    for g in groups:
        assert g.members == {(Origin.TUMORAL, 0), (Origin.TUMORAL, 999_999)}


# -- group ----------------------------------------------------------------


def test_group_single_shared_kmer():
    # one candidate k-mer contained in tumoral read 0 and normal read 3
    kmer = "ACGTACGTACGTACG"
    normal = [Read(i, Origin.NORMAL, "T" * 20) for i in range(3)]
    normal.append(Read(3, Origin.NORMAL, kmer))
    tumoral = [Read(0, Origin.TUMORAL, kmer + "T") for _ in range(1)]
    table = FrequencyTable({code_of(kmer): (1, 1)})
    idx = filter_candidates(table, ReadCodes(normal, tumoral, K), 0, 1, 1)
    groups = group(idx, min_candidates=1)
    assert len(groups) == 1
    assert groups[0].seed == (Origin.TUMORAL, 0)
    assert groups[0].members == {(Origin.TUMORAL, 0), (Origin.NORMAL, 3)}
    assert groups[0].shared_kmers == {code_of(kmer)}


def test_group_min_candidates_too_high():
    normal, tumoral = random_instance(seed=14, n_reads=150)
    idx = build_index(normal, tumoral)
    max_per_read = 0
    for _, bases in index_reads(idx.to_bytes(normal, tumoral)):
        max_per_read = max(max_per_read,
                           len(set(canonical_codes(bases, K)) & set(idx.candidates)))
    assert group(idx, min_candidates=max_per_read + 1) == []


def test_group_matches_oracle():
    for seed in (15, 16, 17):
        normal, tumoral = random_instance(seed=seed, n_reads=200)
        idx = build_index(normal, tumoral)
        got = group(idx, min_candidates=2)
        expect = expected_groups(normal, tumoral, K, 4, 1, min_candidates=2)
        assert len(got) == len(expect)
        for g, (seed_key, members, kmers) in zip(got, expect):
            assert g.seed == seed_key
            assert g.members == members
            assert {kmer_of(c, K) for c in g.shared_kmers} == kmers


def reference_group(index, seeds, min_candidates):
    """Reference group: each seed, by ascending id, extracts its codes from
    its bases `seeds[id]` and adds every candidate id list of each code to its
    member set, id by id."""
    results = []
    for rid, bases in sorted(seeds.items()):
        codes = {c for c in canonical_codes(bases, index.k) if c in index.candidates}
        if len(codes) < min_candidates:
            continue
        members = {(Origin.TUMORAL, rid)}
        for code in codes:
            entry = index.candidates[code]
            members.update((Origin.NORMAL, i) for i in entry.normal_ids)
            members.update((Origin.TUMORAL, i) for i in entry.tumoral_ids)
        results.append(GroupResult((Origin.TUMORAL, rid), members, codes))
    return results


def hand_index(k, seeds, normal_sets):
    """A CandidateIndex of candidates `normal_sets` (code -> normal ids) over
    tumoral reads `seeds` (id -> bases), as filter lists them: each candidate
    lists, ascending, the normal ids given and every seed whose bases hold it
    (by the string oracle), so every tumoral id it lists is a seed."""
    index = CandidateIndex(k)
    held = {rid: {code_of(w) for w in canonical_windows(bases, k)}
            for rid, bases in seeds.items()}
    for code, normal_ids in normal_sets.items():
        tumoral_ids = sorted(rid for rid, codes in held.items() if code in codes)
        index.candidates[code] = CandidateEntry(1, 1, sorted(normal_ids), tumoral_ids)
    return index


def test_group_at_bitmap_boundaries():
    # seed and normal ids on either side of the byte and 64-bit word edges of
    # the stored bitmaps, shared across candidates; group runs on the index
    # and on its reload
    edge = [0, 7, 8, 63, 64, 65, 999, 1000, 1001]
    kmers = ["AAC", "ACG", "CCA", "ATC"]
    normal_sets = {code_of(s): edge[i:i + 5] for i, s in enumerate(kmers)}
    seeds = {0: "AACG", 7: "TTTT", 8: "CCAT", 63: "ATCG", 64: "AACGAT", 65: "GGTT",
             999: "CCAACG", 1000: "CCAACGAT", 1001: "GATCCA"}
    index = hand_index(3, seeds, normal_sets)
    assert index.candidates[code_of("CCA")].tumoral_ids == [8, 999, 1000, 1001]
    reloaded = CandidateIndex.from_checkpoint(index.to_checkpoint())
    for min_candidates in (1, 2, 3):
        want = reference_group(index, seeds, min_candidates)
        assert group(index, min_candidates) == group(reloaded, min_candidates) == want
    got = {g.seed[1]: g for g in group(index, 1)}
    assert set(got) == {0, 8, 63, 64, 65, 999, 1000, 1001}
    assert got[1000].shared_kmers == {code_of(s) for s in kmers}
    assert {(Origin.NORMAL, 0), (Origin.TUMORAL, 1001)} <= got[1000].members
    assert {g.seed[1] for g in group(index, 3)} == {64, 999, 1000}


@settings(max_examples=100, deadline=None)
@given(
    seeds=st.dictionaries(st.integers(0, 300), st.text("ACGT", min_size=2, max_size=10),
                          max_size=8),
    normal_sets=st.dictionaries(st.integers(0, 15), st.sets(st.integers(0, 300), max_size=6),
                                max_size=10),
    min_candidates=st.integers(1, 3),
)
def test_group_matches_per_bitmap_reference(seeds, normal_sets, min_candidates):
    index = hand_index(2, seeds, normal_sets)
    got = group(index, min_candidates)
    assert got == reference_group(index, seeds, min_candidates)
