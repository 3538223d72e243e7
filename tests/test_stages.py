"""Stage operations against the brute-force oracle."""

import hashlib
import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kmerfab.bloom import BloomFilter
from kmerfab.fabric import Namespace, VirtualDevice
from kmerfab.kmers import Origin, Read, canonical_codes, decode, encode, partition_of
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
    group,
    is_imbalanced,
    merge_indexes,
    merge_runs,
    prune,
)
from conftest import random_instance
from oracle import bits_of, candidate_view, exact_counts, expected_groups, ids_of

K = 15


def make_store(chunk=1 << 20):
    dev = VirtualDevice(0, capacity=1 << 30)
    return SpillStore(Namespace(dev, 0, 1 << 30), chunk_size=chunk)


def exact_table(normal, tumoral, k=K):
    """No-prune, no-partition frequency table for oracle comparisons."""
    table = FrequencyTable()
    for read in [*normal, *tumoral]:
        idx = 1 if read.origin is Origin.TUMORAL else 0
        for code in canonical_codes(read.bases, k):
            table.entries.setdefault(code, [0, 0])[idx] += 1
    return table


class _PassFilter:
    def __contains__(self, code):
        return True


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
    fp = sum(encode(s) in pf for s in singles)
    assert fp == 0  # tiny filter, well-sized: no false positives here


def test_prune_no_false_negatives():
    normal, tumoral = random_instance(seed=2, n_reads=200)
    pf = prune(ReadCodes(normal, tumoral, K), 0.01)
    counts = exact_counts(normal, tumoral, K)
    for s, (n, t) in counts.items():
        if n + t >= 2:
            assert encode(s) in pf


def seen_once_after(codes, expected):
    """The seen-once filter prune builds from `codes`, in their order."""
    seen_once = BloomFilter.with_capacity(expected, 0.01)
    seen_multi = BloomFilter.with_capacity(expected, 0.01)
    for code in codes:
        seen_once.add_or_promote(code, seen_multi)
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
    assert bucketed.to_bytes() == whole.to_bytes()
    assert list(whole_codes.codes[0]) != [c for part in bucketed_codes.codes for c in part]
    bucketed = prune(bucketed_codes, 0.01)
    for s, (n, t) in exact_counts(normal, tumoral, K).items():
        if n + t >= 2:
            assert encode(s) in bucketed


def test_prune_triple_occurrence_guaranteed():
    reads = [Read(i, Origin.NORMAL, "ACGTACGTACGTACG") for i in range(3)]
    pf = prune(ReadCodes(reads, [], K), 0.01)
    assert encode("ACGTACGTACGTACG") in pf


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
        total_fp += sum(encode(s) in pf for s in singles)
    assert total_singles >= 10_000
    assert total_fp / total_singles <= 1.5 * target


def test_prune_seen_multi_has_half_the_words():
    normal, tumoral = random_instance(seed=2, n_reads=200)
    codes = ReadCodes(normal, tumoral, K)
    seen_once = BloomFilter.with_capacity(len(codes.codes[0]), 0.01)
    seen_multi = prune(codes, 0.01)
    assert seen_multi.n_bits // 64 == -(-(seen_once.n_bits // 64) // 2)
    assert seen_multi.n_hashes == seen_once.n_hashes


def test_prune_insert_matches_two_query_reference():
    """The fused insert sets the same bits as `in seen_once` then `.add`, and
    both bitmaps are pinned: a change to them changes the prune checkpoint."""
    rng = random.Random(7)
    pool = [rng.getrandbits(2 * K) for _ in range(3000)]
    codes = [rng.choice(pool) for _ in range(9000)]
    fused_once, fused_multi, ref_once, ref_multi = (
        BloomFilter.with_capacity(len(codes), 0.01) for _ in range(4))
    for code in codes:
        fused_once.add_or_promote(code, fused_multi)
        if code in ref_once:
            ref_multi.add(code)
        else:
            ref_once.add(code)
    assert fused_once.to_bytes() == ref_once.to_bytes()
    assert fused_multi.to_bytes() == ref_multi.to_bytes()
    head = 12  # the <QI n_bits, n_hashes header
    assert hashlib.sha256(fused_once.to_bytes()[head:]).hexdigest() == (
        "4ef69df1924d111416a81e9710d80cb0ae91d6542383edec33725556bf1830fc")
    assert hashlib.sha256(fused_multi.to_bytes()[head:]).hexdigest() == (
        "0c658c22158bba269b8abd1e4bc50b7e2214e78c597eb7f960e79e61a47234f9")


# -- count ---------------------------------------------------------------


def test_count_unbounded_single_run():
    normal, tumoral = random_instance(seed=3, n_reads=120)
    store = make_store()
    runs = count(ReadCodes(normal, tumoral, K), _PassFilter(), 0,
                 FrequencyTable(), store)
    assert len(runs) == 1
    merged = merge_runs(runs, store)
    expect = exact_counts(normal, tumoral, K)
    got = {decode(c, K): (n, t) for c, (n, t) in merged.entries.items()}
    assert got == expect


def test_count_capacity_one_spills_every_touch():
    normal, tumoral = random_instance(seed=4, n_reads=30)
    store = make_store()
    runs = count(ReadCodes(normal, tumoral, K), _PassFilter(), 0,
                 FrequencyTable(capacity_limit=1), store)
    total_occurrences = sum(
        n + t for n, t in exact_counts(normal, tumoral, K).values())
    assert len(runs) == total_occurrences
    merged = merge_runs(runs, store)
    got = {decode(c, K): (n, t) for c, (n, t) in merged.entries.items()}
    assert got == exact_counts(normal, tumoral, K)


@pytest.mark.parametrize("cap", [7, 64, 1024])
def test_count_spill_schedule_invariant(cap):
    normal, tumoral = random_instance(seed=5, n_reads=150)
    store_a = make_store()
    codes = ReadCodes(normal, tumoral, K)
    runs_a = count(codes, _PassFilter(), 0, FrequencyTable(capacity_limit=cap), store_a)
    store_b = make_store()
    runs_b = count(codes, _PassFilter(), 0, FrequencyTable(), store_b)
    assert merge_runs(runs_a, store_a).entries == merge_runs(runs_b, store_b).entries


def test_count_partitions_combine_to_whole():
    normal, tumoral = random_instance(seed=6, n_reads=150)
    store = make_store()
    codes = ReadCodes(normal, tumoral, K, 2)
    combined = {}
    for p in range(2):
        runs = count(codes, _PassFilter(), p, FrequencyTable(), store)
        part = merge_runs(runs, store).entries
        assert not (set(combined) & set(part))
        combined.update(part)
    store2 = make_store()
    runs = count(ReadCodes(normal, tumoral, K), _PassFilter(), 0, FrequencyTable(), store2)
    assert combined == merge_runs(runs, store2).entries


class _CountingPrune(BloomFilter):
    probes = 0

    def __contains__(self, code):
        self.probes += 1
        return super().__contains__(code)


def test_count_probes_prune_filter_only_in_own_partition():
    """At capacity 1 the table is empty at every window, so each of the
    partition's windows probes; unbounded, a window probes only if its code
    is not yet in the table (its code failed the filter, or comes first)."""
    normal, tumoral = random_instance(seed=9, n_reads=120)
    plain = prune(ReadCodes(normal, tumoral, K), 0.01)
    pf = _CountingPrune.from_bytes(plain.to_bytes())
    windows = [c for r in [*normal, *tumoral] for c in canonical_codes(r.bases, K)]
    codes = ReadCodes(normal, tumoral, K, 4)
    for p in range(4):
        own = [c for c in windows if partition_of(c, 4) == p]
        pf.probes = 0
        count(codes, pf, p, FrequencyTable(capacity_limit=1), make_store())
        assert pf.probes == len(own)
        table, misses = set(), 0
        for c in own:
            if c not in table:
                misses += 1
                if c in plain:
                    table.add(c)
        assert misses < len(own)
        pf.probes = 0
        count(codes, pf, p, FrequencyTable(), make_store())
        assert pf.probes == misses


def probe_first_count(codes, prune_filter, partition_id, table, store):
    """Reference count: every window probes the prune filter, then the
    table."""
    runs = []
    entries = table.entries
    cap = table.capacity_limit
    for t_idx, span in enumerate(codes.origin_spans(partition_id)):
        for code in span:
            if code not in prune_filter:
                continue
            if code not in entries:
                entries[code] = 1 << (32 * t_idx)
                if cap is not None and len(entries) >= cap:
                    runs.append(store.flush_table(entries))
                    entries.clear()
            else:
                entries[code] += 1 << (32 * t_idx)
    if entries:
        runs.append(store.flush_table(entries))
        entries.clear()
    return runs


@pytest.mark.parametrize("partitions", [1, 3])
@pytest.mark.parametrize("cap", [1, 2, 7, None])
def test_count_spill_runs_match_probe_first_reference(cap, partitions):
    normal, tumoral = random_instance(seed=10, n_reads=80)
    codes = ReadCodes(normal, tumoral, K, partitions)
    pf = prune(codes, 0.01)
    for p in range(partitions):
        store, ref_store = make_store(), make_store()
        runs = count(codes, pf, p, FrequencyTable(cap), store)
        ref_runs = probe_first_count(codes, pf, p, FrequencyTable(cap), ref_store)
        assert [store.read_blob(h) for h in runs] == [ref_store.read_blob(h) for h in ref_runs]
        assert runs == ref_runs


def test_count_requires_empty_table():
    table = FrequencyTable()
    table.entries[1] = 1
    with pytest.raises(StageError):
        count(ReadCodes([], [], K), _PassFilter(), 0, table, make_store())


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
    def __init__(self, normal):
        self.normal = normal

    def origin_spans(self, partition_id):
        return self.normal, []


def test_count_refuses_a_normal_span_a_32_bit_count_cannot_hold():
    """2**32 normal windows of one code would carry into its t_count."""
    for length in (2**32, 2**40):
        with pytest.raises(StageError, match=r"2\*\*32"):
            count(_SpanCodes(_HugeSpan(length)), _PassFilter(), 0, FrequencyTable(), make_store())
    store = make_store()
    assert count(_SpanCodes(_HugeSpan(2**32 - 1)), _PassFilter(), 0, FrequencyTable(), store) == []
    assert store.append_cursor == 0


def test_merge_keeps_a_t_count_past_32_bits():
    """Sums over runs never wrap: a t_count of 2**32 is kept whole, and the
    index, whose u32 fields cannot hold it, refuses to serialize it."""
    store = make_store()
    runs = [store.flush_table({7: (2**32 - 1) << 32}), store.flush_table({7: 3 + (1 << 32)})]
    table = merge_runs(runs, store)
    assert table.entries == {7: (3, 2**32)}
    index = filter_candidates(table, ReadCodes([], [], K), 0, tau_t=4, tau_n=3)
    assert index.candidates[7].t_count == 2**32
    with pytest.raises(struct.error):
        index.to_bytes()


# -- merge_runs ----------------------------------------------------------


def test_merge_single_run_identity():
    store = make_store()
    h = store.flush_table({1: 1 + (2 << 32), 9: 3 << 32})
    assert merge_runs([h], store).entries == {1: (1, 2), 9: (0, 3)}


def test_merge_adds_counts():
    store = make_store()
    h1 = store.flush_table({7: 1})
    h2 = store.flush_table({7: 2 + (3 << 32)})
    assert merge_runs([h1, h2], store).entries == {7: (3, 3)}


def test_merge_unreadable_run_named():
    store = make_store()
    h = store.flush_table({1: 1 + (1 << 32)})
    store.namespace.write_data(h.start_address + 40, b"\x00\x01")
    with pytest.raises(StageError, match=str(h.start_address)):
        merge_runs([h], store)


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
    got = {decode(c, K): e for c, e in idx.candidates.items()}
    assert set(got) == set(expect)
    for s, e in expect.items():
        assert got[s].n_count == e["n"]
        assert got[s].t_count == e["t"]
        assert got[s].normal_bitmap == bits_of(e["normal_ids"])
        assert got[s].tumoral_bitmap == bits_of(e["tumoral_ids"])
    assert set(idx.reads) == stored


def test_filter_read_store_unique():
    normal, tumoral = random_instance(seed=8, n_reads=200)
    idx = filter_candidates(exact_table(normal, tumoral),
                            ReadCodes(normal, tumoral, K), 0, 4, 1)
    _, stored = candidate_view(normal, tumoral, K, 4, 1)
    assert len(idx.reads) == len(stored)
    bases = {(r.origin, r.id): r.bases for r in [*normal, *tumoral]}
    assert idx.reads == {key: bases[key] for key in stored}


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


def test_index_serialization_roundtrip():
    normal, tumoral = random_instance(seed=13, n_reads=150)
    idx = build_index(normal, tumoral)
    data = idx.to_bytes()
    clone = CandidateIndex.from_bytes(data)
    assert clone.to_bytes() == data
    assert clone.k == idx.k
    assert set(clone.candidates) == set(idx.candidates)


def test_filter_index_group_at_read_id_999_999():
    # two tumoral reads, ids 0 and 999_999, share the one candidate: its
    # tumoral bitmap spans 10^6 bits, past every 64-bit and byte edge below it
    kmer = "ACGTACGTACGTACG"
    tumoral = [Read(0, Origin.TUMORAL, kmer), Read(999_999, Origin.TUMORAL, kmer)]
    table = FrequencyTable()
    table.entries = {encode(kmer): (0, 2)}
    idx = filter_candidates(table, ReadCodes([], tumoral, K), 0, 2, 0)
    entry = idx.candidates[encode(kmer)]
    assert (entry.normal_bitmap, entry.tumoral_bitmap) == (0, 1 | 1 << 999_999)
    data = idx.to_bytes()
    *_, nb_len, tb_len = struct.unpack_from("<QIIII", data, 8 + struct.calcsize("<IQQ"))
    assert (nb_len, tb_len) == (0, 125_000)
    clone = CandidateIndex.from_bytes(data)
    assert clone.candidates[encode(kmer)] == entry
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
    table = FrequencyTable()
    table.entries[encode(kmer)] = [1, 1]
    idx = filter_candidates(table, ReadCodes(normal, tumoral, K), 0, 1, 1)
    groups = group(idx, min_candidates=1)
    assert len(groups) == 1
    assert groups[0].seed == (Origin.TUMORAL, 0)
    assert groups[0].members == {(Origin.TUMORAL, 0), (Origin.NORMAL, 3)}
    assert groups[0].shared_kmers == {encode(kmer)}


def test_group_min_candidates_too_high():
    normal, tumoral = random_instance(seed=14, n_reads=150)
    idx = build_index(normal, tumoral)
    max_per_read = 0
    for bases in idx.reads.values():
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
            assert {decode(c, K) for c in g.shared_kmers} == kmers


def reference_group(index, min_candidates):
    """Reference group: each seed iterates every candidate bitmap of each of
    its codes."""
    results = []
    for (origin, rid), bases in sorted(index.reads.items(), key=lambda r: r[0][1]):
        if origin is not Origin.TUMORAL:
            continue
        codes = {c for c in canonical_codes(bases, index.k) if c in index.candidates}
        if len(codes) < min_candidates:
            continue
        members = {(Origin.TUMORAL, rid)}
        for code in codes:
            entry = index.candidates[code]
            members.update((Origin.NORMAL, i) for i in ids_of(entry.normal_bitmap))
            members.update((Origin.TUMORAL, i) for i in ids_of(entry.tumoral_bitmap))
        results.append(GroupResult((Origin.TUMORAL, rid), members, codes))
    return results


def hand_index(k, seeds, bitmaps):
    """A CandidateIndex of tumoral reads `seeds` (id -> bases) and candidates
    `bitmaps` (code -> (normal ids, tumoral ids))."""
    index = CandidateIndex(k)
    for rid, bases in seeds.items():
        index.reads[(Origin.TUMORAL, rid)] = bases
    for code, (normal_ids, tumoral_ids) in bitmaps.items():
        index.candidates[code] = CandidateEntry(1, 1, bits_of(normal_ids), bits_of(tumoral_ids))
    return index


def test_group_at_bitmap_boundaries():
    # ids on either side of the byte and 64-bit word edges, shared across
    # candidates, and seed 5000 lies past every candidate bitmap's end
    edge = [0, 7, 8, 63, 64, 65, 999, 1000, 1001]
    kmers = ["AAC", "ACG", "CCA", "ATC"]
    bitmaps = {encode(s): (edge[i:i + 5], edge[-i - 5:]) for i, s in enumerate(kmers)}
    seeds = {0: "AACG", 8: "CCAT", 64: "AACGAT", 1000: "CCAACGAT", 5000: "GATCCA", 7: "TTTT"}
    index = hand_index(3, seeds, bitmaps)
    for min_candidates in (1, 2, 3):
        got = group(index, min_candidates)
        assert got == reference_group(index, min_candidates)
    got = {g.seed[1]: g for g in group(index, 1)}
    assert set(got) == {0, 8, 64, 1000, 5000}
    assert (Origin.TUMORAL, 5000) in got[5000].members
    assert {(Origin.NORMAL, 0), (Origin.TUMORAL, 1001)} <= got[1000].members


@settings(max_examples=100, deadline=None)
@given(
    seeds=st.dictionaries(st.integers(0, 300), st.text("ACGT", min_size=2, max_size=10),
                          max_size=8),
    bitmaps=st.dictionaries(st.integers(0, 15), st.tuples(
        st.sets(st.integers(0, 300), max_size=6), st.sets(st.integers(0, 300), max_size=6)),
        max_size=10),
    min_candidates=st.integers(1, 3),
)
def test_group_matches_per_bitmap_reference(seeds, bitmaps, min_candidates):
    index = hand_index(2, seeds, bitmaps)
    got = group(index, min_candidates)
    assert got == reference_group(index, min_candidates)
