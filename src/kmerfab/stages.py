"""The pipeline stages.

Prune runs a seen-once/seen-multi bloom pair and keeps seen-multi, so
multiplicity-1 k-mers are dropped early. Count accumulates bounded
normal/tumoral counters, spilling sorted runs when full. Filter keeps
imbalanced k-mers and indexes the reads that contain them. Merge unifies
per-partition indexes; Group expands candidate tumoral reads into
related-read sets.
"""

from __future__ import annotations

import struct
import zlib
from array import array
from dataclasses import dataclass
from typing import Iterator

from .bloom import BloomFilter
from .kmers import Origin, Read, canonical_codes, partition_of
from .spill import BlobHandle, CorruptionError, SpillStore


class StageError(Exception):
    pass


# --------------------------------------------------------------------------
# Read codes


class ReadCodes:
    """Every read's canonical codes, extracted once per run, 8 bytes a window.

    Each code goes to bucket `partition_of(code, partitions)` as it is
    extracted: `codes[p]` holds partition p's codes read by read, normal
    reads first and then tumoral, each in input order; read i's slice of it
    ends at `ends[p][i]`. `release` frees a bucket after its last pass.
    """

    def __init__(self, normal: list[Read], tumoral: list[Read], k: int, partitions: int = 1):
        self.k = k
        self.reads = [*normal, *tumoral]
        self.n_normal = len(normal)
        codes = self.codes = [array("Q") for _ in range(partitions)]
        ends = self.ends = [array("Q") for _ in range(partitions)]
        appends = [part.append for part in codes]
        for read in self.reads:
            read_codes = canonical_codes(read.bases, k)
            if partitions == 1:  # one bucket: no partition_of call per window
                codes[0].extend(read_codes)
            else:
                for code in read_codes:
                    appends[partition_of(code, partitions)](code)
            for part, part_ends in zip(codes, ends):
                part_ends.append(len(part))

    def release(self, partition_id: int) -> None:
        """Free partition `partition_id`'s codes once no pass reads them."""
        self.codes[partition_id] = self.ends[partition_id] = None

    def origin_spans(self, partition_id: int) -> tuple[memoryview, memoryview]:
        """Partition `partition_id`'s normal codes, then its tumoral codes."""
        view = memoryview(self.codes[partition_id])
        cut = self.ends[partition_id][self.n_normal - 1] if self.n_normal else 0
        return view[:cut], view[cut:]

    def read_spans(self, partition_id: int) -> Iterator[tuple[Read, memoryview]]:
        """Each read with its codes in partition `partition_id`."""
        view = memoryview(self.codes[partition_id])
        start = 0
        for read, end in zip(self.reads, self.ends[partition_id]):
            yield read, view[start:end]
            start = end


# --------------------------------------------------------------------------
# Prune


# the target_fp range prune supports: the half-size seen-multi needs at most
# 0.5, and a blocked filter's size grows fast below 1e-6 (5.9x the standard bits)
PRUNE_FP = (1e-6, 0.5)


def prune(codes: ReadCodes, target_fp: float) -> BloomFilter:
    """The k-mers seen more than once, as a bloom filter (no false negatives).

    One pass over every code, bucket by bucket, through a seen-once and a
    seen-multi filter. Seen-once is sized for the code count (a window that
    holds an `N` yields none) at `target_fp`, in PRUNE_FP. Every code
    seen-multi holds occurs at least twice, so it holds at most half as many
    codes (false promotions included): it gets half of seen-once's words and
    the same mask bits, the same load per word at the same rate. Only seen-multi is returned:
    seen-once is freed when prune returns."""
    seen_once = BloomFilter.with_capacity(sum(len(part) for part in codes.codes), target_fp)
    seen_multi = BloomFilter(64 * -(-seen_once.n_bits // 128), seen_once.n_hashes)
    insert = seen_once.add_or_promote
    for part in codes.codes:
        for code in part:
            insert(code, seen_multi)
    return seen_multi


# --------------------------------------------------------------------------
# Count


class FrequencyTable:
    """Bounded map canonical code -> n_count + (t_count << 32) (capacity_limit
    None: unbounded); `merge_runs` returns (n_count, t_count) pairs."""

    def __init__(self, capacity_limit: int | None = None):
        self.entries: dict[int, int] | dict[int, tuple[int, int]] = {}
        self.capacity_limit = capacity_limit

    def __len__(self) -> int:
        return len(self.entries)


def count(
    codes: ReadCodes,
    prune_filter: BloomFilter,
    partition_id: int,
    table: FrequencyTable,
    store: SpillStore,
) -> list[BlobHandle]:
    """Count pruned k-mers of one partition, spilling sorted runs when full.

    A normal window adds 1 and a tumoral one 1 << 32; under 2**32 normal
    windows, no n_count, summed over runs too, carries into t_count. A code
    is looked up in the table first and probes `prune_filter` only on a miss:
    one the table holds passed the same filter earlier in this pass. The
    final partial table is always flushed, so even an unbounded table
    produces exactly one run.
    """
    if len(table) != 0:
        raise StageError("count requires an empty table")
    normal, tumoral = codes.origin_spans(partition_id)
    if len(normal) >> 32:
        raise StageError(f"partition {partition_id}: {len(normal)} normal windows, not < 2**32")
    runs: list[BlobHandle] = []
    entries = table.entries
    get = entries.get
    cap = table.capacity_limit
    for one, span in ((1, normal), (1 << 32, tumoral)):
        for code in span:
            packed = get(code)
            if packed is not None:
                entries[code] = packed + one
            elif code in prune_filter:
                entries[code] = one
                if cap is not None and len(entries) >= cap:
                    runs.append(store.flush_table(entries))
                    entries.clear()
    if entries:
        runs.append(store.flush_table(entries))
        entries.clear()
    return runs


def merge_runs(run_handles: list[BlobHandle], store: SpillStore) -> FrequencyTable:
    """Sum each code's packed counts over sorted runs, then unpack them to
    (n_count, t_count) pairs, one tuple per distinct packed value."""
    table = FrequencyTable()
    entries = table.entries
    for handle in run_handles:
        try:
            codes, counts = store.read_run(handle)
        except CorruptionError as exc:
            raise StageError(f"unreadable run at {handle.start_address}: {exc}") from exc
        for code, packed in zip(codes, counts):
            entries[code] = entries.get(code, 0) + packed
    pairs = {packed: (packed & 0xFFFFFFFF, packed >> 32) for packed in set(entries.values())}
    for code, packed in entries.items():
        entries[code] = pairs[packed]
    return table


# --------------------------------------------------------------------------
# Filter


def ids_to_bits(ids: list[int]) -> int:
    """The int with bit i set for each i in `ids`, built in one bytearray:
    an `x |= 1 << i` per id would copy a max-id-bit int on every set."""
    buf = bytearray((max(ids) >> 3) + 1) if ids else bytearray()
    for i in ids:
        buf[i >> 3] |= 1 << (i & 7)
    return int.from_bytes(buf, "little")


def bits_to_bytes(bits: int) -> bytes:
    """Little-endian bytes of `bits`, trailing zero bytes trimmed (0 is b"")."""
    return bits.to_bytes((bits.bit_length() + 7) // 8, "little")


def bit_ids(bits: int) -> Iterator[int]:
    """The set bits of `bits`, ascending, by one scan of its bytes (a
    `bits & -bits` loop would cost O(members x int size))."""
    for i, byte in enumerate(bits_to_bytes(bits)):
        if byte:
            base = i << 3
            for bit in range(8):
                if byte >> bit & 1:
                    yield base + bit


@dataclass
class CandidateEntry:
    """A candidate's counts and the ids of the reads that hold it, as ints
    (bit i set: read i of that origin holds the k-mer)."""

    n_count: int
    t_count: int
    normal_bitmap: int = 0
    tumoral_bitmap: int = 0


class CandidateIndex:
    """Imbalanced k-mers plus read-membership bitmaps and the bases of every
    read that holds one, keyed by (origin, id)."""

    def __init__(self, k: int):
        self.k = k
        self.candidates: dict[int, CandidateEntry] = {}
        self.reads: dict[tuple[Origin, int], str] = {}

    def add_read(self, read: Read) -> None:
        self.reads.setdefault((read.origin, read.id), read.bases)

    def to_bytes(self) -> bytes:
        """Canonical serialization: equal indexes give equal bytes."""
        body = bytearray()
        body += struct.pack("<IQQ", self.k, len(self.candidates), len(self.reads))
        for code in sorted(self.candidates):
            e = self.candidates[code]
            nb = bits_to_bytes(e.normal_bitmap)
            tb = bits_to_bytes(e.tumoral_bitmap)
            body += struct.pack("<QIIII", code, e.n_count, e.t_count, len(nb), len(tb))
            body += nb
            body += tb
        for (origin, rid), bases in sorted(
            self.reads.items(), key=lambda r: (r[0][0] is Origin.TUMORAL, r[0][1])
        ):
            raw = bases.encode("ascii")
            body += struct.pack("<BQI", 1 if origin is Origin.TUMORAL else 0, rid, len(raw))
            body += raw
        return b"KFIDXv1\x00" + bytes(body) + struct.pack("<I", zlib.crc32(bytes(body)))

    @classmethod
    def from_bytes(cls, data: bytes) -> "CandidateIndex":
        if data[:8] != b"KFIDXv1\x00":
            raise StageError("bad index magic")
        body = data[8:-4]
        (crc,) = struct.unpack_from("<I", data, len(data) - 4)
        if zlib.crc32(body) != crc:
            raise StageError("index checksum mismatch")
        k, n_cand, n_reads = struct.unpack_from("<IQQ", body)
        idx = cls(k)
        pos = struct.calcsize("<IQQ")
        for _ in range(n_cand):
            code, n, t, nb_len, tb_len = struct.unpack_from("<QIIII", body, pos)
            pos += struct.calcsize("<QIIII")
            nb = int.from_bytes(body[pos:pos + nb_len], "little")
            pos += nb_len
            tb = int.from_bytes(body[pos:pos + tb_len], "little")
            pos += tb_len
            idx.candidates[code] = CandidateEntry(n, t, nb, tb)
        for _ in range(n_reads):
            o, rid, blen = struct.unpack_from("<BQI", body, pos)
            pos += struct.calcsize("<BQI")
            bases = body[pos:pos + blen].decode("ascii")
            pos += blen
            idx.reads[(Origin.TUMORAL if o else Origin.NORMAL, rid)] = bases
        return idx


def is_imbalanced(n_count: int, t_count: int, tau_t: int, tau_n: int) -> bool:
    return t_count >= tau_t and n_count <= tau_n


def filter_candidates(
    table: FrequencyTable,
    codes: ReadCodes,
    partition_id: int,
    tau_t: int,
    tau_n: int,
) -> CandidateIndex:
    """Select imbalanced k-mers, then index every read containing one.

    The table holds partition `partition_id`'s codes, so each read is
    intersected with its codes in that partition only. Each candidate's read
    ids are listed per origin during the scan, and each list becomes its
    int once, at the end."""
    index = CandidateIndex(codes.k)
    entries = table.entries
    # candidate code -> (normal read ids, tumoral read ids)
    ids = {code: ([], []) for code, (n, t) in entries.items() if is_imbalanced(n, t, tau_t, tau_n)}
    if not ids:
        return index
    for read, span in codes.read_spans(partition_id):
        hits = ids.keys() & span
        if not hits:
            continue
        index.add_read(read)
        tumoral = read.origin is Origin.TUMORAL
        for code in hits:
            ids[code][tumoral].append(read.id)
    for code, (normal_ids, tumoral_ids) in ids.items():
        index.candidates[code] = CandidateEntry(*entries[code], ids_to_bits(normal_ids),
                                                ids_to_bits(tumoral_ids))
    return index


# --------------------------------------------------------------------------
# Merge


def merge_indexes(a: CandidateIndex, b: CandidateIndex) -> CandidateIndex:
    """Fold b into a and return a: union the candidate maps (summing counts,
    OR-ing bitmaps) and read maps (a's bases win on a shared key). Inputs are
    consumed."""
    if a.k != b.k:
        raise StageError(f"cannot merge indexes with k={a.k} and k={b.k}")
    for code, entry in b.candidates.items():
        mine = a.candidates.get(code)
        if mine is None:
            a.candidates[code] = entry
        else:
            mine.n_count += entry.n_count
            mine.t_count += entry.t_count
            mine.normal_bitmap |= entry.normal_bitmap
            mine.tumoral_bitmap |= entry.tumoral_bitmap
    for key, bases in b.reads.items():
        a.reads.setdefault(key, bases)
    return a


# --------------------------------------------------------------------------
# Group


@dataclass
class GroupResult:
    seed: tuple[Origin, int]
    members: set[tuple[Origin, int]]
    shared_kmers: set[int]


def group(index: CandidateIndex, min_candidates: int) -> list[GroupResult]:
    """Seed on tumoral reads holding >= min_candidates candidate k-mers
    (ascending id); a group is every read sharing one of the seed's k-mers.

    Per seed, the candidates' normal bitmaps are OR-ed, and so are their
    tumoral bitmaps with the seed's own bit; each OR is decoded once."""
    candidates = index.candidates
    tumoral_reads = sorted(
        (rid, bases)
        for (origin, rid), bases in index.reads.items()
        if origin is Origin.TUMORAL
    )
    results = []
    for rid, bases in tumoral_reads:
        codes = {c for c in canonical_codes(bases, index.k) if c in candidates}
        if len(codes) < min_candidates:
            continue
        normal, tumoral = 0, 1 << rid
        for code in codes:
            e = candidates[code]
            normal |= e.normal_bitmap
            tumoral |= e.tumoral_bitmap
        members = {(Origin.NORMAL, i) for i in bit_ids(normal)}
        members.update((Origin.TUMORAL, i) for i in bit_ids(tumoral))
        results.append(GroupResult((Origin.TUMORAL, rid), members, codes))
    return results

