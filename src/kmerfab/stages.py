"""The pipeline stages.

Prune runs a seen-once/seen-multi bloom pair and keeps seen-multi, so
multiplicity-1 k-mers are dropped early. Count accumulates bounded
normal/tumoral counters, spilling sorted runs only when full. Filter keeps
imbalanced k-mers and lists, per candidate and origin, the ascending ids of
the reads that hold it. Merge unites per-partition indexes, whose candidates
are disjoint, and Group inverts the merged index's tumoral id lists to expand
candidate tumoral reads into related-read sets: it reads no bases.
"""

from __future__ import annotations

import struct
import zlib
from array import array
from dataclasses import dataclass, field
from typing import Iterator

from .bloom import _MUM, BloomFilter
from .kmers import _MASK64, Origin, Read, canonical_codes, partition_of
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
    for part in codes.codes:
        seen_once.add_or_promote(part, seen_multi)
    return seen_multi


# --------------------------------------------------------------------------
# Count


def count(
    codes: ReadCodes,
    prune_filter: BloomFilter,
    partition_id: int,
    capacity_limit: int | None,
    store: SpillStore,
) -> tuple[list[BlobHandle], dict[int, int]]:
    """One partition's pruned k-mer counts: the sorted runs spilled, and the last table.

    The table maps a code to n_count + (t_count << 32) and holds at most
    `capacity_limit` codes (None: unbounded): only a full table is flushed, so
    an unbounded one writes no run. A normal window adds 1 and a tumoral one
    1 << 32; under 2**32 normal windows, no n_count, summed over runs too,
    carries into t_count. A code is looked up in the table first and probes
    `prune_filter` only on a miss, and only if no earlier run of this pass held
    it: a code the table holds, or a flush wrote out, passed the same filter
    earlier in the pass. So each code that passes probes once per pass at any
    capacity, and one that fails probes at each of its windows. The probe is
    `BloomFilter.__contains__`'s, computed in the loop from the filter's words
    and pattern tables.
    """
    normal, tumoral = codes.origin_spans(partition_id)
    if len(normal) >> 32:
        raise StageError(f"partition {partition_id}: {len(normal)} normal windows, not < 2**32")
    runs: list[BlobHandle] = []
    entries: dict[int, int] = {}
    flushed: set[int] = set()  # the codes of earlier runs; empty while unbounded
    get = entries.get
    words, lo, hi = prune_filter._words, prune_filter._lo, prune_filter._hi
    n_words = len(words)
    for one, span in ((1, normal), (1 << 32, tumoral)):
        for code in span:
            packed = get(code)
            if packed is not None:
                entries[code] = packed + one
                continue
            if code not in flushed:
                h = code * _MUM  # `code in prune_filter`, inline
                h = (h & _MASK64) ^ (h >> 64)
                mask = lo[h & 4095] | hi[(h >> 12) & 4095]
                if words[(h >> 24) % n_words] & mask != mask:
                    continue
            entries[code] = one
            if capacity_limit is not None and len(entries) >= capacity_limit:
                runs.append(store.flush_table(entries))
                flushed.update(entries)
                entries.clear()
    return runs, entries


@dataclass
class FrequencyTable:
    """`merge_runs`' result: code -> (n_count, t_count)."""

    entries: dict[int, tuple[int, int]]


def merge_runs(runs: list[BlobHandle], table: dict[int, int], store: SpillStore) -> FrequencyTable:
    """Add sorted runs' packed counts to `table`, count's last table, then
    unpack them in place to (n_count, t_count) pairs, one tuple per distinct
    packed value."""
    for handle in runs:
        try:
            codes, counts = store.read_run(handle)
        except CorruptionError as exc:
            raise StageError(f"unreadable run at {handle.start_address}: {exc}") from exc
        for code, packed in zip(codes, counts):
            table[code] = table.get(code, 0) + packed
    pairs = {packed: (packed & 0xFFFFFFFF, packed >> 32) for packed in set(table.values())}
    for code, packed in table.items():
        table[code] = pairs[packed]
    return FrequencyTable(table)


# --------------------------------------------------------------------------
# Filter


def ids_to_bitmap(ids: list[int]) -> bytearray:
    """The little-endian bitmap of `ids` (bit i set for each id i), trimmed
    after the byte of the largest id: [] is empty."""
    buf = bytearray((max(ids) >> 3) + 1) if ids else bytearray()
    for i in ids:
        buf[i >> 3] |= 1 << (i & 7)
    return buf


def ids_to_gaps(ids: list[int]) -> bytearray:
    """Ascending `ids` as unsigned LEB128 gaps, `id - previous - 1` with the
    first previous -1: [] is empty."""
    buf = bytearray()
    append = buf.append
    previous = -1
    for i in ids:
        gap = i - previous - 1
        previous = i
        while gap > 0x7F:
            append(gap & 0x7F | 0x80)
            gap >>= 7
        append(gap)
    return buf


def gap_ids(data: bytes) -> list[int]:
    """The ids `ids_to_gaps` wrote. StageError on a gap the end of `data`
    cuts, or one longer than a u64's 10 bytes."""
    ids = []
    append = ids.append
    previous = -1
    gap = shift = 0
    for byte in data:
        if byte < 0x80:
            previous += (gap | byte << shift) + 1
            append(previous)
            gap = shift = 0
        else:
            gap |= (byte & 0x7F) << shift
            shift += 7
            if shift == 70:
                raise StageError("over-long gap in checkpoint")
    if shift:
        raise StageError("truncated gap in checkpoint")
    return ids


@dataclass
class CandidateEntry:
    """A candidate's counts and, per origin, the ids of the reads that hold
    it, ascending (`parse_reads` numbers reads in input order)."""

    n_count: int
    t_count: int
    normal_ids: list[int] = field(default_factory=list)
    tumoral_ids: list[int] = field(default_factory=list)


class CandidateIndex:
    """Imbalanced k-mers with the ids of the reads that hold each. On disk an
    index is a frame: a magic, `<IQQ` k, candidate and read counts, one `<QIIII`
    record (code, n_count, t_count and the byte lengths of its two read sets)
    per candidate by ascending code, each followed by its read sets, then the
    reads and a CRC-32. index.bin (`KFIDXv1`) stores each read set as a
    bitmap and holds the bases of every listed read; a filter.pN checkpoint
    (`KFIDXv2`) stores each as LEB128 gaps and holds no read."""

    def __init__(self, k: int):
        self.k = k
        self.candidates: dict[int, CandidateEntry] = {}

    def to_bytes(self, normal: list[Read] = (), tumoral: list[Read] = ()) -> bytearray:
        """index.bin, canonical: equal indexes give equal bytes. Given the
        parsed inputs, the reads section holds the bases of every read a
        candidate lists, normal then tumoral, each by ascending id. A read's
        id is its position in its input, as `parse_reads` numbers reads, so
        normal read i is `normal[i]`; StageError if not. Without inputs it
        holds no read."""
        listed = []  # (origin, read) of every stored read, in stored order
        if normal or tumoral:
            for origin, reads, attr in ((Origin.NORMAL, normal, "normal_ids"),
                                        (Origin.TUMORAL, tumoral, "tumoral_ids")):
                for i in sorted(set().union(*(getattr(e, attr)
                                              for e in self.candidates.values()))):
                    read = reads[i]
                    if read.id != i:
                        raise StageError(f"{origin.value} read at position {i} has id {read.id}")
                    listed.append((origin, read))
        return self._frame(b"KFIDXv1\x00", ids_to_bitmap, listed)

    def to_checkpoint(self) -> bytearray:
        """The filter.pN payload, canonical: the frame with each read set as
        LEB128 gaps (`ids_to_gaps`), and no read."""
        return self._frame(b"KFIDXv2\x00", ids_to_gaps, [])

    def _frame(self, magic: bytes, encode_ids, listed: list) -> bytearray:
        """The frame of this index under `magic`, each read set encoded by
        `encode_ids`, with the `(origin, read)` pairs `listed`. Built in one
        buffer, which is returned without a copy."""
        buf = bytearray(magic)
        buf += struct.pack("<IQQ", self.k, len(self.candidates), len(listed))
        for code in sorted(self.candidates):
            e = self.candidates[code]
            nb = encode_ids(e.normal_ids)
            tb = encode_ids(e.tumoral_ids)
            buf += struct.pack("<QIIII", code, e.n_count, e.t_count, len(nb), len(tb))
            buf += nb
            buf += tb
        for origin, read in listed:
            raw = read.bases.encode("ascii")
            buf += struct.pack("<BQI", 1 if origin is Origin.TUMORAL else 0, read.id, len(raw))
            buf += raw
        crc = zlib.crc32(memoryview(buf)[8:])  # the view is gone before buf grows again
        buf += struct.pack("<I", crc)
        return buf

    @classmethod
    def from_checkpoint(cls, data: bytes) -> "CandidateIndex":
        """The index `to_checkpoint` wrote; StageError on another magic, a
        CRC mismatch, a frame that ends early or holds more, or a bad gap."""
        if data[:8] != b"KFIDXv2\x00" or len(data) < 12:
            raise StageError("bad checkpoint magic or length")
        body = memoryview(data)[8:-4]
        (crc,) = struct.unpack_from("<I", data, len(data) - 4)
        if zlib.crc32(body) != crc:
            raise StageError("checkpoint checksum mismatch")
        try:
            k, n_cand, n_reads = struct.unpack_from("<IQQ", body)
            idx = cls(k)
            pos = struct.calcsize("<IQQ")
            for _ in range(n_cand):
                code, n, t, nb_len, tb_len = struct.unpack_from("<QIIII", body, pos)
                pos += struct.calcsize("<QIIII")
                nb = gap_ids(body[pos:pos + nb_len])
                pos += nb_len
                tb = gap_ids(body[pos:pos + tb_len])
                pos += tb_len
                idx.candidates[code] = CandidateEntry(n, t, nb, tb)
        except struct.error as exc:
            raise StageError(f"truncated checkpoint: {exc}") from exc
        if n_reads or pos != len(body):
            raise StageError("checkpoint frame does not end at its CRC")
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
    """Select imbalanced k-mers, then list the ids of every read containing
    one, per candidate and origin, in read order.

    The table holds partition `partition_id`'s codes, so each read is
    intersected with its codes in that partition only, and a read is listed
    under exactly the candidates it holds."""
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
        tumoral = read.origin is Origin.TUMORAL
        for code in hits:
            ids[code][tumoral].append(read.id)
    for code, (normal_ids, tumoral_ids) in ids.items():
        index.candidates[code] = CandidateEntry(*entries[code], normal_ids, tumoral_ids)
    return index


# --------------------------------------------------------------------------
# Merge


def merge_indexes(a: CandidateIndex, b: CandidateIndex) -> CandidateIndex:
    """Fold b's candidates into a and return a. A code lives in one
    partition, so the candidate maps are disjoint (StageError if not).
    Inputs are consumed."""
    if a.k != b.k:
        raise StageError(f"cannot merge indexes with k={a.k} and k={b.k}")
    shared = a.candidates.keys() & b.candidates.keys()
    if shared:
        raise StageError(f"cannot merge indexes that share candidate {min(shared)}")
    a.candidates.update(b.candidates)
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

    Filter lists a tumoral read under exactly the candidates it holds (a
    code lives in one partition), so inverting the tumoral id lists gives
    each seed's candidate k-mers. Per seed, the candidates' normal ids are
    united in one int set, and their tumoral ids, the seed's own among them,
    in another; each member's (origin, id) is built once, from those sets."""
    candidates = index.candidates
    held: dict[int, set[int]] = {}  # tumoral read id -> the candidates that list it
    for code, e in candidates.items():
        for rid in e.tumoral_ids:
            held.setdefault(rid, set()).add(code)
    results = []
    for rid, codes in sorted(held.items()):
        if len(codes) < min_candidates:
            continue
        normal, tumoral = set(), set()
        for code in codes:
            e = candidates[code]
            normal.update(e.normal_ids)
            tumoral.update(e.tumoral_ids)
        members = {(Origin.NORMAL, i) for i in normal}
        members.update((Origin.TUMORAL, i) for i in tumoral)
        results.append(GroupResult((Origin.TUMORAL, rid), members, codes))
    return results
