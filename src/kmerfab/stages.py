"""The five checkpointable pipeline stages.

Prune builds a seen-once/seen-multi bloom pair so multiplicity-1 k-mers are
dropped early. Count accumulates bounded normal/tumoral counters, spilling
sorted runs when full. Filter keeps imbalanced k-mers and indexes the reads
that contain them. Merge unifies per-partition indexes; Group expands
candidate tumoral reads into related-read sets.
"""

from __future__ import annotations

import struct
import zlib
from array import array
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from .bitmap import Bitmap
from .bloom import BloomFilter
from .kmers import Origin, Read, canonical_codes, partition_of
from .spill import CorruptionError, RunHandle, SpillStore


class StageError(Exception):
    pass


# --------------------------------------------------------------------------
# Read codes


class ReadCodes:
    """Every read's canonical codes, extracted once per run, 8 bytes a window.

    `codes[p]` holds partition p's codes read by read, normal reads first and
    then tumoral, each in input order; read i's slice of it ends at
    `ends[p][i]`. Extraction leaves one partition in window order, which is
    what prune consumes; `split` then buckets the codes by `partition_of`
    once, for every count and filter pass, and `release` frees a bucket
    after its last pass.
    """

    def __init__(self, normal: list[Read], tumoral: list[Read], k: int):
        self.k = k
        self.reads = [*normal, *tumoral]
        self.n_normal = len(normal)
        codes = array("Q")
        ends = array("Q")
        for read in self.reads:
            codes.extend(canonical_codes(read.bases, k))
            ends.append(len(codes))
        self.codes = [codes]
        self.ends = [ends]

    def split(self, partitions: int) -> None:
        """Bucket the window-order codes into `partitions` stores; a no-op
        once split that way."""
        if partitions == len(self.codes):
            return
        if len(self.codes) != 1:
            raise StageError(f"codes already split into {len(self.codes)} partitions")
        flat = self.codes[0]
        codes = [array("Q") for _ in range(partitions)]
        ends = [array("Q") for _ in range(partitions)]
        appends = [part.append for part in codes]
        start = 0
        for end in self.ends[0]:
            for code in flat[start:end]:
                appends[partition_of(code, partitions)](code)
            start = end
            for part, part_ends in zip(codes, ends):
                part_ends.append(len(part))
        self.codes = codes
        self.ends = ends

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


class PruneFilter:
    """Membership = "this k-mer was seen more than once" (no false negatives)."""

    def __init__(self, k: int, target_fp: float, expected: int):
        self.k = k
        self.target_fp = target_fp
        self.expected = expected
        self.seen_once = BloomFilter.with_capacity(expected, target_fp)
        self.seen_multi = BloomFilter.with_capacity(expected, target_fp)

    def insert_occurrence(self, code: int) -> None:
        self.seen_once.add_or_promote(code, self.seen_multi)

    def __contains__(self, code: int) -> bool:
        return code in self.seen_multi

    def to_bytes(self) -> bytes:
        once = self.seen_once.to_bytes()
        multi = self.seen_multi.to_bytes()
        head = struct.pack(
            "<IdQQII", self.k, self.target_fp, self.expected,
            self.seen_once.n_bits, self.seen_once.n_hashes, len(once),
        )
        return head + once + multi

    @classmethod
    def from_bytes(cls, data: bytes) -> "PruneFilter":
        head = struct.Struct("<IdQQII")
        k, fp, expected, n_bits, n_hashes, once_len = head.unpack_from(data)
        pf = cls.__new__(cls)
        pf.k = k
        pf.target_fp = fp
        pf.expected = expected
        body = data[head.size:]
        pf.seen_once = BloomFilter.from_bytes(n_bits, n_hashes, body[:once_len])
        pf.seen_multi = BloomFilter.from_bytes(n_bits, n_hashes, body[once_len:])
        return pf


def total_windows(reads: Iterable[Read], k: int) -> int:
    return sum(max(0, r.length - k + 1) for r in reads)


def prune(codes: ReadCodes, target_fp: float) -> PruneFilter:
    """One pass over every window in read order, so before `codes.split`;
    sizing estimate is the total window count."""
    if len(codes.codes) != 1:
        raise StageError("prune needs the codes in window order, before the split")
    pf = PruneFilter(codes.k, target_fp, total_windows(codes.reads, codes.k))
    insert = pf.insert_occurrence
    for code in codes.codes[0]:
        insert(code)
    return pf


# --------------------------------------------------------------------------
# Count


class FrequencyTable:
    """Bounded map canonical code -> [n_count, t_count]."""

    def __init__(self, capacity_limit: int | None = None):
        if capacity_limit is not None and capacity_limit < 1:
            raise ValueError("capacity_limit must be >= 1 (or None for unbounded)")
        self.entries: dict[int, list[int]] = {}
        self.capacity_limit = capacity_limit

    def __len__(self) -> int:
        return len(self.entries)

    def as_dict(self) -> dict[int, tuple[int, int]]:
        return {code: (c[0], c[1]) for code, c in self.entries.items()}


def count(
    codes: ReadCodes,
    prune_filter: PruneFilter,
    partition_id: int,
    table: FrequencyTable,
    store: SpillStore,
) -> list[RunHandle]:
    """Count pruned k-mers of one partition, spilling sorted runs when full.

    The final partial table is always flushed, so even an unbounded table
    produces exactly one run.
    """
    if len(table) != 0:
        raise StageError("count requires an empty table")
    runs: list[RunHandle] = []
    entries = table.entries
    cap = table.capacity_limit
    for t_idx, span in enumerate(codes.origin_spans(partition_id)):
        for code in span:
            if code not in prune_filter:
                continue
            counts = entries.get(code)
            if counts is None:
                entries[code] = counts = [0, 0]
                counts[t_idx] += 1
                if cap is not None and len(entries) >= cap:
                    runs.append(store.flush_table(entries))
                    entries.clear()
            else:
                counts[t_idx] += 1
    if entries:
        runs.append(store.flush_table(entries))
        entries.clear()
    return runs


def merge_runs(run_handles: list[RunHandle], store: SpillStore) -> FrequencyTable:
    """K-way merge of sorted runs, summing per-code counts."""
    table = FrequencyTable()
    entries = table.entries
    for handle in run_handles:
        try:
            rows = store.read_run(handle)
        except CorruptionError as exc:
            raise StageError(f"unreadable run at {handle.start_address}: {exc}") from exc
        for code, n, t in rows:
            counts = entries.get(code)
            if counts is None:
                entries[code] = [n, t]
            else:
                counts[0] += n
                counts[1] += t
    return table


# --------------------------------------------------------------------------
# Filter


@dataclass
class CandidateEntry:
    n_count: int
    t_count: int
    normal_bitmap: Bitmap = field(default_factory=Bitmap)
    tumoral_bitmap: Bitmap = field(default_factory=Bitmap)


class CandidateIndex:
    """Imbalanced k-mers plus read-membership bitmaps and a read store."""

    def __init__(self, k: int):
        self.k = k
        self.candidates: dict[int, CandidateEntry] = {}
        self.read_store: list[tuple[Origin, int, str]] = []
        self._stored: set[tuple[Origin, int]] = set()

    def add_read(self, read: Read) -> None:
        key = (read.origin, read.id)
        if key not in self._stored:
            self._stored.add(key)
            self.read_store.append((read.origin, read.id, read.bases))

    def to_bytes(self) -> bytes:
        """Canonical serialization: equal indexes give equal bytes."""
        body = bytearray()
        body += struct.pack("<IQQ", self.k, len(self.candidates), len(self.read_store))
        for code in sorted(self.candidates):
            e = self.candidates[code]
            nb = e.normal_bitmap.to_bytes()
            tb = e.tumoral_bitmap.to_bytes()
            body += struct.pack("<QIIII", code, e.n_count, e.t_count, len(nb), len(tb))
            body += nb
            body += tb
        for origin, rid, bases in sorted(
            self.read_store, key=lambda r: (r[0] is Origin.TUMORAL, r[1])
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
            nb = Bitmap.from_bytes(body[pos:pos + nb_len])
            pos += nb_len
            tb = Bitmap.from_bytes(body[pos:pos + tb_len])
            pos += tb_len
            idx.candidates[code] = CandidateEntry(n, t, nb, tb)
        for _ in range(n_reads):
            o, rid, blen = struct.unpack_from("<BQI", body, pos)
            pos += struct.calcsize("<BQI")
            bases = body[pos:pos + blen].decode("ascii")
            pos += blen
            origin = Origin.TUMORAL if o else Origin.NORMAL
            idx.read_store.append((origin, rid, bases))
            idx._stored.add((origin, rid))
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
    intersected with its codes in that partition only."""
    if tau_t < 1:
        raise ValueError("tau_t must be >= 1")
    if tau_n < 0:
        raise ValueError("tau_n must be >= 0")
    index = CandidateIndex(codes.k)
    for code, (n, t) in table.as_dict().items():
        if is_imbalanced(n, t, tau_t, tau_n):
            index.candidates[code] = CandidateEntry(n, t)
    if not index.candidates:
        return index
    candidates = index.candidates
    for read, span in codes.read_spans(partition_id):
        hits = candidates.keys() & span
        if not hits:
            continue
        index.add_read(read)
        tumoral = read.origin is Origin.TUMORAL
        for code in hits:
            entry = candidates[code]
            (entry.tumoral_bitmap if tumoral else entry.normal_bitmap).set(read.id)
    return index


# --------------------------------------------------------------------------
# Merge


def merge_indexes(a: CandidateIndex, b: CandidateIndex) -> CandidateIndex:
    """Union candidate maps (summing counts, OR-ing bitmaps), append read
    stores with (origin, id) de-duplication. Inputs are consumed."""
    if a.k != b.k:
        raise StageError(f"cannot merge indexes with k={a.k} and k={b.k}")
    out = CandidateIndex(a.k)
    out.candidates = a.candidates
    for code, entry in b.candidates.items():
        mine = out.candidates.get(code)
        if mine is None:
            out.candidates[code] = entry
        else:
            mine.n_count += entry.n_count
            mine.t_count += entry.t_count
            mine.normal_bitmap.or_with(entry.normal_bitmap)
            mine.tumoral_bitmap.or_with(entry.tumoral_bitmap)
    out.read_store = a.read_store
    out._stored = a._stored
    for origin, rid, bases in b.read_store:
        if (origin, rid) not in out._stored:
            out._stored.add((origin, rid))
            out.read_store.append((origin, rid, bases))
    return out


# --------------------------------------------------------------------------
# Group


@dataclass
class GroupResult:
    seed: tuple[Origin, int]
    members: set[tuple[Origin, int]]
    shared_kmers: set[int]


def group(index: CandidateIndex, min_candidates: int) -> list[GroupResult]:
    """Seed on tumoral reads holding >= min_candidates candidate k-mers
    (ascending id); a group is every read sharing one of the seed's k-mers."""
    if min_candidates < 1:
        raise ValueError("min_candidates must be >= 1")
    candidates = index.candidates
    tumoral_reads = sorted(
        (rid, bases)
        for origin, rid, bases in index.read_store
        if origin is Origin.TUMORAL
    )
    results = []
    for rid, bases in tumoral_reads:
        codes = {c for c in canonical_codes(bases, index.k) if c in candidates}
        if len(codes) < min_candidates:
            continue
        members: set[tuple[Origin, int]] = set()
        for code in codes:
            entry = candidates[code]
            members.update((Origin.NORMAL, i) for i in entry.normal_bitmap)
            members.update((Origin.TUMORAL, i) for i in entry.tumoral_bitmap)
        members.add((Origin.TUMORAL, rid))
        results.append(GroupResult((Origin.TUMORAL, rid), members, codes))
    return results


def groups_to_bytes(groups: list[GroupResult]) -> bytes:
    """Canonical serialization of group results."""
    body = bytearray()
    body += struct.pack("<Q", len(groups))
    for g in groups:
        body += struct.pack("<BQ", 1 if g.seed[0] is Origin.TUMORAL else 0, g.seed[1])
        members = sorted((o is Origin.TUMORAL, i) for o, i in g.members)
        body += struct.pack("<I", len(members))
        for t, i in members:
            body += struct.pack("<BQ", int(t), i)
        codes = sorted(g.shared_kmers)
        body += struct.pack("<I", len(codes))
        for c in codes:
            body += struct.pack("<Q", c)
    return b"KFGRPv1\x00" + bytes(body) + struct.pack("<I", zlib.crc32(bytes(body)))


def groups_from_bytes(data: bytes) -> list[GroupResult]:
    if data[:8] != b"KFGRPv1\x00":
        raise StageError("bad group magic")
    body = data[8:-4]
    (crc,) = struct.unpack_from("<I", data, len(data) - 4)
    if zlib.crc32(body) != crc:
        raise StageError("group checksum mismatch")
    (n_groups,) = struct.unpack_from("<Q", body)
    pos = 8
    out = []
    for _ in range(n_groups):
        t, rid = struct.unpack_from("<BQ", body, pos)
        pos += 9
        seed = (Origin.TUMORAL if t else Origin.NORMAL, rid)
        (n_members,) = struct.unpack_from("<I", body, pos)
        pos += 4
        members = set()
        for _ in range(n_members):
            mt, mid = struct.unpack_from("<BQ", body, pos)
            pos += 9
            members.add((Origin.TUMORAL if mt else Origin.NORMAL, mid))
        (n_codes,) = struct.unpack_from("<I", body, pos)
        pos += 4
        codes = set()
        for _ in range(n_codes):
            (c,) = struct.unpack_from("<Q", body, pos)
            pos += 8
            codes.add(c)
        out.append(GroupResult(seed, members, codes))
    return out
