"""Brute-force reference implementations used as test oracles.

Everything here works on plain strings and sets, independent of the
package's bit-packed structures, so the two sides can disagree. A read is
its bases, and its id its position in its list: `normal` or `tumoral`.
"""

import math
import struct
import zlib
from collections import Counter

from kmerfab.stages import CandidateEntry, CandidateIndex, StageError

_COMP = str.maketrans("ACGT", "TGCA")
NORMAL, TUMORAL = 0, 1  # a read's origin: the origin byte of index.bin's reads section


def revcomp_str(s: str) -> str:
    return s.translate(_COMP)[::-1]


def canonical_str(s: str) -> str:
    return min(s, revcomp_str(s))


def code_of(s: str) -> int:
    """Independent string -> code conversion via base-4 digits."""
    return int("".join(str("ACGT".index(c)) for c in s), 4)


def kmer_of(code: int, k: int) -> str:
    """Independent code -> string conversion, base-4 digit by digit: the
    inverse of code_of on strings of length k."""
    digits = []
    for _ in range(k):
        code, digit = divmod(code, 4)
        digits.append("ACGT"[digit])
    return "".join(reversed(digits))


def windows_str(bases: str, k: int) -> list[str]:
    return [
        bases[i:i + k]
        for i in range(len(bases) - k + 1)
        if "N" not in bases[i:i + k]
    ]


def canonical_windows(bases: str, k: int) -> list[str]:
    return [canonical_str(w) for w in windows_str(bases, k)]


def exact_counts(normal, tumoral, k: int) -> dict[str, tuple[int, int]]:
    """Exact per-canonical-kmer (n_count, t_count) by direct enumeration."""
    n_counter: Counter = Counter()
    t_counter: Counter = Counter()
    for bases in normal:
        n_counter.update(canonical_windows(bases, k))
    for bases in tumoral:
        t_counter.update(canonical_windows(bases, k))
    out = {}
    for kmer in set(n_counter) | set(t_counter):
        out[kmer] = (n_counter.get(kmer, 0), t_counter.get(kmer, 0))
    return out


def candidate_kmers(counts: dict[str, tuple[int, int]], tau_t: int, tau_n: int) -> set[str]:
    return {s for s, (n, t) in counts.items() if t >= tau_t and n <= tau_n}


def candidate_view(normal, tumoral, k, tau_t, tau_n):
    """Expected filter output: per-candidate counts and member-id sets plus
    the set of stored reads, each as (origin, id)."""
    counts = exact_counts(normal, tumoral, k)
    cands = candidate_kmers(counts, tau_t, tau_n)
    per_kmer = {
        s: {"n": counts[s][0], "t": counts[s][1], "normal_ids": set(), "tumoral_ids": set()}
        for s in cands
    }
    stored = set()
    for origin, key, reads in ((NORMAL, "normal_ids", normal), (TUMORAL, "tumoral_ids", tumoral)):
        for rid, bases in enumerate(reads):
            hit = cands & set(canonical_windows(bases, k))
            if not hit:
                continue
            stored.add((origin, rid))
            for s in hit:
                per_kmer[s][key].add(rid)
    return per_kmer, stored


def expected_groups(normal, tumoral, k, tau_t, tau_n, min_candidates):
    """Group results by direct pairwise k-mer-sharing scan: (seed id, normal
    member ids, tumoral member ids, the seed's candidate k-mers) per group,
    by ascending seed id, the member ids ascending."""
    per_kmer, stored = candidate_view(normal, tumoral, k, tau_t, tau_n)
    cands = set(per_kmer)
    reads = (normal, tumoral)
    groups = []
    for origin, rid in sorted(stored):
        if origin != TUMORAL:
            continue
        seed_kmers = cands & set(canonical_windows(tumoral[rid], k))
        if len(seed_kmers) < min_candidates:
            continue
        members = {(TUMORAL, rid)}
        for other_origin, other_id in stored:
            if seed_kmers & set(canonical_windows(reads[other_origin][other_id], k)):
                members.add((other_origin, other_id))
        groups.append((rid, sorted(i for o, i in members if o == NORMAL),
                       sorted(i for o, i in members if o == TUMORAL), seed_kmers))
    return groups


def read_store(normal, tumoral, stored):
    """What index.bin's reads section holds for the stored reads `stored`:
    ((origin, id), bases) per read, normal reads then tumoral, each by id."""
    reads = (normal, tumoral)
    return [((origin, rid), reads[origin][rid]) for origin, rid in sorted(stored)]


def index_reads(data: bytes) -> list:
    """The reads section of a serialized index, in stored order: ((origin,
    id), bases) per read. It steps over the candidate records by their
    stated bitmap lengths and decodes none of them, and it checks that the
    section ends at the 4-byte CRC."""
    _, n_candidates, n_reads = struct.unpack_from("<IQQ", data, 8)
    pos = 8 + 20
    for _ in range(n_candidates):
        nb_len, tb_len = struct.unpack_from("<II", data, pos + 16)
        pos += 24 + nb_len + tb_len
    reads = []
    for _ in range(n_reads):
        origin, rid, length = struct.unpack_from("<BQI", data, pos)
        pos += 13
        reads.append(((origin, rid), data[pos:pos + length].decode("ascii")))
        pos += length
    assert pos == len(data) - 4, (pos, len(data))
    return reads


def bitmap_ids(bitmap: bytes) -> list[int]:
    """The set bits of a little-endian bitmap, ascending: the inverse of
    `stages.ids_to_bitmap` on ascending ids, bit by bit."""
    ids = []
    for i, byte in enumerate(bitmap):
        if byte:
            base = i << 3
            for bit in range(8):
                if byte >> bit & 1:
                    ids.append(base + bit)
    return ids


def index_from_bytes(data: bytes) -> CandidateIndex:
    """The reference reader of index.bin (`KFIDXv1`): the candidates of
    `CandidateIndex.to_bytes`' output, each read set decoded from its bitmap.
    The reads section is checked by the CRC, not decoded (`index_reads` does)."""
    if data[:8] != b"KFIDXv1\x00":
        raise StageError("bad index magic")
    body = memoryview(data)[8:-4]
    (crc,) = struct.unpack_from("<I", data, len(data) - 4)
    if zlib.crc32(body) != crc:
        raise StageError("index checksum mismatch")
    k, n_cand, _ = struct.unpack_from("<IQQ", body)
    idx = CandidateIndex(k)
    pos = struct.calcsize("<IQQ")
    for _ in range(n_cand):
        code, n, t, nb_len, tb_len = struct.unpack_from("<QIIII", body, pos)
        pos += struct.calcsize("<QIIII")
        nb = bitmap_ids(body[pos:pos + nb_len])
        pos += nb_len
        tb = bitmap_ids(body[pos:pos + tb_len])
        pos += tb_len
        idx.candidates[code] = CandidateEntry(n, t, nb, tb)
    return idx


def run_payload(rows, record: str = "<QII") -> bytes:
    """The reference spill-run payload of `rows`: one `struct.pack(record)`
    per row, in sorted order, cut into its 16 byte planes (plane j holds
    byte j of every record), the all-zero planes dropped, behind a `<QH`
    header of the record count and the mask of the planes kept."""
    records = [struct.pack(record, *row) for row in sorted(rows)]
    planes = [bytes(rec[j] for rec in records) for j in range(16)]
    kept = [j for j in range(16) if any(planes[j])]
    return (struct.pack("<QH", len(records), sum(1 << j for j in kept))
            + b"".join(planes[j] for j in kept))


def blocked_fp_reference(load: float, k: int) -> float:
    """The blocked false-positive formula as one expression, computed from
    scratch on every call: what `bloom.blocked_fp` computes from its cached
    per-k terms, in the same float operations."""
    distinct = [1.0] + [0.0] * k  # P(the query's k draws hit j distinct bits)
    for _ in range(k):
        distinct = [distinct[j] * j / 64 + (distinct[j - 1] * (65 - j) / 64 if j else 0.0)
                    for j in range(k + 1)]
    return sum((-1) ** l * sum(p * math.comb(j, l) for j, p in enumerate(distinct))
               * math.exp(-load * (1 - (1 - l / 64) ** k)) for l in range(k + 1))


def spans(comp, start: int, length: int):
    """(member, member offset, bytes) per stripe of [start, start + length) on
    a composition, in address order: stripe k lives on member k % m at offset
    (k // m) * s. The stripe-by-stripe walk that `ComposedDevice.member_bytes`
    computes per member in closed form."""
    s = comp.stripe_size
    m = len(comp.members)
    addr = start
    left = length
    while left > 0:
        stripe, within = divmod(addr, s)
        take = min(s - within, left)
        yield (comp.members[stripe % m], (stripe // m) * s + within, take)
        addr += take
        left -= take


_MASK64 = (1 << 64) - 1


def mix64(x: int) -> int:
    """splitmix64 finalizer; deterministic 64-bit mix."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def patterns_reference(bits: int, seed: int) -> tuple[int, ...]:
    """The bloom filter's 4,096 pattern masks, one `mix64` call per entry:
    mask i is the OR of bit `(h >> 6j) & 63` for j < bits, h = mix64(seed + i).
    `bloom._patterns` computes all of them in one int."""
    out = []
    for i in range(seed, seed + 4096):
        h = mix64(i)
        mask = 0
        for _ in range(bits):
            mask |= 1 << (h & 63)
            h >>= 6
        out.append(mask)
    return tuple(out)
