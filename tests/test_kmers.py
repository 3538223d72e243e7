"""k-mer encoding, parsing, canonicalization, partitioning."""

import io
import random
from collections import Counter

import pytest

from kmerfab.kmers import (
    Origin,
    ParseError,
    canonical_codes,
    decode,
    encode,
    parse_reads,
    partition_of,
)
from oracle import canonical_str, canonical_windows, code_of, windows_str


def test_parse_single_record():
    reads = parse_reads(io.StringIO(">r0\nACGT\n"), Origin.NORMAL)
    assert len(reads) == 1
    assert reads[0].bases == "ACGT"
    assert reads[0].id == 0
    assert reads[0].length == 4


def test_parse_case_folding_and_ids():
    reads = parse_reads(io.StringIO(">a\nacgtn\n>b\nTTTT\n"), Origin.TUMORAL)
    assert [r.bases for r in reads] == ["ACGTN", "TTTT"]
    assert [r.id for r in reads] == [0, 1]
    assert all(r.origin is Origin.TUMORAL for r in reads)


def test_parse_illegal_character_line_number():
    with pytest.raises(ParseError) as exc:
        parse_reads(io.StringIO(">x\nAC1T\n"), Origin.NORMAL)
    assert exc.value.line_no == 2


def test_parse_sequence_before_header():
    with pytest.raises(ParseError) as exc:
        parse_reads(io.StringIO("ACGT\n>x\nACGT\n"), Origin.NORMAL)
    assert exc.value.line_no == 1


def test_parse_header_without_sequence():
    with pytest.raises(ParseError):
        parse_reads(io.StringIO(">x\n>y\nACGT\n"), Origin.NORMAL)
    with pytest.raises(ParseError):
        parse_reads(io.StringIO(">only\n"), Origin.NORMAL)


def test_encode_decode_roundtrip():
    assert encode("ACGT") == 0b00011011
    assert decode(encode("GATTACA"), 7) == "GATTACA"


def test_short_read_yields_nothing():
    assert canonical_codes("ACG", 4) == []


def test_kmers_match_string_slicing_oracle():
    rng = random.Random(23)
    k = 15
    for _ in range(200):
        n = rng.randint(1, 120)
        bases = "".join(rng.choice("ACGTNACGT") for _ in range(n))
        got = [decode(code, k) for code in canonical_codes(bases, k)]
        assert Counter(got) == Counter(canonical_windows(bases, k))
        assert len(got) == len(windows_str(bases, k))


def test_code_matches_independent_base4_conversion():
    rng = random.Random(29)
    for _ in range(200):
        s = "".join(rng.choice("ACGT") for _ in range(rng.randint(1, 20)))
        assert encode(s) == code_of(s)
        assert decode(encode(canonical_str(s)), len(s)) == canonical_str(s)


def test_partition_single():
    for code in range(100):
        assert partition_of(code, 1) == 0


def test_partition_deterministic_and_in_range():
    rng = random.Random(31)
    for _ in range(500):
        code = rng.randrange(0, 1 << 60)
        p = partition_of(code, 7)
        assert p == partition_of(code, 7)
        assert 0 <= p < 7


def test_partition_uniformity():
    rng = random.Random(37)
    counts = Counter()
    total = 100_000
    seen = set()
    while len(seen) < total:
        code = rng.randrange(0, 1 << 60)
        if code in seen:
            continue
        seen.add(code)
        counts[partition_of(code, 4)] += 1
    for p in range(4):
        assert abs(counts[p] / total - 0.25) <= 0.02


def test_partitions_cover_and_disjoint():
    rng = random.Random(41)
    codes = {rng.randrange(0, 1 << 40) for _ in range(5000)}
    by_part = [set() for _ in range(4)]
    for c in codes:
        by_part[partition_of(c, 4)].add(c)
    assert set().union(*by_part) == codes
    assert sum(len(s) for s in by_part) == len(codes)
