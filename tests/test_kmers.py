"""k-mer encoding, parsing, canonicalization, partitioning."""

import importlib.util
import io
import random
from collections import Counter
from pathlib import Path

import pytest

from kmerfab.kmers import (
    ParseError,
    canonical_codes,
    parse_reads,
    partition_of,
)
from oracle import canonical_str, canonical_windows, code_of, kmer_of, windows_str


def test_parse_single_record():
    assert parse_reads(io.StringIO(">r0\nACGT\n")) == ["ACGT"]


def test_parse_case_folding_and_ids():
    # a read's id is its position: the list keeps input order, whatever the headers say
    reads = parse_reads(io.StringIO(">b\nacgtn\n>a\nTTTT\n"))
    assert reads == ["ACGTN", "TTTT"]


def test_parse_strips_a_carriage_return():
    # newline="" keeps "\r\n" as a library caller's stream may: the CLI's text mode does not
    assert parse_reads(io.StringIO(">r\r\nACGT\r\n", newline="")) == ["ACGT"]


def test_parse_skips_blank_lines():
    assert parse_reads(io.StringIO("\n>a\n\nACGT\n\n>b\nTT\n\n")) == ["ACGT", "TT"]
    assert parse_reads(io.StringIO("")) == []


def test_parse_illegal_character_line_number():
    with pytest.raises(ParseError) as exc:
        parse_reads(io.StringIO(">x\nAC1T\n"))
    assert exc.value.line_no == 2
    assert str(exc.value).startswith("line 2: ")


def test_parse_sequence_before_header():
    with pytest.raises(ParseError) as exc:
        parse_reads(io.StringIO("ACGT\n>x\nACGT\n"))
    assert exc.value.line_no == 1


def test_parse_header_without_sequence():
    with pytest.raises(ParseError):
        parse_reads(io.StringIO(">x\n>y\nACGT\n"))
    with pytest.raises(ParseError):
        parse_reads(io.StringIO(">only\n"))


def test_encode_decode_roundtrip():
    assert code_of("ACGT") == 0b00011011
    assert kmer_of(code_of("GATTACA"), 7) == "GATTACA"
    assert kmer_of(0, 3) == "AAA"


def test_short_read_yields_nothing():
    assert canonical_codes("ACG", 4) == []


def test_kmers_match_string_slicing_oracle():
    rng = random.Random(23)
    k = 15
    for _ in range(200):
        n = rng.randint(1, 120)
        bases = "".join(rng.choice("ACGTNACGT") for _ in range(n))
        got = [kmer_of(code, k) for code in canonical_codes(bases, k)]
        assert Counter(got) == Counter(canonical_windows(bases, k))
        assert len(got) == len(windows_str(bases, k))


def ordered_oracle(bases, k):
    """Each valid window's canonical code, left to right, from the string oracle."""
    return [code_of(w) for w in canonical_windows(bases, k)]


def test_kmers_match_oracle_in_window_order():
    rng = random.Random(43)
    for k in range(1, 33):
        for alphabet in ("ACGT", "ACGTNACGT", "ACGTNN"):
            for _ in range(25):
                bases = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 3 * k + 20)))
                assert canonical_codes(bases, k) == ordered_oracle(bases, k), (bases, k)
        for bases in ("A" * k, "T" * k, "N" + "G" * k + "N", "C" * (k - 1) + "N" + "C" * k):
            assert canonical_codes(bases, k) == ordered_oracle(bases, k), (bases, k)
        # reads long enough to span several of canonical_codes' 256-window pieces
        for n in (255 + k, 256 + k, 257 + k, 512 + k, rng.randint(600, 1300)):
            bases = "".join(rng.choice("ACGTACGTACGTACGTACGTN") for _ in range(n))
            for read in (bases.replace("N", "A"), bases):
                assert canonical_codes(read, k) == ordered_oracle(read, k), (read, k)


def load_benchmark_inputs():
    """perfbench/inputs.py, the generator of the benchmark's seeded reads."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("benchmark_inputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_kmers_of_the_seed_101_benchmark_reads_in_window_order():
    inputs = load_benchmark_inputs()
    normal, tumoral = inputs.make_reads(101)
    assert inputs.K == 31 and any("N" in bases for bases in normal + tumoral)
    for bases in normal + tumoral:
        assert canonical_codes(bases, 31) == ordered_oracle(bases, 31), bases


def test_code_matches_independent_base4_conversion():
    rng = random.Random(29)
    for _ in range(200):
        s = "".join(rng.choice("ACGT") for _ in range(rng.randint(1, 20)))
        assert canonical_codes(s, len(s)) == [code_of(canonical_str(s))]
        assert kmer_of(code_of(s), len(s)) == s


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
