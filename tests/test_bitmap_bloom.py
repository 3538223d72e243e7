"""Read-set bitmap and bloom-filter primitives."""

import random
import sys
from array import array

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from kmerfab import bloom
from kmerfab.bloom import MAX_HASHES, BloomFilter, blocked_fp, optimal_bits
from kmerfab.stages import PRUNE_FP, ids_to_bitmap
from conftest import tandem_repeat_keys
from oracle import bitmap_ids, blocked_fp_reference, mix64, patterns_reference


def test_bitmap_set_test_iterate():
    bitmap = ids_to_bitmap([1000, 0, 64, 3])
    assert len(bitmap) == 126 and bitmap[0] == 0b1001 and bitmap[125] == 1
    assert bitmap_ids(bitmap) == [0, 3, 64, 1000]


def test_bitmap_canonical_bytes():
    # the last byte is the largest id's, so equal id sets give equal bytes
    assert ids_to_bitmap([3]) == ids_to_bitmap([3, 3]) == b"\x08"
    assert ids_to_bitmap([8]) == b"\x00\x01"
    assert ids_to_bitmap([]) == b"" and bitmap_ids(b"") == []
    assert bitmap_ids(b"\x08" + b"\x00" * 50) == [3]


def test_bitmap_random_against_set():
    rng = random.Random(3)
    ids = [rng.randrange(0, 5000) for _ in range(2000)]
    assert bitmap_ids(ids_to_bitmap(ids)) == sorted(set(ids))


@given(st.lists(st.integers(0, 5000), max_size=60))
@example([])
@example([7, 8])
def test_bitmap_round_trips(ids):
    bitmap = ids_to_bitmap(ids)
    assert bitmap_ids(bitmap) == sorted(set(ids))
    assert len(bitmap) == (max(ids) // 8 + 1 if ids else 0)  # trimmed after the last id's byte


def test_bloom_sizing_formulas():
    m = optimal_bits(10_000, 0.01)
    assert m == int(-10_000 * __import__("math").log(0.01) / __import__("math").log(2) ** 2)
    # the fewest words at which some k predicts the target: one word fewer misses it
    bf = BloomFilter.with_capacity(10_000, 0.01)
    words = bf.n_bits // 64
    assert bf.n_bits % 64 == 0 and bf.n_bits >= m
    assert blocked_fp(10_000 / words, bf.n_hashes) <= 0.01
    assert min(blocked_fp(10_000 / (words - 1), k) for k in range(1, MAX_HASHES + 1)) > 0.01
    # at a load of 1/256 each added draw lowers the rate, so the search takes the cap
    assert bloom._best_hashes(1, 256, 1.0) == MAX_HASHES


def test_bloom_no_false_negatives():
    bf = BloomFilter.with_capacity(5000, 0.01)
    rng = random.Random(9)
    items = [rng.randrange(0, 1 << 62) for _ in range(5000)]
    for x in items:
        bf.add(x)
    assert all(x in bf for x in items)


def test_bloom_fp_rate_near_target():
    target = 0.01
    n = 20_000
    bf = BloomFilter.with_capacity(n, target)
    rng = random.Random(13)
    inserted = set()
    while len(inserted) < n:
        inserted.add(rng.randrange(0, 1 << 62))
    for x in inserted:
        bf.add(x)
    probes = 0
    hits = 0
    while probes < 50_000:
        x = rng.randrange(0, 1 << 62)
        if x in inserted:
            continue
        probes += 1
        hits += x in bf
    assert hits / probes <= 1.5 * target


def random_keys(rng):
    """Uniform 62-bit keys."""
    while True:
        yield rng.randrange(0, 1 << 62)


def measured_fp(target, keys, n=20_000):
    """The rate at which a filter sized for n keys at `target`, holding the
    first n distinct keys of `keys`, answers yes for its later distinct keys."""
    bf = BloomFilter.with_capacity(n, target)
    seen = set()
    while len(seen) < n:
        seen.add(next(keys))
    for x in seen:
        bf.add(x)
    probes = hits = 0
    while probes < max(50_000, 200 / target):
        x = next(keys)
        if x in seen:
            continue
        seen.add(x)
        probes += 1
        hits += x in bf
    return hits / probes


@pytest.mark.parametrize("target", [0.05, 0.01, 0.001])
def test_with_capacity_meets_its_target(target):
    assert measured_fp(target, random_keys(random.Random(13))) <= 1.5 * target


def test_with_capacity_meets_its_target_on_low_complexity_reads():
    target = 0.01
    assert measured_fp(target, tandem_repeat_keys(random.Random(17))) <= 1.5 * target


@pytest.mark.parametrize("target", PRUNE_FP)  # the ends of the range run accepts
def test_with_capacity_quick_and_bounded_at_the_range_ends(target, monkeypatch):
    n = 100_000
    calls = []
    best_hashes = bloom._best_hashes
    monkeypatch.setattr(bloom, "_best_hashes", lambda *a: calls.append(a) or best_hashes(*a))
    bf = BloomFilter.with_capacity(n, target)
    assert optimal_bits(n, target) <= bf.n_bits <= 6 * optimal_bits(n, target)
    # the search's cost: the first check, one per doubling (at most 3 within
    # 6x), one per bisection step over at most 4x the starting words, the last
    words = -(-optimal_bits(n, target) // 64)
    assert calls[0][1] == words  # the search starts at the standard filter's size
    assert len(calls) <= 1 + 3 + (4 * words).bit_length() + 1
    assert blocked_fp(n / (bf.n_bits // 64), bf.n_hashes) <= target


def test_blocked_fp_equals_the_uncached_formula():
    """The per-k terms are cached; the rate is still the formula's, to the bit."""
    rng = random.Random(29)
    loads = [0.0, 1e-9, 1e3, *(rng.uniform(0, 40) for _ in range(300)),
             *(10 ** rng.uniform(-9, 3) for _ in range(300))]
    for k in range(1, MAX_HASHES + 1):
        for load in loads:
            assert blocked_fp(load, k) == blocked_fp_reference(load, k), (load, k)


@pytest.mark.parametrize("fp, n_bits, n_hashes", [
    (PRUNE_FP[0], 16_680_512, 12), (0.01, 1_192_960, 5), (PRUNE_FP[1], 141_824, 1),
])
def test_with_capacity_at_the_benchmark_window_count(fp, n_bits, n_hashes):
    """Sizes for the 98,277 windows of the benchmark's input at seed 101."""
    bf = BloomFilter.with_capacity(98_277, fp)
    assert (bf.n_bits, bf.n_hashes) == (n_bits, n_hashes)


@pytest.mark.parametrize("fp", [PRUNE_FP[0], 1e-4, 0.01, 0.05, PRUNE_FP[1]])
@pytest.mark.parametrize("n", [1, 37, 1000, 98_277, 1_000_003])
def test_with_capacity_takes_the_fewest_words_that_fit(n, fp):
    bf = BloomFilter.with_capacity(n, fp)
    words = bf.n_bits // 64
    assert bloom._best_hashes(n, words, fp) == bf.n_hashes
    assert words == 1 or bloom._best_hashes(n, words - 1, fp) is None


def folded_product(code):
    """`BloomFilter.__contains__`'s hash of one code."""
    p = code * bloom._MUM
    return (p & ((1 << 64) - 1)) ^ (p >> 64)


def bswap64(x):
    return int.from_bytes(x.to_bytes(8, "little"), "big")


U64_EDGES = [0, 2**62 - 1, 2**64 - 1]


@pytest.mark.parametrize("wrap", [array, lambda tc, v: memoryview(array(tc, v))],
                         ids=["array", "memoryview"])
@given(n=st.sampled_from([0, 1, 1023, 1024, 1025, 2049]),
       values=st.lists(st.one_of(st.sampled_from(U64_EDGES), st.integers(0, 2**64 - 1)),
                       min_size=1, max_size=40))
@example(n=2049, values=U64_EDGES)
def test_block_hashes_equal_the_per_code_fold(wrap, n, values):
    codes = (values * n)[:n]
    blocks = list(bloom._hashes(wrap("Q", codes)))
    assert [len(b) for b in blocks] == [min(1024, n - i) for i in range(0, n, 1024)]
    assert [h for block in blocks for h in block] == [folded_product(c) for c in codes]


def test_block_hashes_on_a_host_of_the_other_byte_order(monkeypatch):
    """Told the other byte order, `_hashes` swaps its slots in and its
    hashes out: fed the codes' bytes as that host holds them, it yields the
    hashes' bytes as that host holds them."""
    codes = [*U64_EDGES, *(mix64(i) for i in range(2000))]
    monkeypatch.setattr(sys, "byteorder", "big" if sys.byteorder == "little" else "little")
    blocks = bloom._hashes(array("Q", map(bswap64, codes)))
    assert [bswap64(h) for block in blocks for h in block] == list(map(folded_product, codes))


@pytest.mark.parametrize("seed", [0, 4096])
def test_pattern_tables_equal_the_per_entry_loop(seed):
    for bits in range(9):
        assert bloom._patterns(bits, seed) == patterns_reference(bits, seed), bits


def test_bloom_words_are_little_endian():
    """A code's word and mask are fixed on every host; PRUNE_BITMAP_DIGESTS
    hash the words as little-endian u64s."""
    bf = BloomFilter(4 * 64, 6)
    code = 0x1234_5678_9ABC
    bf.add(code)
    word = 1  # (h >> 24) % 4, h the folded product of code and bloom._MUM
    mask = 0x214000010040  # this code's 6 draws from the pattern tables, two on one bit
    assert list(bf._words) == [0] * word + [mask] + [0] * (3 - word)
    assert code in bf
