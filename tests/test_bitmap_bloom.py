"""Bitmap and bloom-filter primitives."""

import random

import pytest

from kmerfab.bitmap import Bitmap
from kmerfab.bloom import BloomFilter, optimal_bits, optimal_hashes


def test_bitmap_set_test_iterate():
    bm = Bitmap()
    for i in (0, 3, 64, 1000):
        bm.set(i)
    assert list(bm) == [0, 3, 64, 1000]


def test_bitmap_or_merge():
    a, b = Bitmap(), Bitmap()
    a.set(1)
    a.set(900)
    b.set(2)
    b.set(900)
    a.or_with(b)
    assert list(a) == [1, 2, 900]


def test_bitmap_canonical_bytes():
    a = Bitmap()
    a.set(3)
    b = Bitmap(b"\x08" + b"\x00" * 50)  # same bit, trailing zeros
    assert a.to_bytes() == b.to_bytes()
    assert a == b
    assert Bitmap.from_bytes(a.to_bytes()) == a


def test_bitmap_random_against_set():
    rng = random.Random(3)
    bm = Bitmap()
    ref = set()
    for _ in range(2000):
        i = rng.randrange(0, 5000)
        bm.set(i)
        ref.add(i)
    assert list(bm) == sorted(ref)


def test_bloom_sizing_formulas():
    m = optimal_bits(10_000, 0.01)
    assert m == int(-10_000 * __import__("math").log(0.01) / __import__("math").log(2) ** 2)
    assert optimal_hashes(m, 10_000) == 7


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


def test_bloom_serialization_roundtrip():
    bf = BloomFilter.with_capacity(100, 0.05)
    for x in (1, 5, 99, 12345):
        bf.add(x)
    data = bf.to_bytes()
    assert len(data) == 12 + (bf.n_bits + 7) // 8  # <QI n_bits, n_hashes, then the bitmap
    clone = BloomFilter.from_bytes(data)
    assert (clone.n_bits, clone.n_hashes) == (bf.n_bits, bf.n_hashes)
    assert all(x in clone for x in (1, 5, 99, 12345))
    assert clone.to_bytes() == data
    for bad in (data[:-1], data + b"\x00"):
        with pytest.raises(ValueError):
            BloomFilter.from_bytes(bad)
