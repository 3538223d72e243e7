"""Blocked bloom filter over 64-bit k-mer codes.

Each code sets and tests bits of one 64-bit word: one hash picks the word
and a k-bit mask, and a test is `word & mask == mask` (Putze, Sanders and
Singler, "Cache-, Hash- and Space-Efficient Bloom Filters", WEA 2007). The
hash is wyhash's folded product ("mum"), the low XOR the high half of the
code times an odd constant: under half a splitmix64 finalizer's cost, and on
target on short tandem repeats, where the high half alone is not. The mask
is the OR of two pattern-table entries, ceil(k/2) bits from `lo` and
floor(k/2) from `hi`, so two keys in one word share a whole mask about once
in 2^24 rather than once in 4,096. Blocking costs bits: `with_capacity`
sizes the word count from the blocked false-positive formula, not from the
standard one.

Bulk hashing is SWAR: one big-int operation acts on every 128-bit slot of
an int. `_hashes` folds 1,024 codes per multiply for `add_or_promote`, and
`_patterns` builds a table in one splitmix64 run over its 4,096 inputs. The
slots are little-endian words, swapped on a big-endian host, so hashes and
masks are the same on every platform.
"""

from __future__ import annotations

import math
import sys
from array import array
from functools import cache
from operator import or_
from typing import Iterator, Sequence

from .kmers import _MASK64

MAX_HASHES = 16  # mask bits: lo and hi hold at most 8 draws, within a u64's ten 6-bit chunks
_BLOCK = 1024  # codes per multiply in _hashes: 16 KiB of slots, so memory stays flat
_TABLE = 4096  # entries per pattern table, indexed by 12 bits of the hash
_MUM = 0xA0761D6478BD642F  # wyhash's first prime; not kmers._HASH_MULT, which partitions codes


def optimal_bits(n: int, fp: float) -> int:
    """m = -n ln p / (ln 2)^2 for n >= 1 keys and p in (0, 1), floored at 64
    bits."""
    return max(64, int(-n * math.log(fp) / (math.log(2) ** 2)))


def blocked_fp(load: float, k: int) -> float:
    """Predicted false-positive rate at `load` keys per word, each key's mask
    k independent draws of a bit: sum over i of Pois(i; load) * P(a query's
    draws all land on bits that i keys' i*k draws set).

    A query with j distinct bits finds them all set with chance
    sum_l (-1)^l C(j, l) (1 - l/64)^(i k) (inclusion-exclusion), and the
    Poisson sum over i of each term is exp(-load (1 - (1 - l/64)^k)). The
    query's own repeated draws and the spread of the set-bit count both
    raise the rate above (1 - (63/64)^(i k))^k, by ~7 % at k = 6."""
    return sum(c * math.exp(-load * e) for c, e in _fp_terms(k))


@cache
def _fp_terms(k: int) -> tuple[tuple[float, float], ...]:
    """`blocked_fp`'s load-free factors per l = 0..k: the signed coefficient
    (-1)^l sum_j P(j distinct bits) C(j, l), and 1 - (1 - l/64)^k."""
    distinct = [1.0] + [0.0] * k  # P(the query's k draws hit j distinct bits)
    for _ in range(k):
        distinct = [distinct[j] * j / 64 + (distinct[j - 1] * (65 - j) / 64 if j else 0.0)
                    for j in range(k + 1)]
    return tuple(((-1) ** l * sum(p * math.comb(j, l) for j, p in enumerate(distinct)),
                  1 - (1 - l / 64) ** k) for l in range(k + 1))


def _best_hashes(n: int, n_words: int, fp: float) -> int | None:
    """The k <= MAX_HASHES with the lowest predicted rate at n keys over
    n_words words, if that rate is at most fp."""
    load = n / n_words
    rate, k = min((blocked_fp(load, k), k) for k in range(1, MAX_HASHES + 1))
    return k if rate <= fp else None


def _slots(values: Sequence[int]) -> int:
    """u64 `values` as one int, value i in bits 128i to 128i + 63 (its slot)."""
    slots = array("Q", bytes(16 * len(values)))
    slots[::2] = array("Q", values)
    if sys.byteorder == "big":
        slots.byteswap()
    return int.from_bytes(slots, "little")


def _low_words(x: int, n: int) -> array:
    """The low 64 bits of each of the n 128-bit slots of x < 2**(128 n)."""
    words = array("Q", x.to_bytes(16 * n, "little"))[::2]
    if sys.byteorder == "big":
        words.byteswap()
    return words


def _hashes(codes: Sequence[int]) -> Iterator[array]:
    """Each code's folded product, `(p & _MASK64) ^ (p >> 64)` for
    p = code * _MUM, as `array('Q')` blocks of up to _BLOCK codes.

    A block's codes sit in the 128-bit slots of one int, so one multiply
    forms every product. Each product is under 2**128, so none carries into
    the next slot, and one xor-shift folds them all (SWAR, Fisher and Dietz,
    LCPC 1998)."""
    for start in range(0, len(codes), _BLOCK):
        block = codes[start:start + _BLOCK]
        p = _slots(block) * _MUM
        yield _low_words(p ^ (p >> 64), len(block))


@cache
def _patterns(bits: int, seed: int) -> tuple[int, ...]:
    """4,096 masks, each the OR of `bits` independent draws of a bit, taken
    from the 6-bit chunks of splitmix64's finalizer of seed + i.

    The finalizer runs on all 4,096 inputs at once, one per 128-bit slot of
    one int: each add, xor-shift and multiply acts on the whole int, and
    masking every slot to its low 64 bits before the next xor-shift drops
    what spilled over (a product's high half, a shift from the slot above)."""
    ones = _slots([1] * _TABLE)
    low = ones * _MASK64
    x = (_slots(range(seed, seed + _TABLE)) + ones * 0x9E3779B97F4A7C15) & low
    x = ((x ^ (x >> 30)) & low) * 0xBF58476D1CE4E5B9 & low
    x = ((x ^ (x >> 27)) & low) * 0x94D049BB133111EB & low
    x ^= x >> 31
    bit, six = [1 << i for i in range(64)], ones * 63
    masks = [0] * _TABLE
    for draw in range(bits):
        chunk = _low_words((x >> 6 * draw) & six, _TABLE)
        masks = list(map(or_, masks, map(bit.__getitem__, chunk)))
    return tuple(masks)


class BloomFilter:
    """Blocked bloom filter keyed by integer codes: n_bits / 64 words, k-bit masks.

    Code c lives in word `(h >> 24) % n_words` under mask
    `lo[h & 4095] | hi[(h >> 12) & 4095]`, h = (p & _MASK64) ^ (p >> 64) for
    p = c * _MUM; the tables come from splitmix64's finalizer. The arithmetic
    is fixed, so membership is reproducible across runs and platforms.
    """

    __slots__ = ("n_bits", "n_hashes", "_words", "_lo", "_hi")

    def __init__(self, n_bits: int, n_hashes: int):
        """n_bits a positive multiple of 64, 1 <= n_hashes <= MAX_HASHES."""
        self.n_bits = n_bits
        self.n_hashes = n_hashes
        self._words = array("Q", bytes(n_bits // 8))
        self._lo = _patterns((n_hashes + 1) // 2, 0)
        self._hi = _patterns(n_hashes // 2, _TABLE)

    @classmethod
    def with_capacity(cls, expected: int, fp: float) -> "BloomFilter":
        """The fewest words at which some k <= MAX_HASHES predicts a rate of
        at most fp at `expected` keys, searched from optimal_bits(expected, fp)
        up: blocking never needs fewer bits than the standard filter."""
        n = max(1, expected)
        hi = -(-optimal_bits(n, fp) // 64)
        lo = hi - 1  # too few words for any k
        while _best_hashes(n, hi, fp) is None:  # the rate falls as words are added
            lo, hi = hi, 2 * hi
        while hi - lo > 1:  # bisect for the first word count that fits
            mid = (lo + hi) // 2
            if _best_hashes(n, mid, fp) is None:
                lo = mid
            else:
                hi = mid
        return cls(64 * hi, _best_hashes(n, hi, fp))

    def add(self, code: int) -> None:
        h = code * _MUM
        h = (h & _MASK64) ^ (h >> 64)
        words = self._words
        words[(h >> 24) % len(words)] |= self._lo[h & 4095] | self._hi[(h >> 12) & 4095]

    def __contains__(self, code: int) -> bool:
        """The definition of a probe; `stages.count` computes it inline."""
        h = code * _MUM
        h = (h & _MASK64) ^ (h >> 64)
        mask = self._lo[h & 4095] | self._hi[(h >> 12) & 4095]
        words = self._words
        return words[(h >> 24) % len(words)] & mask == mask

    def add_or_promote(self, codes: Sequence[int], repeats: "BloomFilter") -> None:
        """For each code in turn, `repeats.add(c) if c in self else self.add(c)`
        with one hash, taken from `_hashes` a block at a time. `codes` holds
        u64s (an `array('Q')`, a memoryview of one, or a list). `repeats`
        must share n_hashes; it may have fewer words."""
        words, lo, hi, multi = self._words, self._lo, self._hi, repeats._words
        n_words, n_multi = len(words), len(multi)
        for hashes in _hashes(codes):
            for h in hashes:
                mask = lo[h & 4095] | hi[(h >> 12) & 4095]
                i = (h >> 24) % n_words
                word = words[i]
                if word & mask == mask:
                    multi[(h >> 24) % n_multi] |= mask
                else:
                    words[i] = word | mask
