"""Bloom filter over 64-bit k-mer codes with standard m/h sizing."""

from __future__ import annotations

import math
import struct

from .kmers import mix64

_MASK64 = (1 << 64) - 1
_SALT = 0xA5A5A5A5A5A5A5A5
_HEAD = struct.Struct("<QI")  # n_bits u64, n_hashes u32


def optimal_bits(n: int, fp: float) -> int:
    """m = -n ln p / (ln 2)^2 for p in (0, 1), floored at 64 bits."""
    n = max(1, n)
    return max(64, int(-n * math.log(fp) / (math.log(2) ** 2)))


def optimal_hashes(m: int, n: int) -> int:
    """h = (m/n) ln 2, at least 1."""
    return max(1, round(m / max(1, n) * math.log(2)))


class BloomFilter:
    """Plain bloom filter keyed by integer codes.

    Double hashing: h_i = mix(code) + i * mix(code ^ salt), all arithmetic
    fixed so membership is reproducible across runs and platforms.
    """

    __slots__ = ("n_bits", "n_hashes", "_bits")

    def __init__(self, n_bits: int, n_hashes: int):
        self.n_bits = n_bits
        self.n_hashes = n_hashes
        self._bits = bytearray((n_bits + 7) // 8)

    @classmethod
    def with_capacity(cls, expected: int, fp: float) -> "BloomFilter":
        m = optimal_bits(expected, fp)
        return cls(m, optimal_hashes(m, expected))

    def _positions(self, code: int) -> list[int]:
        m = self.n_bits
        h = mix64(code)
        h2 = mix64(code ^ _SALT) | 1
        out = []
        for _ in range(self.n_hashes):
            out.append((h & _MASK64) % m)
            h += h2
        return out

    def add(self, code: int) -> None:
        bits = self._bits
        for pos in self._positions(code):
            bits[pos >> 3] |= 1 << (pos & 7)

    def __contains__(self, code: int) -> bool:
        bits = self._bits
        m = self.n_bits
        h = mix64(code)
        h2 = mix64(code ^ _SALT) | 1
        for _ in range(self.n_hashes):
            pos = (h & _MASK64) % m
            if not bits[pos >> 3] & (1 << (pos & 7)):
                return False
            h += h2
        return True

    def add_or_promote(self, code: int, repeats: "BloomFilter") -> None:
        """Set code's probes in `repeats` if all are already set here, else
        set them here: `repeats.add(code) if code in self else self.add(code)`
        with the probes computed once. Both filters must share n_bits and
        n_hashes."""
        positions = self._positions(code)
        bits = self._bits
        for pos in positions:
            if not bits[pos >> 3] & (1 << (pos & 7)):
                break
        else:
            bits = repeats._bits
        for pos in positions:
            bits[pos >> 3] |= 1 << (pos & 7)

    def to_bytes(self) -> bytes:
        """n_bits and n_hashes, then the bitmap."""
        return _HEAD.pack(self.n_bits, self.n_hashes) + self._bits

    @classmethod
    def from_bytes(cls, data: bytes) -> "BloomFilter":
        n_bits, n_hashes = _HEAD.unpack_from(data)
        if len(data) != _HEAD.size + (n_bits + 7) // 8:
            raise ValueError("bloom payload size mismatch")
        bf = cls(n_bits, n_hashes)
        bf._bits[:] = data[_HEAD.size:]
        return bf
