"""Dense bitmap over read ids: set, OR-merge, iterate, serialize, and
convert to and from an int (bit i of the int is id i)."""

from __future__ import annotations

from typing import Iterator


class Bitmap:
    """Byte-backed bitset. Canonical form trims trailing zero bytes, so two
    bitmaps with the same set bits serialize identically."""

    __slots__ = ("_bytes",)

    def __init__(self, data: bytes | bytearray = b""):
        self._bytes = bytearray(data)

    def set(self, idx: int) -> None:
        if idx < 0:
            raise IndexError(idx)
        byte = idx >> 3
        if byte >= len(self._bytes):
            self._bytes.extend(b"\x00" * (byte + 1 - len(self._bytes)))
        self._bytes[byte] |= 1 << (idx & 7)

    def or_with(self, other: "Bitmap") -> None:
        ob = other._bytes
        if len(ob) > len(self._bytes):
            self._bytes.extend(b"\x00" * (len(ob) - len(self._bytes)))
        for i, b in enumerate(ob):
            self._bytes[i] |= b

    def __iter__(self) -> Iterator[int]:
        for i, b in enumerate(self._bytes):
            if not b:
                continue
            base = i << 3
            for bit in range(8):
                if b & (1 << bit):
                    yield base + bit

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Bitmap):
            return NotImplemented
        return self.to_bytes() == other.to_bytes()

    def to_bytes(self) -> bytes:
        data = bytes(self._bytes)
        return data.rstrip(b"\x00")

    @classmethod
    def from_bytes(cls, data: bytes) -> "Bitmap":
        return cls(data)

    def to_int(self) -> int:
        return int.from_bytes(self._bytes, "little")

    @classmethod
    def from_int(cls, bits: int) -> "Bitmap":
        """The bitmap of `bits`, for a one-byte-scan iteration (a `bits & -bits`
        loop would cost O(members x int size))."""
        return cls(bits.to_bytes((bits.bit_length() + 7) // 8, "little"))
