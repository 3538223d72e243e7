"""Read parsing, 2-bit k-mer encoding, canonicalization and partitioning.

A read is its bases, a `str`: its id is its position in its input, and its
origin is which input holds it.

Encoding: A=00, C=01, G=10, T=11, first base in the most significant pair,
so integer order on codes equals alphabetical order on the strings.
"""

from __future__ import annotations

from typing import Iterable, TextIO

_FWD_DIGITS = str.maketrans("ACGT", "0123")  # a base's code as a base-4 digit
_REV_DIGITS = str.maketrans("ACGT", "3210")  # its complement's code
_BLOCK = 256  # windows per int in canonical_codes: a shift costs the int's length
MAX_K = 32

# multiply-shift mixing constant (odd, 64-bit golden ratio)
_HASH_MULT = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1


class ParseError(ValueError):
    """Malformed read input; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def parse_reads(stream: TextIO | Iterable[str]) -> list[str]:
    """The bases of each read of FASTA-like input ('>' header line, then one
    sequence line), in input order; headers are not kept.

    Bases are upper-cased; only A,C,G,T,N are accepted. Raises ParseError
    with the offending line number on malformed input.
    """
    reads: list[str] = []
    allowed = set("ACGTN")
    pending_header = False
    for line_no, raw in enumerate(stream, start=1):
        line = raw.rstrip("\n").rstrip("\r")
        if not line:
            continue
        if line.startswith(">"):
            if pending_header:
                raise ParseError(line_no, "header without sequence line")
            pending_header = True
            continue
        if not pending_header:
            raise ParseError(line_no, "sequence line before any header")
        bases = line.upper()
        bad = set(bases) - allowed
        if bad:
            raise ParseError(line_no, f"illegal character {sorted(bad)[0]!r}")
        reads.append(bases)
        pending_header = False
    if pending_header:
        raise ParseError(line_no, "header without sequence line")
    return reads


def canonical_codes(bases: str, k: int) -> list[int]:
    """Canonical code of every valid k-window, 1 <= k <= MAX_K; the pipeline's hot path.

    Each N-free piece of at most _BLOCK windows is read as one base-4 int
    `f`, and its reverse complement as `r`; window i of its m is
    `(f >> 2(m-1-i)) & mask` forward, `(r >> 2i) & mask` reverse-complemented."""
    out = []
    append = out.append
    mask = (1 << (2 * k)) - 1
    for seg in bases.split("N"):
        for lo in range(0, len(seg) - k + 1, _BLOCK):
            piece = seg[lo:lo + _BLOCK + k - 1]
            m = len(piece) - k + 1
            f = int(piece.translate(_FWD_DIGITS), 4)
            r = int(piece[::-1].translate(_REV_DIGITS), 4)
            top = 2 * (m - 1)
            for i in range(0, 2 * m, 2):
                a = (f >> (top - i)) & mask
                b = (r >> i) & mask
                append(a if a <= b else b)
    return out


def partition_of(code: int, partitions: int) -> int:
    """Partition id of a canonical code: multiply-shift hash modulo P (P >= 1)."""
    h = ((code * _HASH_MULT) & _MASK64) >> 17
    return h % partitions
