"""Sequential-vs-random write classification with append-aware stream tracking.

The naive metric counts a write as sequential only when it starts exactly at
the previous write's end. The append-aware metric keeps an LRU set of open
stream tails, so interleaved appenders still classify as sequential.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterable

SECTOR = 512
DEFAULT_STREAM_LIMIT = 64


@dataclass(frozen=True)
class IoRecord:
    time: float
    kind: str  # "write" | "read"
    start: int
    length: int


@dataclass
class SequentialityReport:
    total_writes: int
    naive_sequential: int
    append_aware_sequential: int
    open_stream_limit: int

    @property
    def sequential_naive(self) -> float:
        return self.naive_sequential / self.total_writes if self.total_writes else 0.0

    @property
    def sequential_append_aware(self) -> float:
        return self.append_aware_sequential / self.total_writes if self.total_writes else 0.0


def classify(trace: Iterable[IoRecord], open_stream_limit: int = DEFAULT_STREAM_LIMIT) -> SequentialityReport:
    """Single pass, O(records) time, O(open_stream_limit) state."""
    if open_stream_limit < 1:
        raise ValueError("open_stream_limit must be >= 1")
    tails: OrderedDict[int, None] = OrderedDict()  # tail address, LRU order
    total = 0
    naive = 0
    aware = 0
    prev_end = None
    for rec in trace:
        if rec.kind != "write":
            continue
        total += 1
        end = rec.start + rec.length
        if prev_end is not None and rec.start == prev_end:
            naive += 1
        prev_end = end
        if rec.start in tails:
            aware += 1
            del tails[rec.start]  # the stream advances to a new tail
        tails[end] = None
        tails.move_to_end(end)
        while len(tails) > open_stream_limit:
            tails.popitem(last=False)
    return SequentialityReport(total, naive, aware, open_stream_limit)


def parse_trace_csv(lines: Iterable[str]) -> list[IoRecord]:
    """Store trace format: time_us,kind,start,length (header optional)."""
    out = []
    for line_no, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("time_us"):
            continue
        parts = line.split(",")
        if len(parts) != 4:
            raise ValueError(f"trace line {line_no}: expected 4 fields, got {len(parts)}")
        t, kind, start, length = parts
        out.append(IoRecord(float(t) / 1e6, kind.strip(), int(start), int(length)))
    return out


def parse_blktrace(lines: Iterable[str]) -> list[IoRecord]:
    """blktrace-like text: time,action,start_sector,sectors (512-byte sectors).

    Actions containing W map to writes, R to reads; others are skipped.
    """
    out = []
    for line_no, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.replace(",", " ").split()
        if len(parts) < 4:
            raise ValueError(f"blktrace line {line_no}: expected 4 fields")
        t, action, sector, sectors = parts[:4]
        action = action.upper()
        if "W" in action:
            kind = "write"
        elif "R" in action:
            kind = "read"
        else:
            continue
        out.append(IoRecord(float(t), kind, int(sector) * SECTOR, int(sectors) * SECTOR))
    return out
