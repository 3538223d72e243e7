"""Memory-extension spill store.

Sorted frequency-table runs (and opaque checkpoint blobs) are appended to a
namespace as large sequential chunk writes; reads verify a checksum. Run
payload is fixed-width little-endian records behind a 32-byte header so
fixtures are bit-exact across platforms.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass

from .fabric import CapacityError, FabricEngine, Namespace, KIND_READ, KIND_WRITE
from .traceanalysis import IoRecord

DEFAULT_CHUNK = 8 * 1024 * 1024

RUN_MAGIC = b"KFRUNv1\x00"
BLOB_MAGIC = b"KFBLOBv1"
_HEADER = struct.Struct("<8sIIQQ")  # magic, version, reserved, entry_count, checksum
_RECORD = struct.Struct("<QII")  # code u64, n_count u32, t_count u32
HEADER_SIZE = _HEADER.size
RECORD_SIZE = _RECORD.size


class CorruptionError(Exception):
    pass


class UnknownHandleError(Exception):
    pass


@dataclass(frozen=True)
class RunHandle:
    start_address: int
    length: int
    entry_count: int
    checksum: int


@dataclass(frozen=True)
class BlobHandle:
    start_address: int
    length: int
    payload_length: int
    checksum: int


def encode_run(entries: list[tuple[int, int, int]]) -> bytes:
    """Serialize (code, n_count, t_count) rows, already sorted by code."""
    payload = b"".join(_RECORD.pack(*e) for e in entries)
    checksum = zlib.crc32(payload)
    return _HEADER.pack(RUN_MAGIC, 1, 0, len(entries), checksum) + payload


def decode_run(data: bytes) -> list[tuple[int, int, int]]:
    if len(data) < HEADER_SIZE:
        raise CorruptionError("run shorter than header")
    magic, version, _, count, checksum = _HEADER.unpack_from(data)
    if magic != RUN_MAGIC:
        raise CorruptionError("bad run magic")
    if version != 1:
        raise CorruptionError(f"unsupported run version {version}")
    payload = data[HEADER_SIZE:]
    if len(payload) != count * RECORD_SIZE:
        raise CorruptionError("run payload length mismatch")
    if zlib.crc32(payload) != checksum:
        raise CorruptionError("run checksum mismatch")
    return [_RECORD.unpack_from(payload, i * RECORD_SIZE) for i in range(count)]


class SpillStore:
    """Single-writer append store over one namespace.

    Every request is chunk_size bytes except the final chunk of a run; each
    request starts where the previous one ended, which keeps the device trace
    fully append-sequential. The store owns its engine and issues each request
    when the previous one has completed.
    """

    def __init__(self, namespace: Namespace, chunk_size: int = DEFAULT_CHUNK):
        if chunk_size <= 0:
            raise ValueError("chunk_size must be positive")
        self.namespace = namespace
        self.chunk_size = chunk_size
        self.engine = FabricEngine(stats=False)
        self.append_cursor = 0
        self.run_directory: list[RunHandle] = []
        self._trace: list[IoRecord] = []

    def _io(self, kind: str, start: int, length: int, data: bytes | None) -> None:
        done: list = []
        self.engine.submit(self.namespace, kind, start, length,
                           data=data, on_complete=done.append, client=self)
        self.engine.run()
        self._trace.append(IoRecord(done[0].issue_time, kind, start, length))

    def _append(self, data: bytes) -> int:
        """Write data as chunked sequential requests; returns start address."""
        if self.append_cursor + len(data) > self.namespace.size:
            raise CapacityError(
                f"store full: need {len(data)} bytes at {self.append_cursor}, "
                f"namespace size {self.namespace.size}"
            )
        start = self.append_cursor
        pos = 0
        while pos < len(data):
            take = min(self.chunk_size, len(data) - pos)
            self._io(KIND_WRITE, self.append_cursor, take, data[pos:pos + take])
            self.append_cursor += take
            pos += take
        return start

    def _read(self, start: int, length: int) -> bytes:
        parts = []
        pos = 0
        while pos < length:
            take = min(self.chunk_size, length - pos)
            self._io(KIND_READ, start + pos, take, None)
            parts.append(self.namespace.read_data(start + pos, take))
            pos += take
        return b"".join(parts)

    def flush_table(self, entries: dict[int, list[int]]) -> RunHandle:
        """Spill a frequency table as one sorted run."""
        rows = [(code, c[0], c[1]) for code, c in sorted(entries.items())]
        if not rows:
            raise ValueError("refusing to flush an empty table")
        data = encode_run(rows)
        start = self._append(data)
        checksum = zlib.crc32(data[HEADER_SIZE:])
        handle = RunHandle(start, len(data), len(rows), checksum)
        self.run_directory.append(handle)
        return handle

    def read_run(self, handle: RunHandle) -> list[tuple[int, int, int]]:
        if handle not in self.run_directory:
            raise UnknownHandleError(f"handle {handle} was not issued by this store")
        data = self._read(handle.start_address, handle.length)
        rows = decode_run(data)
        if len(rows) != handle.entry_count:
            raise CorruptionError("entry count mismatch")
        return rows

    def append_blob(self, payload: bytes) -> BlobHandle:
        """Checkpoint storage: opaque bytes behind the same append contract."""
        header = struct.pack("<8sIIQQ", BLOB_MAGIC, 1, 0, len(payload), zlib.crc32(payload))
        start = self._append(header + payload)
        return BlobHandle(start, HEADER_SIZE + len(payload), len(payload), zlib.crc32(payload))

    def read_blob(self, handle: BlobHandle) -> bytes:
        data = self._read(handle.start_address, handle.length)
        if len(data) < HEADER_SIZE:
            raise CorruptionError("blob shorter than header")
        magic, version, _, size, checksum = _HEADER.unpack_from(data)
        if magic != BLOB_MAGIC or version != 1:
            raise CorruptionError("bad blob header")
        payload = data[HEADER_SIZE:]
        if len(payload) != size or zlib.crc32(payload) != checksum:
            raise CorruptionError("blob checksum mismatch")
        return payload

    def io_trace(self) -> list[IoRecord]:
        return list(self._trace)

    def trace_csv(self) -> str:
        lines = ["time_us,kind,start,length"]
        for rec in self.io_trace():
            lines.append(f"{rec.time * 1e6:.3f},{rec.kind},{rec.start},{rec.length}")
        return "\n".join(lines) + "\n"
