"""Memory-extension spill store.

Everything on the device is a blob: a 32-byte header (magic, version,
reserved, payload length, CRC-32 of the payload) and its payload, appended
to a namespace as large sequential chunk writes. A sorted frequency-table
run is a blob whose payload is fixed-width little-endian records, coded as
`array('Q')` words, and every pipeline checkpoint is a blob too, so
`read_blob` is the one place a read is verified. Fixed layouts keep
fixtures bit-exact across platforms.
"""

from __future__ import annotations

import struct
import sys
import zlib
from array import array
from dataclasses import dataclass

from .fabric import CapacityError, Namespace, KIND_READ, KIND_WRITE
from .traceanalysis import IoRecord

DEFAULT_CHUNK = 8 * 1024 * 1024

BLOB_MAGIC = b"KFBLOBv1"
_HEADER = struct.Struct("<8sIIQQ")  # magic, version, reserved, payload length, checksum
HEADER_SIZE = _HEADER.size
RECORD_SIZE = 16  # `<QII` code, n_count, t_count: the u64s code, n_count + (t_count << 32)


class CorruptionError(Exception):
    pass


@dataclass(frozen=True)
class BlobHandle:
    """Names one blob: where it starts, its length with the header, and its CRC."""

    start_address: int
    length: int
    checksum: int


def encode_run(entries: dict[int, int]) -> bytes:
    """Serialize code -> n_count + (t_count << 32) as records sorted by code."""
    codes = sorted(entries)
    words = array("Q", [0]) * (2 * len(codes))
    words[0::2] = array("Q", codes)
    words[1::2] = array("Q", map(entries.__getitem__, codes))
    if sys.byteorder == "big":
        words.byteswap()
    return words.tobytes()


def decode_run(payload: bytes) -> tuple[array, array]:
    """A run's codes and their packed counts, as two `array('Q')`."""
    if len(payload) % RECORD_SIZE:
        raise CorruptionError("run payload is not a whole number of records")
    words = array("Q", payload)
    if sys.byteorder == "big":
        words.byteswap()
    return words[0::2], words[1::2]


class SpillStore:
    """Single-writer append store over one namespace of a VirtualDevice.

    Every request is chunk_size bytes except the final chunk of a blob; each
    request starts where the previous one ended, which keeps the device trace
    fully append-sequential. The store issues each request when the previous
    one has completed, on a namespace that never attaches, so each is served
    alone at e(1) x bandwidth: its finish time is the fabric engine's, in
    closed form, and `now` is the store's clock.
    """

    def __init__(self, namespace: Namespace, chunk_size: int = DEFAULT_CHUNK):
        self.namespace = namespace
        self.chunk_size = chunk_size
        self.now = 0.0
        self.append_cursor = 0
        self._trace: list[IoRecord] = []

    def _io(self, kind: str, start: int, length: int) -> None:
        """Time one request and record it in the trace."""
        self._trace.append(IoRecord(self.now, kind, start, length))
        device = self.namespace.parent
        # FabricEngine's arithmetic, in its order, for one flow on an unattached device
        self.now = ((self.now + self.namespace.latency)
                    + length / (device.efficiency_curve(1) * device.max_seq_write_bw))

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
            self.namespace.write_data(self.append_cursor, data[pos:pos + take])
            self._io(KIND_WRITE, self.append_cursor, take)
            self.append_cursor += take
            pos += take
        return start

    def _read(self, start: int, length: int) -> bytes:
        if start < 0 or length < HEADER_SIZE or start + length > self.namespace.size:
            raise CorruptionError(f"[{start}, {start + length}) holds no record of this namespace")
        parts = []
        pos = 0
        while pos < length:
            take = min(self.chunk_size, length - pos)
            self._io(KIND_READ, start + pos, take)
            parts.append(self.namespace.read_data(start + pos, take))
            if pos < HEADER_SIZE <= pos + take:  # so a damaged length reads no further
                magic, version, _, size, _ = _HEADER.unpack_from(b"".join(parts))
                if magic != BLOB_MAGIC or version != 1 or length != HEADER_SIZE + size:
                    raise CorruptionError("bad blob header")
            pos += take
        return b"".join(parts)

    def flush_table(self, entries: dict[int, int]) -> BlobHandle:
        """Spill a table of packed counts as one sorted run."""
        if not entries:
            raise ValueError("refusing to flush an empty table")
        return self.append_blob(encode_run(entries))

    def read_run(self, handle: BlobHandle) -> tuple[array, array]:
        return decode_run(self.read_blob(handle))

    def append_blob(self, payload: bytes) -> BlobHandle:
        """Append payload behind its header; the handle names it for any store."""
        checksum = zlib.crc32(payload)
        start = self._append(_HEADER.pack(BLOB_MAGIC, 1, 0, len(payload), checksum) + payload)
        return BlobHandle(start, HEADER_SIZE + len(payload), checksum)

    def read_blob(self, handle: BlobHandle) -> bytes:
        """The payload `handle` names, checked against the blob's header and CRC."""
        data = self._read(handle.start_address, handle.length)
        checksum = _HEADER.unpack_from(data)[4]
        payload = data[HEADER_SIZE:]
        if zlib.crc32(payload) != checksum or checksum != handle.checksum:
            raise CorruptionError("blob checksum mismatch")
        return payload

    def io_trace(self) -> list[IoRecord]:
        return list(self._trace)

    def trace_csv(self) -> str:
        lines = ["time_us,kind,start,length"]
        for rec in self.io_trace():
            lines.append(f"{rec.time * 1e6:.3f},{rec.kind},{rec.start},{rec.length}")
        return "\n".join(lines) + "\n"
