"""Simulated disaggregated storage fabric.

Virtual devices expose sequential-write bandwidth, a capacity and a byte
store; they can be striped into a RAID0-style composition or partitioned
into namespaces that clients treat as exclusive devices. Only a namespace on
a plain device stores bytes (write_data/read_data): a composition models
timing alone. A discrete-event engine models the timing of concurrent
requests, never their bytes: each physical device splits an efficiency-
scaled bandwidth equally among its active requests (processor sharing). One
virtual clock per device counts the service each active request has had, so
a request finishes when the clock reaches its finish tag and only the
earliest tag per device is ever a pending event. A write may be a chain of
pieces: the engine issues each next piece itself when the previous one has
finished, and hands the write back to its process once, at the end.

The efficiency factor is keyed on the number of attached sharers (clients
with an open attachment window on the device), which is what makes bursts
lose peak bandwidth as more concurrent instances are added even when their
requests do not overlap in time.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from itertools import repeat
from typing import Callable, Optional, Sequence

KIND_WRITE = "write"
KIND_READ = "read"

DEFAULT_BW = 2_000_000_000  # 2 GB/s sequential write
DEFAULT_STRIPE = 128 * 1024
DEFAULT_FABRIC_LATENCY = 15e-6
BUCKET_S = 0.01  # width of the served-bandwidth statistics buckets, in seconds


class FabricError(Exception):
    pass


class CompositionError(FabricError):
    pass


class CapacityError(FabricError):
    pass


class BoundsError(FabricError):
    pass


class EfficiencyCurve:
    """Bandwidth factor per sharer count; non-increasing, e(1) = 1.

    Values beyond the configured points clamp to the last one.
    """

    def __init__(self, values: list[float]):
        if not values:
            raise ValueError("efficiency curve needs at least one point")
        if abs(values[0] - 1.0) > 1e-12:
            raise ValueError("e(1) must be 1.0")
        for a, b in zip(values, values[1:]):
            if b > a + 1e-12:
                raise ValueError("efficiency curve must be non-increasing")
        if any(not 0.0 < v <= 1.0 for v in values):
            raise ValueError("efficiency factors must be in (0, 1]")
        self.values = list(values)

    def __call__(self, n: int) -> float:
        """e(n); no sharers at all counts as one."""
        return self.values[min(max(n, 1), len(self.values)) - 1]


class MemoryBacking:
    """Grow-on-write byte store for simulated device contents."""

    def __init__(self):
        self._data = bytearray()

    def write(self, addr: int, data: bytes) -> None:
        end = addr + len(data)
        if end > len(self._data):
            self._data.extend(b"\x00" * (end - len(self._data)))
        self._data[addr:end] = data

    def read(self, addr: int, length: int) -> bytes:
        """Zeros past the written end, as a sparse file reads; the store does not grow."""
        data = bytes(self._data[addr:addr + length])
        return data + b"\x00" * (length - len(data))


class FileBacking:
    """Sparse-file byte store so pipeline checkpoints survive process reruns."""

    def __init__(self, path):
        self._path = path
        if not path.exists():
            path.touch()

    def write(self, addr: int, data: bytes) -> None:
        with open(self._path, "r+b") as fh:
            fh.seek(addr)
            fh.write(data)

    def read(self, addr: int, length: int) -> bytes:
        with open(self._path, "rb") as fh:
            fh.seek(addr)
            data = fh.read(length)
        return data + b"\x00" * (length - len(data))


class VirtualDevice:
    def __init__(
        self,
        device_id: int,
        max_seq_write_bw: float = DEFAULT_BW,
        capacity: int = 40_000_000_000,
        efficiency_curve: EfficiencyCurve | None = None,
        fabric_latency: float = DEFAULT_FABRIC_LATENCY,
        backing=None,
    ):
        self.id = device_id
        self.max_seq_write_bw = float(max_seq_write_bw)
        self.capacity = int(capacity)
        self.efficiency_curve = efficiency_curve or EfficiencyCurve([1.0])
        self.fabric_latency = fabric_latency
        self.backing = backing if backing is not None else MemoryBacking()

    # single-member "composition" interface so namespaces treat both alike
    @property
    def members(self) -> list["VirtualDevice"]:
        return [self]


class ComposedDevice:
    """RAID0 striping over equal-capacity members; flat summed address space.
    `stripe_size` is trusted to be positive (the scenario loader checks it)."""

    def __init__(self, members: list[VirtualDevice], stripe_size: int = DEFAULT_STRIPE):
        if len(members) < 2:
            raise CompositionError("composition needs at least 2 devices")
        caps = {m.capacity for m in members}
        if len(caps) != 1:
            raise CompositionError(f"members must have equal capacity, got {sorted(caps)}")
        self.members = list(members)
        self.stripe_size = stripe_size
        self.capacity = sum(m.capacity for m in members)
        self.max_seq_write_bw = sum(m.max_seq_write_bw for m in members)
        self.fabric_latency = max(m.fabric_latency for m in members)

    def member_bytes(self, start: int, length: int) -> list[tuple[VirtualDevice, int]]:
        """(member, bytes) of [start, start + length) per member, in the order
        a walk over its stripes in address order first reaches them, where
        stripe k lives on member k % m at offset (k // m) * s. After the head
        stripe, stripe i of the q whole ones lands on the i-th member after
        the head's, so every cycle of m stripes puts s bytes on each member;
        the tail follows them. A range inside the head stripe is q = -1: the
        head less the tail past it leaves `length` on the head's member
        alone."""
        s = self.stripe_size
        members = self.members
        m = len(members)
        stripe, within = divmod(start, s)
        k, head = stripe % m, s - within
        q, tail = divmod(length - head, s)
        full, extra = divmod(q, m)
        totals = [full * s + (s if 0 < j <= extra else 0) for j in range(m)]
        totals[0] += head
        totals[(q + 1) % m] += tail
        return [(members[(k + j) % m], totals[j]) for j in range(min(m, q + 1 + (tail > 0)))]


ATTACH_LOCAL = "local"
ATTACH_FABRIC = "fabric"


@dataclass(frozen=True)
class Namespace:
    parent: VirtualDevice | ComposedDevice
    offset: int
    size: int
    attachment: str = ATTACH_LOCAL
    name: str = ""

    @property
    def latency(self) -> float:
        """Seconds before each request starts: the parent's fabric latency
        under fabric attachment, none under local attachment."""
        return self.parent.fabric_latency if self.attachment == ATTACH_FABRIC else 0.0

    def _check(self, start: int, length: int) -> None:
        if start < 0 or length <= 0 or start + length > self.size:
            raise BoundsError(
                f"namespace {self.name or id(self)}: [{start}, {start + length}) "
                f"outside size {self.size}"
            )

    def write_data(self, start: int, data: bytes) -> None:
        self._check(start, len(data))
        self.parent.backing.write(self.offset + start, data)

    def read_data(self, start: int, length: int) -> bytes:
        self._check(start, length)
        return self.parent.backing.read(self.offset + start, length)


def partition_namespaces(
    parent: VirtualDevice | ComposedDevice,
    sizes: list[int],
    attachment: str = ATTACH_LOCAL,
    names: list[str] | None = None,
) -> list[Namespace]:
    """Carve disjoint consecutive namespaces; error on oversubscription."""
    total = sum(sizes)
    if total > parent.capacity:
        raise CapacityError(f"requested {total} bytes on {parent.capacity}-byte parent")
    out = []
    offset = 0
    for i, size in enumerate(sizes):
        name = names[i] if names else f"ns{i}"
        out.append(Namespace(parent=parent, offset=offset, size=size,
                             attachment=attachment, name=name))
        offset += size
    return out


class IoRequest:
    """One submitted write: `length` bytes from namespace offset `start`, as
    pieces of `chunk` bytes, the last taking the rest; `at` and `piece` are
    the piece in flight. finish_time is when the write is handed to its
    on_complete: its last piece has finished and the pace wait after it is
    over.

    served_bytes is the integral of the granted rate over the request's
    lifetime, summed over its pieces and the members they were striped across."""

    __slots__ = ("start", "length", "chunk", "delays", "issue_bw", "at", "piece",
                 "pace_until", "finish_time", "served_bytes", "flows_left", "on_complete",
                 "route")

    def __init__(self, route, start, length, chunk, delays, issue_bw, on_complete):
        self.route = route
        self.start = start
        self.length = length
        self.chunk = chunk
        self.delays = delays
        self.issue_bw = issue_bw
        self.at = start
        self.piece = 0
        self.served_bytes = 0.0
        self.flows_left = 0
        self.on_complete = on_complete


class _DeviceState:
    """Processor sharing in virtual time: every active flow has received
    vtime bytes of service since the device last went idle, so a flow
    finishes when vtime reaches its tag (vtime at arrival + its bytes)."""

    __slots__ = ("flows", "sharers", "peak", "last_update", "vtime", "rate", "finish",
                 "buckets")

    def __init__(self, device: VirtualDevice):
        # min-heap of (tag, seq, vtime at arrival, request)
        self.flows: list[tuple[float, int, float, IoRequest]] = []
        self.sharers: set[int] = set()  # id(namespace) of each attached namespace
        self.set_peak(device)
        self.last_update = 0.0
        self.vtime = 0.0
        self.rate = 0.0  # bytes/s granted to each active flow
        self.finish = math.inf  # when the head flow finishes; inf while idle
        self.buckets: list[float] = []  # bytes served per stats bucket

    def set_peak(self, device: VirtualDevice) -> None:
        """The bandwidth the flows split: e(sharers) x max_seq_write_bw."""
        self.peak = device.efficiency_curve(len(self.sharers)) * device.max_seq_write_bw


class FabricEngine:
    """Deterministic event engine: same submissions, same completion times.

    With stats, each device's served bytes are summed into buckets of
    BUCKET_S seconds as they are served; no per-request history is kept."""

    def __init__(self, stats: bool = False):
        self.now = 0.0
        self._heap: list = []
        self._seq = 0
        self._states: dict[int, _DeviceState] = {}
        # id(namespace) -> (namespace, latency, member states, parent, offset,
        # stripe size or 0 for a plain device); holding the namespace keeps its id
        self._routes: dict[int, tuple] = {}
        self._stats = stats

    # -- device/sharer bookkeeping ------------------------------------------

    def _state(self, device: VirtualDevice) -> _DeviceState:
        st = self._states.get(device.id)
        if st is None:
            st = _DeviceState(device)
            self._states[device.id] = st
        return st

    def attach(self, namespace: Namespace) -> None:
        """Open a sharer window on every member device of the namespace parent;
        a namespace already attached stays one sharer."""
        key = id(namespace)
        for member in namespace.parent.members:
            st = self._state(member)
            st.sharers.add(key)
            st.set_peak(member)
            self._serve(st)

    def detach(self, namespace: Namespace) -> None:
        key = id(namespace)
        for member in namespace.parent.members:
            st = self._state(member)
            if key in st.sharers:
                st.sharers.remove(key)
                st.set_peak(member)
                self._serve(st)

    # -- event plumbing ------------------------------------------------------

    def schedule(self, when: float, fn: Callable[..., None], *args) -> None:
        """Call fn(*args) at time when."""
        self._seq += 1
        heapq.heappush(self._heap, (when, self._seq, fn, args))

    def _serve(self, st: _DeviceState, req: IoRequest | None = None, nbytes: int = 0,
               retire: bool = False) -> IoRequest | None:
        """One device event: serve st's flows up to now at the share they had,
        then start a flow of nbytes for req, or retire the head flow (and
        return its request); then split st.peak among the flows anew."""
        t0, t1 = st.last_update, self.now
        flows = st.flows
        if t1 > t0 and flows:
            st.vtime += st.rate * (t1 - t0)
            if self._stats:
                # fold [t0, t1) at the aggregate rate into the buckets it spans
                rate, w, acc = st.rate * len(flows), BUCKET_S, st.buckets
                b = int(t0 / w)
                while t0 < t1:
                    edge = (b + 1) * w
                    if edge > t1:
                        edge = t1
                    if b >= len(acc):
                        acc.extend([0.0] * (b + 1 - len(acc)))
                    acc[b] += rate * (edge - t0)
                    t0 = edge
                    b += 1
        st.last_update = t1
        if req is not None:
            self._seq += 1
            heapq.heappush(flows, (st.vtime + nbytes, self._seq, st.vtime, req))
        elif retire:
            _, _, arrival_vtime, req = heapq.heappop(flows)
            req.served_bytes += st.vtime - arrival_vtime
            if not flows:
                st.vtime = 0.0  # idle: restart the clock to keep it small
        if flows:
            st.rate = st.peak / len(flows)
            st.finish = t1 + (flows[0][0] - st.vtime) / st.rate
        else:
            st.finish = math.inf
        return req

    def _route(self, namespace: Namespace) -> tuple:
        """Resolve once what starting any request on the namespace needs."""
        parent = namespace.parent
        route = (namespace, namespace.latency, [self._state(m) for m in parent.members],
                 parent, namespace.offset, getattr(parent, "stripe_size", 0))
        self._routes[id(namespace)] = route
        return route

    def submit(
        self,
        namespace: Namespace,
        start: int,
        length: int,
        on_complete: Optional[Callable[[IoRequest], None]] = None,
        delay: float | Sequence[float] = 0.0,
        chunk: int = 0,
        issue_bw: float = math.inf,
    ) -> None:
        """Issue a write of `length` bytes as pieces of `chunk` bytes (0: one
        piece); on_complete gets the request once its last piece is done. The
        engine issues the first piece now and each next one once the previous
        piece has finished, and no sooner than piece / issue_bw after the
        previous issue; it issues each piece `delay` seconds later, one float
        for every piece or one per piece. Only the timing is modelled, never
        the bytes."""
        namespace._check(start, length)
        route = self._routes.get(id(namespace)) or self._route(namespace)
        delays = repeat(delay) if isinstance(delay, (int, float)) else iter(delay)
        self._advance(IoRequest(route, start, length, chunk or length, delays, issue_bw,
                                on_complete))

    def _advance(self, req: IoRequest) -> None:
        """Issue req's next piece after its delay, or hand req back once no
        piece is left."""
        at = req.at + req.piece
        left = req.start + req.length - at
        if left <= 0:
            req.finish_time = self.now
            if req.on_complete is not None:
                req.on_complete(req)
            return
        req.at = at
        req.piece = piece = req.chunk if req.chunk < left else left
        when = self.now + next(req.delays)
        req.pace_until = when + piece / req.issue_bw
        self._seq += 1
        # fn None tags a piece start, which run handles inline
        heapq.heappush(self._heap, (when + req.route[1], self._seq, None, req))

    def run(self) -> float:
        """Drain every event; returns the final clock."""
        heap, states, serve = self._heap, self._states.values(), self._serve
        while True:
            when, busy = math.inf, None
            for st in states:
                if st.finish < when:
                    when, busy = st.finish, st
            if heap and heap[0][0] <= when:
                when, busy = heap[0][0], None
            if when == math.inf:
                break
            if when > self.now:
                self.now = when
            if busy is None:
                _, _, fn, args = heapq.heappop(heap)
                if fn is not None:
                    fn(*args)
                    continue
                # a piece starts: one flow per member its bytes land on
                req, length = args, args.piece
                _, _, members, parent, offset, s = req.route
                addr = offset + req.at
                if s:  # striped: a range inside its head stripe is on that member alone
                    stripe, within = divmod(addr, s)
                    if length > s - within:
                        shares = parent.member_bytes(addr, length)
                        req.flows_left = len(shares)
                        for member, nbytes in shares:
                            serve(self._states[member.id], req, nbytes)
                        continue
                    st = members[stripe % len(members)]
                else:
                    st = members[0]
                req.flows_left = 1
                serve(st, req, length)
                continue
            req = serve(busy, retire=True)
            req.flows_left -= 1
            if req.flows_left == 0:
                if self.now < req.pace_until:  # the issue ceiling holds the next step back
                    self.schedule(self.now + (req.pace_until - self.now), self._advance, req)
                else:
                    self._advance(req)
        return self.now

    # -- generator-based client processes -------------------------------------

    def spawn(self, gen) -> None:
        """Drive a generator yielding ("sleep", dt) or
        ("write", namespace, start, length[, delay[, chunk[, issue_bw]]]), the
        arguments of submit; each finished IoRequest is sent back into the
        generator, once per write however many pieces it has, and so is the
        wake time after a sleep."""

        def resume(value) -> None:
            try:
                cmd = gen.send(value)
            except StopIteration:
                return
            op = cmd[0]
            if op == KIND_WRITE:
                self.submit(cmd[1], cmd[2], cmd[3], resume, *cmd[4:])
            elif op == "sleep":
                wake = self.now + cmd[1]
                self.schedule(wake, resume, wake)
            else:
                raise ValueError(f"unknown process command {op!r}")

        self.schedule(self.now, resume, None)

    # -- statistics ------------------------------------------------------------

    def device_stats(self, device: VirtualDevice) -> list[tuple[float, float]]:
        """Served bandwidth per bucket up to now: [(bucket_start_s, bytes/s)]."""
        w = BUCKET_S
        n = int(self.now / w) + 1
        st = self._states.get(device.id)
        acc = st.buckets[:n] if st else []
        acc += [0.0] * (n - len(acc))
        return [(i * w, acc[i] / w) for i in range(n)]
