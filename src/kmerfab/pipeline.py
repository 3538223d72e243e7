"""Partitioned pipeline driver: Prune, per-partition Count+Filter, Merge, Group.

Every stage boundary is checkpointable. Stage outputs are serialized to the
bound namespace through the spill store; a small manifest (stage -> blob
handle, plus a config/input fingerprint and the store cursor) makes reruns
skip completed stages. A stage runs nested in the stage that consumes it
(count.pN in filter.pN, every filter.pN in merge), so a checkpointed stage
also skips every stage it was computed from. A count.pN checkpoint is the
handles of the partition's spill runs, which are already on the device.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import time
from dataclasses import dataclass, field
from functools import reduce
from pathlib import Path

from .kmers import MAX_K, Read
# encode_run and decode_run go unused here, but perfbench/tracing.py wraps these names
from .spill import (BlobHandle, CorruptionError, RunHandle, SpillStore, decode_handles,
                    decode_run, encode_handles, encode_run)
from .stages import (
    CandidateIndex,
    FrequencyTable,
    GroupResult,
    PruneFilter,
    ReadCodes,
    StageError,
    count,
    filter_candidates,
    group,
    groups_from_bytes,
    groups_to_bytes,
    merge_indexes,
    merge_runs,
    prune,
)

CHECKPOINT_FORMAT = "count.pN=run-handles"  # fingerprinted: another format is a clean miss
# a damaged checkpoint as it loads: a failed header or CRC, or bytes that do not decode
LOAD_ERRORS = (CorruptionError, StageError, struct.error, ValueError)


@dataclass
class PipelineConfig:
    k: int = 30
    partitions: int = 1
    capacity_limit: int | None = None
    tau_t: int = 4
    tau_n: int = 1
    min_candidates: int = 3
    prune_fp: float = 0.01

    def validate(self) -> None:
        if not 1 <= self.k <= MAX_K:
            raise ValueError(f"k must be in [1, {MAX_K}]")
        if self.partitions < 1:
            raise ValueError("partitions must be >= 1")
        if self.capacity_limit is not None and self.capacity_limit < 1:
            raise ValueError("capacity_limit must be >= 1 or unbounded")
        # prune only removes multiplicity-1 k-mers; tau_t >= 2 keeps every
        # possible candidate out of its reach
        if self.tau_t < 2:
            raise ValueError("tau_t must be >= 2 while pruning is enabled")
        if self.tau_n < 0:
            raise ValueError("tau_n must be >= 0")
        if self.min_candidates < 1:
            raise ValueError("min_candidates must be >= 1")
        if not 0.0 < self.prune_fp < 1.0:
            raise ValueError("prune_fp must be in (0, 1)")

    def fingerprint(self, normal: list[Read], tumoral: list[Read]) -> str:
        h = hashlib.sha256(CHECKPOINT_FORMAT.encode())
        h.update(
            f"{self.k},{self.partitions},{self.capacity_limit},{self.tau_t},"
            f"{self.tau_n},{self.min_candidates},{self.prune_fp}".encode()
        )
        for reads in (normal, tumoral):
            h.update(str(len(reads)).encode())
            for r in reads:
                h.update(r.bases.encode())
                h.update(b"\n")
        return h.hexdigest()


class Checkpoints:
    """Stage-output directory over a spill store.

    The manifest can be persisted as JSON so a later process run resumes;
    a fingerprint mismatch or an unreadable manifest discards all recorded
    stages, and a stage whose checkpoint fails to load counts as absent.
    Either way the pipeline recomputes what is missing.
    """

    def __init__(self, store: SpillStore, fingerprint: str, path: Path | None = None):
        self.store = store
        self.fingerprint = fingerprint
        self.path = path
        self._stages: dict[str, BlobHandle] = {}
        if path is not None and path.exists():
            try:
                raw = json.loads(path.read_text())
                if raw.get("fingerprint") == fingerprint:
                    self._stages = {name: BlobHandle(**h) for name, h in raw["stages"].items()}
                    store.append_cursor = max(store.append_cursor, int(raw.get("cursor", 0)))
            except (ValueError, KeyError, TypeError, AttributeError):
                self._stages = {}

    def save(self, stage: str, payload: bytes) -> None:
        self._stages[stage] = self.store.append_blob(payload)
        self._persist()

    def load(self, stage: str, from_bytes):
        """The stage's output decoded by `from_bytes`; None if absent or it fails to load."""
        if stage not in self._stages:
            return None
        try:
            return from_bytes(self.store.read_blob(self._stages[stage]))
        except LOAD_ERRORS:
            return None

    def _persist(self) -> None:
        if self.path is None:
            return
        doc = {
            "fingerprint": self.fingerprint,
            "cursor": self.store.append_cursor,
            "stages": {name: vars(h) for name, h in self._stages.items()},
        }
        # a killed writer leaves the old manifest or the new one, never a torn one
        tmp = self.path.with_name(self.path.name + ".tmp")
        tmp.write_text(json.dumps(doc, indent=1, sort_keys=True))
        os.replace(tmp, self.path)


@dataclass
class PipelineResult:
    index: CandidateIndex
    groups: list[GroupResult]
    stage_seconds: dict[str, float] = field(default_factory=dict)
    skipped: set[str] = field(default_factory=set)


def run_pipeline(
    normal: list[Read],
    tumoral: list[Read],
    config: PipelineConfig,
    store: SpillStore,
    checkpoints: Checkpoints | None = None,
) -> PipelineResult:
    """Execute the whole pipeline, honoring existing stage checkpoints."""
    config.validate()
    cp = checkpoints or Checkpoints(store, fingerprint="", path=None)
    result = PipelineResult(index=CandidateIndex(config.k), groups=[])
    nested = 0.0  # seconds the running stage has spent in the stages it consumes

    def stage(name: str, compute, to_bytes, from_bytes):
        """Load stage `name` from its checkpoint, or compute it and save it.

        Its recorded time covers its own load or compute only: neither its
        checkpoint write nor the stages nested in it.
        """
        nonlocal nested
        outer, nested = nested, 0.0
        t0 = time.perf_counter()
        try:
            out = cp.load(name, from_bytes)
            if out is not None:
                result.skipped.add(name)
            else:
                out = compute()
            result.stage_seconds[name] = time.perf_counter() - t0 - nested
            if name not in result.skipped:
                cp.save(name, to_bytes(out))
        except StageError:
            raise
        except Exception as exc:
            raise StageError(f"stage {name} failed: {exc}") from exc
        nested = outer + time.perf_counter() - t0
        return out

    # each read's codes, extracted by the first stage that is not checkpointed
    codes: ReadCodes | None = None

    def read_codes(partitions: int, done: int = 0) -> ReadCodes:
        nonlocal codes
        if codes is None:
            codes = ReadCodes(normal, tumoral, config.k)
        codes.split(partitions)
        for p in range(done):  # partitions run in order: no pass reads these buckets again
            codes.release(p)
        return codes

    def merged(runs: list[RunHandle]) -> tuple[list[RunHandle], FrequencyTable]:
        return runs, merge_runs(runs, store)

    def filter_pass(p: int) -> CandidateIndex:
        _, table = stage(f"count.p{p}",
                         lambda: merged(count(read_codes(config.partitions, p), pf, p,
                                              FrequencyTable(config.capacity_limit), store)),
                         lambda out: encode_handles(out[0]), lambda b: merged(decode_handles(b)))
        index = filter_candidates(table, read_codes(config.partitions, p), p,
                                  config.tau_t, config.tau_n)
        codes.release(p)
        return index

    def merge_passes() -> CandidateIndex:
        nonlocal codes
        parts = [stage(f"filter.p{p}", lambda: filter_pass(p),
                       CandidateIndex.to_bytes, CandidateIndex.from_bytes)
                 for p in range(config.partitions)]
        codes = None  # frees the buckets of partitions whose filter.pN was loaded
        return reduce(merge_indexes, parts)

    pf = stage("prune", lambda: prune(read_codes(1), config.prune_fp),
               PruneFilter.to_bytes, PruneFilter.from_bytes)
    index = stage("merge", merge_passes, CandidateIndex.to_bytes, CandidateIndex.from_bytes)
    codes = None  # also frees a store only prune used; group extracts its own reads
    groups = stage("group", lambda: group(index, config.min_candidates),
                   groups_to_bytes, groups_from_bytes)

    result.index = index
    result.groups = groups
    return result
