"""Partitioned pipeline driver: Prune, per-partition Count+Filter, Merge, Group.

Every stage boundary is checkpointable. Stage outputs are serialized to the
bound namespace through the spill store; a small manifest (stage -> blob
handle, plus a config/input fingerprint and the store cursor) makes reruns
skip completed stages. A stage runs nested in the stage that consumes it
(count.pN in filter.pN, every filter.pN in merge), so a checkpointed stage
also skips every stage it was computed from.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from functools import reduce
from pathlib import Path

from .kmers import MAX_K, Read
from .spill import BlobHandle, CorruptionError, SpillStore, decode_run, encode_run
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
        h = hashlib.sha256()
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
    stages, and a stage whose blob fails its header or CRC check is dropped.
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

    def load(self, stage: str) -> bytes | None:
        """The stage's payload, or None when it is absent or damaged."""
        handle = self._stages.get(stage)
        if handle is None:
            return None
        try:
            return self.store.read_blob(handle)
        except CorruptionError:
            del self._stages[stage]
            return None

    def delete(self, stage: str) -> None:
        self._stages.pop(stage, None)
        self._persist()

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
            blob = cp.load(name)
            if blob is not None:
                out = from_bytes(blob)
                result.skipped.add(name)
            else:
                out = compute()
            result.stage_seconds[name] = time.perf_counter() - t0 - nested
            if blob is None:
                cp.save(name, to_bytes(out))
        except StageError:
            raise
        except Exception as exc:
            raise StageError(f"stage {name} failed: {exc}") from exc
        nested = outer + time.perf_counter() - t0
        return out

    # each read's codes, extracted by the first stage that is not checkpointed
    codes: ReadCodes | None = None

    def read_codes(partitions: int) -> ReadCodes:
        nonlocal codes
        if codes is None:
            codes = ReadCodes(normal, tumoral, config.k)
        codes.split(partitions)
        return codes

    def count_table(blob: bytes) -> FrequencyTable:
        table = FrequencyTable()
        table.entries = {code: [n, t] for code, n, t in decode_run(blob)}
        return table

    def count_pass(p: int) -> FrequencyTable:
        runs = count(read_codes(config.partitions), pf, p,
                     FrequencyTable(config.capacity_limit), store)
        return merge_runs(runs, store)

    def filter_pass(p: int) -> CandidateIndex:
        table = stage(f"count.p{p}", lambda: count_pass(p),
                      lambda t: encode_run(t.sorted_rows()), count_table)
        index = filter_candidates(table, read_codes(config.partitions), p,
                                  config.tau_t, config.tau_n)
        codes.release(p)
        return index

    def merge_passes() -> CandidateIndex:
        parts = [stage(f"filter.p{p}", lambda: filter_pass(p),
                       CandidateIndex.to_bytes, CandidateIndex.from_bytes)
                 for p in range(config.partitions)]
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
