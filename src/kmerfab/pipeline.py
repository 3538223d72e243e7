"""Partitioned pipeline driver: Prune, per-partition Count+Filter, Merge, Group.

Every stage boundary is checkpointable. Stage outputs are serialized to the
bound namespace through the spill store; a small manifest (stage -> blob
handle, plus a config/input fingerprint and the store cursor) makes reruns
skip completed stages.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field
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
    runs_per_partition: list[int] = field(default_factory=list)
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

    def timed(stage: str, fn):
        t0 = time.perf_counter()
        try:
            out = fn()
        except StageError:
            raise
        except Exception as exc:
            raise StageError(f"stage {stage} failed: {exc}") from exc
        result.stage_seconds[stage] = time.perf_counter() - t0
        return out

    # each read's codes, extracted by the first stage that is not checkpointed
    codes: ReadCodes | None = None

    def read_codes(partitions: int) -> ReadCodes:
        nonlocal codes
        if codes is None:
            codes = ReadCodes(normal, tumoral, config.k)
        codes.split(partitions)
        return codes

    blob = cp.load("prune")
    if blob is not None:
        pf = timed("prune", lambda: PruneFilter.from_bytes(blob))
        result.skipped.add("prune")
    else:
        pf = timed("prune", lambda: prune(read_codes(1), config.prune_fp))
        cp.save("prune", pf.to_bytes())

    blob = cp.load("merge")
    if blob is not None:
        index = timed("merge", lambda: CandidateIndex.from_bytes(blob))
        result.skipped.update({"count", "filter", "merge"})
    else:
        part_indexes: list[CandidateIndex] = []
        for p in range(config.partitions):
            filter_key = f"filter.p{p}"
            count_key = f"count.p{p}"
            blob = cp.load(filter_key)
            if blob is not None:
                part_indexes.append(
                    timed(filter_key, lambda: CandidateIndex.from_bytes(blob))
                )
                result.skipped.add(filter_key)
                continue
            blob = cp.load(count_key)
            if blob is not None:
                rows = decode_run(blob)
                table = FrequencyTable()
                table.entries = {code: [n, t] for code, n, t in rows}
                result.skipped.add(count_key)
                result.runs_per_partition.append(0)
            else:
                def run_count(p=p):
                    working = FrequencyTable(config.capacity_limit)
                    runs = count(read_codes(config.partitions), pf, p, working, store)
                    return merge_runs(runs, store), len(runs)
                table, n_runs = timed(count_key, run_count)
                result.runs_per_partition.append(n_runs)
                cp.save(count_key, encode_run(table.sorted_rows()))
            idx_p = timed(filter_key, lambda: filter_candidates(
                table, read_codes(config.partitions), p, config.tau_t, config.tau_n))
            cp.save(filter_key, idx_p.to_bytes())
            part_indexes.append(idx_p)
            codes.release(p)

        def run_merge():
            merged = part_indexes[0]
            for nxt in part_indexes[1:]:
                merged = merge_indexes(merged, nxt)
            return merged
        index = timed("merge", run_merge)
        cp.save("merge", index.to_bytes())
    codes = None  # also frees a store only prune used; group extracts its own reads

    blob = cp.load("group")
    if blob is not None:
        groups = timed("group", lambda: groups_from_bytes(blob))
        result.skipped.add("group")
    else:
        groups = timed("group", lambda: group(index, config.min_candidates))
        cp.save("group", groups_to_bytes(groups))

    result.index = index
    result.groups = groups
    return result
