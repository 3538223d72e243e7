"""Partitioned pipeline driver: Prune, per-partition Count+Filter, Merge, Group.

Every stage output a later stage reads is checkpointed, once. Stage outputs
are serialized to the bound namespace through the spill store; a small
manifest (stage -> blob handle, plus a config/input fingerprint and the store
cursor) makes reruns skip completed stages. count.pN runs nested in the
filter.pN that consumes it, so a checkpointed filter.pN also skips its count.
A count.pN checkpoint is the blob handles of the partition's spill runs,
which are already on the device. Prune is loaded or computed by the first
filter.pN that is computed, before any bucket is freed, so a rerun that
loads every filter.pN never reads it.
Merge and group are no stages, as no later stage reads their output: the
filter.pN outputs are merged in memory and grouped on every run, a rerun too.
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

from .bloom import BloomFilter
from .kmers import Read
# encode_run and decode_run go unused here, but perfbench/tracing.py wraps these names
from .spill import (BlobHandle, CorruptionError, SpillStore, decode_handles, decode_run,
                    encode_handles, encode_run)
from .stages import (
    CandidateIndex,
    FrequencyTable,
    GroupResult,
    ReadCodes,
    StageError,
    count,
    filter_candidates,
    group,
    merge_indexes,
    merge_runs,
    prune,
)

CHECKPOINT_FORMAT = "blocked-bloom-prune"  # fingerprinted: another format is a clean miss
# a damaged checkpoint as it loads: a failed header or CRC, or bytes that do not decode
LOAD_ERRORS = (CorruptionError, StageError, struct.error, ValueError)


@dataclass
class PipelineConfig:
    """Run settings, trusted here: `cli.cmd_run` range-checks each as it loads."""

    k: int = 30
    partitions: int = 1
    capacity_limit: int | None = None
    tau_t: int = 4
    tau_n: int = 1
    min_candidates: int = 3
    prune_fp: float = 0.01

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

    # each read's codes, extracted and bucketed by the first stage that is not checkpointed
    codes: ReadCodes | None = None

    def read_codes(done: int = 0) -> ReadCodes:
        nonlocal codes
        if codes is None:
            codes = ReadCodes(normal, tumoral, config.k, config.partitions)
        for p in range(done):  # partitions run in order: no pass reads these buckets again
            codes.release(p)
        return codes

    def merged(runs: list[BlobHandle]) -> tuple[list[BlobHandle], FrequencyTable]:
        return runs, merge_runs(runs, store)

    pf: BloomFilter | None = None  # the prune stage, resolved by the first filter pass that runs

    def filter_pass(p: int) -> CandidateIndex:
        nonlocal pf
        if pf is None:  # before this pass or its count frees a bucket a computed prune reads
            pf = stage("prune", lambda: prune(read_codes(), config.prune_fp),
                       BloomFilter.to_bytes, BloomFilter.from_bytes)
        _, table = stage(f"count.p{p}",
                         lambda: merged(count(read_codes(p), pf, p,
                                              FrequencyTable(config.capacity_limit), store)),
                         lambda out: encode_handles(out[0]), lambda b: merged(decode_handles(b)))
        index = filter_candidates(table, read_codes(p), p,
                                  config.tau_t, config.tau_n)
        codes.release(p)
        return index

    index = reduce(merge_indexes, [stage(f"filter.p{p}", lambda: filter_pass(p),
                                         CandidateIndex.to_bytes, CandidateIndex.from_bytes)
                                   for p in range(config.partitions)])
    # frees the buckets only prune read and those of partitions whose filter.pN
    # was loaded; group extracts its own reads
    codes = None
    t0 = time.perf_counter()
    result.groups = group(index, config.min_candidates)
    result.stage_seconds["group"] = time.perf_counter() - t0
    result.index = index
    return result
