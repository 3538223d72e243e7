"""Partitioned pipeline driver: Prune, per-partition Count+Filter, Merge, Group.

Each partition's filter.pN is checkpointed, once, and nothing else is: a small
manifest (stage -> blob handle on the bound namespace, plus a config/input
fingerprint) makes reruns skip completed partitions. A run loads first: every
filter.pN that loads skips its partition. Then it computes what is missing:
every read's codes, once; prune over every bucket; then count.pN and filter.pN
for each missing partition in order. So a rerun that loads every filter.pN
extracts no codes and runs no prune. The device holds nothing but the
filter.pN blobs and the runs count.pN spills from a full table. No other stage
is checkpointed, as a loaded output would spare only its own loop: prune's is
one pass over the codes a partial rerun extracts anyway, and count.pN's filter
pass reads every code of its partition. A filter.pN lists read ids, not bases
(each read set as LEB128 gaps: `CandidateIndex.to_checkpoint`), and so does
the merged index: group reads only its id lists, and index.bin takes the bases
from the inputs, which every run parses. Merge and group are no stages either:
each run merges the filter.pN outputs in memory and groups them.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, fields
from functools import reduce
from pathlib import Path

# encode_run and decode_run go unused here, but perfbench/tracing.py wraps these names
from .spill import BlobHandle, CorruptionError, SpillStore, decode_run, encode_run
from .stages import (
    CandidateIndex,
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

CHECKPOINT_FORMAT = "kfidxv2-leb128-gaps"  # fingerprinted: another format is a clean miss
# a damaged filter.pN as it loads: a failed header or CRC (read_blob), or bytes
# that do not decode (CandidateIndex.from_checkpoint)
LOAD_ERRORS = (CorruptionError, StageError)
HANDLE_FIELDS = {f.name for f in fields(BlobHandle)}


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

    def fingerprint(self, normal: list[str], tumoral: list[str]) -> str:
        """The checkpoints' key: every setting a filter.pN depends on, and
        the reads' bases. `capacity_limit` is left out, as the merged table filter
        reads is the same at any capacity; `min_candidates`, as only group
        reads it; and `prune_fp`, as prune drops only k-mers seen once, and a
        candidate is seen at least tau_t >= 2 times (`cli.cmd_run` enforces
        it), so filter.pN is the same at any rate."""
        h = hashlib.sha256(CHECKPOINT_FORMAT.encode())
        h.update(f"{self.k},{self.partitions},{self.tau_t},{self.tau_n}".encode())
        for reads in (normal, tumoral):
            h.update(str(len(reads)).encode())
            for bases in reads:
                h.update(bases.encode())
                h.update(b"\n")
        return h.hexdigest()


class Checkpoints:
    """Stage-output directory over a spill store; its stages are the filter.pN.

    The manifest can be persisted as JSON so a later process run resumes;
    a fingerprint mismatch or an unreadable manifest discards all recorded
    stages. An entry that names no filter.pN of a `partitions`-way run, whose
    handle is no object of exactly the handle's fields, each an int, or whose
    checkpoint fails to load is dropped alone. Either way the pipeline
    recomputes what is missing, appended behind the furthest blob still named.
    """

    def __init__(self, store: SpillStore, fingerprint: str, partitions: int,
                 path: Path | None = None):
        self.store = store
        self.fingerprint = fingerprint
        self.path = path
        self._stages: dict[str, BlobHandle] = {}
        if path is not None and path.exists():
            try:
                raw = json.loads(path.read_text())
                if raw.get("fingerprint") == fingerprint:
                    # only the names run_pipeline loads, each with exactly the int fields
                    # the cursor adds up: a later save rewrites the manifest
                    names = {f"filter.p{p}" for p in range(partitions)}
                    self._stages = {name: BlobHandle(**h) for name, h in raw["stages"].items()
                                    if name in names and type(h) is dict
                                    and h.keys() == HANDLE_FIELDS
                                    and all(type(v) is int for v in h.values())}
            except (ValueError, KeyError, TypeError, AttributeError):
                pass  # the stages are assigned last: an unreadable manifest leaves them empty
        self._place_cursor()

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
            del self._stages[stage]
            self._place_cursor()

    def _place_cursor(self) -> None:
        # run_pipeline loads every blob it reads before it appends: a damaged handle moves none
        self.store.append_cursor = max(
            (h.start_address + h.length for h in self._stages.values()), default=0)

    def _persist(self) -> None:
        if self.path is None:
            return
        doc = {
            "fingerprint": self.fingerprint,
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
    stage_seconds: dict[str, float]
    skipped: set[str]


def run_pipeline(
    normal: list[str],
    tumoral: list[str],
    config: PipelineConfig,
    store: SpillStore,
    checkpoints: Checkpoints | None = None,
) -> PipelineResult:
    """Execute the whole pipeline: load what loads, then compute what is missing."""
    cp = checkpoints or Checkpoints(store, "", config.partitions)
    seconds: dict[str, float] = {}
    loaded: set[str] = set()

    def named(name: str, work):
        """`work()`; a failure in it raises StageError naming stage `name`."""
        try:
            return work()
        except StageError:
            raise
        except Exception as exc:
            raise StageError(f"stage {name} failed: {exc}") from exc

    def timed(name: str, work):
        """`work()` as stage `name`, timed alone."""
        t0 = time.perf_counter()
        out = named(name, work)
        seconds[name] = time.perf_counter() - t0
        return out

    def load(name: str, from_bytes):
        """Stage `name` from its checkpoint, timed; None if it does not load."""
        t0 = time.perf_counter()
        out = named(name, lambda: cp.load(name, from_bytes))
        if out is not None:
            seconds[name] = time.perf_counter() - t0
            loaded.add(name)
        return out

    partitions = range(config.partitions)
    indexes = [load(f"filter.p{p}", CandidateIndex.from_checkpoint) for p in partitions]
    missing = [p for p in partitions if indexes[p] is None]
    if missing:
        codes = ReadCodes(normal, tumoral, config.k, config.partitions)
        pf = timed("prune", lambda: prune(codes, config.prune_fp))
        for p in partitions:
            if indexes[p] is not None:  # loaded: no pass reads its bucket
                codes.release(p)
        for p in missing:
            table = timed(f"count.p{p}", lambda: merge_runs(
                *count(codes, pf, p, config.capacity_limit, store), store))
            indexes[p] = timed(f"filter.p{p}", lambda: filter_candidates(
                table, codes, p, config.tau_t, config.tau_n))
            codes.release(p)
            del table  # before the next count builds its own: one table lives at a time
            named(f"filter.p{p}", lambda: cp.save(f"filter.p{p}", indexes[p].to_checkpoint()))
    index = reduce(merge_indexes, indexes)
    groups = timed("group", lambda: group(index, config.min_candidates))
    return PipelineResult(index, groups, seconds, loaded)
