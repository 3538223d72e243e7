"""Pipeline driver: stage composition, invariances, checkpoint semantics."""

import json
import os

import pytest

from kmerfab import stages
from kmerfab.fabric import FileBacking, Namespace, VirtualDevice
from kmerfab.kmers import Origin, canonical_codes
from kmerfab.pipeline import Checkpoints, PipelineConfig, PipelineResult, run_pipeline
from kmerfab.spill import SpillStore
from kmerfab.stages import (
    FrequencyTable,
    ReadCodes,
    count,
    filter_candidates,
    group,
    merge_runs,
    prune,
)
from kmerfab.traceanalysis import classify
from conftest import random_instance

K = 15


def make_store(backing_path=None, size=1 << 30, chunk=1 << 20):
    backing = FileBacking(backing_path) if backing_path else None
    dev = VirtualDevice(0, capacity=size, backing=backing)
    return SpillStore(Namespace(dev, 0, size), chunk_size=chunk)


def run(normal, tumoral, partitions=1, capacity_limit=None, store=None, checkpoints=None):
    cfg = PipelineConfig(k=K, partitions=partitions, capacity_limit=capacity_limit)
    return run_pipeline(normal, tumoral, cfg, store or make_store(), checkpoints)


def test_matches_manual_stage_composition(small_instance):
    normal, tumoral = small_instance
    result = run(normal, tumoral)

    store = make_store()
    codes = ReadCodes(normal, tumoral, K)
    pf = prune(codes, 0.01)
    runs = count(codes, pf, 0, FrequencyTable(), store)
    table = merge_runs(runs, store)
    idx = filter_candidates(table, codes, 0, 4, 1)
    groups = group(idx, 3)

    assert result.index.to_bytes() == idx.to_bytes()
    assert [(g.seed, g.members, g.shared_kmers) for g in result.groups] == [
        (g.seed, g.members, g.shared_kmers) for g in groups
    ]


@pytest.mark.parametrize("partitions", [1, 2, 4])
@pytest.mark.parametrize("capacity", [64, 1024, None])
def test_partition_and_spill_invariance(partitions, capacity, small_instance):
    normal, tumoral = small_instance
    baseline = run(normal, tumoral, partitions=1, capacity_limit=None)
    result = run(normal, tumoral, partitions=partitions, capacity_limit=capacity)
    assert result.index.to_bytes() == baseline.index.to_bytes()


def test_stage_times_recorded(small_instance):
    normal, tumoral = small_instance
    result = run(normal, tumoral, partitions=2)
    for stage in ("prune", "count.p0", "count.p1", "filter.p0", "merge", "group"):
        assert stage in result.stage_seconds


def test_spill_trace_is_append_sequential(small_instance):
    normal, tumoral = small_instance
    store = make_store(chunk=1 << 14)
    run(normal, tumoral, partitions=2, capacity_limit=64, store=store)
    report = classify(store.io_trace())
    assert report.total_writes > 10
    assert report.sequential_append_aware >= 0.85


def test_checkpoints_skip_stages(tmp_path, small_instance):
    normal, tumoral = small_instance
    cfg = PipelineConfig(k=K, partitions=2)
    fingerprint = cfg.fingerprint(normal, tumoral)

    store = make_store(tmp_path / "dev.dat")
    cp = Checkpoints(store, fingerprint, tmp_path / "manifest.json")
    first = run_pipeline(normal, tumoral, cfg, store, cp)
    assert first.skipped == set()

    store2 = make_store(tmp_path / "dev.dat")
    cp2 = Checkpoints(store2, fingerprint, tmp_path / "manifest.json")
    second = run_pipeline(normal, tumoral, cfg, store2, cp2)
    assert "group" in second.skipped and "merge" in second.skipped
    # every skipped stage was loaded, so it was also timed
    assert second.skipped <= second.stage_seconds.keys()
    assert second.index.to_bytes() == first.index.to_bytes()
    assert len(second.groups) == len(first.groups)


def test_deleting_group_checkpoint_reruns_only_group(tmp_path, small_instance):
    normal, tumoral = small_instance
    cfg = PipelineConfig(k=K, partitions=1)
    fingerprint = cfg.fingerprint(normal, tumoral)

    store = make_store(tmp_path / "dev.dat")
    cp = Checkpoints(store, fingerprint, tmp_path / "manifest.json")
    first = run_pipeline(normal, tumoral, cfg, store, cp)

    manifest = tmp_path / "manifest.json"
    doc = json.loads(manifest.read_text())
    del doc["stages"]["group"]
    manifest.write_text(json.dumps(doc))
    store2 = make_store(tmp_path / "dev.dat")
    cp2 = Checkpoints(store2, fingerprint, manifest)
    second = run_pipeline(normal, tumoral, cfg, store2, cp2)
    assert "merge" in second.skipped and "prune" in second.skipped
    assert "group" not in second.skipped
    assert [g.seed for g in second.groups] == [g.seed for g in first.groups]


def test_manifest_survives_interrupted_persist(tmp_path, small_instance, monkeypatch):
    normal, tumoral = small_instance
    cfg = PipelineConfig(k=K, partitions=1)
    fingerprint = cfg.fingerprint(normal, tumoral)
    manifest = tmp_path / "manifest.json"
    store = make_store(tmp_path / "dev.dat")
    cp = Checkpoints(store, fingerprint, manifest)
    first = run_pipeline(normal, tumoral, cfg, store, cp)
    before = manifest.read_bytes()

    def killed(src, dst):
        raise OSError("killed before the rename")

    monkeypatch.setattr(os, "replace", killed)
    with pytest.raises(OSError):
        cp.save("group", b"a later group blob")
    monkeypatch.undo()

    assert manifest.read_bytes() == before
    store2 = make_store(tmp_path / "dev.dat")
    second = run_pipeline(normal, tumoral, cfg, store2,
                          Checkpoints(store2, fingerprint, manifest))
    assert "group" in second.skipped and "merge" in second.skipped
    assert second.index.to_bytes() == first.index.to_bytes()


def test_each_window_extracted_once_per_run(tmp_path, small_instance, monkeypatch):
    normal, tumoral = small_instance
    cfg = PipelineConfig(k=K, partitions=4, capacity_limit=64)
    fingerprint = cfg.fingerprint(normal, tumoral)
    extracted = []

    def counting(bases, k):
        codes = canonical_codes(bases, k)
        extracted.append(len(codes))
        return codes

    monkeypatch.setattr(stages, "canonical_codes", counting)
    store = make_store(tmp_path / "dev.dat")
    first = run_pipeline(normal, tumoral, cfg, store,
                         Checkpoints(store, fingerprint, tmp_path / "m.json"))
    input_windows = sum(len(canonical_codes(r.bases, K)) for r in [*normal, *tumoral])
    group_windows = sum(len(canonical_codes(bases, K))
                        for origin, _, bases in first.index.read_store
                        if origin is Origin.TUMORAL)
    assert input_windows <= sum(extracted) <= input_windows + group_windows

    extracted.clear()
    store2 = make_store(tmp_path / "dev.dat")
    second = run_pipeline(normal, tumoral, cfg, store2,
                          Checkpoints(store2, fingerprint, tmp_path / "m.json"))
    assert {"prune", "merge", "group"} <= second.skipped
    assert extracted == []


def test_fingerprint_mismatch_discards_checkpoints(tmp_path, small_instance):
    normal, tumoral = small_instance
    cfg = PipelineConfig(k=K)
    store = make_store(tmp_path / "dev.dat")
    cp = Checkpoints(store, cfg.fingerprint(normal, tumoral), tmp_path / "m.json")
    run_pipeline(normal, tumoral, cfg, store, cp)

    cfg2 = PipelineConfig(k=K, tau_t=5)
    store2 = make_store(tmp_path / "dev.dat")
    cp2 = Checkpoints(store2, cfg2.fingerprint(normal, tumoral), tmp_path / "m.json")
    result = run_pipeline(normal, tumoral, cfg2, store2, cp2)
    assert result.skipped == set()


def test_config_validation():
    with pytest.raises(ValueError):
        PipelineConfig(k=0).validate()
    with pytest.raises(ValueError):
        PipelineConfig(k=33).validate()
    with pytest.raises(ValueError):
        PipelineConfig(partitions=0).validate()
    with pytest.raises(ValueError):
        PipelineConfig(tau_t=1).validate()  # prune would eat candidates
    with pytest.raises(ValueError):
        PipelineConfig(prune_fp=0.0).validate()
    PipelineConfig().validate()
