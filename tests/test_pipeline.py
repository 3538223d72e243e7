"""Pipeline driver: stage composition, invariances, checkpoint semantics."""

import os
import time
import weakref
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kmerfab import pipeline, stages
from kmerfab.fabric import FileBacking, Namespace, VirtualDevice
from kmerfab.kmers import canonical_codes
from kmerfab.pipeline import Checkpoints, PipelineConfig, PipelineResult, run_pipeline
from kmerfab.spill import SpillStore
from kmerfab.stages import (
    CandidateIndex,
    ReadCodes,
    count,
    filter_candidates,
    group,
    merge_indexes,
    merge_runs,
    prune,
)
from kmerfab.traceanalysis import classify
from conftest import random_instance
from oracle import candidate_view, expected_groups, index_reads, kmer_of, read_store

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
    table = merge_runs(*count(codes, pf, 0, None, store), store)
    idx = filter_candidates(table, codes, 0, 4, 1)
    groups = group(idx, 3)

    assert result.index.to_bytes(normal, tumoral) == idx.to_bytes(normal, tumoral)
    assert result.groups == groups


@pytest.mark.parametrize("partitions", [1, 2, 4])
@pytest.mark.parametrize("capacity", [64, 1024, None])
def test_partition_and_spill_invariance(partitions, capacity, small_instance):
    normal, tumoral = small_instance
    baseline = run(normal, tumoral, partitions=1, capacity_limit=None)
    result = run(normal, tumoral, partitions=partitions, capacity_limit=capacity)
    assert result.index.to_bytes(normal, tumoral) == baseline.index.to_bytes(normal, tumoral)


def test_stage_times_recorded(small_instance):
    normal, tumoral = small_instance
    result = run(normal, tumoral, partitions=2)
    # merge is no stage: the filter.pN outputs are merged in memory; count.pN
    # and group are none either, but they are timed
    assert result.stage_seconds.keys() == {"prune", "count.p0", "filter.p0", "count.p1",
                                           "filter.p1", "group"}


def test_filter_time_leaves_its_count_out(small_instance, monkeypatch):
    count_ = pipeline.count

    def slow_count(*args):
        time.sleep(0.05)
        return count_(*args)

    monkeypatch.setattr(pipeline, "count", slow_count)
    result = run(*small_instance, partitions=2)
    for p in range(2):
        assert result.stage_seconds[f"count.p{p}"] >= 0.05
        assert result.stage_seconds[f"filter.p{p}"] < 0.05


def test_each_partition_table_is_freed_before_the_next_count(small_instance, monkeypatch):
    """Two partitions' merged tables never live at once: partition p's is
    dead when partition p + 1 starts counting."""
    tables, live = [], []
    count_, merge_runs_ = pipeline.count, pipeline.merge_runs

    def tracked_merge(runs, last_table, store):
        table = merge_runs_(runs, last_table, store)
        tables.append(weakref.ref(table))
        return table

    def checked_count(*args):
        live.append([ref() is not None for ref in tables])
        return count_(*args)

    monkeypatch.setattr(pipeline, "merge_runs", tracked_merge)
    monkeypatch.setattr(pipeline, "count", checked_count)
    run(*small_instance, partitions=3, capacity_limit=64)
    assert live == [[], [False], [False, False]]


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
    cp = Checkpoints(store, fingerprint, cfg.partitions, tmp_path / "manifest.json")
    first = run_pipeline(normal, tumoral, cfg, store, cp)
    assert first.skipped == set()

    store2 = make_store(tmp_path / "dev.dat")
    cp2 = Checkpoints(store2, fingerprint, cfg.partitions, tmp_path / "manifest.json")
    second = run_pipeline(normal, tumoral, cfg, store2, cp2)
    # a loaded filter.pN skips its count.pN, and with no count.pN to run, prune;
    # group is no stage: it is computed again from the merged index
    assert second.skipped == {"filter.p0", "filter.p1"}
    # every skipped stage was loaded, so it was also timed
    assert second.skipped <= second.stage_seconds.keys()
    assert second.index.to_bytes(normal, tumoral) == first.index.to_bytes(normal, tumoral)
    assert len(second.groups) == len(first.groups)


def test_manifest_survives_interrupted_persist(tmp_path, small_instance, monkeypatch):
    normal, tumoral = small_instance
    cfg = PipelineConfig(k=K, partitions=1)
    fingerprint = cfg.fingerprint(normal, tumoral)
    manifest = tmp_path / "manifest.json"
    store = make_store(tmp_path / "dev.dat")
    cp = Checkpoints(store, fingerprint, cfg.partitions, manifest)
    first = run_pipeline(normal, tumoral, cfg, store, cp)
    before = manifest.read_bytes()

    def killed(src, dst):
        raise OSError("killed before the rename")

    monkeypatch.setattr(os, "replace", killed)
    with pytest.raises(OSError):
        cp.save("filter.p0", b"a later blob that does not decode")
    monkeypatch.undo()

    assert manifest.read_bytes() == before
    store2 = make_store(tmp_path / "dev.dat")
    second = run_pipeline(normal, tumoral, cfg, store2,
                          Checkpoints(store2, fingerprint, cfg.partitions, manifest))
    assert second.skipped == {"filter.p0"}
    assert second.index.to_bytes(normal, tumoral) == first.index.to_bytes(normal, tumoral)


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
                         Checkpoints(store, fingerprint, cfg.partitions, tmp_path / "m.json"))
    # each read's codes once, in input order, and group extracts none
    assert extracted == [len(canonical_codes(bases, K)) for bases in [*normal, *tumoral]]
    assert first.groups

    extracted.clear()
    store2 = make_store(tmp_path / "dev.dat")
    second = run_pipeline(normal, tumoral, cfg, store2,
                          Checkpoints(store2, fingerprint, cfg.partitions, tmp_path / "m.json"))
    assert second.skipped == {"filter.p0", "filter.p1", "filter.p2", "filter.p3"}
    # group, computed again, reads only the loaded id lists
    assert extracted == []
    assert second.groups == first.groups


def test_group_from_checkpoints_alone(tmp_path, small_instance):
    """The filter.pN checkpoints hold no read bases, yet their merged index
    groups as the run did: group reads only the candidates' id lists."""
    normal, tumoral = small_instance
    cfg = PipelineConfig(k=K, partitions=3)
    store = make_store(tmp_path / "dev.dat")
    cp = Checkpoints(store, cfg.fingerprint(normal, tumoral), cfg.partitions, tmp_path / "m.json")
    result = run_pipeline(normal, tumoral, cfg, store, cp)
    assert result.groups
    merged = reduce(merge_indexes, [cp.load(f"filter.p{p}", CandidateIndex.from_checkpoint)
                                    for p in range(3)])
    assert group(merged, cfg.min_candidates) == result.groups


def test_fingerprint_mismatch_discards_checkpoints(tmp_path, small_instance):
    normal, tumoral = small_instance
    cfg = PipelineConfig(k=K)
    store = make_store(tmp_path / "dev.dat")
    cp = Checkpoints(store, cfg.fingerprint(normal, tumoral), cfg.partitions, tmp_path / "m.json")
    run_pipeline(normal, tumoral, cfg, store, cp)

    cfg2 = PipelineConfig(k=K, tau_t=5)
    store2 = make_store(tmp_path / "dev.dat")
    cp2 = Checkpoints(store2, cfg2.fingerprint(normal, tumoral), cfg2.partitions,
                      tmp_path / "m.json")
    result = run_pipeline(normal, tumoral, cfg2, store2, cp2)
    assert result.skipped == set()


@pytest.mark.parametrize("normal, tumoral", [
    (["ACGA", "TACGT"], []),  # one base differs
    (["ACG", "TTACGT"], []),  # the same bases, split at another read boundary
    (["ACGT"], ["TACGT"]),  # a read moved to the other sample
])
def test_fingerprint_covers_every_read(normal, tumoral):
    fingerprint = PipelineConfig(k=3).fingerprint
    assert fingerprint(normal, tumoral) != fingerprint(["ACGT", "TACGT"], [])


def test_a_failure_inside_a_stage_names_the_stage(small_instance):
    normal, tumoral = small_instance
    with pytest.raises(stages.StageError, match=r"^stage count\.p0 failed: store full"):
        run_pipeline(normal, tumoral, PipelineConfig(k=K, capacity_limit=4), make_store(size=64))


def test_each_partition_frees_its_codes_after_its_filter(small_instance, monkeypatch):
    normal, tumoral = small_instance
    released = []
    release = ReadCodes.release
    monkeypatch.setattr(ReadCodes, "release",
                        lambda self, p: released.append(p) or release(self, p))
    run_pipeline(normal, tumoral, PipelineConfig(k=K, partitions=3), make_store())
    assert released == [0, 1, 2]


@st.composite
def instance(draw):
    """k, then normal and tumoral reads over ACGTN, some shorter than k. Reads
    carry runs of one repeated motif, longer and more often in tumoral reads,
    so imbalanced k-mers exist."""
    k = draw(st.integers(1, 32))
    motif = draw(st.text("ACGT", min_size=1, max_size=12))

    def reads(runs, min_size):
        drawn = draw(st.lists(st.tuples(st.text("ACGTN", max_size=24), runs,
                                        st.text("ACGTN", max_size=8)),
                              min_size=min_size, max_size=8))
        return [head + (motif * 64)[:max(0, run)] + tail for head, run, tail in drawn]

    return (k, reads(st.integers(0, k + 2), 0), reads(st.integers(k - 2, k + 12), 1))


@settings(max_examples=200, deadline=None)
@given(case=instance(), partitions=st.integers(1, 5),
       capacity=st.sampled_from([None, 1, 2, 3, 7, 50]),
       chunk=st.sampled_from([1, 7, 32, 33, 4096]),
       tau_t=st.integers(2, 4), tau_n=st.integers(0, 2), min_candidates=st.integers(1, 3))
def test_pipeline_matches_oracle_at_every_setting(case, partitions, capacity, chunk, tau_t,
                                                  tau_n, min_candidates):
    """Differential test of run_pipeline against the string oracle: every k
    the CLI accepts, and the low end of every other setting's range."""
    k, normal, tumoral = case
    cfg = PipelineConfig(k=k, partitions=partitions, capacity_limit=capacity, tau_t=tau_t,
                         tau_n=tau_n, min_candidates=min_candidates)
    result = run_pipeline(normal, tumoral, cfg, make_store(size=1 << 24, chunk=chunk))

    per_kmer, stored = candidate_view(normal, tumoral, k, tau_t, tau_n)
    got = {kmer_of(code, k): entry for code, entry in result.index.candidates.items()}
    assert got.keys() == per_kmer.keys()
    for kmer, want in per_kmer.items():
        entry = got[kmer]
        assert (entry.n_count, entry.t_count) == (want["n"], want["t"])
        assert entry.normal_ids == sorted(want["normal_ids"])
        assert entry.tumoral_ids == sorted(want["tumoral_ids"])
    assert index_reads(result.index.to_bytes(normal, tumoral)) == read_store(normal, tumoral,
                                                                             stored)
    assert [(g.seed, g.normal_ids, g.tumoral_ids, {kmer_of(c, k) for c in g.shared_kmers})
            for g in result.groups] == expected_groups(normal, tumoral, k, tau_t, tau_n,
                                                       min_candidates)
