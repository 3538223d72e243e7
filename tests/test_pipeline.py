"""Pipeline driver: stage composition, invariances, checkpoint semantics."""

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kmerfab import stages
from kmerfab.fabric import FileBacking, Namespace, VirtualDevice
from kmerfab.kmers import Origin, Read, canonical_codes, decode
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
from oracle import bits_of, candidate_view, expected_groups

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
    # merge is no stage: the filter.pN outputs are merged in memory; group is
    # none either, but it is timed
    assert result.stage_seconds.keys() == {"prune", "count.p0", "filter.p0", "count.p1",
                                           "filter.p1", "group"}


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
    # a loaded filter.pN skips its count.pN, and with no count.pN to run, prune;
    # group is no stage: it is computed again from the merged index
    assert second.skipped == {"filter.p0", "filter.p1"}
    # every skipped stage was loaded, so it was also timed
    assert second.skipped <= second.stage_seconds.keys()
    assert second.index.to_bytes() == first.index.to_bytes()
    assert len(second.groups) == len(first.groups)


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
        cp.save("filter.p0", b"a later blob that does not decode")
    monkeypatch.undo()

    assert manifest.read_bytes() == before
    store2 = make_store(tmp_path / "dev.dat")
    second = run_pipeline(normal, tumoral, cfg, store2,
                          Checkpoints(store2, fingerprint, manifest))
    assert second.skipped == {"filter.p0"}
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
                        for (origin, _), bases in first.index.reads.items()
                        if origin is Origin.TUMORAL)
    assert input_windows <= sum(extracted) <= input_windows + group_windows

    extracted.clear()
    store2 = make_store(tmp_path / "dev.dat")
    second = run_pipeline(normal, tumoral, cfg, store2,
                          Checkpoints(store2, fingerprint, tmp_path / "m.json"))
    assert second.skipped == {"filter.p0", "filter.p1", "filter.p2", "filter.p3"}
    # group, computed again, extracts only its seed reads' codes, in ascending id
    assert extracted == [len(canonical_codes(bases, K))
                         for _, bases in sorted((rid, bases) for (origin, rid), bases
                                                in first.index.reads.items()
                                                if origin is Origin.TUMORAL)]


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


@st.composite
def instance(draw):
    """k, then normal and tumoral reads over ACGTN, some shorter than k. Reads
    carry runs of one repeated motif, longer and more often in tumoral reads,
    so imbalanced k-mers exist."""
    k = draw(st.integers(1, 32))
    motif = draw(st.text("ACGT", min_size=1, max_size=12))

    def reads(origin, runs, min_size):
        drawn = draw(st.lists(st.tuples(st.text("ACGTN", max_size=24), runs,
                                        st.text("ACGTN", max_size=8)),
                              min_size=min_size, max_size=8))
        return [Read(i, origin, head + (motif * 64)[:max(0, run)] + tail)
                for i, (head, run, tail) in enumerate(drawn)]

    return (k, reads(Origin.NORMAL, st.integers(0, k + 2), 0),
            reads(Origin.TUMORAL, st.integers(k - 2, k + 12), 1))


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
    got = {decode(code, k): entry for code, entry in result.index.candidates.items()}
    assert got.keys() == per_kmer.keys()
    for kmer, want in per_kmer.items():
        entry = got[kmer]
        assert (entry.n_count, entry.t_count) == (want["n"], want["t"])
        assert entry.normal_bitmap == bits_of(want["normal_ids"])
        assert entry.tumoral_bitmap == bits_of(want["tumoral_ids"])
    bases = {(r.origin, r.id): r.bases for r in [*normal, *tumoral]}
    assert result.index.reads == {key: bases[key] for key in stored}
    assert [(g.seed, g.members, {decode(c, k) for c in g.shared_kmers})
            for g in result.groups] == expected_groups(normal, tumoral, k, tau_t, tau_n,
                                                       min_candidates)
