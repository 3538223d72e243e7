"""CLI subcommands, exit codes, artifact reproducibility."""

import contextlib
import hashlib
import io
import json
import os
import re
import shutil
import time
import zlib
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kmerfab import cli, pipeline, traceanalysis
from kmerfab.cli import _load_scenario, main
from kmerfab.fabric import FileBacking, Namespace, VirtualDevice
from kmerfab.pipeline import Checkpoints
from kmerfab.spill import HEADER_SIZE, BlobHandle, SpillStore
from kmerfab.stages import CandidateIndex
from kmerfab.traceanalysis import parse_trace_csv
from conftest import random_instance

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def write_fasta(path, reads):
    with open(path, "w") as fh:
        for i, bases in enumerate(reads):
            fh.write(f">r{i}\n{bases}\n")


@pytest.fixture
def toy_inputs(tmp_path):
    normal, tumoral = random_instance(seed=77, n_reads=160)
    write_fasta(tmp_path / "normal.fa", normal)
    write_fasta(tmp_path / "tumoral.fa", tumoral)
    return tmp_path


def run_config(tmp_path, **extra):
    keys = {
        "normal": tmp_path / "normal.fa",
        "tumoral": tmp_path / "tumoral.fa",
        "k": 15,
        "partitions": 2,
        "capacity_limit": 256,
        "chunk_size": 65536,
        "device_capacity": 100000000,
        "namespace_size": 100000000,
    }
    keys.update(extra)
    path = tmp_path / "run.conf"
    path.write_text("".join(f"{k} = {v}\n" for k, v in keys.items()))
    return path


def scenario_config(tmp_path, **extra):
    keys = {
        "instances": 2,
        "strategy": "single_shared",
        "hosts": 2,
        "repeats": 3,
        "seed": 5,
        "total_output": 150000000,
        "working_set": 32000000,
        "host_memory": 80000000,
    }
    keys.update(extra)
    path = tmp_path / "scenario.conf"
    path.write_text("".join(f"{k} = {v}\n" for k, v in keys.items()))
    return path


@pytest.mark.parametrize("command", ["run", "simulate", "compare"])
def test_out_is_made_with_its_parents_and_written_again(toy_inputs, command):
    cfg = run_config(toy_inputs) if command == "run" else scenario_config(toy_inputs)
    out = toy_inputs / "new" / "out"
    for _ in range(2):  # the first call makes both directories; the second finds them
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 0


def test_run_toy_dataset(toy_inputs, capsys):
    out = toy_inputs / "out"
    t0 = time.perf_counter()
    code = main(["run", "--config", str(run_config(toy_inputs)), "--out", str(out)])
    elapsed = time.perf_counter() - t0
    assert code == 0
    assert elapsed < 5.0
    assert (out / "index.bin").exists()
    assert (out / "groups.csv").exists()
    assert (out / "trace.csv").exists()
    captured = capsys.readouterr().out
    assert "stage prune" in captured
    assert "groups:" in captured


def test_run_deterministic_outputs(toy_inputs):
    out1 = toy_inputs / "o1"
    out2 = toy_inputs / "o2"
    cfg = run_config(toy_inputs)
    assert main(["run", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["run", "--config", str(cfg), "--out", str(out2)]) == 0
    for name in ("index.bin", "groups.csv", "trace.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_run_missing_input_exit_2(toy_inputs, capsys):
    # a missing file, an empty path and a directory are none of them a read file
    for normal in (toy_inputs / "nope.fa", "", "."):
        cfg = run_config(toy_inputs, normal=normal)
        assert main(["run", "--config", str(cfg), "--out", str(toy_inputs / "o")]) == 2
        assert capsys.readouterr().err == f"error: input file not found: {Path(normal)}\n"
        assert not (toy_inputs / "o").exists()


@pytest.mark.parametrize("key", ["normal", "tumoral"])
def test_run_missing_required_key_exit_2(toy_inputs, capsys, key):
    cfg = run_config(toy_inputs)
    cfg.write_text("".join(line + "\n" for line in cfg.read_text().splitlines()
                           if not line.startswith(f"{key} =")))
    assert main(["run", "--config", str(cfg), "--out", str(toy_inputs / "o")]) == 2
    assert capsys.readouterr().err == f"error: missing required key {key!r}\n"
    assert not (toy_inputs / "o").exists()


def test_run_unknown_config_key_exit_2(toy_inputs, capsys):
    cfg = run_config(toy_inputs, bogus_key=1)
    assert main(["run", "--config", str(cfg), "--out", str(toy_inputs / "o")]) == 2
    assert "bogus_key" in capsys.readouterr().err


@pytest.mark.parametrize("extra, message", [
    ({"device_bw": 0}, "'device_bw'"),
    ({"device_bw": -1}, "'device_bw'"),
    ({"device_capacity": 0}, "capacity"),
    ({"namespace_size": 200000000}, "namespace_size"),
    ({"namespace_size": 0}, "namespace_size"),
    ({"partitions": 2.9}, "partitions"),
    ({"capacity_limit": 0.5}, "capacity_limit"),
    ({"device_capacity": "1e999"}, "device_capacity"),
    ({"device_bw": "inf"}, "device_bw"),
    ({"device_bw": "nan"}, "device_bw"),
    ({"chunk_size": 0}, "chunk_size"),
    ({"attachment": "bogus"}, "attachment"),
    ({"k": 0}, "'k'"),
    ({"k": 33}, "'k'"),
    ({"partitions": 0}, "'partitions'"),
    ({"capacity_limit": -1}, "'capacity_limit'"),
    ({"tau_t": 1}, "'tau_t'"),  # prune would eat candidates
    ({"tau_n": -1}, "'tau_n'"),
    ({"min_candidates": 0}, "'min_candidates'"),
    ({"prune_fp": 0}, "'prune_fp'"),
    ({"prune_fp": 1}, "'prune_fp'"),
    ({"prune_fp": 1.5}, "'prune_fp'"),
    ({"prune_fp": 1e-7}, "'prune_fp'"),  # below what a blocked filter reaches cheaply
    ({"prune_fp": 0.6}, "'prune_fp'"),  # above what a half-size seen-multi filter holds
    ({"device_capacity": 50000000}, "'namespace_size'"),
], ids=["zero_bw", "negative_bw", "zero_capacity", "namespace_over_capacity",
        "zero_namespace", "fractional_partitions", "fractional_capacity_limit",
        "overflowing_capacity", "infinite_bw", "nan_bw", "zero_chunk", "bad_attachment",
        "zero_k", "k_above_max", "zero_partitions", "negative_capacity_limit", "tau_t_1",
        "negative_tau_n", "zero_min_candidates", "zero_prune_fp", "prune_fp_1",
        "prune_fp_above_1", "prune_fp_below_1e-6", "prune_fp_above_half",
        "capacity_below_namespace"])
def test_run_bad_device_exit_2(toy_inputs, capsys, extra, message):
    """Every run key is range-checked as it loads, device and pipeline keys alike."""
    cfg = run_config(toy_inputs, **extra)
    assert main(["run", "--config", str(cfg), "--out", str(toy_inputs / "o")]) == 2
    assert message in capsys.readouterr().err
    # rejected before anything is written: no device0.dat, no trace.csv
    assert not (toy_inputs / "o").exists()


@pytest.mark.parametrize("extra", [
    {"k": 32}, {"tau_t": 2}, {"tau_n": 0}, {"min_candidates": 1}, {"capacity_limit": 0},
    {"namespace_size": 100000000, "device_capacity": 100000000},
    {"prune_fp": 1e-6}, {"prune_fp": 0.5},
], ids=["k_32", "tau_t_2", "tau_n_0", "min_candidates_1", "unbounded_capacity",
        "namespace_is_device", "prune_fp_1e-6", "prune_fp_half"])
def test_run_accepts_boundary_values(toy_inputs, extra):
    cfg = run_config(toy_inputs, **extra)
    assert main(["run", "--config", str(cfg), "--out", str(toy_inputs / "o")]) == 0
    assert (toy_inputs / "o" / "index.bin").exists()


def test_run_malformed_input_writes_nothing(toy_inputs, capsys):
    (toy_inputs / "tumoral.fa").write_text(">r0\nACGTX\n")
    cfg = run_config(toy_inputs)
    assert main(["run", "--config", str(cfg), "--out", str(toy_inputs / "o")]) == 2
    assert "illegal character" in capsys.readouterr().err
    assert not (toy_inputs / "o").exists()


def test_rerun_with_checkpoints_fast_and_identical(toy_inputs):
    out = toy_inputs / "out"
    cfg = run_config(toy_inputs)
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    first = (out / "index.bin").read_bytes()
    groups_first = (out / "groups.csv").read_bytes()
    t0 = time.perf_counter()
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    rerun_elapsed = time.perf_counter() - t0
    assert rerun_elapsed < 1.0
    assert (out / "index.bin").read_bytes() == first
    assert (out / "groups.csv").read_bytes() == groups_first


@pytest.mark.parametrize("damage", ["truncate_manifest", "delete_device",
                                    "truncate_device", "flip_blob_byte"])
def test_rerun_recomputes_damaged_checkpoints(toy_inputs, damage):
    out = toy_inputs / "out"
    cfg = run_config(toy_inputs)
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    first = {name: (out / name).read_bytes() for name in ("index.bin", "groups.csv")}
    manifest = out / "checkpoints.json"
    device = out / "device0.dat"
    if damage == "truncate_manifest":
        manifest.write_bytes(manifest.read_bytes()[:40])
    elif damage == "delete_device":
        device.unlink()
    elif damage == "truncate_device":
        data = device.read_bytes()
        device.write_bytes(data[:len(data) // 2])
    else:  # filter.p0, which a rerun reads
        handle = json.loads(manifest.read_text())["stages"]["filter.p0"]
        data = bytearray(device.read_bytes())
        payload_length = handle["length"] - HEADER_SIZE
        data[handle["start_address"] + HEADER_SIZE + payload_length // 2] ^= 0xFF
        device.write_bytes(bytes(data))
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    for name, data in first.items():
        assert (out / name).read_bytes() == data
    # the recomputed stages were checkpointed again
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    for name, data in first.items():
        assert (out / name).read_bytes() == data


OUTPUTS = ("index.bin", "groups.csv")


def kill_after_count_p1(out):
    """Leave the manifest a run killed after count.p1 spilled its runs, before
    filter.p1 was saved, leaves behind: no manifest entry names those runs."""
    manifest = out / "checkpoints.json"
    doc = json.loads(manifest.read_text())
    del doc["stages"]["filter.p1"]
    manifest.write_text(json.dumps(doc))


def flip_byte_in_first_run_of(out, partition):
    """Damage the payload of `partition`'s first spill run: the device's first
    blob for partition 0, the blob just after filter.p{partition - 1}'s
    otherwise. Stages are saved in partition order, each after its
    partition's spill runs."""
    stages = json.loads((out / "checkpoints.json").read_text())["stages"]
    start = 0
    if partition:
        blob = stages[f"filter.p{partition - 1}"]
        start = blob["start_address"] + blob["length"]
    assert start not in {h["start_address"] for h in stages.values()}  # a run, no filter.pN
    device = bytearray((out / "device0.dat").read_bytes())
    device[start + HEADER_SIZE + 3] ^= 0xFF
    (out / "device0.dat").write_bytes(bytes(device))


def stage_lines(printed):
    return dict(line.split(": ", 1) for line in printed.splitlines()
                if line.startswith("stage "))


def test_rerun_after_kill_between_count_and_filter(toy_inputs, capsys):
    out = toy_inputs / "out"
    cfg = run_config(toy_inputs)
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    first = {name: (out / name).read_bytes() for name in OUTPUTS}
    kill_after_count_p1(out)
    capsys.readouterr()

    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    stages = stage_lines(capsys.readouterr().out)
    assert stages["stage filter.p0"].endswith("(checkpoint)")
    assert "stage count.p0" not in stages  # a loaded filter.p0 skips its count
    assert not stages["stage count.p1"].endswith("(checkpoint)")  # count is never loaded
    assert not stages["stage filter.p1"].endswith("(checkpoint)")
    for name, data in first.items():
        assert (out / name).read_bytes() == data


@pytest.mark.parametrize("missing, loaded, buckets", [
    (1, 0, [False, True]),
    (0, 1, [True, False]),  # bucket 1 is freed before count.p0 runs
], ids=["filter_p1_missing", "filter_p0_missing"])
def test_rerun_recounts_partition_whose_spill_run_is_damaged(toy_inputs, capsys, monkeypatch,
                                                             missing, loaded, buckets):
    out = toy_inputs / "out"
    cfg = run_config(toy_inputs)
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    first = {name: (out / name).read_bytes() for name in OUTPUTS}
    flip_byte_in_first_run_of(out, missing)  # the rerun counts anew and never reads it
    manifest = out / "checkpoints.json"
    doc = json.loads(manifest.read_text())
    del doc["stages"][f"filter.p{missing}"]
    manifest.write_text(json.dumps(doc))
    held = []
    count = pipeline.count

    def spy(codes, prune_filter, partition_id, capacity_limit, store):
        held.append([part is not None for part in codes.codes])
        return count(codes, prune_filter, partition_id, capacity_limit, store)

    monkeypatch.setattr(pipeline, "count", spy)
    capsys.readouterr()

    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    stages = stage_lines(capsys.readouterr().out)
    assert stages[f"stage filter.p{loaded}"].endswith("(checkpoint)")
    assert not stages[f"stage count.p{missing}"].endswith("(checkpoint)")
    # only the missing partition's count ran; the loaded one's bucket was freed unread
    assert held == [buckets]
    for name, data in first.items():
        assert (out / name).read_bytes() == data


@pytest.mark.parametrize("stage", ["filter.p0", "filter.p1"])
def test_rerun_recomputes_checkpoint_that_does_not_decode(toy_inputs, capsys, stage):
    out = toy_inputs / "out"
    cfg = run_config(toy_inputs)
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    first = {name: (out / name).read_bytes() for name in OUTPUTS}
    # zeros of the same length, behind a header whose CRC they pass
    handle = json.loads((out / "checkpoints.json").read_text())["stages"][stage]
    payload = bytes(handle["length"] - HEADER_SIZE)
    device = bytearray((out / "device0.dat").read_bytes())
    start = handle["start_address"]
    device[start + 24:start + 32] = zlib.crc32(payload).to_bytes(8, "little")
    device[start + HEADER_SIZE:start + HEADER_SIZE + len(payload)] = payload
    (out / "device0.dat").write_bytes(bytes(device))
    capsys.readouterr()

    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    assert not stage_lines(capsys.readouterr().out)[f"stage {stage}"].endswith("(checkpoint)")
    for name, data in first.items():
        assert (out / name).read_bytes() == data


@pytest.fixture(scope="module")
def toy_first_run(tmp_path_factory):
    """One run on the toy inputs: its config, output directory and OUTPUTS."""
    inputs = tmp_path_factory.mktemp("toy")
    normal, tumoral = random_instance(seed=77, n_reads=160)
    write_fasta(inputs / "normal.fa", normal)
    write_fasta(inputs / "tumoral.fa", tumoral)
    cfg = run_config(inputs)
    out = inputs / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    return cfg, out, {name: (out / name).read_bytes() for name in OUTPUTS}


@settings(max_examples=12, deadline=None)
@given(stage=st.sampled_from(["filter.p0", "filter.p1"]), data=st.data())
def test_rerun_recomputes_a_filter_payload_that_does_not_decode(toy_first_run, tmp_path_factory,
                                                               stage, data):
    """The stage's blob is swapped for one whose payload is a strict prefix of
    its own, its own plus one byte, its frame cut short behind an inner CRC it
    passes, or 11 continuation bytes, behind a header whose CRC it passes: the
    rerun recomputes that partition and exits 0."""
    cfg, first_out, first = toy_first_run
    out = tmp_path_factory.mktemp("rerun") / "out"
    shutil.copytree(first_out, out)
    manifest = out / "checkpoints.json"
    doc = json.loads(manifest.read_text())
    device = VirtualDevice(0, capacity=100_000_000, backing=FileBacking(out / "device0.dat"))
    store = SpillStore(Namespace(device, 0, device.capacity))
    payload = store.read_blob(BlobHandle(**doc["stages"][stage]))
    body = payload[8:-4]
    bad = data.draw(st.one_of(
        st.integers(0, len(payload) - 1).map(lambda n: payload[:n]),
        st.integers(0, 255).map(lambda byte: payload + bytes([byte])),
        st.integers(0, len(body) - 1).map(
            lambda n: payload[:8] + body[:n] + zlib.crc32(body[:n]).to_bytes(4, "little")),
        st.just(b"\x80" * 11)))
    store.append_cursor = (out / "device0.dat").stat().st_size
    doc["stages"][stage] = vars(store.append_blob(bad))
    manifest.write_text(json.dumps(doc))

    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    assert not stage_lines(stdout.getvalue())[f"stage {stage}"].endswith("(checkpoint)")
    for name, expected in first.items():
        assert (out / name).read_bytes() == expected


@pytest.mark.parametrize("partitions, dropped", [(2, 1), (3, 1), (3, 2)])
def test_partial_rerun_recomputes_the_first_runs_prune_filter(toy_inputs, capsys, monkeypatch,
                                                              partitions, dropped):
    """A rerun with one filter.pN dropped runs prune once, before any bucket
    is freed, the loaded partitions' included, so it sets the first run's
    bits word for word, and count probes the filter the first run probed."""
    out = toy_inputs / "out"
    cfg = run_config(toy_inputs, partitions=partitions)
    filters = []
    prune = pipeline.prune

    def spy(codes, fp):
        held = [part is not None for part in codes.codes]
        pf = prune(codes, fp)
        filters.append((held, pf.n_bits, pf.n_hashes, list(pf._words)))
        return pf

    monkeypatch.setattr(pipeline, "prune", spy)
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    first = {name: (out / name).read_bytes() for name in OUTPUTS}
    manifest = out / "checkpoints.json"
    doc = json.loads(manifest.read_text())
    del doc["stages"][f"filter.p{dropped}"]
    manifest.write_text(json.dumps(doc))
    capsys.readouterr()

    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    stages = stage_lines(capsys.readouterr().out)
    assert [name for name, line in stages.items() if line.endswith("(checkpoint)")] == [
        f"stage filter.p{p}" for p in range(partitions) if p != dropped]
    assert not stages["stage prune"].endswith("(checkpoint)")
    assert len(filters) == 2
    assert filters[1] == filters[0]
    assert filters[1][0] == [True] * partitions
    for name, data in first.items():
        assert (out / name).read_bytes() == data


def test_rerun_that_counts_nothing_reads_no_prune_checkpoint(toy_inputs, capsys):
    """A rerun that loads every filter.pN runs no prune, and it reads from
    the device nothing but the filter.pN blobs."""
    out = toy_inputs / "out"
    cfg = run_config(toy_inputs)
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    blobs = json.loads((out / "checkpoints.json").read_text())["stages"]
    assert blobs.keys() == {"filter.p0", "filter.p1"}
    capsys.readouterr()

    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    assert "stage prune" not in stage_lines(capsys.readouterr().out)
    with open(out / "trace.csv") as fh:
        reads = [r for r in parse_trace_csv(fh) if r.kind == "read"]
    assert reads  # the rerun loads the filter.pN checkpoints
    assert not [r for r in reads if not any(
        h["start_address"] <= r.start and r.start + r.length <= h["start_address"] + h["length"]
        for h in blobs.values())]


def test_rerun_after_kill_between_count_blob_and_manifest(toy_inputs, monkeypatch):
    """Killed after count.p1's spill runs landed, as filter.p1's manifest
    replace began: no manifest names those runs, and the rerun counts anew."""
    out = toy_inputs / "out"
    cfg = run_config(toy_inputs)
    assert main(["run", "--config", str(cfg), "--out", str(toy_inputs / "ref")]) == 0
    save = Checkpoints.save

    def killed(src, dst):
        raise OSError("killed before the rename")

    def save_then_die(self, stage, payload):
        if stage == "filter.p1":
            monkeypatch.setattr(os, "replace", killed)
        save(self, stage, payload)

    monkeypatch.setattr(Checkpoints, "save", save_then_die)
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
    monkeypatch.undo()
    assert json.loads((out / "checkpoints.json").read_text())["stages"].keys() == {
        "filter.p0"}

    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    for name in OUTPUTS:
        assert (out / name).read_bytes() == (toy_inputs / "ref" / name).read_bytes()


@pytest.mark.parametrize("damage", ["cursor_past_the_end", "start_past_the_end",
                                    "ends_10_bytes_short"])
def test_rerun_appends_behind_the_furthest_blob_that_loads(toy_inputs, damage):
    """No manifest field and no damaged handle moves an append: the rerun's
    first write starts where filter.p0, the furthest blob that loads, ends."""
    namespace_end = 100000000  # run_config's namespace_size
    out = toy_inputs / "out"
    cfg = run_config(toy_inputs)
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    first = {name: (out / name).read_bytes() for name in OUTPUTS}
    manifest = out / "checkpoints.json"
    doc = json.loads(manifest.read_text())
    handle = doc["stages"]["filter.p1"]
    if damage == "cursor_past_the_end":  # as a manifest that stored its cursor could say
        doc["cursor"] = 10**15
        del doc["stages"]["filter.p1"]
    elif damage == "start_past_the_end":
        handle["start_address"] = namespace_end + 1
    else:
        handle["length"] = namespace_end - 10 - handle["start_address"]
    manifest.write_text(json.dumps(doc))

    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    for name, data in first.items():
        assert (out / name).read_bytes() == data
    with open(out / "trace.csv") as fh:
        writes = [r for r in parse_trace_csv(fh) if r.kind == "write"]
    loaded = doc["stages"]["filter.p0"]
    assert writes[0].start == loaded["start_address"] + loaded["length"]


@pytest.mark.parametrize("damage", [
    lambda h: h.update(start_address="64"),
    lambda h: h.update(start_address=None),
    lambda h: h.update(start_address=1.5),
    lambda h: h.update(extra=1),
    lambda h: h.pop("checksum"),
    lambda h: [h["start_address"], h["length"], h["checksum"]],
    lambda h: 64,
], ids=["str", "null", "float", "extra_key", "missing_key", "list", "number"])
def test_rerun_drops_a_manifest_entry_whose_field_is_no_int(toy_inputs, capsys, damage):
    """A malformed filter.p0 handle drops that entry alone: filter.p1 still
    loads from its checkpoint."""
    out = toy_inputs / "out"
    cfg = run_config(toy_inputs)
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    first = {name: (out / name).read_bytes() for name in OUTPUTS}
    manifest = out / "checkpoints.json"
    doc = json.loads(manifest.read_text())
    handle = doc["stages"]["filter.p0"]
    doc["stages"]["filter.p0"] = damage(handle) or handle
    manifest.write_text(json.dumps(doc))
    capsys.readouterr()

    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    for name, data in first.items():
        assert (out / name).read_bytes() == data
    stages = dict(line.split(": ", 1) for line in capsys.readouterr().out.splitlines()
                  if line.startswith("stage "))
    assert stages["stage filter.p1"].endswith("(checkpoint)")
    assert not stages["stage filter.p0"].endswith("(checkpoint)")


def test_rerun_drops_a_manifest_entry_for_a_partition_the_run_has_not(toy_inputs):
    """filter.p7 names no stage of a 2-partition run: no load tries it, so
    it must not place the cursor behind its far-off blob either."""
    out = toy_inputs / "out"
    cfg = run_config(toy_inputs)
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    first = {name: (out / name).read_bytes() for name in OUTPUTS}
    manifest = out / "checkpoints.json"
    doc = json.loads(manifest.read_text())
    del doc["stages"]["filter.p1"]
    doc["stages"]["filter.p7"] = {"start_address": 10**15, "length": 64, "checksum": 0}
    manifest.write_text(json.dumps(doc))

    for _ in range(2):  # the second rerun reads the manifest the first one saved
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        for name, data in first.items():
            assert (out / name).read_bytes() == data
        assert "filter.p7" not in json.loads(manifest.read_text())["stages"]


def test_unbounded_run_writes_only_its_checkpoints(toy_inputs):
    """At P = 1 with an unbounded table, count spills no run: the device holds
    filter.p0 alone, and nothing is read back."""
    out = toy_inputs / "out"
    cfg = run_config(toy_inputs, partitions=1, capacity_limit=0)
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    stages = json.loads((out / "checkpoints.json").read_text())["stages"]
    assert stages.keys() == {"filter.p0"}
    assert (out / "device0.dat").stat().st_size == sum(h["length"] for h in stages.values())
    with open(out / "trace.csv") as fh:
        assert {r.kind for r in parse_trace_csv(fh)} == {"write"}


def test_rerun_in_another_checkpoint_format_is_a_clean_miss(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(CONFIGS.parent)  # toy_run.conf names its inputs from the repo root
    out = tmp_path / "out"
    run = ["run", "--config", str(CONFIGS / "toy_run.conf"), "--out", str(out)]
    assert main(run) == 0
    first = {name: (out / name).read_bytes() for name in OUTPUTS}
    # the directory now holds checkpoints written in a format the program does not read
    monkeypatch.setattr(pipeline, "CHECKPOINT_FORMAT", pipeline.CHECKPOINT_FORMAT + "-next")
    capsys.readouterr()

    assert main(run) == 0
    stages = stage_lines(capsys.readouterr().out)
    assert "stage prune" in stages
    assert not [name for name, line in stages.items() if line.endswith("(checkpoint)")]
    for name, data in first.items():
        assert (out / name).read_bytes() == data


def test_rerun_on_a_manifest_cut_to_prune_alone(tmp_path, capsys, monkeypatch):
    """A manifest that names a prune blob alone, as a run that still
    checkpointed prune could leave: the rerun never reads it, computes every
    stage, appends from the device's start and saves a manifest without it."""
    monkeypatch.chdir(CONFIGS.parent)  # toy_run.conf names its inputs from the repo root
    out = tmp_path / "out"
    run = ["run", "--config", str(CONFIGS / "toy_run.conf"), "--out", str(out)]
    assert main(run) == 0
    first = {name: (out / name).read_bytes() for name in OUTPUTS}
    manifest = out / "checkpoints.json"
    doc = json.loads(manifest.read_text())
    doc["stages"] = {"prune": doc["stages"]["filter.p1"]}  # a blob that is no filter either
    manifest.write_text(json.dumps(doc))
    capsys.readouterr()

    assert main(run) == 0
    stages = stage_lines(capsys.readouterr().out)
    assert "stage prune" in stages
    assert not [name for name, line in stages.items() if line.endswith("(checkpoint)")]
    with open(out / "trace.csv") as fh:
        records = list(parse_trace_csv(fh))
    assert records[0].kind == "write" and records[0].start == 0
    assert json.loads(manifest.read_text())["stages"].keys() == {"filter.p0", "filter.p1"}
    for name, data in first.items():
        assert (out / name).read_bytes() == data


def test_rerun_with_another_min_candidates_loads_every_filter(tmp_path, capsys, monkeypatch):
    """Only group reads min_candidates, and group is no checkpointed stage:
    a rerun at another value loads every filter.pN and groups anew. Nor does
    a checkpoint depend on capacity_limit, which bounds count's table only,
    or on prune_fp: prune drops only k-mers seen once, which no candidate is."""
    monkeypatch.chdir(CONFIGS.parent)  # toy_run.conf names its inputs from the repo root
    toy = (CONFIGS / "toy_run.conf").read_text()
    assert "min_candidates = 3 " in toy and "capacity_limit = 256 " in toy
    assert "prune_fp = 0.01\n" in toy
    other = tmp_path / "min1.conf"
    other.write_text(toy.replace("min_candidates = 3 ", "min_candidates = 1 "))
    capacity = tmp_path / "capacity128.conf"
    capacity.write_text(toy.replace("capacity_limit = 256 ", "capacity_limit = 128 "))
    rate = tmp_path / "fp0.3.conf"
    rate.write_text(toy.replace("prune_fp = 0.01\n", "prune_fp = 0.3\n"))
    out, fresh = tmp_path / "out", tmp_path / "fresh"
    assert main(["run", "--config", str(CONFIGS / "toy_run.conf"), "--out", str(out)]) == 0
    first = {name: (out / name).read_bytes() for name in OUTPUTS}
    capsys.readouterr()

    for conf in (other, capacity, rate):
        assert main(["run", "--config", str(conf), "--out", str(out)]) == 0
        stages = stage_lines(capsys.readouterr().out)
        assert [name for name, line in stages.items() if line.endswith("(checkpoint)")] == [
            "stage filter.p0", "stage filter.p1"], conf.name
    for name, data in first.items():  # the prune_fp-0.3 rerun's outputs
        assert (out / name).read_bytes() == data
    assert main(["run", "--config", str(rate), "--out", str(tmp_path / "fresh_rate")]) == 0
    for name, data in first.items():  # a fresh run at that rate computes the same
        assert (tmp_path / "fresh_rate" / name).read_bytes() == data
    assert main(["run", "--config", str(other), "--out", str(out)]) == 0
    assert main(["run", "--config", str(other), "--out", str(fresh)]) == 0
    assert (out / "index.bin").read_bytes() == first["index.bin"]
    assert (out / "groups.csv").read_bytes() == (fresh / "groups.csv").read_bytes()
    assert (out / "groups.csv").read_bytes() != first["groups.csv"]


def test_rerun_of_a_directory_with_a_group_checkpoint(tmp_path, capsys, monkeypatch):
    """An output directory written while group, count.pN and prune were still
    checkpointed names a `group`, a `count.pN` and a `prune` blob in its
    manifest; a rerun never reads them and computes group and prune, and the
    manifest it rewrites (filter.p1 is recomputed) drops the names."""
    monkeypatch.chdir(CONFIGS.parent)  # toy_run.conf names its inputs from the repo root
    out = tmp_path / "out"
    run = ["run", "--config", str(CONFIGS / "toy_run.conf"), "--out", str(out)]
    assert main(run) == 0
    first = {name: (out / name).read_bytes() for name in OUTPUTS}
    manifest = out / "checkpoints.json"
    doc = json.loads(manifest.read_text())
    doc["stages"]["group"] = doc["stages"]["filter.p0"]  # a blob that is no group result
    doc["stages"]["count.p1"] = doc["stages"]["filter.p1"]  # nor a list of spill runs
    doc["stages"]["prune"] = doc["stages"].pop("filter.p1")  # nor a bloom filter
    manifest.write_text(json.dumps(doc))
    capsys.readouterr()

    assert main(run) == 0
    stages = stage_lines(capsys.readouterr().out)
    assert stages["stage filter.p0"].endswith("(checkpoint)")
    assert not stages["stage filter.p1"].endswith("(checkpoint)")
    assert not stages["stage group"].endswith("(checkpoint)")
    assert not stages["stage count.p1"].endswith("(checkpoint)")
    assert not stages["stage prune"].endswith("(checkpoint)")
    assert json.loads(manifest.read_text())["stages"].keys() == {"filter.p0", "filter.p1"}
    for name, data in first.items():
        assert (out / name).read_bytes() == data


@pytest.mark.parametrize("partitions", [1, 3])
def test_each_stage_output_written_once(toy_inputs, partitions):
    """A fresh run checkpoints each filter.pN, once, and nothing else
    (count's runs are not named, prune is recomputed by any run that counts,
    and group's output is read by no stage): no blob the manifest names
    repeats another, and each filter.pN holds its candidates' checkpoint
    encoding and nothing else, so no read's bases."""
    out = toy_inputs / "out"
    cfg = run_config(toy_inputs, partitions=partitions)
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    doc = json.loads((out / "checkpoints.json").read_text())
    assert doc.keys() == {"fingerprint", "stages"}  # the store appends behind the last blob
    stages = doc["stages"]
    assert stages.keys() == {f"filter.p{p}" for p in range(partitions)}
    device = (out / "device0.dat").read_bytes()
    payloads = {name: device[h["start_address"] + HEADER_SIZE:h["start_address"] + h["length"]]
                for name, h in stages.items()}
    assert len(set(payloads.values())) == len(payloads)
    for p in range(partitions):
        payload = payloads[f"filter.p{p}"]
        index = CandidateIndex.from_checkpoint(payload)
        assert index.candidates and index.to_checkpoint() == payload


class Killed(BaseException):
    """The process dies here: no handler in the program catches it."""


def run_killed_at(monkeypatch, argv, point, tear=False):
    """Run `argv`, killed just before persistent operation number `point`: a
    device-file write (with `tear`, after half its bytes land) or the
    manifest's os.replace. Returns the operations' kinds, or None if killed."""
    kinds = []
    write, replace = FileBacking.write, os.replace

    def reached(kind):
        if len(kinds) == point:
            raise Killed
        kinds.append(kind)

    def device_write(self, addr, data):
        if tear and len(kinds) == point:
            write(self, addr, data[:len(data) // 2])
        reached("write")
        write(self, addr, data)

    def manifest_replace(src, dst):
        reached("replace")
        replace(src, dst)

    with monkeypatch.context() as m:
        m.setattr(FileBacking, "write", device_write)
        m.setattr(os, "replace", manifest_replace)
        try:
            assert main(argv) == 0
        except Killed:
            return None
    return kinds


@pytest.mark.parametrize("tear", [False, True], ids=["kill", "tear"])
def test_rerun_after_kill_at_every_persistent_operation(tmp_path, monkeypatch, tear):
    """Kill a run at each device write and each manifest replace (or tear each
    device write in half); the rerun recovers the same outputs."""
    normal, tumoral = random_instance(seed=5, n_reads=40)
    write_fasta(tmp_path / "normal.fa", normal)
    write_fasta(tmp_path / "tumoral.fa", tumoral)
    cfg = run_config(tmp_path, capacity_limit=48, chunk_size=4096)
    ref = tmp_path / "ref"
    kinds = run_killed_at(monkeypatch, ["run", "--config", str(cfg), "--out", str(ref)],
                          point=-1)
    # each filter.pN writes a blob, then replaces the manifest; runs are blobs with no manifest
    assert kinds.count("replace") == 2
    assert kinds.count("write") > kinds.count("replace")
    points = [i for i, kind in enumerate(kinds) if kind == "write" or not tear]
    for point in points:
        out = tmp_path / f"killed{point}"
        argv = ["run", "--config", str(cfg), "--out", str(out)]
        assert run_killed_at(monkeypatch, argv, point, tear) is None
        assert main(argv) == 0
        for name in OUTPUTS:
            assert (out / name).read_bytes() == (ref / name).read_bytes(), (point, name)


@pytest.mark.parametrize("extra, message", [
    ({"hosts": 0}, "'hosts'"),
    ({"strategy": "composed_shared", "stripe_size": 0}, "'stripe_size'"),
    ({"strategy": "composed_shared", "composed_width": 4, "devices": 4, "instances": 4},
     "width 4"),
    ({"device_bw": 0}, "'device_bw'"),
    ({"device_bw": -1}, "'device_bw'"),
    ({"instances": 2.5}, "'instances'"),
    ({"repeats": 3.9}, "'repeats'"),
    ({"device_capacity": "1e999"}, "'device_capacity'"),
    ({"device_bw": "inf"}, "'device_bw'"),
    ({"jitter": "nan"}, "'jitter'"),
    ({"avg_bw": "nan"}, "'avg_bw'"),
    ({"avg_bw": 0}, "'avg_bw'"),
    ({"avg_bw": -1}, "'avg_bw'"),
    ({"avg_bw": 3000000000}, "'avg_bw'"),
    ({"fabric_latency_us": "nan"}, "'fabric_latency_us'"),
    ({"spill_chunk": 0}, "'spill_chunk'"),
    ({"spill_chunk": -5}, "'spill_chunk'"),
    ({"flush_chunk": 0}, "'flush_chunk'"),
    ({"total_output": 0}, "'total_output'"),
    ({"jitter": 5}, "'jitter'"),
    ({"jitter": -1}, "'jitter'"),
    ({"fabric_latency_us": -100000}, "'fabric_latency_us'"),
    ({"working_set": -1}, "'working_set'"),
    ({"host_memory": -1}, "'host_memory'"),
    ({"spill_factor": -2}, "'spill_factor'"),
    ({"device_capacity": 0}, "'device_capacity'"),
    ({"instances": 0}, "'instances'"),
    ({"instances": 3, "device_capacity": 1000000}, "namespace holds 333333"),
], ids=["no_hosts", "zero_stripe", "uncalibrated_width", "zero_bw", "negative_bw",
        "fractional_instances", "fractional_repeats", "overflowing_capacity", "infinite_bw",
        "nan_jitter", "nan_avg_bw", "zero_avg_bw", "negative_avg_bw", "avg_bw_above_limit",
        "nan_latency", "zero_spill_chunk", "negative_spill_chunk",
        "zero_flush_chunk", "zero_total_output", "jitter_above_1", "negative_jitter",
        "negative_latency", "negative_working_set", "negative_host_memory",
        "negative_spill_factor", "zero_capacity", "zero_instances", "namespace_too_small"])
def test_simulate_plan_errors_exit_2(tmp_path, capsys, extra, message):
    cfg = scenario_config(tmp_path, **extra)
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert message in capsys.readouterr().err


def test_compare_namespace_too_small_exits_2(tmp_path, capsys):
    """As under simulate: the scenario alone decides that an output cannot fit."""
    cfg = scenario_config(tmp_path, instances=3, device_capacity=1000000)
    assert main(["compare", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "instance 0 needs" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["simulate", "compare"])
@pytest.mark.parametrize("key, value", [
    ("instances", 0), ("hosts", 0), ("devices", 0), ("repeats", 2), ("composed_width", 1),
    ("stripe_size", 0),
])
def test_scenario_ranges_are_one_for_simulate_and_compare(tmp_path, capsys, command, key,
                                                          value):
    """A scenario count out of range is rejected as it loads, by both commands."""
    cfg = scenario_config(tmp_path, **{key: value})
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert f"key {key!r}: expected a value >= {value + 1}, got {value}" in (
        capsys.readouterr().err)
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["simulate", "compare"])
@pytest.mark.parametrize("key, value, message", [
    ("efficiency.width2", "1.0, 1.5", "key 'efficiency.width2': efficiency curve must be "
                                      "non-increasing"),
    ("efficiency.width3", "0.5", "key 'efficiency.width3': e(1) must be 1.0"),
    ("efficiency.width0", "1.0", "unknown config key 'efficiency.width0'"),
    ("efficiency.width01", "1.0", "unknown config key 'efficiency.width01'"),  # width 1 again
    ("efficiency.width2", "", "key 'efficiency.width2': efficiency curve needs at least one "
                              "point"),
    ("efficiency.width2", "1.0,, 0.9", "key 'efficiency.width2': empty item in "
                                       "comma-separated floats '1.0,, 0.9'"),
    ("efficiency.width2", "1.0, 0.9,", "key 'efficiency.width2': empty item in "
                                       "comma-separated floats '1.0, 0.9,'"),
    ("efficiency.width2", "1.0, x", "key 'efficiency.width2': expected comma-separated "
                                    "floats"),
], ids=["rising", "first_point_below_1", "width_0", "width_01", "empty", "empty_item",
        "trailing_comma", "no_float"])
def test_scenario_curves_are_checked_as_they_load(tmp_path, capsys, monkeypatch, command, key,
                                                  value, message):
    """An efficiency curve no composition builds is still checked, by both
    commands, before any simulation runs."""
    shipped = (CONFIGS / "scenario_default.conf").read_text()
    cfg = tmp_path / "scenario.conf"
    cfg.write_text(re.sub(rf"^{re.escape(key)} = .*$", lambda _: f"{key} = {value}", shipped,
                          flags=re.M) if key in shipped else shipped + f"{key} = {value}\n")
    started = []
    monkeypatch.setattr(cli, "simulate", lambda *a, **kw: started.append("simulate"))
    monkeypatch.setattr(cli, "compare_strategies", lambda *a, **kw: started.append("compare"))
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert started == []
    assert not (tmp_path / "o").exists()


def test_simulate_accepts_scenario_count_boundaries(tmp_path):
    cfg = scenario_config(tmp_path, instances=1, hosts=1, devices=1, repeats=3,
                          composed_width=2, stripe_size=1)
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    assert len((tmp_path / "o" / "completions.csv").read_text().splitlines()) == 2


def test_empty_scenario_loads_the_shipped_defaults(tmp_path):
    empty = tmp_path / "empty.conf"
    empty.write_text("")
    assert _load_scenario(empty) == _load_scenario(CONFIGS / "scenario_default.conf")


# sha256 of the shipped configs' outputs; a change must leave them as they are
SHIPPED_DIGESTS = {
    ("simulate", "scenario_default.conf"): {
        "completions.csv": "6c0f374ef6715606276b8ac46bced8f09a3524d31bf68355be6521ab937b1a8a",
        "bandwidth.csv": "a2b74b3c61d9382dbe4dc1dacd4fa5fa2058272dc8f63816c87964d8a1bcee64",
    },
    ("compare", "compare_n5.conf"): {
        "strategies.csv": "9daef188f8f39104ad8c08a4052f40bd32058b46e3c592e1d438dd4b059ea60a",
        "summary.txt": "2447a677ee7959ef4850f843caaaf03b26dda4ee7c5beb465f7eafe1431383b7",
    },
    ("run", "toy_run.conf"): {
        "index.bin": "4fa8f0432e3c0a0e1b518b5355fc805cac6b41b5b6296bd8fdd69be80fc468c6",
        "groups.csv": "1b1fc42ea84ab57952e2f415d90be65356f64e0d1013a6e2e506643dc1b07f1d",
        # the on-device format: a change to it re-pins these and says why. Last
        # re-pinned when spill runs were stored as their non-zero byte planes
        # where they were 16-byte records: the device fell from 112,387 to
        # 37,137 bytes, and each blob after the first run starts earlier
        "trace.csv": "3cb4b8b43aed9c311b6c5aaa49830299890682108f42ea56bee54baab0a1f171",
        "device0.dat": "fefcfeaf5de0570a3b649408796a43be55e26530c8e00291bc8719fe38824b04",
        # the manifest: the checkpoints' fingerprint and the filter.pN handles. A
        # fingerprint change silently turns every existing output directory into
        # a full recompute, so it is pinned too
        "checkpoints.json": "f5dc42fc3bf299370877ae7fbd3878119074cd9447d689bb36bc5b7e441ac9c4",
    },
}


@pytest.mark.parametrize("command, config", sorted(SHIPPED_DIGESTS))
def test_shipped_outputs_are_pinned(tmp_path, capsys, monkeypatch, command, config):
    monkeypatch.chdir(CONFIGS.parent)  # toy_run.conf names its inputs from the repo root
    out = tmp_path / "out"
    assert main([command, "--config", str(CONFIGS / config), "--out", str(out)]) == 0
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in SHIPPED_DIGESTS[command, config]}
    assert digests == SHIPPED_DIGESTS[command, config]
    if command == "compare":  # compare prints the summary it writes
        assert capsys.readouterr().out == (out / "summary.txt").read_text()


def width3_spill_digests(tmp_path, attachment):
    # neither shipped config drives a 3-wide composition with memory-pressure spill
    keys = {"instances": 6, "strategy": "composed_shared", "composed_width": 3, "hosts": 2,
            "attachment": attachment, "total_output": 1_500_000_000,
            "working_set": 320_000_000, "host_memory": 800_000_000, "spill_factor": 1.0}
    cfg = tmp_path / "width3.conf"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in keys.items()))
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out), "--seed", "101"]) == 0
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in ("completions.csv", "bandwidth.csv")}


def test_width3_spill_scenario_is_pinned(tmp_path):
    assert width3_spill_digests(tmp_path, "fabric") == {
        "completions.csv": "6c7358ab9dde51e636eb2958ca52bf0df5438884ae8244f0c71aa8583892110b",
        "bandwidth.csv": "c3f413236e395b6313b7fc51bae530b86f8a81f30b739c1fd412d95b3f2876df",
    }


def test_width3_spill_scenario_is_pinned_under_local_attachment(tmp_path):
    # local attachment starts each request at its issue time, with no latency
    assert width3_spill_digests(tmp_path, "local") == {
        "completions.csv": "868e92b87990a51ba1bdb5d2768850dffd8943a811f42a460acad4dd5e26947d",
        "bandwidth.csv": "ccda4aa293d22573d88368c6d30b7452e17615f52ddb7548fa7c24a5b6d59808",
    }


# completions.csv rounds to 1 us and bandwidth.csv to 1 B/s, so a reordered
# tie could leave both as they are: pin the floats themselves too
@pytest.mark.parametrize("attachment, digest", [
    ("fabric", "ee5c6c7b560db4698cd28e9961ec745b0ddeb4a9b287ef75122f9ec61406b60a"),
    ("local", "6f820fdca6f8a796f67e0ee0b2b8625acbb5469138acf4d6bf36d00a42f32b7b"),
])
def test_width3_spill_floats_are_pinned(tmp_path, monkeypatch, attachment, digest):
    results = []
    simulate = cli.simulate
    monkeypatch.setattr(cli, "simulate",
                        lambda *a, **kw: results.append(simulate(*a, **kw)) or results[-1])
    width3_spill_digests(tmp_path, attachment)
    (result,) = results
    assert hashlib.sha256(repr((result.completion_s, result.device_stats)).encode()
                          ).hexdigest() == digest


def test_simulate_deterministic_csv(tmp_path):
    cfg = scenario_config(tmp_path)
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    assert main(["simulate", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["simulate", "--config", str(cfg), "--out", str(out2)]) == 0
    assert (out1 / "completions.csv").read_bytes() == (out2 / "completions.csv").read_bytes()
    assert (out1 / "bandwidth.csv").read_bytes() == (out2 / "bandwidth.csv").read_bytes()
    header = (out1 / "bandwidth.csv").read_text().splitlines()[0]
    assert header == "bucket_start_us,device_id,bytes_per_s"


def test_simulate_seed_changes_output(tmp_path):
    cfg = scenario_config(tmp_path)
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    assert main(["simulate", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["simulate", "--config", str(cfg), "--out", str(out2),
                 "--seed", "99"]) == 0
    assert (out1 / "completions.csv").read_bytes() != (out2 / "completions.csv").read_bytes()


def test_compare_emits_verdicts(tmp_path, capsys):
    cfg = scenario_config(tmp_path, instances=5, hosts=6)
    out = tmp_path / "cmp"
    assert main(["compare", "--config", str(cfg), "--out", str(out)]) == 0
    summary = (out / "summary.txt").read_text()
    assert "verdict composed_beats_single = True" in summary
    csv = (out / "strategies.csv").read_text()
    assert csv.splitlines()[0] == "strategy,instance,seed,completion_s"


def test_trace_subcommand_on_pipeline_trace(toy_inputs, capsys):
    out = toy_inputs / "out"
    assert main(["run", "--config", str(run_config(toy_inputs)), "--out", str(out)]) == 0
    assert main(["trace", "--input", str(out / "trace.csv")]) == 0
    printed = capsys.readouterr().out
    aware = [l for l in printed.splitlines() if l.startswith("sequential_append_aware=")]
    assert aware and float(aware[0].split("=")[1]) >= 0.85


def test_trace_missing_input(tmp_path, capsys):
    for path in (str(tmp_path / "nope.csv"), ""):
        assert main(["trace", "--input", path]) == 2


def test_trace_stream_limit_default_is_the_classifiers(monkeypatch):
    # one default: the parser reads the classifier's constant as it is built
    monkeypatch.setattr(traceanalysis, "DEFAULT_STREAM_LIMIT", 5)
    args = cli.build_parser().parse_args(["trace", "--input", "trace.csv"])
    assert args.stream_limit == 5


def test_scenario_unknown_key(tmp_path, capsys):
    cfg = scenario_config(tmp_path, whatever=3)
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "whatever" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "simulate", "compare"])
@pytest.mark.parametrize("under", [False, True], ids=["file", "under_file"])
def test_out_at_or_under_a_regular_file_exits_2_untouched(toy_inputs, capsys, monkeypatch,
                                                          command, under):
    """Checked before any input is parsed or any simulation runs."""
    cfg = run_config(toy_inputs) if command == "run" else scenario_config(toy_inputs)
    blocker = toy_inputs / "taken"
    blocker.write_text("kept\n")
    out = blocker / "o" if under else blocker
    started = []
    monkeypatch.setattr(cli, "parse_reads", lambda *a: started.append("parse"))
    monkeypatch.setattr(cli, "simulate", lambda *a, **kw: started.append("simulate"))
    monkeypatch.setattr(cli, "compare_strategies", lambda *a, **kw: started.append("compare"))
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: --out {out}: {blocker} is not a directory\n"
    assert started == []
    assert blocker.read_text() == "kept\n"


def test_readme_run_key_table_lists_the_run_keys():
    """Every key `run` accepts has a row in README.md's run-key table, and no
    row names another."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    cells = [line.split("|")[1] for line in readme.splitlines() if line.startswith("| `")]
    assert {key for cell in cells for key in re.findall(r"`(\w+)`", cell)} == cli._RUN_KEYS


def test_readme_run_key_defaults_are_the_pipeline_defaults():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = {line.split("|")[1].strip(" `"): line.split("|")[3].strip()
            for line in readme.splitlines() if line.startswith("| `")}
    defaults = pipeline.PipelineConfig()
    for key in ("k", "partitions", "tau_t", "tau_n", "min_candidates", "prune_fp"):
        assert float(rows[key]) == getattr(defaults, key), key
    assert rows["capacity_limit"] == "0" and defaults.capacity_limit is None  # unbounded


def test_usage_error_exit_2():
    assert main(["unknown-subcommand"]) == 2
    assert main([]) == 2  # a command is required, and so is each of its flags below
    for command in ("run", "simulate", "compare"):
        assert main([command, "--out", "unused"]) == 2
        assert main([command, "--config", "unused"]) == 2
    assert main(["trace"]) == 2
