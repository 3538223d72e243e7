"""CLI subcommands, exit codes, artifact reproducibility."""

import hashlib
import json
import os
import time
import zlib
from pathlib import Path

import pytest

from kmerfab import pipeline
from kmerfab.bloom import BloomFilter
from kmerfab.cli import _load_scenario, main
from kmerfab.fabric import FileBacking
from kmerfab.kmers import Origin, canonical_codes, parse_reads
from kmerfab.pipeline import Checkpoints
from kmerfab.spill import HEADER_SIZE, decode_handles
from kmerfab.traceanalysis import parse_trace_csv
from conftest import random_instance

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def write_fasta(path, reads):
    with open(path, "w") as fh:
        for r in reads:
            fh.write(f">r{r.id}\n{r.bases}\n")


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
    else:  # filter.p0, which a rerun reads; only a filter pass that runs reads prune
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
    """Leave the manifest a run killed after saving count.p1 leaves behind."""
    manifest = out / "checkpoints.json"
    doc = json.loads(manifest.read_text())
    for stage in ("filter.p1", "group"):
        del doc["stages"][stage]
    manifest.write_text(json.dumps(doc))


def flip_byte_in_run_of(out, stage):
    """Damage the payload of the first spill run a count.pN checkpoint names."""
    blob = json.loads((out / "checkpoints.json").read_text())["stages"][stage]
    device = bytearray((out / "device0.dat").read_bytes())
    payload = device[blob["start_address"] + HEADER_SIZE:blob["start_address"] + blob["length"]]
    run = decode_handles(bytes(payload))[0]
    device[run.start_address + HEADER_SIZE + 3] ^= 0xFF
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
    assert stages["stage count.p1"].endswith("(checkpoint)")  # loaded, not counted again
    assert not stages["stage filter.p1"].endswith("(checkpoint)")
    for name, data in first.items():
        assert (out / name).read_bytes() == data


def test_rerun_recounts_partition_whose_spill_run_is_damaged(toy_inputs, capsys,
                                                             monkeypatch):
    out = toy_inputs / "out"
    cfg = run_config(toy_inputs)
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    first = {name: (out / name).read_bytes() for name in OUTPUTS}
    kill_after_count_p1(out)
    flip_byte_in_run_of(out, "count.p1")
    held = []
    count = pipeline.count

    def spy(codes, prune_filter, partition_id, table, store):
        held.append([part is not None for part in codes.codes])
        return count(codes, prune_filter, partition_id, table, store)

    monkeypatch.setattr(pipeline, "count", spy)
    capsys.readouterr()

    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    stages = stage_lines(capsys.readouterr().out)
    assert stages["stage filter.p0"].endswith("(checkpoint)")
    assert not stages["stage count.p1"].endswith("(checkpoint)")
    # only count.p1 ran; filter.p0 was loaded, so bucket 0 was freed unread
    assert held == [[False, True]]
    for name, data in first.items():
        assert (out / name).read_bytes() == data


@pytest.mark.parametrize("stage, consumers", [
    ("prune", ["filter.p0"]),  # only a computed filter.pN loads prune
    ("count.p0", ["filter.p0"]),
    ("filter.p0", []),
    ("filter.p1", []),
    ("group", []),
])
def test_rerun_recomputes_checkpoint_that_does_not_decode(toy_inputs, capsys, stage,
                                                          consumers):
    out = toy_inputs / "out"
    cfg = run_config(toy_inputs)
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    first = {name: (out / name).read_bytes() for name in OUTPUTS}
    # a loaded consumer would skip the damaged stage: drop its checkpoint
    manifest = out / "checkpoints.json"
    doc = json.loads(manifest.read_text())
    for name in consumers:
        del doc["stages"][name]
    manifest.write_text(json.dumps(doc))
    # zeros of the same length, behind a header whose CRC they pass
    handle = doc["stages"][stage]
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


@pytest.mark.parametrize("dropped, loaded", [
    (("count.p1", "filter.p1", "group"), "filter.p0"),
    # a run killed after saving count.p0, before filter.p0
    (("filter.p0", "count.p1", "filter.p1", "group"), "count.p0"),
], ids=["filter_p0_loaded", "count_p0_loaded"])
def test_rerun_recomputes_damaged_prune_before_freeing_a_bucket(toy_inputs, capsys,
                                                                dropped, loaded):
    """A damaged prune checkpoint at P = 2 under a loaded filter.p0, or under a
    loaded count.p0 whose filter.p0 is computed: the first filter pass that
    runs recomputes prune over every bucket, bucket 0 included, before any
    pass frees bucket 0."""
    out = toy_inputs / "out"
    cfg = run_config(toy_inputs)
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    first = {name: (out / name).read_bytes() for name in OUTPUTS}
    manifest = out / "checkpoints.json"
    doc = json.loads(manifest.read_text())
    for name in dropped:
        del doc["stages"][name]
    manifest.write_text(json.dumps(doc))
    handle = doc["stages"]["prune"]
    device = bytearray((out / "device0.dat").read_bytes())
    device[handle["start_address"] + HEADER_SIZE] ^= 0xFF
    (out / "device0.dat").write_bytes(bytes(device))
    capsys.readouterr()

    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    stages = stage_lines(capsys.readouterr().out)
    assert stages[f"stage {loaded}"].endswith("(checkpoint)")
    assert not stages["stage prune"].endswith("(checkpoint)")
    for name, data in first.items():
        assert (out / name).read_bytes() == data


def test_rerun_that_counts_nothing_reads_no_prune_checkpoint(toy_inputs, capsys):
    out = toy_inputs / "out"
    cfg = run_config(toy_inputs)
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    prune = json.loads((out / "checkpoints.json").read_text())["stages"]["prune"]
    capsys.readouterr()

    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    assert "stage prune" not in stage_lines(capsys.readouterr().out)
    with open(out / "trace.csv") as fh:
        reads = [r for r in parse_trace_csv(fh) if r.kind == "read"]
    assert reads  # the rerun loads the filter.pN and group checkpoints
    end = prune["start_address"] + prune["length"]
    assert not [r for r in reads if r.start < end and prune["start_address"] < r.start + r.length]


def test_rerun_after_kill_between_count_blob_and_manifest(toy_inputs, monkeypatch):
    out = toy_inputs / "out"
    cfg = run_config(toy_inputs)
    assert main(["run", "--config", str(cfg), "--out", str(toy_inputs / "ref")]) == 0
    save = Checkpoints.save

    def killed(src, dst):
        raise OSError("killed before the rename")

    def save_then_die(self, stage, payload):
        if stage == "count.p1":
            monkeypatch.setattr(os, "replace", killed)
        save(self, stage, payload)

    monkeypatch.setattr(Checkpoints, "save", save_then_die)
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
    monkeypatch.undo()
    assert "count.p1" not in json.loads((out / "checkpoints.json").read_text())["stages"]

    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    for name in OUTPUTS:
        assert (out / name).read_bytes() == (toy_inputs / "ref" / name).read_bytes()


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


@pytest.mark.parametrize("partitions", [1, 3])
def test_each_stage_output_written_once(toy_inputs, partitions):
    """A fresh run checkpoints each stage output a later stage reads, once:
    no blob the manifest names repeats another, and the prune blob is the
    seen-multi filter alone, with half of seen-once's words."""
    out = toy_inputs / "out"
    cfg = run_config(toy_inputs, partitions=partitions)
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    stages = json.loads((out / "checkpoints.json").read_text())["stages"]
    assert stages.keys() == {"prune", "group", *(f"{kind}.p{p}" for kind in ("count", "filter")
                                                 for p in range(partitions))}
    device = (out / "device0.dat").read_bytes()
    payloads = {name: device[h["start_address"] + HEADER_SIZE:h["start_address"] + h["length"]]
                for name, h in stages.items()}
    assert len(set(payloads.values())) == len(payloads)

    reads = []
    for name, origin in (("normal", Origin.NORMAL), ("tumoral", Origin.TUMORAL)):
        with open(toy_inputs / f"{name}.fa") as fh:
            reads += parse_reads(fh, origin)
    n_codes = sum(len(canonical_codes(r.bases, 15)) for r in reads)
    seen_once_words = BloomFilter.with_capacity(n_codes, 0.01).n_bits // 64
    assert len(payloads["prune"]) == 12 + 8 * -(-seen_once_words // 2)


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
    # every stage writes a blob, then replaces the manifest; runs are blobs with no manifest
    assert kinds.count("replace") == 2 + 2 * 2
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
], ids=["no_hosts", "zero_stripe", "uncalibrated_width", "zero_bw", "negative_bw",
        "fractional_instances", "fractional_repeats", "overflowing_capacity", "infinite_bw",
        "nan_jitter", "nan_avg_bw", "zero_avg_bw", "negative_avg_bw", "avg_bw_above_limit",
        "nan_latency", "zero_spill_chunk", "negative_spill_chunk",
        "zero_flush_chunk", "zero_total_output", "jitter_above_1", "negative_jitter",
        "negative_latency", "negative_working_set", "negative_host_memory",
        "negative_spill_factor", "zero_capacity", "zero_instances"])
def test_simulate_plan_errors_exit_2(tmp_path, capsys, extra, message):
    cfg = scenario_config(tmp_path, **extra)
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert message in capsys.readouterr().err


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
        # the on-device format: a change to it re-pins these and says why
        "trace.csv": "7288491200baeac5c2e6d261b1a81c1ebf5ac14004015f7b64ddd15ea7b89f49",
        "device0.dat": "3199b0e6940ccdeb8c7fb69de31a1cf0137ebe37428b36c9a254a6169dd8d1bb",
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


def test_width3_spill_scenario_is_pinned(tmp_path):
    # neither shipped config drives a 3-wide composition with memory-pressure spill
    keys = {"instances": 6, "strategy": "composed_shared", "composed_width": 3, "hosts": 2,
            "attachment": "fabric", "total_output": 1_500_000_000,
            "working_set": 320_000_000, "host_memory": 800_000_000, "spill_factor": 1.0}
    cfg = tmp_path / "width3.conf"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in keys.items()))
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out), "--seed", "101"]) == 0
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in ("completions.csv", "bandwidth.csv")}
    assert digests == {
        "completions.csv": "6c7358ab9dde51e636eb2958ca52bf0df5438884ae8244f0c71aa8583892110b",
        "bandwidth.csv": "c3f413236e395b6313b7fc51bae530b86f8a81f30b739c1fd412d95b3f2876df",
    }


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


def test_scenario_unknown_key(tmp_path, capsys):
    cfg = scenario_config(tmp_path, whatever=3)
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "whatever" in capsys.readouterr().err


def test_usage_error_exit_2():
    assert main(["unknown-subcommand"]) == 2
