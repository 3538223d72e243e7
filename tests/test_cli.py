"""CLI subcommands, exit codes, artifact reproducibility."""

import json
import os
import time
import zlib

import pytest

from kmerfab import pipeline
from kmerfab.cli import main
from kmerfab.pipeline import Checkpoints
from kmerfab.spill import HEADER_SIZE, decode_handles
from conftest import random_instance


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


def test_run_missing_input_exit_2(tmp_path, capsys):
    cfg = tmp_path / "bad.conf"
    cfg.write_text(f"normal = {tmp_path}/nope.fa\ntumoral = {tmp_path}/nope2.fa\n")
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "nope.fa" in capsys.readouterr().err


def test_run_unknown_config_key_exit_2(toy_inputs, capsys):
    cfg = run_config(toy_inputs, bogus_key=1)
    assert main(["run", "--config", str(cfg), "--out", str(toy_inputs / "o")]) == 2
    assert "bogus_key" in capsys.readouterr().err


@pytest.mark.parametrize("extra, message", [
    ({"device_bw": 0}, "bandwidth"),
    ({"device_bw": -1}, "bandwidth"),
    ({"device_capacity": 0}, "capacity"),
    ({"namespace_size": 200000000}, "namespace_size"),
    ({"namespace_size": 0}, "namespace_size"),
], ids=["zero_bw", "negative_bw", "zero_capacity", "namespace_over_capacity",
        "zero_namespace"])
def test_run_bad_device_exit_2(toy_inputs, capsys, extra, message):
    cfg = run_config(toy_inputs, **extra)
    assert main(["run", "--config", str(cfg), "--out", str(toy_inputs / "o")]) == 2
    assert message in capsys.readouterr().err
    # rejected before anything is written: no device0.dat, no trace.csv
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
    else:
        handle = json.loads(manifest.read_text())["stages"]["prune"]
        data = bytearray(device.read_bytes())
        data[handle["start_address"] + HEADER_SIZE + handle["payload_length"] // 2] ^= 0xFF
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
    for stage in ("filter.p1", "merge", "group"):
        del doc["stages"][stage]
    manifest.write_text(json.dumps(doc))


def flip_byte_in_run_of(out, stage):
    """Damage the payload of the first spill run a count.pN checkpoint names."""
    blob = json.loads((out / "checkpoints.json").read_text())["stages"][stage]
    device = bytearray((out / "device0.dat").read_bytes())
    payload = device[blob["start_address"] + HEADER_SIZE:
                     blob["start_address"] + HEADER_SIZE + blob["payload_length"]]
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
    ("prune", []),
    ("count.p0", ["filter.p0", "merge"]),
    ("filter.p0", ["merge"]),
    ("merge", []),
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
    payload = bytes(handle["payload_length"])
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


@pytest.mark.parametrize("extra", [
    {"hosts": 0},
    {"strategy": "composed_shared", "stripe_size": 0},
    {"strategy": "composed_shared", "composed_width": 4, "devices": 4, "instances": 4},
    {"device_bw": 0},
    {"device_bw": -1},
], ids=["no_hosts", "zero_stripe", "uncalibrated_width", "zero_bw", "negative_bw"])
def test_simulate_plan_errors_exit_2(tmp_path, capsys, extra):
    cfg = scenario_config(tmp_path, **extra)
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "error:" in capsys.readouterr().err


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
