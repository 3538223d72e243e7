"""The benchmark's own tests: python3 -m pytest perfbench -q (from the repo root)."""

import json
import sys
from pathlib import Path

import pytest

import inputs
import run
import tracing

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from kmerfab.stages import CandidateEntry, CandidateIndex  # noqa: E402


def test_generator_same_seed_same_bytes(tmp_path):
    props = [inputs.write_inputs(7, tmp_path / d) for d in ("a", "b")]
    for name in ("normal.fa", "tumoral.fa"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    assert props[0] == props[1]
    assert props[0]["reads"] == 2 * inputs.READS_PER_SAMPLE
    assert props[0]["bases"] == props[0]["reads"] * inputs.READ_LEN
    inputs.write_inputs(8, tmp_path / "c")
    assert (tmp_path / "c" / "normal.fa").read_bytes() != (tmp_path / "a" / "normal.fa").read_bytes()


def test_read_counts_and_valid_windows():
    normal, tumoral = inputs.make_reads(3)
    assert len(normal) == len(tumoral) == inputs.READS_PER_SAMPLE
    assert inputs.valid_windows(["ACGTNACGT"], k=3) == 4


def test_self_times_on_hand_built_tree():
    names = ["cli.run", "stages.count", "bloom.contains"]
    #        id  name  parent start  end
    spans = [(0, 0, -1, 0.0, 10.0),   # cli.run: 10 s, child count 6 s
             (1, 1, 0, 1.0, 7.0),     # stages.count: 6 s, children 1 + 2 s
             (2, 2, 1, 2.0, 3.0),
             (3, 2, 1, 4.0, 6.0),
             (4, 2, 0, 8.0, 8.5)]     # bloom directly under cli.run
    cols = list(zip(*spans))[1:]
    times = tracing.self_times(names, *cols)
    assert times["cli.run"] == {"calls": 1, "total_s": 10.0, "self_s": 3.5}
    assert times["stages.count"] == {"calls": 1, "total_s": 6.0, "self_s": 3.0}
    assert times["bloom.contains"] == {"calls": 3, "total_s": 3.5, "self_s": 3.5}
    total_self = sum(t["self_s"] for t in times.values())
    assert total_self == pytest.approx(times["cli.run"]["total_s"])


def test_tracer_records_nesting_and_round_trips(tmp_path, monkeypatch):
    ticks = iter(range(100))
    monkeypatch.setattr(tracing, "clock", lambda: float(next(ticks)))
    tracer = tracing.Tracer()
    inner = tracer.span("inner", lambda x: [x] * x, after=lambda args, out: tracer.add("n", len(out)))
    outer = tracer.span("outer", lambda: inner(2) + inner(3))
    assert outer() == [2, 2, 3, 3, 3]
    tracer.write(tmp_path / "spans")
    names, name_ids, parents, starts, ends = tracing.read_spans(tmp_path / "spans")
    assert [names[i] for i in name_ids] == ["outer", "inner", "inner"]
    assert list(parents) == [-1, 0, 0]
    times = tracing.self_times(names, name_ids, parents, starts, ends)
    # outer 0..5, inner 1..2 and 3..4
    assert times["outer"]["self_s"] == 3.0 and times["inner"]["self_s"] == 2.0
    assert tracer.counts == {"n": 5}


def test_timings_rescale_wall_time_by_the_median_sample():
    result = {"calls": [{"argv": ["simulate"], "s": 3.0}, {"argv": ["compare"], "s": 2.0}],
              "calibration_s": [0.02, 0.01, 0.015, 0.5]}
    t = run.timings(result)
    assert (t["simulate_s"], t["compare_s"], t["wall_s"]) == (3.0, 2.0, 5.0)
    assert t["calibration_s"] == pytest.approx(0.0175)
    assert t["cal_wall_s"] == pytest.approx(5.0 * run.CAL_REF_S / 0.0175)


def write_pipeline_outputs(out: Path) -> dict[str, bytes]:
    out.mkdir()
    index = CandidateIndex(31)
    index.candidates[12345] = CandidateEntry(0, 5)
    (out / "index.bin").write_bytes(index.to_bytes())
    (out / "groups.csv").write_text("seed_origin,seed_id,n_members,members,shared_kmers\n"
                                    "tumoral,0,1,t0,12345\n")
    return {name: (out / name).read_bytes() for name in ("index.bin", "groups.csv")}


TRACE_OK = "total_writes=10\nsequential_naive=1.0000\nsequential_append_aware=1.0000\n"


def test_pipeline_checks_pass_then_a_corrupted_index_fails(tmp_path):
    out = tmp_path / "out"
    reference = write_pipeline_outputs(out)
    ledger = run.Ledger()
    run.check_pipeline(ledger, out, TRACE_OK, reference)
    assert (ledger.attempted, ledger.failed) == (3, 0)

    data = bytearray(reference["index.bin"])
    data[20] ^= 0xFF
    (out / "index.bin").write_bytes(bytes(data))
    run.check_pipeline(ledger, out, TRACE_OK, reference)
    assert ledger.failed == 2  # damaged index, and no longer equal to the reference
    assert ledger.error_rate > 0


def test_low_append_aware_ratio_fails(tmp_path):
    out = tmp_path / "out"
    write_pipeline_outputs(out)
    ledger = run.Ledger()
    run.check_pipeline(ledger, out, "sequential_append_aware=0.8400\n", None)
    assert (ledger.attempted, ledger.failed) == (2, 1)


def test_missing_or_malformed_outputs_fail_their_checks(tmp_path):
    out = tmp_path / "out"
    reference = write_pipeline_outputs(out)
    (out / "groups.csv").unlink()
    ledger = run.Ledger()
    run.check_pipeline(ledger, out, "sequential_append_aware=n/a\n", reference)
    assert (ledger.attempted, ledger.failed) == (3, 3)

    (out / "index.bin").write_bytes(b"KFIDXv1\x00")
    ledger = run.Ledger()
    run.check_pipeline(ledger, out, TRACE_OK, None)
    assert (ledger.attempted, ledger.failed) == (2, 1)


def write_sim_outputs(tmp_path: Path, verdict: str) -> tuple[Path, Path]:
    sim_out, cmp_out = tmp_path / "sim", tmp_path / "cmp"
    sim_out.mkdir(parents=True)
    cmp_out.mkdir()
    rows = [f"{i},1,3.7,{b}" for i, b in enumerate(run.expected_bytes_written(run.SIM_SCENARIO))]
    (sim_out / "completions.csv").write_text(
        "\n".join(["instance,seed,completion_s,bytes_written", *rows]) + "\n")
    (cmp_out / "summary.txt").write_text(
        f"verdict composed_beats_single = True\nverdict dedicated_no_gain = {verdict}\n")
    return sim_out, cmp_out


def test_expected_bytes_follow_host_memory_pressure():
    # 6 instances on 2 hosts: 3 x 320 MB against 800 MB, multiplier 1 + 160/960
    assert run.expected_bytes_written(run.SIM_SCENARIO) == [1_750_000_000] * 6
    assert run.expected_bytes_written(dict(run.SIM_SCENARIO, hosts=6)) == [1_500_000_000] * 6


def test_sim_checks_pass_then_a_false_verdict_fails(tmp_path):
    ledger = run.Ledger()
    run.check_sim(ledger, *write_sim_outputs(tmp_path / "ok", "True"), run.SIM_SCENARIO)
    assert (ledger.attempted, ledger.failed) == (2, 0)
    run.check_sim(ledger, *write_sim_outputs(tmp_path / "bad", "False"), run.SIM_SCENARIO)
    assert ledger.failed == 1 and ledger.error_rate == 0.25


def test_sim_checks_fail_on_missing_or_malformed_files(tmp_path):
    sim_out, cmp_out = write_sim_outputs(tmp_path, "True")
    (sim_out / "completions.csv").write_text("instance,seed,completion_s,bytes_written\n0,1\n")
    (cmp_out / "summary.txt").unlink()
    ledger = run.Ledger()
    run.check_sim(ledger, sim_out, cmp_out, run.SIM_SCENARIO)
    assert (ledger.attempted, ledger.failed) == (2, 2)


def test_served_bytes_integrates_bandwidth_buckets(tmp_path):
    csv = tmp_path / "bandwidth.csv"
    csv.write_text("bucket_start_us,device_id,bytes_per_s\n"
                   "0,0,100\n10000,0,300\n0,1,50\n10000,1,0\n")
    assert run.served_bytes(csv) == pytest.approx(4.5)
    csv.write_text("bucket_start_us,device_id,bytes_per_s\n0,0,100\n")
    with pytest.raises(IndexError):
        run.served_bytes(csv)


def test_benchmark_json_matches_the_code():
    doc = json.loads((REPO / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == run.WORKLOADS
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]} == tracing.PER_LAYER
