"""Self-tests of the benchmark at tiny sizes (d=2, a few requests, trials=1).

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(cwd / "bench" / "run.py"), "--seconds", "0.1", *args]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=170, cwd=cwd)


def last_json(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_declared_metrics_match_the_code():
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in BENCHMARK["per_layer"]] == list(run.LAYER_METRICS)
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS) == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", ["verify-d3", "reduce-mix"])
def test_every_end_to_end_metric_is_printed_with_its_unit(workload):
    proc = bench("--workload", workload, "--seed", "0", "--trace", "0", "--scale", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    for metric in BENCHMARK["end_to_end"]:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert got["value"] > 0
        assert any(line.split()[1:2] == [metric["name"]] and line.split()[3] == metric["unit"] for line in proc.stdout.splitlines())
    assert len(result["metrics"]) == len(BENCHMARK["end_to_end"])
    assert "failed_ratio" in proc.stdout


@pytest.mark.parametrize("workload,busy", [
    ("verify-d3", "verify.pairs"),
    ("oracle-d3", "oracle.apply.calls"),
    ("reduce-mix", "expr.parse.calls"),
])
def test_traced_run_emits_every_per_layer_metric(workload, busy):
    proc = bench("--workload", workload, "--seed", "0", "--trace", "1", "--scale", "tiny")
    assert proc.returncode == 0, proc.stderr
    metrics = last_json(proc)["metrics"]
    assert list(metrics) == [m["name"] for m in BENCHMARK["per_layer"]]
    for metric in BENCHMARK["per_layer"]:
        assert metrics[metric["name"]]["unit"] == metric["unit"]
    assert metrics[busy]["value"] > 0
    assert metrics["coeff.mul.calls"]["value"] > 0
    assert metrics["trace.overhead_ratio"]["value"] > 0
    details = json.loads(proc.stdout.strip().splitlines()[-2])
    spans = json.loads((ROOT / details["spans"]).read_text())
    assert spans["spans"] and spans["fields"] == ["name", "start_s", "end_s", "parent", "op"]


def test_corrupted_reference_digest_fails_the_run(tmp_path):
    reference = json.loads((BENCH / "reference.json").read_text())
    entry = reference["reduce-mix/tiny"]
    entry["sha256"] = "0" * 64
    path = tmp_path / "reference.json"
    path.write_text(json.dumps(reference))
    proc = bench("--workload", "reduce-mix", "--seed", str(entry["seed"]), "--trace", "0", "--scale", "tiny", "--reference", str(path))
    assert proc.returncode == 1
    assert last_json(proc)["correct"] is False


def test_reference_digest_holds_for_the_default_seed():
    proc = bench("--workload", "reduce-mix", "--seed", "0", "--trace", "0", "--scale", "tiny")
    details = json.loads(proc.stdout.strip().splitlines()[-2])
    assert proc.returncode == 0 and details["digest_checked"] and details["digest_ok"]


def test_reduce_mix_generator_is_deterministic():
    for scale in (workloads.TINY, workloads.FULL):
        assert workloads.make_requests(7, scale) == workloads.make_requests(7, scale)
        assert workloads.make_requests(7, scale) != workloads.make_requests(8, scale)
    requests = workloads.make_requests(3, workloads.FULL)
    assert len(requests) == 160
    assert sum(r.jacobi for r in requests) == 80
    assert {r.d for r in requests} == {2, 3, 4, 5}


def test_round_trip_recursion_error_is_a_failed_op_not_a_crash():
    # a canonical text of about a thousand terms overflows the evaluator's
    # recursion; it must be counted, and must not stop the run
    text = " + ".join(f"x1^{k}" for k in range(1, 1200))
    assert workloads.round_trip_error(text, 2).startswith("RecursionError")
    request = workloads.Request("r0", 2, False, "x1")
    inputs = {"seed": 5, "scale": workloads.TINY, "requests": [request]}
    records = [workloads.OpRecord("r0", 0.001, 0.001)]
    outcome = workloads.WORKLOADS["reduce-mix"].verdicts(inputs, {"texts": {"r0": text}}, records, {})
    assert (outcome.attempted, outcome.failed, outcome.wrong) == (1, 1, 0)
    assert outcome.correct


def test_wrong_jacobi_verdict_fails_the_run():
    request = workloads.Request("r0", 2, True, "[[x1, p1], x1]")
    inputs = {"seed": 5, "scale": workloads.TINY, "requests": [request]}
    outcome = workloads.WORKLOADS["reduce-mix"].verdicts(inputs, {"texts": {"r0": "x1"}}, [workloads.OpRecord("r0", 0.001, 0.001)], {})
    assert outcome.failed == 1 and not outcome.correct


def test_host_speed_is_sampled_inside_long_ops_and_taken_off_their_time():
    def busy(seconds):
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            pass

    clock = workloads.OpClock()
    clock.call("op", busy, 0.3)
    record = clock.records[0]
    # the op spins until 0.3 s have passed; about six samples of at least
    # 0.9 ms each ran inside it, and their time is not the op's
    assert 0.2 < record.seconds < 0.296
    assert record.scaled > 0


def test_harrell_davis_median_and_tail():
    assert run.harrell_davis(list(range(1, 102)), 0.5) == pytest.approx(51)
    assert run.harrell_davis([4.0], 0.5) == 4.0
    assert 90 < run.harrell_davis(list(range(1, 101)), 0.9) < 91


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile(list(range(1, 101))) == (90, 90, 10)
    assert run.tail_percentile(list(range(1, 601))) == (98, 588, 12)
    assert run.tail_percentile([3.0, 1.0, 2.0]) == (100, 3.0, 0)


def test_fails_without_the_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("--workload", "reduce-mix", "--seed", "0", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
