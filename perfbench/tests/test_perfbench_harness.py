"""The harness on tiny sizes, its determinism, and its command-line contract."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import spans
import workloads

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent


def test_tiny_run_is_checked_and_reports_end_to_end_metrics():
    record = run.run("fixed-basis", seed=3, seconds=0, trace=False, tiny=True)
    assert record["correct"], record["failures"]
    # One pass of four ops plus the determinism re-run.
    assert record["attempted"] == 5 and record["failed"] == 0
    assert record["determinism"]["same"]
    assert set(record["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in record["metrics"].values())
    env = record["environment"]
    assert env["threads"]["OPENBLAS_NUM_THREADS"] == "1" and env["seed"] == 3
    assert len(env["src_sha256"]) == 64


def test_tiny_traced_run_reports_every_layer_metric():
    record = run.run("mdms-family", seed=2, seconds=0, trace=True, tiny=True)
    metrics = {k: v["value"] for k, v in record["metrics"].items()}
    assert set(metrics) == set(spans.METRICS)
    eps_points = int(record["sizes"]["scan_epsilon_points"].split("..")[0])
    assert metrics["mdms.cells"] == workloads.THETA_POINTS * eps_points
    assert metrics["mdms.searches"] == eps_points + 2
    assert metrics["trace.spans"] > 0 and metrics["mdms.scan_s"] > 0
    # One untraced and one traced pass, each op checked.
    assert record["attempted"] == 2 * record["sizes"]["ops_per_pass"]


def test_failures_are_counted_with_their_input():
    workload = workloads.fixed_basis(tiny=True)
    ops = workload.make_pass(1, 0)
    ops[0].check = lambda result: ["forced"]
    ops[1].run = lambda: 1 / 0
    ledger = run.Ledger()
    for op in ops:
        ledger.execute(op, 0)
    assert ledger.attempted == 4 and ledger.failed == 2
    assert ledger.failures[0]["input"] == ops[0].label
    assert "ZeroDivisionError" in ledger.failures[1]["messages"][0]


def _digests(seed):
    code = ("import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]; import run, json; "
            f"r = run.run('report-2q', seed={seed}, seconds=0, trace=False, tiny=True); "
            "print(json.dumps([r['digests'], r['correct']]))")
    env = dict(os.environ, PYTHONHASHSEED=str(seed + 11))
    out = subprocess.run([sys.executable, "-c", code, str(ROOT / "src"), str(BENCH)],
                         capture_output=True, text=True, timeout=300, check=True, env=env)
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_same_seed_same_digests_across_processes():
    first, second, other = _digests(4), _digests(4), _digests(5)
    assert first[0] == second[0]
    assert first[0] != other[0]


def test_command_line_prints_the_result_line_last():
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "fixed-basis",
                          "--seed", "1", "--seconds", "0", "--trace", "0"],
                         cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END


@pytest.mark.parametrize("argv", [["--workload", "nope", "--seed", "1", "--seconds", "1"], []])
def test_bad_arguments_exit_nonzero(argv):
    out = subprocess.run([sys.executable, "perfbench/run.py", *argv], cwd=ROOT,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode != 0 and out.stdout == ""


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "fixed-basis",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0 and out.stdout == ""
