"""Tests of the benchmark itself, at smoke sizes.

Run from the root of the repository: python3 -m pytest -q perfbench
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="ascii"))
PER_WORKLOAD_NAMES = {
    "wall_s", "setup_s", "peak_rss_mb", "error_ratio", "construct_s", "verify_windows_per_s",
    "locate_oneshot_s", "lookup_p50_us", "lookup_p99_us", "lookups_per_s", "search_proof_s",
    "search_nodes_per_s",
}

sys.path[:0] = [str(ROOT / "src"), str(HERE)]
import workloads  # noqa: E402


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def results(trace: int) -> dict:
    return {
        w: json.loads((ROOT / ".perfbench" / f"result-{w}-seed5-trace{trace}.json").read_text())
        for w in workloads.WORKLOADS
    }


def smoke_all(trace: int):
    proc = run_bench("--workload", "all", "--seed", "5", "--seconds", "0.2", "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    total = json.loads(proc.stdout.splitlines()[-1])
    assert total["correct"] and total["failed"] == 0 and total["attempted"] > 0
    records = results(trace)
    for w, record in records.items():
        result = record["result"]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        wanted = SPEC["per_layer" if trace else "end_to_end"]
        assert list(result["metrics"]) == [m["name"] for m in wanted], w
        assert record["env"]["seed"] == 5 and record["env"]["nproc"] >= 1
    return proc, records


@pytest.fixture(scope="module")
def end_to_end():
    return smoke_all(0)


@pytest.fixture(scope="module")
def traced():
    return smoke_all(1)


def test_end_to_end_metrics_are_never_zero_and_per_workload_names_print(end_to_end):
    proc, records = end_to_end
    for w, record in records.items():
        assert all(m["value"] > 0 for m in record["result"]["metrics"].values()), w
    named = {line.split()[1] for line in proc.stdout.splitlines()
             if line.split()[:1] and line.split()[0] in workloads.WORKLOADS}
    assert PER_WORKLOAD_NAMES <= named


def test_every_per_layer_metric_is_measured_somewhere(traced):
    _, records = traced
    produced = set().union(*(record["layer"] for record in records.values()))
    assert {m["name"] for m in SPEC["per_layer"]} <= produced
    layer = records["construct"]["layer"]
    assert layer["periodic.steps"] == 12 - 6 and layer["aperiodic.steps"] == 10 - 2
    assert records["cli-session"]["layer"]["verifier.mutants_caught"] == 2


def test_counts_repeat_at_a_fixed_seed():
    layers = []
    for _ in range(2):
        proc = run_bench("--workload", "decode", "--seed", "9", "--seconds", "0.1", "--trace", "1", "--smoke")
        assert proc.returncode == 0, proc.stderr
        layers.append(json.loads(proc.stdout.splitlines()[-1])["metrics"])
    for name in ("verifier.windows", "locator.index_entries", "locator.hits", "locator.misses"):
        assert layers[0][name] == layers[1][name], name


def test_without_library_sources_exits_nonzero_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "construct", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_collision_check_rejects_a_false_counterexample():
    view = workloads.SeqView("0011010", cyclic=False, n=3)  # windows 001 011 110 101 010
    assert workloads.collision_error(view, {"i": 1, "j": 2, "kind": "reversed"}) is None
    assert workloads.collision_error(view, {"i": 3, "j": 3, "kind": "symmetric"}) is None
    assert workloads.collision_error(view, {"i": 0, "j": 1, "kind": "forward"}) is not None
    assert workloads.collision_error(view, {"i": 0, "j": 0, "kind": "symmetric"}) is not None
    assert workloads.collision_error(view, {"i": 0, "j": 9, "kind": "forward"}) is not None


def test_orientability_and_pin_checks_reject_wrong_sequences():
    assert workloads.orientable_error(workloads.SeqView("001010111", True, 6)) is None
    assert workloads.orientable_error(workloads.SeqView("001011111", True, 6)) is not None
    bits = workloads.periodic.build_orientable(workloads.periodic.DEFAULT_STARTER, 6, 12)[0].bits
    assert workloads.pin_error("periodic", 12, bits) is None
    flipped = bits[:-1] + ("1" if bits[-1] == "0" else "0")
    assert workloads.pin_error("periodic", 12, flipped) is not None
