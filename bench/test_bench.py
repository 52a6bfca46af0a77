"""Self-test of the benchmark.

    python3 -m pytest -q bench/test_bench.py

Each test runs the real benchmark with --seconds 1 (one pass of each
kind), so the whole file takes a little over a minute on two cores.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
COUNT_UNITS = {m["name"] for m in SPEC["per_layer"]
               if m["unit"] not in ("s", "1/s", "ratio")}


def run_bench(root: Path, *args: str):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=root,
        capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith('{"correct"') else None
    return proc, result


def copy_checkout(dest: Path, with_sources: bool = True) -> None:
    skip = shutil.ignore_patterns("__pycache__", "out")
    shutil.copytree(BENCH, dest / "bench", ignore=skip)
    shutil.copy(ROOT / "BENCHMARK.json", dest / "BENCHMARK.json")
    if with_sources:
        shutil.copytree(ROOT / "src", dest / "src", ignore=skip)


@pytest.mark.parametrize("workload, expected", [
    ("born-epr", {"collapse.run_collapse_batch.calls": 4,
                  "collapse.run_collapse_batch.trials": 120_000,
                  "cli.main.calls": 4}),
    ("collapse-short", {"collapse.run_collapse_batch.calls": 300,
                        "collapse.run_collapse_trial.calls": 100,
                        "pairs.measure_first_z.calls": 100}),
    ("walks-geometry", {"collapse.run_ruin_walks.walks": 100_000,
                        "lens.design_lens.calls": 3,
                        "cli.main.calls": 8}),
])
def test_traced_counts_repeat_exactly(workload, expected):
    runs = []
    for _ in range(2):
        proc, result = run_bench(ROOT, "--workload", workload, "--seed", "5",
                                 "--seconds", "1", "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        assert result["correct"] and result["failed"] == 0
        runs.append({k: v["value"] for k, v in result["metrics"].items()})
    assert set(runs[0]) == {m["name"] for m in SPEC["per_layer"]}
    for name in COUNT_UNITS:
        assert runs[0][name] == runs[1][name], name
    for name, value in expected.items():
        assert runs[0][name] == value, name


def test_corrupted_digest_fails_the_run(tmp_path):
    copy_checkout(tmp_path)
    golden_path = tmp_path / "bench" / "golden.json"
    golden = json.loads(golden_path.read_text(encoding="utf-8"))
    sets = golden["workloads"]["walks-geometry"]
    first = sorted(sets, key=int)[0]
    digests = sets[first].split()
    digests[0] = "0" * len(digests[0])
    sets[first] = " ".join(digests)
    golden_path.write_text(json.dumps(golden), encoding="utf-8")

    proc, result = run_bench(tmp_path, "--workload", "walks-geometry",
                             "--seed", "0", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert result is not None and not result["correct"]
    assert result["failed"] >= 1 and result["failed"] / result["attempted"] > 0
    assert "digest" in proc.stderr


def test_refuses_to_run_without_sources(tmp_path):
    copy_checkout(tmp_path, with_sources=False)
    proc, result = run_bench(tmp_path, "--workload", "born-epr", "--seed", "0",
                             "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert result is None
