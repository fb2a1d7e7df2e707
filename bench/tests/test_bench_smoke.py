"""Smoke test: every workload at 1,024 tuples with 2 s windows, untraced
and traced.

Runs ``bench/run.py`` the way a user (or a CI job) would and checks
that every metric ``BENCHMARK.json`` names is printed with its unit,
that no operation failed, that the oracle compared rows (against the
reference evaluator too, at this size), that the traced spans nest,
that ``compare.py`` judges the printed metrics, and that no process
was left behind.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(out: Path, trace: int) -> tuple:
    completed = subprocess.run(
        [
            sys.executable, "bench/run.py",
            "--tuples", "1024", "--seconds", "2", "--trace", str(trace),
            "--out", str(out),
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stdout[-3000:] + completed.stderr[-3000:]
    lines = completed.stdout.strip().splitlines()
    final = json.loads(lines[-1])
    assert final["correct"] is True
    assert final["failed"] == 0 and final["attempted"] > 0
    section = "per_layer" if trace else "end_to_end"
    assert {key.split("/")[1] for key in final["metrics"]} == {m["name"] for m in SPEC[section]}
    printed = {tuple(line.split()[:2]): line.split()[3] for line in lines[:-1] if len(line.split()) == 4}
    (results,) = out.glob("*.json")
    document = json.loads(results.read_text())
    assert [run["workload"] for run in document["runs"]] == [w["name"] for w in SPEC["workloads"]]
    for group in document["header"]["process_groups"]:
        try:
            os.killpg(group, 0)
        except ProcessLookupError:
            continue
        raise AssertionError(f"process group {group} outlived the benchmark")
    return results, document["runs"], printed


def test_untraced_run_reports_every_end_to_end_metric(tmp_path):
    results, runs, printed = bench(tmp_path, trace=0)
    for run in runs:
        name = run["workload"]
        for metric in SPEC["end_to_end"]:
            assert printed[(name, metric["name"])] == metric["unit"]
            assert run["end_to_end"][metric["name"]] > 0
        assert len(run["setups_s"]) == 3
        assert run["end_to_end"]["error_rate"] == 0
        assert run["problems"] == []
        oracle = run["oracle"]["plain"]
        assert oracle["mismatches"] == [] and oracle["pairs"] > 0
        assert oracle["reference_pairs"] > 0

    compared = subprocess.run(
        [sys.executable, "bench/compare.py", str(results), str(results)],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    assert compared.returncode == 0, compared.stderr
    rows = {tuple(line.split()[:2]): line.split()[-1] for line in compared.stdout.splitlines()}
    expected = [(run["workload"], m["name"]) for run in runs for m in SPEC["end_to_end"]]
    expected += [("append-4k", "append_p50_ms"), ("append-4k", "append_p90_ms")]
    expected += [(name, "read_p90_ms") for name in ("warm-8k", "adhoc-32k", "append-4k")]
    for row in expected:
        assert rows[row] == "ok", row


def test_traced_run_reports_every_layer_metric(tmp_path):
    _, runs, printed = bench(tmp_path, trace=1)
    for run in runs:
        name = run["workload"]
        for metric in SPEC["per_layer"]:
            assert printed[(name, metric["name"])] == metric["unit"]
            assert run["per_layer"][metric["name"]] is not None
        assert run["problems"] == []
        for window in ("plain", "traced"):
            oracle = run["oracle"][window]
            assert oracle["mismatches"] == [] and oracle["pairs"] > 0
        assert run["nesting_violations"] == 0
        assert run["spans"] > 0
