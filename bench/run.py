"""Run the benchmark: every workload, or the ones named.

    PYTHONPATH=src python bench/run.py --seed 1              # all workloads
    python3 bench/run.py --workload warm-8k --seed 3 --seconds 10 --trace 0
    python3 bench/run.py --seed 1 --repeat 5                 # a run set for compare.py
    python3 bench/run.py --seed 1 --trace 1                  # adds the traced window

Each run prints ``workload metric value unit`` lines, checks every
output with the oracle, writes ``bench/results/<sha>-<seed>.json`` and
ends with one JSON line: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics of ``BENCHMARK.json``, or with
``--trace 1`` its per-layer metrics; keyed ``workload/metric`` when
several workloads ran).  The exit code is 0 only when every output was
correct and no process was left behind.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Dict, List, Optional

from compare import PRINTED

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "bench" / "results"

#: Units of the counts and context printed beside the metrics (and of
#: ``tuples_per_s``, the paper's unit for the library workload).
EXTRA_UNITS = {
    "reads": "count",
    "rounds": "count",
    "appends": "count",
    "warmup_s": "s",
    "tuples_per_s": "tuples/s",
    "host_loop_ms": "ms",
    "error_rate": "fraction",
    "cache.evictions": "count",
    "cache.hit_ratio": "ratio",
    "cache.live_mb": "MB",
    "protocol.reply_kb.p50": "KB",
    "protocol.bytes_per_row": "B/row",
}


def unit_of(name: str, listed: Dict[str, str]) -> str:
    if name in listed:
        return listed[name]
    if name in PRINTED:
        return PRINTED[name][0]
    if name in EXTRA_UNITS:
        return EXTRA_UNITS[name]
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_per_read"):
        return "1/read"
    if name.startswith("planner.strategy."):
        return "count"
    return "ms"


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="Run the repository benchmark.")
    parser.add_argument("--workload", action="append", help="a workload name (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None, help="window length (default: run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--repeat", type=int, default=1, help="runs per workload, seeds seed..seed+N-1")
    parser.add_argument("--tuples", type=int, default=None, help="override every relation size")
    parser.add_argument("--out", type=Path, default=RESULTS, help="results directory")
    return parser.parse_args(argv)


def _terminate(signum: int, _frame: Any) -> None:
    raise SystemExit(128 + signum)


def run_one(workloads, spec_units, name, seed, seconds, args, work) -> Dict[str, Any]:
    """One workload at one seed, as a results record."""
    record: Dict[str, Any] = {
        "workload": name,
        "seed": seed,
        "trace": bool(args.trace),
        "correct": False,
        "attempted": 1,
        "failed": 1,
        "problems": [],
        "end_to_end": {},
        "per_layer": None,
    }
    started = time.perf_counter()
    try:
        run = workloads.run_workload(
            workloads.WORKLOADS[name], seed, seconds, args.tuples, work, bool(args.trace)
        )
    except Exception as error:  # report the failure, keep the other workloads
        traceback.print_exc()
        record["problems"].append(f"{type(error).__name__}: {error}")
        return record
    e2e = workloads.end_to_end(run)
    record["end_to_end"] = e2e
    if run.traced is not None:
        record["per_layer"] = workloads.per_layer(run, e2e["read_p50_ms"])
        record["missing_layers"] = run.traced.missing
        record["spans"] = run.traced.spans
        record["nesting_violations"] = run.traced.nesting_violations
    attempted, failed = workloads.tally(run)
    problems = workloads.problems(run)
    record.update(
        tuples=run.tuples,
        attempted=max(attempted, 1),
        failed=failed if attempted else 1,
        problems=problems,
        correct=failed == 0 and attempted > 0 and not problems,
        setups_s=run.setups,
        wall_s=time.perf_counter() - started,
        stats=run.plain.stats,
        oracle={
            label: vars(window.verdict)
            for label, window in (("plain", run.plain), ("traced", run.traced))
            if window is not None
        },
    )
    for metric, value in {**record["end_to_end"], **(record["per_layer"] or {})}.items():
        shown = "null" if value is None else f"{value:.6g}"
        print(f"{name} {metric} {shown} {unit_of(metric, spec_units)}", flush=True)
    verdict = "ok" if record["correct"] else "FAILED: " + "; ".join(problems[:3])
    print(f"{name} {verdict}", flush=True)
    return record


def summary(records: List[Dict[str, Any]], names: List[str], listed: List[dict], section: str) -> Dict[str, Any]:
    """The final line's metrics: medians over repeats, per workload."""
    metrics: Dict[str, Any] = {}
    for name in names:
        mine = [r for r in records if r["workload"] == name]
        for metric in listed:
            values = [
                (r[section] or {}).get(metric["name"]) for r in mine
            ]
            values = [v for v in values if v is not None]
            key = metric["name"] if len(names) == 1 else f"{name}/{metric['name']}"
            metrics[key] = {
                "value": statistics.median(values) if values else None,
                "unit": metric["unit"],
            }
    return metrics


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("error: no program to benchmark (src/repro is missing)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    signal.signal(signal.SIGTERM, _terminate)
    signal.signal(signal.SIGHUP, _terminate)

    import harness
    import workloads

    names = args.workload or [w["name"] for w in spec["workloads"]]
    unknown = [n for n in names if n not in workloads.WORKLOADS]
    if unknown:
        print(f"error: unknown workload(s): {', '.join(unknown)}", file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else float(spec["run_seconds"])
    listed = spec["end_to_end"] + spec["per_layer"]
    units = {m["name"]: m["unit"] for m in listed}

    work = ROOT / ".bench_work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    records: List[Dict[str, Any]] = []
    try:
        for repeat in range(args.repeat):
            for name in names:
                records.append(
                    run_one(workloads, units, name, args.seed + repeat, seconds, args, work)
                )
    finally:
        harness.stop_all()
        shutil.rmtree(work, ignore_errors=True)
    left = harness.leftovers()
    if left:
        for record in records:
            record["correct"] = False
            record["problems"].append(f"processes left behind in groups {left}")
        print(f"error: processes left behind in groups {left}", file=sys.stderr)

    header = harness.host_header(args.seed, seconds, args.tuples)
    header.update(
        repeat=args.repeat,
        workloads=names,
        trace=bool(args.trace),
        process_groups=harness.Program.groups,
    )
    stem = f"{header['git_sha'] or header['src_digest']}-{args.seed}"
    if args.repeat > 1:
        stem += f"x{args.repeat}"
    if args.workload:
        stem += "-" + "-".join(names)
    if args.trace:
        stem += "-trace"
    args.out.mkdir(parents=True, exist_ok=True)
    (args.out / f"{stem}.json").write_text(
        json.dumps({"header": header, "runs": records}, indent=1) + "\n"
    )

    correct = bool(records) and all(r["correct"] for r in records)
    section = "per_layer" if args.trace else "end_to_end"
    result = {
        "correct": correct,
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": summary(records, names, spec[section], section),
    }
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
