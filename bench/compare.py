"""Compare benchmark run sets.

    python3 bench/compare.py A.json              # medians, quartiles, spreads
    python3 bench/compare.py A.json B.json       # B (a change) against A (its parent)
    python3 bench/compare.py --alternate PARENT_DIR CHANGE_DIR [--workload W] [--seed N]

A run set is a results file written by ``bench/run.py`` (``--repeat N``
gives N seeds in one file); several files may be joined with commas.
For every (workload, end-to-end metric) the comparison prints each
side's median and quartiles and a verdict against the metric's bound:

* ``ok`` -- B's median is no worse than A's by more than the bound;
* ``regressed`` -- it is worse by more than the bound;
* ``unresolved`` -- a side's spread (quartile distance over median) is
  wider than the bound, so the runs cannot tell, unless every run of B
  reads better than every run of A (then ``ok``) or worse than every
  run of A with the median worse by more than the bound (then
  ``regressed``).

The bound is the one ``BENCHMARK.json`` fixes, or for the metrics
:data:`PRINTED` lists, :data:`PRINTED_BOUND`.  ``setup_s`` is judged by
its median alone (:data:`MEDIAN_ONLY`).

``--alternate`` runs the ten-pair protocol: each pair runs both
checkouts on the same seed, alternating which goes first.  A gain
(``improved``) needs B to win at least nine tenths of the pairs, ties
counting for neither, and the medians to differ by more than A's own
quartile distance.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Tuple

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())

#: End-to-end metrics that ``run.py`` prints and ``BENCHMARK.json`` does
#: not bound: unit and the direction that is better.  Their run-to-run
#: spread on a shared 2-vCPU host is wider than :data:`PRINTED_BOUND`,
#: the bound they are judged by here (see README.md).  The library
#: workload's ``tuples_per_s`` is ``read_p50_ms`` inverted, so it is
#: printed but not judged twice.
PRINTED = {
    "read_p50_ms": ("ms", "lower"),
    "read_p90_ms": ("ms", "lower"),
    "read_qps": ("1/s", "higher"),
    "append_p50_ms": ("ms", "lower"),
    "append_p90_ms": ("ms", "lower"),
}
PRINTED_BOUND = 0.10

#: Judged by the median alone, as the benchmark's acceptance judges it:
#: a set-up is a short single measurement, so its spread between runs
#: is not expected to stay within its bound.
MEDIAN_ONLY = {"setup_s"}

#: Pairs the alternating protocol runs.
PAIRS = 10

Samples = Dict[Tuple[str, str], List[float]]


def judged() -> Dict[str, dict]:
    """Every metric a verdict is given for, with its direction and bound."""
    metrics = {
        name: {"name": name, "better": better, "bound": PRINTED_BOUND, "printed": True}
        for name, (_unit, better) in PRINTED.items()
    }
    metrics.update((m["name"], m) for m in SPEC["end_to_end"])
    return metrics


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)``."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: List[float]) -> float:
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else float("inf")


def load(paths: str) -> Samples:
    """(workload, metric) -> values, over every run in the files."""
    samples: Samples = {}
    for path in paths.split(","):
        for run in json.loads(Path(path).read_text())["runs"]:
            # A traced run repeats its plain blocks' read_p50_ms among its layers.
            metrics = {**(run.get("per_layer") or {}), **run["end_to_end"]}
            for metric, value in metrics.items():
                if value is not None:
                    samples.setdefault((run["workload"], metric), []).append(value)
    return samples


def verdict(metric: dict, a: List[float], b: List[float]) -> str:
    lower = metric["better"] == "lower"
    bound = metric["bound"]
    med_a, med_b = statistics.median(a), statistics.median(b)
    worse = (med_b - med_a) / abs(med_a) if med_a else 0.0
    worse = worse if lower else -worse
    if metric["name"] in MEDIAN_ONLY or max(spread(a), spread(b)) <= bound:
        return "regressed" if worse > bound else "ok"
    # Runs spread wider than the bound resolve only when the sides do not overlap.
    below, above = max(b) < min(a), min(b) > max(a)
    all_better, all_worse = (below, above) if lower else (above, below)
    if all_better:
        return "ok"
    if all_worse and worse > bound:
        return "regressed"
    return "unresolved"


def gain(metric: dict, pairs: List[Tuple[float, float]]) -> bool:
    """The alternating protocol's rule for claiming an improvement."""
    lower = metric["better"] == "lower"
    wins = sum(1 for a, b in pairs if (b < a if lower else b > a))
    a = [p[0] for p in pairs]
    b = [p[1] for p in pairs]
    q1, med_a, q3 = quartiles(a)
    return wins >= 0.9 * len(pairs) and abs(statistics.median(b) - med_a) > q3 - q1


def describe(values: List[float]) -> str:
    q1, median, q3 = quartiles(values)
    return f"{median:.6g} [{q1:.6g}, {q3:.6g}] n={len(values)} spread={spread(values):.3f}"


def report(a: Samples, b: Optional[Samples], pairs: Optional[Dict] = None) -> int:
    """Print one row per (workload, metric); 1 when anything regressed."""
    metrics = judged()
    status = 0
    for workload, name in sorted(a):
        values = a[(workload, name)]
        if b is None:
            print(f"{workload:16} {name:32} {describe(values)}")
            continue
        if (workload, name) not in b or name not in metrics:
            continue
        other = b[(workload, name)]
        metric = metrics[name]
        result = verdict(metric, values, other)
        paired = (pairs or {}).get((workload, name))
        if paired and gain(metric, paired):
            result = "improved"
        status |= result == "regressed"
        source = "printed" if metric.get("printed") else "BENCHMARK.json"
        print(
            f"{workload:16} {name:14} A {describe(values)}  B {describe(other)}"
            f"  bound {metric['bound']:g} ({source})  {result}"
        )
    return status


def alternate(parent: Path, change: Path, workloads: List[str], seed: int) -> int:
    """Run :data:`PAIRS` pairs, alternating which checkout goes first."""
    a: Samples = {}
    b: Samples = {}
    pairs: Dict[Tuple[str, str], List[Tuple[float, float]]] = {}
    with tempfile.TemporaryDirectory(dir=BENCH.parent) as out_dir:
        for index in range(PAIRS):
            sides = [("parent", parent, a), ("change", change, b)]
            if index % 2:
                sides.reverse()
            for workload in workloads:
                observed: Dict[str, Samples] = {}
                for label, checkout, samples in sides:
                    out = Path(out_dir) / f"{index}-{workload}-{label}"
                    argv = [sys.executable, "bench/run.py", "--workload", workload,
                            "--seed", str(seed + index), "--out", str(out)]
                    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
                    if done.returncode != 0:
                        raise SystemExit(
                            f"{checkout}: bench/run.py failed:\n{done.stderr[-2000:]}"
                        )
                    (results,) = out.glob("*.json")
                    observed[label] = load(str(results))
                    for key, values in observed[label].items():
                        samples.setdefault(key, []).extend(values)
                # A metric missing on either side (None in the results) pairs nothing.
                for key, (value,) in observed["parent"].items():
                    if key in observed["change"]:
                        pairs.setdefault(key, []).append((value, observed["change"][key][0]))
    return report(a, b, pairs)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="Compare benchmark run sets.")
    parser.add_argument("runs", nargs="*", help="A.json [B.json] (comma-join several files)")
    parser.add_argument("--alternate", nargs=2, type=Path, metavar=("PARENT", "CHANGE"))
    parser.add_argument("--workload", action="append")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.alternate:
        workloads = args.workload or [w["name"] for w in SPEC["workloads"]]
        return alternate(*args.alternate, workloads, args.seed)
    if not 1 <= len(args.runs) <= 2:
        parser.error("give one or two run sets, or --alternate")
    a = load(args.runs[0])
    b = load(args.runs[1]) if len(args.runs) == 2 else None
    return report(a, b)


if __name__ == "__main__":
    sys.exit(main())
