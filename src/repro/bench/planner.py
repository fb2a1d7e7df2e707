"""The planner grid: every plan the planner can pick, timed per cell.

The paper derived its Section 6.3 rules by timing its own evaluators;
:func:`planner` does the same on this implementation.  Over the Section
6 generator it crosses the plans :func:`repro.core.planner.
choose_strategy` can emit with the five aggregates, relation sizes 1K,
4K, 16K, 32K and 64K (capped by ``REPRO_BENCH_MAX_TUPLES``), three
orders (sorted, nearly sorted, unsorted) and 0 or 20% long-lived
tuples.  Each cell records the relation's statistics, the median of
:data:`RUNS` runs per plan, the plan the planner picks, and its regret:
the picked plan's time over the fastest plan's.

A plan at least :data:`PRUNE_FACTOR` times slower than the cell's
fastest is not timed at larger sizes of the same series (its time is
``null`` there); that retires the quadratic cells — the linked list,
and the aggregation tree on sorted input — early.

Each run evaluates a relation whose column snapshots are cold, so the
columnar plans pay for building their columns just as the object plans
pay for their scan.  ``python -m repro.bench planner --csv-dir results``
writes ``results/BENCH_planner.json`` (see ``__main__``), which the
tier-1 test ``tests/core/test_planner_table.py`` checks the planner
against.
"""

from __future__ import annotations

import gc
import os
import platform
import statistics as stats
import subprocess
import time
from dataclasses import asdict
from typing import Any, Dict, List, Optional, Tuple

from repro.bench.config import bench_seeds, bench_sizes
from repro.bench.reporting import Report
from repro.core.aggregates import get_aggregate
from repro.core.engine import make_evaluator
from repro.core.interval import Interval
from repro.core.partition import available_workers
from repro.core.planner import choose_strategy
from repro.relation.relation import RelationStatistics, TemporalRelation
from repro.workload.generator import WorkloadParameters, generate_relation
from repro.workload.permute import k_disorder

__all__ = ["PLANS", "PLANNER_DETAIL", "host_header", "planner", "replay"]

#: The grid's relation sizes (the cap still applies).
GRID_SIZES = (1024, 4096, 16384, 32768, 65536)

#: ``(aggregate, attribute)`` for the five aggregates.
GRID_AGGREGATES = (
    ("count", None),
    ("sum", "salary"),
    ("min", "salary"),
    ("max", "salary"),
    ("avg", "salary"),
)

ORDERS = ("sorted", "nearly_sorted", "unsorted")
LONG_LIVED_PERCENTS = (0, 20)

#: Displacement bound and k-ordered-percentage of the nearly sorted
#: relations (the middle of the paper's Ktree series and Table 3).
NEARLY_SORTED_K = 40
NEARLY_SORTED_PERCENTAGE = 0.08

#: Timed runs per plan per cell; the cell keeps their median.
RUNS = 5

#: A plan this many times slower than a cell's fastest is not timed at
#: larger sizes of the same (aggregate, order, long-lived) series.
PRUNE_FACTOR = 10.0

#: Every plan shape the planner emits: label -> (strategy, sort first).
#: ``kordered_tree`` runs with the relation's measured k (at least 1),
#: the k the planner would pick.
PLANS: Dict[str, Tuple[str, bool]] = {
    "columnar_sweep": ("columnar_sweep", False),
    "parallel_sweep": ("parallel_sweep", False),
    "aggregation_tree": ("aggregation_tree", False),
    "kordered_tree": ("kordered_tree", False),
    "sort+kordered_tree": ("kordered_tree", True),
    "linked_list": ("linked_list", False),
}

#: The last run's cells, for the JSON writer.
PLANNER_DETAIL: Dict[str, Any] = {}


def host_header() -> Dict[str, Any]:
    """Where a measurement ran: CPU count, Python version, git SHA."""
    try:
        sha: Optional[str] = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = None
    return {
        "cpu_count": os.cpu_count(),
        "available_workers": available_workers(),
        "python": platform.python_version(),
        "git_sha": sha,
    }


def _relation(n: int, long_lived: int, order: str, seed: int) -> TemporalRelation:
    unsorted = generate_relation(
        WorkloadParameters(tuples=n, long_lived_percent=long_lived, seed=seed)
    )
    if order == "unsorted":
        return unsorted
    ordered = unsorted.sorted_by_time()
    if order == "sorted":
        return ordered
    permutation = k_disorder(
        n, min(NEARLY_SORTED_K, n - 1), NEARLY_SORTED_PERCENTAGE, seed=seed
    )
    return ordered.reordered(permutation)


def _time_plan(
    label: str,
    relation: TemporalRelation,
    aggregate: str,
    attribute: Optional[str],
    k: Optional[int],
) -> float:
    """One run of one plan over a copy of ``relation`` with cold column
    snapshots (the copy is built untimed).  The k-ordered tree runs
    with ``k`` (the measured k), or k = 1 after a sort."""
    strategy, sort_first = PLANS[label]
    if strategy != "kordered_tree":
        k = None
    elif sort_first:
        k = 1
    fresh = TemporalRelation(relation.schema, relation.rows())
    evaluator = make_evaluator(strategy, aggregate, k=k)
    gc.collect()
    started = time.perf_counter()
    target = fresh.sorted_by_time() if sort_first else fresh
    evaluator.evaluate_relation(target, attribute)
    return time.perf_counter() - started


def _time_cell(
    labels: List[str],
    relation: TemporalRelation,
    aggregate: str,
    attribute: Optional[str],
    k: int,
) -> Dict[str, float]:
    """Median seconds per plan over :data:`RUNS` rounds; each round
    runs every plan once, so load drifting over time hits them alike."""
    runs: Dict[str, List[float]] = {label: [] for label in labels}
    for _ in range(RUNS):
        for label in labels:
            runs[label].append(_time_plan(label, relation, aggregate, attribute, k))
    return {label: stats.median(times) for label, times in runs.items()}


def _statistics_dict(statistics: RelationStatistics) -> Dict[str, Any]:
    lifespan = statistics.lifespan
    return {
        **asdict(statistics),
        "lifespan": None if lifespan is None else [lifespan.start, lifespan.end],
    }


def replay(cell: Dict[str, Any]) -> Tuple[str, Optional[float]]:
    """The planner's pick for a recorded cell, and its regret: the
    pick's median over the fastest plan's (None if the pick was not
    timed).  The planner sees the cell's recorded statistics, exactly
    what it saw when the cell was measured."""
    recorded = cell["statistics"]
    lifespan = recorded["lifespan"]
    statistics = RelationStatistics(
        **{**recorded, "lifespan": None if lifespan is None else Interval(*lifespan)}
    )
    decision = choose_strategy(statistics, aggregate=get_aggregate(cell["aggregate"]))
    chosen = f"sort+{decision.strategy}" if decision.sort_first else decision.strategy
    seconds = cell["seconds"]
    picked = seconds.get(chosen)
    fastest = min(value for value in seconds.values() if value is not None)
    return chosen, None if picked is None else picked / fastest


def planner(
    sizes: Optional[List[int]] = None, seed: Optional[int] = None
) -> List[Report]:
    """Time the planner's plans over the grid; report each cell's pick."""
    cap = max(bench_sizes())
    sizes = sizes if sizes is not None else [n for n in GRID_SIZES if n <= cap]
    seed = seed if seed is not None else bench_seeds()[0]
    labels = list(PLANS)
    report = Report(
        "Planner grid — median ms per plan; the planner's pick and regret",
        ["aggregate", "order", "long_lived_%", "tuples"]
        + labels
        + ["chosen", "regret"],
    )
    cells: List[Dict[str, Any]] = []
    pruned: Dict[Tuple[str, str, int], set] = {}
    for long_lived in LONG_LIVED_PERCENTS:
        for order in ORDERS:
            for n in sizes:
                relation = _relation(n, long_lived, order, seed)
                statistics = relation.statistics()
                k = max(1, statistics.k)
                for aggregate, attribute in GRID_AGGREGATES:
                    series = (aggregate, order, long_lived)
                    timed = [
                        label
                        for label in labels
                        if label not in pruned.setdefault(series, set())
                    ]
                    medians = _time_cell(timed, relation, aggregate, attribute, k)
                    best = min(medians.values())
                    pruned[series].update(
                        label
                        for label, median in medians.items()
                        if median >= PRUNE_FACTOR * best
                    )
                    cell: Dict[str, Any] = {
                        "aggregate": aggregate,
                        "order": order,
                        "long_lived_percent": long_lived,
                        "tuples": n,
                        "statistics": _statistics_dict(statistics),
                        "seconds": {label: medians.get(label) for label in labels},
                    }
                    chosen, regret = replay(cell)
                    cells.append({**cell, "chosen": chosen, "regret": regret})
                    report.add_row(
                        aggregate,
                        order,
                        long_lived,
                        n,
                        *(
                            round(medians[label] * 1000, 1)
                            if label in medians
                            else "-"
                            for label in labels
                        ),
                        chosen,
                        "-" if regret is None else round(regret, 2),
                    )
    from repro.exec.pool import shutdown_default_pool

    shutdown_default_pool()
    report.add_note(
        f"median of {RUNS} runs per plan, seed {seed}; '-' = not timed "
        f"(>= {PRUNE_FACTOR:g}x the fastest at a smaller size); "
        f"nearly sorted = k_disorder(k={NEARLY_SORTED_K}, "
        f"{NEARLY_SORTED_PERCENTAGE}) of the sorted relation"
    )
    PLANNER_DETAIL.clear()
    PLANNER_DETAIL.update(
        runs=RUNS,
        prune_factor=PRUNE_FACTOR,
        seed=seed,
        sizes=sizes,
        plans=labels,
        cells=cells,
    )
    return [report]
