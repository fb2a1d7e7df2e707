"""Drivers regenerating every table and figure of the paper's evaluation.

Each ``figure*``/``table*`` function reruns the corresponding
experiment of Section 6 and returns :class:`~repro.bench.reporting.Report`
objects shaped like the original plot: one row per relation size, one
column per algorithm series.  Figures 6–8 report both wall-clock
seconds (the paper's y-axis) and machine-independent abstract work, so
the shape claims survive the C-on-a-SPARCstation → Python substitution;
Figure 9 reports modeled peak bytes exactly as Section 6.2 counts them.

Run from the command line::

    python -m repro.bench fig6 fig7 fig8 fig9 table1 table2
    python -m repro.bench all --markdown
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from repro.bench.config import bench_seeds, bench_sizes, quadratic_max
from repro.bench.measure import Measurement, mean_measurement, measure_strategy
from repro.bench.reporting import Report
from repro.core.interval import FOREVER
from repro.core.ordering import (
    k_ordered_percentage,
    percentage_from_histogram,
)
from repro.core.result import TemporalAggregateResult
from repro.core.two_pass import TwoPassEvaluator
from repro.workload.employed import TABLE_1_EXPECTED, employed_relation
from repro.workload.generator import WorkloadParameters, generate_triples
from repro.workload.permute import k_disorder, swap_pairs

__all__ = [
    "figure6",
    "figure7",
    "figure7_percentage_sweep",
    "figure8",
    "figure9",
    "figure9_long_lived",
    "table1",
    "table2",
    "table3",
    "ablations",
    "parallel",
    "columnar",
    "cache",
    "durability",
    "COLUMNAR_DETAIL",
    "DRIVERS",
]

#: k-ordered-percentage used for the partially ordered inputs of
#: Figures 7–9.  The paper tested {0.02, 0.08, 0.14} and found the
#: effect "outweighed greatly by the effect of the k value", showing a
#: single graph per k; we use the middle setting.
DEFAULT_PERCENTAGE = 0.08

#: The k values of the paper's Ktree series.
KTREE_KS = (400, 40, 4)


def _triples(n: int, long_lived: int, seed: int) -> List[tuple]:
    params = WorkloadParameters(tuples=n, long_lived_percent=long_lived, seed=seed)
    return [(s, e, None) for s, e, _salary in generate_triples(params)]


def _sorted_triples(triples: List[tuple]) -> List[tuple]:
    return sorted(triples, key=lambda t: (t[0], t[1]))


def _disordered(triples: List[tuple], k: int, seed: int) -> List[tuple]:
    ordered = _sorted_triples(triples)
    # Tiny smoke-test relations can be smaller than the paper's k=400
    # series; clamp the swap distance to what the relation can express.
    effective_k = min(k, max(0, len(ordered) - 1))
    permutation = k_disorder(
        len(ordered), effective_k, DEFAULT_PERCENTAGE, seed=seed
    )
    return [ordered[i] for i in permutation]


def _mean(
    strategy: str,
    workloads: List[List[tuple]],
    k: Optional[int] = None,
) -> Measurement:
    return mean_measurement(
        [measure_strategy(strategy, w, "count", k=k) for w in workloads]
    )


# ---------------------------------------------------------------------------
# Figure 6 — time on unordered relations
# ---------------------------------------------------------------------------

def figure6(
    sizes: Optional[Sequence[int]] = None, seeds: Optional[Sequence[int]] = None
) -> List[Report]:
    """Query evaluation time, randomly ordered relations (Figure 6).

    Series: linked list and aggregation tree, each at 0 % and 80 %
    long-lived tuples — the paper found both algorithms unaffected by
    long-lived tuples on unordered input and plotted one curve each;
    reporting both percentages makes that insensitivity checkable.
    """
    sizes = list(sizes) if sizes is not None else bench_sizes()
    seeds = list(seeds) if seeds is not None else bench_seeds()
    cap = quadratic_max()

    columns = [
        "tuples",
        "linked list (0% ll)",
        "linked list (80% ll)",
        "aggregation tree (0% ll)",
        "aggregation tree (40% ll)",
        "aggregation tree (80% ll)",
    ]
    time_report = Report("Figure 6 — time (s), unordered relations", columns)
    work_report = Report("Figure 6 — abstract work, unordered relations", columns)
    for n in sizes:
        loads = {
            ll: [_triples(n, ll, seed) for seed in seeds] for ll in (0, 40, 80)
        }
        cells: List[Measurement | None] = []
        for strategy, ll in (
            ("linked_list", 0),
            ("linked_list", 80),
            ("aggregation_tree", 0),
            ("aggregation_tree", 40),
            ("aggregation_tree", 80),
        ):
            if strategy == "linked_list" and n > cap:
                cells.append(None)
            else:
                cells.append(_mean(strategy, loads[ll]))
        time_report.add_row(
            n, *(round(c.seconds, 5) if c else "-" for c in cells)
        )
        work_report.add_row(n, *(c.work if c else "-" for c in cells))
    note = (
        f"seeds={seeds}; O(n²) series capped at {cap} tuples "
        "(REPRO_BENCH_QUADRATIC_MAX)"
    )
    time_report.add_note(note)
    work_report.add_note(note)
    return [time_report, work_report]


# ---------------------------------------------------------------------------
# Figures 7 and 8 — time on ordered / nearly ordered relations
# ---------------------------------------------------------------------------

def _ordered_figure(long_lived: int, title: str, sizes, seeds) -> List[Report]:
    sizes = list(sizes) if sizes is not None else bench_sizes()
    seeds = list(seeds) if seeds is not None else bench_seeds()
    cap = quadratic_max()

    columns = (
        ["tuples", "linked list (sorted)", "aggregation tree (sorted)"]
        + [f"ktree k={k}" for k in KTREE_KS]
        + ["ktree sorted k=1"]
    )
    time_report = Report(f"{title} — time (s)", columns)
    work_report = Report(f"{title} — abstract work", columns)
    for n in sizes:
        raw = [_triples(n, long_lived, seed) for seed in seeds]
        ordered = [_sorted_triples(w) for w in raw]
        cells: List[Measurement | None] = []
        cells.append(_mean("linked_list", ordered) if n <= cap else None)
        cells.append(_mean("aggregation_tree", ordered) if n <= cap else None)
        for k in KTREE_KS:
            disordered = [
                _disordered(w, k, seed) for w, seed in zip(raw, seeds)
            ]
            cells.append(_mean("kordered_tree", disordered, k=k))
        cells.append(_mean("kordered_tree", ordered, k=1))
        time_report.add_row(
            n, *(round(c.seconds, 5) if c else "-" for c in cells)
        )
        work_report.add_row(n, *(c.work if c else "-" for c in cells))
    note = (
        f"long-lived={long_lived}%; ktree series on k-disordered input "
        f"(k-ordered-percentage {DEFAULT_PERCENTAGE}); seeds={seeds}; "
        f"O(n²) series capped at {cap} tuples"
    )
    time_report.add_note(note)
    work_report.add_note(note)
    return [time_report, work_report]


def figure7(
    sizes: Optional[Sequence[int]] = None, seeds: Optional[Sequence[int]] = None
) -> List[Report]:
    """Time on ordered relations, no long-lived tuples (Figure 7)."""
    return _ordered_figure(
        0, "Figure 7 — ordered relations, 0% long-lived", sizes, seeds
    )


def figure8(
    sizes: Optional[Sequence[int]] = None, seeds: Optional[Sequence[int]] = None
) -> List[Report]:
    """Time on ordered relations, 80 % long-lived tuples (Figure 8)."""
    return _ordered_figure(
        80, "Figure 8 — ordered relations, 80% long-lived", sizes, seeds
    )


def figure7_percentage_sweep(
    sizes: Optional[Sequence[int]] = None, seeds: Optional[Sequence[int]] = None
) -> List[Report]:
    """The Table 3 k-ordered-percentage grid (Section 6.1's claim that
    the percentage's effect is outweighed by k's)."""
    from repro.workload.generator import PAPER_K_ORDERED_PERCENTAGES

    sizes = list(sizes) if sizes is not None else bench_sizes()
    seeds = list(seeds) if seeds is not None else bench_seeds()
    n = sizes[-1]

    columns = ["k"] + [f"p={p}" for p in PAPER_K_ORDERED_PERCENTAGES]
    report = Report(
        f"Figure 7 companion — ktree abstract work across "
        f"k-ordered-percentages (n={n})",
        columns,
    )
    raw = [_triples(n, 0, seed) for seed in seeds]
    ordered = [_sorted_triples(w) for w in raw]
    for k in KTREE_KS:
        cells = []
        for percentage in PAPER_K_ORDERED_PERCENTAGES:
            samples = []
            for w, seed in zip(ordered, seeds):
                effective_k = min(k, max(0, len(w) - 1))
                permutation = k_disorder(len(w), effective_k, percentage, seed=seed)
                disordered = [w[i] for i in permutation]
                samples.append(
                    measure_strategy("kordered_tree", disordered, "count", k=k)
                )
            cells.append(mean_measurement(samples).work)
        report.add_row(k, *cells)
    report.add_note(
        "Section 6.1: within a row the percentage moves work mildly "
        "(more randomness = slightly faster); across rows k dominates"
    )
    return [report]


# ---------------------------------------------------------------------------
# Figure 9 — memory
# ---------------------------------------------------------------------------

def _memory_figure(long_lived: int, title: str, sizes, seeds) -> List[Report]:
    sizes = list(sizes) if sizes is not None else bench_sizes()
    seeds = list(seeds) if seeds is not None else bench_seeds()

    columns = (
        ["tuples", "linked list", "aggregation tree"]
        + [f"ktree k={k}" for k in KTREE_KS]
        + ["ktree sorted k=1"]
    )
    report = Report(f"{title} — peak bytes (16 B/node + state)", columns)
    for n in sizes:
        raw = [_triples(n, long_lived, seed) for seed in seeds]
        ordered = [_sorted_triples(w) for w in raw]
        cells = [
            # Node counts of the list and the tree depend only on the
            # timestamps present, not on input order, so the cheap
            # random-order run measures the same structures.
            _mean("linked_list", raw),
            _mean("aggregation_tree", raw),
        ]
        for k in KTREE_KS:
            disordered = [
                _disordered(w, k, seed) for w, seed in zip(raw, seeds)
            ]
            cells.append(_mean("kordered_tree", disordered, k=k))
        cells.append(_mean("kordered_tree", ordered, k=1))
        report.add_row(n, *(c.peak_bytes for c in cells))
    report.add_note(
        f"long-lived={long_lived}%; node model: 16 bytes + 4 (COUNT state); "
        f"list/tree measured on random order (their node counts are "
        f"order-insensitive); seeds={seeds}"
    )
    return [report]


def figure9(
    sizes: Optional[Sequence[int]] = None, seeds: Optional[Sequence[int]] = None
) -> List[Report]:
    """Peak memory, no long-lived tuples (Figure 9)."""
    return _memory_figure(0, "Figure 9 — memory, 0% long-lived", sizes, seeds)


def figure9_long_lived(
    sizes: Optional[Sequence[int]] = None, seeds: Optional[Sequence[int]] = None
) -> List[Report]:
    """Peak memory with 80 % long-lived tuples (Section 6.2's text:
    'much worse for the k-ordered tree algorithms; the linked list and
    aggregation tree are totally unaffected')."""
    return _memory_figure(
        80, "Figure 9b — memory, 80% long-lived (Section 6.2 text)", sizes, seeds
    )


# ---------------------------------------------------------------------------
# Tables
# ---------------------------------------------------------------------------

def table1(**_ignored) -> List[Report]:
    """``SELECT COUNT(Name) FROM Employed`` (Table 1), via every algorithm."""
    from repro.core.engine import STRATEGIES, temporal_aggregate

    employed = employed_relation()
    report = Report(
        "Table 1 — COUNT over the Employed relation",
        ["start", "end", "count", "matches paper"],
    )
    results: Dict[str, TemporalAggregateResult] = {}
    for strategy in sorted(STRATEGIES):
        k = 400 if strategy == "kordered_tree" else None
        results[strategy] = temporal_aggregate(
            employed, "count", strategy=strategy, k=k
        )
    agreed = all(r.rows == TABLE_1_EXPECTED for r in results.values())
    for row in TABLE_1_EXPECTED:
        end = "forever" if row.end >= FOREVER else row.end
        report.add_row(row.start, end, row.value, "yes" if agreed else "CHECK")
    report.add_note(
        f"all {len(results)} algorithms agree with the re-derived Table 1: "
        f"{'yes' if agreed else 'NO'}"
    )
    # Tuma's baseline needs two scans where the new algorithms need one.
    employed.scan_count = 0
    TwoPassEvaluator("count").evaluate_relation(employed)
    report.add_note(f"two-pass baseline scans of the relation: {employed.scan_count}")
    return [report]


def table2(**_ignored) -> List[Report]:
    """k-ordered-percentage examples, n=10000, k=100 (Table 2)."""
    n, k = 10_000, 100
    report = Report(
        "Table 2 — k-ordered-percentages (n=10000, k=100)",
        ["configuration", "measured", "paper"],
    )

    sorted_keys = list(range(n))
    report.add_row(
        "the tuples are sorted", k_ordered_percentage(sorted_keys, k), 0.0
    )

    two_swapped = swap_pairs(n, 100, 1, seed=1)
    report.add_row(
        "2 tuples 100 places apart are swapped",
        k_ordered_percentage(two_swapped, k),
        0.0002,
    )

    twenty = swap_pairs(n, 100, 10, seed=2)
    report.add_row(
        "20 tuples are 100 places from being sorted",
        k_ordered_percentage(twenty, k),
        0.002,
    )

    one_each = percentage_from_histogram({i: 1 for i in range(1, 101)}, k, n)
    report.add_row(
        "one tuple i places out of order for each i in 1..100", one_each, 0.00505
    )

    ten_each = percentage_from_histogram({i: 10 for i in range(1, 101)}, k, n)
    report.add_row(
        "10 tuples 1 place out, 10 are 2, ..., 10 are 100 out", ten_each, 0.0505
    )
    report.add_note(
        "rows 4-5 are evaluated from the displacement histogram; the others "
        "from constructed permutations (see EXPERIMENTS.md on the garbled "
        "source rows)"
    )
    return [report]


def table3(**_ignored) -> List[Report]:
    """The test-parameter grid (Table 3), as configured for this machine."""
    from repro.workload.generator import (
        PAPER_K_ORDERED_PERCENTAGES,
        PAPER_LONG_LIVED_PERCENTS,
        PAPER_SIZES,
    )

    report = Report("Table 3 — test parameters", ["parameter", "paper", "this run"])
    report.add_row(
        "k-ordered-percentage", PAPER_K_ORDERED_PERCENTAGES, [DEFAULT_PERCENTAGE]
    )
    report.add_row("long-lived tuples (%)", PAPER_LONG_LIVED_PERCENTS, [0, 40, 80])
    report.add_row("relation sizes (tuples)", PAPER_SIZES, bench_sizes())
    report.add_row(
        "relation sizes (bytes, 128 B/tuple)",
        [n * 128 for n in PAPER_SIZES],
        [n * 128 for n in bench_sizes()],
    )
    return [report]


def ablations(
    sizes: Optional[Sequence[int]] = None, seeds: Optional[Sequence[int]] = None
) -> List[Report]:
    """One summary row per Section 7 future-work ablation, measured.

    The pytest benches under ``benchmarks/test_ablation_*.py`` assert
    these shapes; this driver prints the underlying numbers at the
    configured scale in one table.
    """
    from repro.core.paged_tree import PagedAggregationTreeEvaluator
    from repro.relation.relation import TemporalRelation
    from repro.relation.schema import EMPLOYED_SCHEMA
    from repro.storage.external_sort import external_sort
    from repro.storage.heapfile import HeapFile
    from repro.storage.randomized_scan import randomized_scan_triples

    sizes = list(sizes) if sizes is not None else bench_sizes()
    seeds = list(seeds) if seeds is not None else bench_seeds()
    n = sizes[-1]
    seed = seeds[0]

    random_triples = _triples(n, 0, seed)
    ordered_triples = _sorted_triples(random_triples)

    report = Report(
        f"Section 7 ablations (n={n}, seed={seed})",
        ["ablation", "baseline", "variant", "metric"],
    )

    # Balanced tree vs degenerate tree on sorted input.
    plain = measure_strategy("aggregation_tree", ordered_triples)
    balanced = measure_strategy("balanced_tree", ordered_triples)
    report.add_row(
        "balanced tree (sorted input)", plain.work, balanced.work,
        "abstract work",
    )

    # Sweep vs the same degenerate tree.
    swept = measure_strategy("sweep", ordered_triples)
    report.add_row(
        "endpoint sweep (sorted input)", plain.work, swept.work,
        "abstract work",
    )

    # Randomized page scan on a sorted heap file.
    relation = TemporalRelation(EMPLOYED_SCHEMA, name="ablation")
    for start, end, _v in ordered_triples:
        relation.insert(("T", 1), start, end)
    heap = HeapFile.from_relation(relation)
    from repro.core.engine import make_evaluator

    plain_tree = make_evaluator("aggregation_tree", "count")
    plain_tree.evaluate(heap.scan_triples())
    shuffled_tree = make_evaluator("aggregation_tree", "count")
    shuffled_tree.evaluate(randomized_scan_triples(heap, group_pages=8, seed=seed))
    report.add_row(
        "randomized page scan (sorted file)",
        plain_tree.counters.total_work,
        shuffled_tree.counters.total_work,
        "abstract work",
    )

    # Paged tree vs plain tree on random input (peak memory).
    plain_random = measure_strategy("aggregation_tree", random_triples)
    paged = PagedAggregationTreeEvaluator("count", node_budget=1024)
    paged.evaluate(list(random_triples))
    report.add_row(
        "paged tree, budget=1024 (random input)",
        plain_random.peak_nodes,
        paged.space.peak_nodes,
        "peak nodes",
    )

    # Sort + ktree k=1 pipeline vs linked list (work).
    sorted_heap = external_sort(heap, run_pages=16)
    pipeline = make_evaluator("kordered_tree", "count", k=1)
    pipeline.evaluate(sorted_heap.scan_triples())
    naive = measure_strategy("linked_list", random_triples)
    report.add_row(
        "sort + ktree k=1 vs linked list",
        naive.work,
        pipeline.counters.total_work,
        "abstract work",
    )
    report.add_note(
        "baseline = the paper's default under that regime; variant = the "
        "Section 7 proposal; see benchmarks/test_ablation_*.py for the "
        "asserted shape checks"
    )
    return [report]


def parallel(
    sizes: Optional[Sequence[int]] = None, seeds: Optional[Sequence[int]] = None
) -> List[Report]:
    """Columnar and time-sharded sweeps vs the object sweep (post-paper).

    COUNT over randomly ordered relations — the regime the planner's
    parallel rule targets.  Three reports: wall-clock seconds, abstract
    work (identical across the three sweeps by construction — the check
    that the columnar layout changes constants, not the algorithm), and
    the speedup ratios the acceptance criteria quote.  The cells feed
    raw triples, which carry no relation identity for the resident pool
    to key its shared-memory columns on, so ``parallel_sweep`` runs its
    shards in process at every size: the cells time clipping, the
    per-shard sweeps and stitching, not a process fan-out.
    """
    import os

    sizes = list(sizes) if sizes is not None else bench_sizes()
    seeds = list(seeds) if seeds is not None else bench_seeds()
    shard_counts = (1, 2, 4)

    columns = ["tuples", "sweep", "columnar_sweep"] + [
        f"parallel P={p}" for p in shard_counts
    ]
    time_report = Report("Parallel — time (s), COUNT, unordered relations", columns)
    work_report = Report("Parallel — abstract work, COUNT, unordered relations", columns)
    speed_report = Report(
        "Parallel — speedup over the object sweep (higher is better)",
        ["tuples", "columnar_sweep"] + [f"parallel P={p}" for p in shard_counts],
    )
    def best(strategy, loads, shards=None):
        # One run is dominated by GC pauses triggered by whatever the
        # previous cell allocated; best-of-3 per seed isolates the cell.
        samples = []
        for w in loads:
            runs = [
                measure_strategy(strategy, w, "count", shards=shards)
                for _ in range(3)
            ]
            samples.append(min(runs, key=lambda m: m.seconds))
        return mean_measurement(samples)

    for n in sizes:
        loads = [_triples(n, 0, seed) for seed in seeds]
        cells = [best("sweep", loads), best("columnar_sweep", loads)]
        for p in shard_counts:
            cells.append(best("parallel_sweep", loads, shards=p))
        time_report.add_row(n, *(round(c.seconds, 5) for c in cells))
        work_report.add_row(n, *(c.work for c in cells))
        base = cells[0].seconds
        speed_report.add_row(
            n, *(round(base / c.seconds, 2) for c in cells[1:])
        )
    note = (
        f"os.cpu_count()={os.cpu_count()}; seeds={seeds}; seconds are "
        f"best-of-3 per seed; raw-triple input, so parallel_sweep runs its "
        f"shards in process at every size: the cells time clipping, "
        f"per-shard sweeps and stitching on one core, not a process fan-out"
    )
    for report in (time_report, work_report, speed_report):
        report.add_note(note)
    return [time_report, work_report, speed_report]


#: Per-cell detail of the last ``columnar()`` run, keyed by
#: ``(aggregate, tuples)`` — the JSON writer emits it alongside the
#: rendered reports so the acceptance numbers (speedups, zero
#: materializations, batch counts) are machine-checkable.
COLUMNAR_DETAIL: Dict[str, object] = {}


def columnar(
    sizes: Optional[Sequence[int]] = None, seeds: Optional[Sequence[int]] = None
) -> List[Report]:
    """The page-to-row columnar pipeline vs the object path, end to end.

    Both series start from the same heap file *pages* and end at emitted
    rows, so the comparison covers what a query actually pays: the
    object path decodes every record into a ``TemporalTuple``, re-packs
    it as a triple, and builds two event tuples per triple inside the
    sweep; the columnar path batch-unpacks each page into flat
    ``array('q')`` columns and runs the specialized kernels with zero
    per-row or per-event tuples (``tuple_materializations`` proves it).
    Three columnar riders are timed — the serial columnar sweep, the
    time-sharded parallel plan, and a cold shard-result-cache pass —
    each against the object sweep fed from the same storage.
    """
    import os
    from time import perf_counter

    from repro.cache.evaluator import evaluate_cached
    from repro.cache.store import ShardResultCache
    from repro.core.columnar_sweep import ColumnarSweepEvaluator
    from repro.core.parallel import ParallelSweepEvaluator
    from repro.core.sweep import SweepEvaluator
    from repro.metrics.counters import OperationCounters
    from repro.relation.relation import TemporalRelation
    from repro.relation.schema import EMPLOYED_SCHEMA
    from repro.relation.tuples import TemporalTuple
    from repro.storage.heapfile import HeapFile

    sizes = list(sizes) if sizes is not None else bench_sizes()
    seeds = list(seeds) if seeds is not None else bench_seeds()
    aggregates = (("count", None), ("sum", "salary"))

    def built(n: int, seed: int):
        params = WorkloadParameters(tuples=n, seed=seed)
        rows = [
            TemporalTuple((f"e{i % 997}", salary), start, end)
            for i, (start, end, salary) in enumerate(generate_triples(params))
        ]
        relation = TemporalRelation(EMPLOYED_SCHEMA, rows, name=f"col{n}")
        return HeapFile.from_relation(relation), relation

    def best_of_3(run) -> float:
        return min(min(run() for _ in range(3)), float("inf"))

    time_reports: List[Report] = []
    speed_reports: List[Report] = []
    shape = Report(
        "Columnar — shape proof (per-row/per-event tuples built, page batches)",
        [
            "tuples",
            "aggregate",
            "object tuple builds",
            "columnar tuple builds",
            "column batches",
        ],
    )
    COLUMNAR_DETAIL.clear()
    COLUMNAR_DETAIL["cells"] = []
    for name, attribute in aggregates:
        label = name if attribute is None else f"{name}({attribute})"
        columns = [
            "tuples",
            "object sweep",
            "columnar_sweep",
            "parallel_sweep",
            "cached cold",
        ]
        time_report = Report(
            f"Columnar — end-to-end time (s) from heap pages, {label}", columns
        )
        speed_report = Report(
            f"Columnar — speedup over the object path, {label}",
            ["tuples", "columnar_sweep", "parallel_sweep", "cached cold"],
        )
        for n in sizes:
            per_seed = {key: [] for key in ("object", "columnar", "parallel", "cached")}
            mats = {"object": 0, "columnar": 0, "batches": 0}
            for seed in seeds:
                heap, relation = built(n, seed)

                def run_object() -> float:
                    started = perf_counter()
                    SweepEvaluator(name).evaluate(heap.scan_triples(attribute))
                    return perf_counter() - started

                def run_columnar() -> float:
                    evaluator = ColumnarSweepEvaluator(name)
                    started = perf_counter()
                    evaluator.evaluate_columns(heap.scan_columns(attribute))
                    return perf_counter() - started

                def run_parallel() -> float:
                    evaluator = ParallelSweepEvaluator(name)
                    started = perf_counter()
                    evaluator.evaluate_columns(heap.scan_columns(attribute))
                    return perf_counter() - started

                def run_cached() -> float:
                    relation._column_sets.clear()
                    store = ShardResultCache()
                    started = perf_counter()
                    evaluate_cached(relation, name, attribute, cache=store)
                    return perf_counter() - started

                per_seed["object"].append(best_of_3(run_object))
                per_seed["columnar"].append(best_of_3(run_columnar))
                per_seed["parallel"].append(best_of_3(run_parallel))
                per_seed["cached"].append(best_of_3(run_cached))

                object_counters = OperationCounters()
                SweepEvaluator(name, counters=object_counters).evaluate(
                    heap.scan_triples(attribute)
                )
                columnar_counters = OperationCounters()
                ColumnarSweepEvaluator(
                    name, counters=columnar_counters
                ).evaluate_columns(heap.scan_columns(attribute))
                mats["object"] += object_counters.tuple_materializations
                mats["columnar"] += columnar_counters.tuple_materializations
                mats["batches"] += columnar_counters.column_batches

            means = {
                key: sum(times) / len(times) for key, times in per_seed.items()
            }
            base = means["object"]
            time_report.add_row(
                n,
                *(round(means[k], 5) for k in ("object", "columnar", "parallel", "cached")),
            )
            speedups = {
                k: round(base / means[k], 2) if means[k] else float("inf")
                for k in ("columnar", "parallel", "cached")
            }
            speed_report.add_row(
                n, speedups["columnar"], speedups["parallel"], speedups["cached"]
            )
            shape.add_row(
                n, label, mats["object"], mats["columnar"], mats["batches"]
            )
            COLUMNAR_DETAIL["cells"].append(
                {
                    "aggregate": label,
                    "tuples": n,
                    "seconds": {k: round(v, 6) for k, v in means.items()},
                    "speedup": speedups,
                    "object_tuple_materializations": mats["object"],
                    "columnar_tuple_materializations": mats["columnar"],
                    "column_batches": mats["batches"],
                }
            )
        time_reports.append(time_report)
        speed_reports.append(speed_report)

    note = (
        f"os.cpu_count()={os.cpu_count()}; seeds={seeds}; seconds are "
        "best-of-3 per seed and include the page decode (object path: "
        "per-record unpack into TemporalTuple; columnar path: one "
        "struct.unpack per page); on a single-CPU host parallel_sweep "
        "collapses to one shard and matches the serial columnar time"
    )
    for report in time_reports + speed_reports + [shape]:
        report.add_note(note)
    COLUMNAR_DETAIL["note"] = note
    return time_reports + speed_reports + [shape]


def cache(
    sizes: Optional[Sequence[int]] = None, seeds: Optional[Sequence[int]] = None
) -> List[Report]:
    """The shard-result cache on repeated and append-heavy workloads.

    COUNT over randomly ordered relations (post-paper; see
    :mod:`repro.cache`).  Repeat scenario: the same relation queried
    against a fresh cache — the cold call populates it, the warm calls
    are pure hits off the cached shard columns (best-of-3).  Append scenario:
    after warming, 1 % new short tuples confined to the start of the
    timeline are inserted and the query re-runs — the delta path
    re-sweeps only the shards the appends overlap, never the clean
    ones, and the dirty/total shard columns prove it.
    """
    from time import perf_counter

    from repro.cache.evaluator import evaluate_cached
    from repro.cache.store import CacheKey, ShardResultCache
    from repro.metrics.counters import OperationCounters
    from repro.workload.generator import generate_relation

    sizes = list(sizes) if sizes is not None else bench_sizes()
    seeds = list(seeds) if seeds is not None else bench_seeds()
    shards = 4

    report = Report(
        "Cache — COUNT, repeated then append-heavy (4 shards requested)",
        [
            "tuples",
            "cold (s)",
            "warm hit (s)",
            "warm speedup",
            "append refresh (s)",
            "dirty shards",
            "total shards",
            "hit rate",
        ],
    )
    for n in sizes:
        cold_times, warm_times, append_times = [], [], []
        dirty_counts, window_counts, hit_rates = [], [], []
        for seed in seeds:
            relation = generate_relation(WorkloadParameters(tuples=n, seed=seed))
            store = ShardResultCache()
            started = perf_counter()
            cold_rows = evaluate_cached(
                relation, "count", shards=shards, cache=store
            ).rows
            cold_times.append(perf_counter() - started)
            warm_runs = []
            for _ in range(3):
                started = perf_counter()
                warm_rows = evaluate_cached(
                    relation, "count", shards=shards, cache=store
                ).rows
                warm_runs.append(perf_counter() - started)
                assert warm_rows == cold_rows
            warm_times.append(min(warm_runs))
            key = CacheKey(relation.uid, "count", None, shards)
            window_counts.append(len(store.lookup(key).windows))
            for index in range(max(1, n // 100)):
                relation.insert(("Nick", 50_000), index, index + 10)
            counters = OperationCounters()
            started = perf_counter()
            evaluate_cached(
                relation, "count", shards=shards, cache=store, counters=counters
            )
            append_times.append(perf_counter() - started)
            dirty_counts.append(counters.cache_dirty_shards)
            tallies = store.counters
            hit_rates.append(
                tallies.cache_hits
                / max(1, tallies.cache_hits + tallies.cache_misses)
            )
        cold = sum(cold_times) / len(cold_times)
        warm = sum(warm_times) / len(warm_times)
        report.add_row(
            n,
            round(cold, 5),
            round(warm, 6),
            round(cold / warm, 1) if warm else "-",
            round(sum(append_times) / len(append_times), 5),
            round(sum(dirty_counts) / len(dirty_counts), 2),
            round(sum(window_counts) / len(window_counts), 2),
            round(sum(hit_rates) / len(hit_rates), 3),
        )
    report.add_note(
        f"seeds={seeds}; warm = best-of-3 pure hits; append = 1% new short "
        "tuples confined to the timeline start, then one delta refresh "
        "(re-sweeps dirty shards only); hit rate counts the refresh as a "
        "hit (it reuses every clean shard)"
    )
    return [report]


def durability(
    sizes: Optional[Sequence[int]] = None, seeds: Optional[Sequence[int]] = None
) -> List[Report]:
    """Write-ahead journal overhead and crash-recovery cost.

    Two reports.  Append throughput: the same rows appended to a plain
    heap file and to a journaled one (:meth:`HeapFile.durable`, default
    ``commit`` fsync policy), each run ending in one ``flush()`` — the
    acceptance bar is journaled within 2x of plain at 64K.  Recovery:
    a journaled file is committed and then *abandoned* with its dirty
    pages unwritten (a process-death stand-in), and the re-open replays
    the whole journal — time grows with journal length, not with data
    already durable.
    """
    import os
    import tempfile
    from time import perf_counter

    from repro.relation.schema import Attribute, Schema
    from repro.relation.tuples import TemporalTuple
    from repro.storage.heapfile import HeapFile

    sizes = list(sizes) if sizes is not None else bench_sizes()
    seeds = list(seeds) if seeds is not None else bench_seeds()
    schema = Schema((Attribute("salary", "int"),))

    throughput = Report(
        "Durability — append throughput, plain vs journaled heap file",
        [
            "tuples",
            "plain (s)",
            "plain rows/s",
            "journaled (s)",
            "journaled rows/s",
            "overhead x",
        ],
    )
    recovery = Report(
        "Durability — crash recovery time vs journal length",
        [
            "journal appends",
            "recover (s)",
            "rows restored",
            "journal records",
            "rows/s replayed",
        ],
    )

    for n in sizes:
        plain_times, journal_times, recover_times = [], [], []
        restored = scanned = 0
        for seed in seeds:
            rows = [
                TemporalTuple((salary,), start, end)
                for start, end, salary in generate_triples(
                    WorkloadParameters(tuples=n, seed=seed)
                )
            ]
            with tempfile.TemporaryDirectory() as scratch:
                plain = HeapFile(schema, os.path.join(scratch, "plain.dat"))
                started = perf_counter()
                plain.append_all(rows)
                plain.flush()
                plain_times.append(perf_counter() - started)
                plain.close()

                path = os.path.join(scratch, "durable.dat")
                heap = HeapFile.durable(schema, path)
                started = perf_counter()
                heap.append_all(rows)
                heap.flush()
                journal_times.append(perf_counter() - started)
                heap.close()

                # Crash scenario: every append journaled and committed,
                # no data page written back — recovery replays it all.
                crash_path = os.path.join(scratch, "crash.dat")
                heap = HeapFile.durable(schema, crash_path)
                heap.append_all(rows)
                heap.commit()
                heap.abandon()
                started = perf_counter()
                recovered = HeapFile.durable(schema, crash_path)
                recover_times.append(perf_counter() - started)
                report = recovered.last_recovery
                restored = len(recovered)
                scanned = report.records_scanned if report else 0
                assert restored == len(rows)
                recovered.close()
        plain_s = sum(plain_times) / len(plain_times)
        journal_s = sum(journal_times) / len(journal_times)
        recover_s = sum(recover_times) / len(recover_times)
        throughput.add_row(
            n,
            round(plain_s, 4),
            int(n / plain_s) if plain_s else "-",
            round(journal_s, 4),
            int(n / journal_s) if journal_s else "-",
            round(journal_s / plain_s, 2) if plain_s else "-",
        )
        recovery.add_row(
            n,
            round(recover_s, 4),
            restored,
            scanned,
            int(restored / recover_s) if recover_s else "-",
        )
    throughput.add_note(
        f"seeds={seeds}; both series end in one flush(); journaled = "
        "write-ahead record per append + COMMIT fsync + rotation "
        "(REPRO_JOURNAL_FSYNC=commit)"
    )
    recovery.add_note(
        "crash = commit + abandon with zero data pages written back, so "
        "recovery rebuilds every row from the journal (worst case)"
    )
    return [throughput, recovery]


from repro.bench.planner import planner  # noqa: E402  (registry import)
from repro.bench.pool import pool  # noqa: E402  (registry import)
from repro.bench.replication import replication  # noqa: E402  (registry import)
from repro.bench.serving import serving  # noqa: E402  (registry import)

#: Driver registry for the CLI.
DRIVERS: Dict[str, Callable[..., List[Report]]] = {
    "fig6": figure6,
    "fig7": figure7,
    "fig7b": figure7_percentage_sweep,
    "fig8": figure8,
    "fig9": figure9,
    "fig9b": figure9_long_lived,
    "table1": table1,
    "table2": table2,
    "table3": table3,
    "ablations": ablations,
    "parallel": parallel,
    "columnar": columnar,
    "cache": cache,
    "durability": durability,
    "planner": planner,
    "serving": serving,
    "pool": pool,
    "replication": replication,
}
