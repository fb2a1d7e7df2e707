"""A tour of the Section 6.3 query-optimizer rules, storage included.

The paper closes its evaluation with guidance for a query analyzer:
which algorithm to run given the relation's sortedness, size and
long-lived-tuple mix, and whether memory is cheaper than the disk I/O
of a sort.  This example walks the planner through four differently
shaped relations — checking its choice against an actual measurement —
and then runs the "sort, then k-ordered tree with k = 1" strategy over
the paged storage substrate, counting real page I/O.

Run:  python examples/optimizer_tour.py
"""

import time

from repro import TemporalRelation, choose_strategy, temporal_aggregate
from repro.bench import measure_strategy
from repro.relation.relation import space_counts
from repro.storage import HeapFile, SortStatistics, external_sort
from repro.workload import (
    WorkloadParameters,
    disorder_relation,
    generate_relation,
)

N = 4096


def relation_zoo():
    """Four relations exercising the planner's four regimes."""
    base = generate_relation(WorkloadParameters(tuples=N, seed=11))
    unordered = base  # generation order is random
    ordered = base.sorted_by_time("ordered")
    nearly = disorder_relation(base, k=8, percentage=0.10, seed=3, name="nearly")

    # Coarse granularity: every timestamp on one of ~12 "semester end"
    # days (the paper's student-records example) -> few constant
    # intervals -> linked list is adequate.
    coarse = TemporalRelation(base.schema, name="coarse")
    for index, row in enumerate(base):
        day = (index % 12) * 1000
        coarse.insert(row.values, day, day + 999)
    return [unordered, ordered, nearly, coarse]


def main() -> None:
    print("Planner decisions (and a measurement sanity check)\n")
    for relation in relation_zoo():
        stats = relation.statistics()
        columns = relation.columns(None)
        decision = choose_strategy(
            stats, counts=space_counts(columns.starts, columns.ends)
        )
        print(f"relation {relation.name!r}: n={stats.tuple_count}, "
              f"unique timestamps={stats.unique_timestamps}, "
              f"k={stats.k}, sorted={stats.is_totally_ordered}")
        print(f"  -> {decision.describe()}")
        print(f"     structure bound: {decision.estimated_bytes:,} bytes")

        started = time.perf_counter()
        result = temporal_aggregate(relation, "count")
        elapsed = time.perf_counter() - started
        print(f"     ran in {elapsed:.3f}s producing {len(result)} "
              f"constant intervals")

        # Compare against the always-works baseline on the same input.
        triples = list(relation.scan_triples())
        baseline = measure_strategy("aggregation_tree", triples)
        print(f"     (plain aggregation tree on the same input: "
              f"{baseline.seconds:.3f}s, peak {baseline.peak_bytes:,} bytes)")
        print()

    # ------------------------------------------------------------------
    # The paper's "simplest strategy", storage-backed and I/O-counted:
    # sort the relation externally, then k-ordered tree with k = 1.
    # ------------------------------------------------------------------
    print('The "sort, then ktree k=1" strategy over paged storage\n')
    relation = generate_relation(
        WorkloadParameters(tuples=N, long_lived_percent=40, seed=23)
    )
    heap = HeapFile.from_relation(relation)
    print(f"heap file: {len(heap)} tuples on {heap.page_count} pages "
          f"({heap.size_bytes:,} bytes, {heap.records_per_page} records/page)")

    sort_stats = SortStatistics()
    sorted_heap = external_sort(heap, run_pages=8, statistics=sort_stats)
    print(f"external sort: {sort_stats.runs} runs, "
          f"{sort_stats.total_page_io} pages of run/output I/O")

    started = time.perf_counter()
    evaluator_result = measure_strategy(
        "kordered_tree", list(sorted_heap.scan_triples()), k=1
    )
    elapsed = time.perf_counter() - started
    print(f"ktree k=1 over the sorted heap: {elapsed:.3f}s, "
          f"peak {evaluator_result.peak_bytes:,} modeled bytes, "
          f"{evaluator_result.result_rows} constant intervals")
    print(f"scan I/O: {sorted_heap.buffer.stats}")


if __name__ == "__main__":
    main()
