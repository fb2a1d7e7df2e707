"""Cross-subsystem integration tests.

These exercise whole pipelines: storage → external sort → evaluator,
TSQL2 over generated workloads cross-checked against the oracle, and
the planner driving real evaluations.
"""

import pytest

from repro.core.engine import STRATEGIES, temporal_aggregate
from repro.core.kordered_tree import KOrderedTreeEvaluator
from repro.core.reference import ReferenceEvaluator
from repro.storage.external_sort import external_sort
from repro.storage.heapfile import HeapFile
from repro.tsql2.executor import Database
from repro.workload.generator import WorkloadParameters, generate_relation


@pytest.fixture(scope="module")
def workload():
    return generate_relation(
        WorkloadParameters(tuples=400, long_lived_percent=40, seed=77)
    )


class TestStoragePipeline:
    def test_sort_then_ktree_matches_oracle(self, tmp_path, workload):
        """The paper's recommended strategy, end to end over real files."""
        path = str(tmp_path / "workload.heap")
        heap = HeapFile.from_relation(workload, path=path)
        ordered = external_sort(
            heap, run_pages=4, output_path=str(tmp_path / "sorted.heap")
        )
        result = KOrderedTreeEvaluator("count", k=1).evaluate(
            ordered.scan_triples()
        )
        expected = ReferenceEvaluator("count").evaluate(
            list(workload.scan_triples())
        )
        assert result.rows == expected.rows
        heap.close()
        ordered.close()

    def test_storage_backed_matches_memory_for_all_strategies(self, workload):
        heap = HeapFile.from_relation(workload)
        expected = ReferenceEvaluator("sum").evaluate(
            list(workload.scan_triples("salary"))
        )
        for strategy in ("linked_list", "aggregation_tree", "balanced_tree"):
            evaluator = STRATEGIES[strategy]("sum")
            result = evaluator.evaluate(heap.scan_triples("salary"))
            assert result.rows == expected.rows, strategy


class TestTSQL2OverGeneratedData:
    def test_query_count_matches_api(self, workload):
        db = Database()
        db.register(workload, name="W")
        via_query = db.execute("SELECT COUNT(name) FROM W")
        via_api = temporal_aggregate(workload, "count")
        assert [(r[0], r[1], r[2]) for r in via_query] == [
            tuple(r) for r in via_api
        ]

    def test_hinted_algorithms_agree(self, workload):
        db = Database()
        db.register(workload, name="W")
        results = {
            hint: [tuple(r) for r in db.execute(
                f"SELECT MAX(salary) FROM W USING ALGORITHM {hint}"
            )]
            for hint in ("list", "tree", "balanced", "tuma", "ktree(k=400)")
        }
        baseline = results.pop("list")
        for hint, rows in results.items():
            assert rows == baseline, hint

    def test_where_filter_matches_manual_filter(self, workload):
        db = Database()
        db.register(workload, name="W")
        threshold = 60_000
        via_query = db.execute(
            f"SELECT COUNT(name) FROM W WHERE salary >= {threshold}"
        )
        triples = [
            (row.start, row.end, None)
            for row in workload
            if row.values[1] >= threshold
        ]
        expected = ReferenceEvaluator("count").evaluate(triples)
        assert [(r[0], r[1], r[2]) for r in via_query] == [
            tuple(r) for r in expected
        ]


class TestPlannerDrivenEvaluation:
    def test_auto_matches_explicit_on_all_shapes(self, workload):
        shapes = [
            workload,
            workload.sorted_by_time(),
        ]
        for relation in shapes:
            auto = temporal_aggregate(relation, "count")
            explicit = temporal_aggregate(
                relation, "count", strategy="reference"
            )
            assert auto.rows == explicit.rows

    def test_budget_plan_still_correct(self, workload):
        # 400 tuples, at most 119 open at once: the sort plan's
        # 255 nodes (5,100 B) fit where the sweep's 800 events do not.
        budgeted, decision = temporal_aggregate(
            workload, "count", memory_budget_bytes=6_000, explain=True
        )
        assert decision.sort_first
        free = temporal_aggregate(workload, "count")
        assert budgeted.rows == free.rows


class TestScanAccounting:
    def test_one_scan_for_new_algorithms_two_for_tuma(self, workload):
        from repro.core.two_pass import TwoPassEvaluator
        from repro.core.linked_list import LinkedListEvaluator

        workload.scan_count = 0
        LinkedListEvaluator("count").evaluate(workload.scan_triples())
        assert workload.scan_count == 1
        TwoPassEvaluator("count").evaluate_relation(workload)
        assert workload.scan_count == 3  # two more
