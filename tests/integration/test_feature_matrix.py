"""Cross-feature integration: the extension layers composed together.

Each test chains several subsystems end to end — the combinations a
real deployment would hit — and anchors the result against first
principles or the oracle.
"""

import pytest

from repro.core.engine import temporal_aggregate
from repro.core.interval import Interval
from repro.core.moving import moving_window_aggregate
from repro.core.reference import ReferenceEvaluator
from repro.relation.io import from_csv_text, to_csv_text
from repro.relation.relation import TemporalRelation
from repro.relation.schema import EMPLOYED_SCHEMA
from repro.tsql2.executor import Database
from repro.workload.generator import WorkloadParameters, generate_relation


class TestCsvRoundTripThroughEverything:
    def test_generated_csv_queried_and_reexported(self, tmp_path):
        relation = generate_relation(WorkloadParameters(tuples=120, seed=55))
        text = to_csv_text(relation)
        back = from_csv_text(text, schema=relation.schema, name="W")

        db = Database()
        db.register(back)
        via_language = db.execute("SELECT MAX(salary) FROM W")
        via_api = temporal_aggregate(relation, "max", "salary")
        assert [(r[0], r[1], r[2]) for r in via_language] == [
            tuple(r) for r in via_api
        ]
        # And the round trip is stable.
        assert to_csv_text(back) == text


class TestStorageWindowedMovingAggregate:
    def test_moving_window_over_zone_mapped_scan(self):
        """Zone-map scan feeding a moving-window aggregate equals the
        all-in-memory computation on the same window."""
        from repro.storage.external_sort import external_sort
        from repro.storage.heapfile import HeapFile
        from repro.storage.zonemap import ZoneMap

        relation = generate_relation(WorkloadParameters(tuples=400, seed=66))
        heap = external_sort(HeapFile.from_relation(relation), run_pages=4)
        window = Interval(400_000, 500_000)
        w = 2_000  # trailing window length

        zone_map = ZoneMap(heap)
        # Qualifying tuples must include anything whose *extended* end
        # reaches the window, so widen the fetch by w-1.
        fetch = Interval(max(0, window.start - (w - 1)), window.end)
        triples = list(zone_map.scan_window_triples(fetch))
        via_storage = moving_window_aggregate(triples, "count", w).restrict(window)

        everything = list(relation.scan_triples())
        in_memory = moving_window_aggregate(everything, "count", w).restrict(window)
        assert via_storage.rows == in_memory.rows


class TestPlannerWithDeclaredBound:
    def test_retroactive_declaration_end_to_end(self):
        """A feed with bounded delay (rows in arrival order, each
        starting at most six instants before the arrival clock),
        evaluated under the DBA's declared-k plan, matches the oracle."""
        import random

        from repro.core.engine import make_evaluator
        from repro.core.planner import choose_strategy

        rng = random.Random(12)
        view = TemporalRelation(EMPLOYED_SCHEMA, name="feed")
        clock = 0
        for _ in range(300):
            clock += rng.randint(0, 4)
            delay = rng.randint(0, 6)
            start = max(0, clock - delay)
            view.insert(("T", 1), start, start + rng.randint(0, 10))

        decision = choose_strategy(view.statistics(), declared_k=25)
        assert decision.strategy == "kordered_tree"
        evaluator = make_evaluator(decision.strategy, "count", k=decision.k)
        result = evaluator.evaluate(view.scan_triples())
        expected = ReferenceEvaluator("count").evaluate(list(view.scan_triples()))
        assert result.rows == expected.rows
