"""Tests for heap files (paged tuple storage)."""

import pytest

from repro.core.interval import FOREVER
from repro.relation.schema import EMPLOYED_SCHEMA
from repro.relation.tuples import TemporalTuple
from repro.storage.heapfile import HeapFile
from repro.workload.employed import employed_relation


class TestInMemoryHeap:
    def test_append_and_scan_roundtrip(self, employed):
        heap = HeapFile.from_relation(employed)
        assert len(heap) == 4
        assert list(heap.scan()) == employed.rows()

    def test_to_relation(self, employed):
        heap = HeapFile.from_relation(employed)
        back = heap.to_relation()
        assert back.rows() == employed.rows()

    def test_scan_triples_matches_relation(self, employed):
        heap = HeapFile.from_relation(employed)
        assert list(heap.scan_triples("salary")) == list(
            employed.scan_triples("salary")
        )

    def test_timestamps_only_fast_path(self, employed):
        heap = HeapFile.from_relation(employed)
        triples = list(heap.scan_triples())
        assert triples[0] == (18, FOREVER, None)
        assert all(v is None for _s, _e, v in triples)

    def test_page_fill(self):
        heap = HeapFile(EMPLOYED_SCHEMA)
        for i in range(130):  # needs 3 pages at 63 records/page
            heap.append(TemporalTuple(("T", i), i, i + 1))
        assert heap.page_count == 3
        assert len(list(heap.scan())) == 130

    def test_size_bytes(self):
        heap = HeapFile(EMPLOYED_SCHEMA)
        heap.append(TemporalTuple(("T", 1), 0, 1))
        heap.flush()
        assert heap.size_bytes == 8192


class TestFileBackedHeap:
    def test_persistence_across_reopen(self, tmp_path, employed):
        path = str(tmp_path / "employed.heap")
        with HeapFile.from_relation(employed, path=path) as heap:
            assert len(heap) == 4
        with HeapFile(EMPLOYED_SCHEMA, path=path) as reopened:
            assert len(reopened) == 4
            assert list(reopened.scan()) == employed.rows()

    def test_append_after_reopen_fills_tail_page(self, tmp_path, employed):
        path = str(tmp_path / "grow.heap")
        with HeapFile.from_relation(employed, path=path) as heap:
            pages_before = heap.page_count
        with HeapFile(EMPLOYED_SCHEMA, path=path) as reopened:
            reopened.append(TemporalTuple(("New", 1), 0, 5))
            assert reopened.page_count == pages_before  # tail page reused
            assert len(reopened) == 5

    def test_io_counted_through_buffer(self, tmp_path):
        path = str(tmp_path / "counted.heap")
        relation = employed_relation()
        with HeapFile.from_relation(relation, path=path) as heap:
            heap.buffer.drop_cache()
            list(heap.scan())
            assert heap.buffer.stats.page_reads >= 1

    def test_small_buffer_still_correct(self):
        source = employed_relation()
        heap = HeapFile(EMPLOYED_SCHEMA, buffer_pages=1)
        for i in range(200):
            heap.append(TemporalTuple(("T", i), i, i + 2))
        rows = list(heap.scan())
        assert len(rows) == 200
        assert rows[123].values[1] == 123
        del source


class TestScanEvaluatorIntegration:
    def test_evaluators_run_over_heap_scans(self, employed):
        from repro.core.engine import evaluate_triples
        from repro.workload.employed import TABLE_1_EXPECTED

        heap = HeapFile.from_relation(employed)
        result = evaluate_triples(
            list(heap.scan_triples()), "count", "aggregation_tree"
        )
        assert result.rows == TABLE_1_EXPECTED

    def test_two_pass_scans_heap_twice(self, employed):
        from repro.core.two_pass import TwoPassEvaluator

        heap = HeapFile.from_relation(employed)
        heap.buffer.drop_cache()
        result = TwoPassEvaluator("count").evaluate_relation(heap)
        assert len(result) == 7

    def test_unknown_attribute_raises(self, employed):
        from repro.relation.schema import SchemaError

        heap = HeapFile.from_relation(employed)
        with pytest.raises(SchemaError):
            list(heap.scan_triples("bonus"))


class TestVersionKeyedStatistics:
    """Statistics are cached keyed on the version counter, which every
    append bumps; no code rewrites pages in place."""

    def test_unchanged_heap_reuses_the_cached_object(self, employed):
        heap = HeapFile.from_relation(employed)
        assert heap.statistics() is heap.statistics()

    def test_append_bumps_version_and_invalidates(self, employed):
        heap = HeapFile.from_relation(employed)
        stale = heap.statistics()
        version = heap.version
        heap.append(next(heap.scan()))
        assert heap.version == version + 1
        fresh = heap.statistics()
        assert fresh is not stale
        assert fresh.tuple_count == stale.tuple_count + 1
