"""Journaled evaluator checkpoints: capture, resume, paged degradation."""

import pytest

from repro.core.kordered_tree import KOrderedTreeEvaluator
from repro.exec import faults
from repro.exec.errors import RecoveryError
from repro.exec.faults import FaultPlan, IOFault, SimulatedCrash
from repro.metrics.counters import OperationCounters
from repro.relation.schema import Attribute, Schema
from repro.relation.tuples import TemporalTuple
from repro.storage.checkpoint import (
    checkpointed_evaluate,
    decode_checkpoint,
    encode_checkpoint,
    resume_evaluation,
)
from repro.storage.heapfile import HeapFile

SCHEMA = Schema((Attribute("salary", "int"),))

#: Sorted (k-ordered with k=0) rows; the evaluator runs with k=1.
ROWS = sorted(
    (
        TemporalTuple(
            ((index * 37) % 90 + 10,),
            (index * 13) % 400,
            (index * 13) % 400 + index % 23 + 1,
        )
        for index in range(1000)
    ),
    key=lambda row: (row.start, row.end),
)


def durable_heap(tmp_path, name="rel.dat"):
    heap = HeapFile.durable(SCHEMA, str(tmp_path / name))
    heap.append_all(ROWS)
    heap.flush()
    return heap


def reference_rows(aggregate="sum"):
    evaluator = KOrderedTreeEvaluator(aggregate, 1)
    return evaluator.evaluate(
        (row.start, row.end, row.values[0]) for row in ROWS
    ).rows


class TestCheckpointedEvaluate:
    def test_identical_to_plain_evaluation(self, tmp_path):
        heap = durable_heap(tmp_path)
        try:
            result = checkpointed_evaluate(
                heap,
                KOrderedTreeEvaluator("sum", 1),
                attribute="salary",
                checkpoint_every=100,
                journal=heap.journal,
            )
            assert result.rows == reference_rows("sum")
        finally:
            heap.close()

    def test_checkpoints_are_journaled_and_counted(self, tmp_path):
        heap = durable_heap(tmp_path)
        counters = OperationCounters()
        try:
            checkpointed_evaluate(
                heap,
                KOrderedTreeEvaluator("count", 1),
                checkpoint_every=250,
                journal=heap.journal,
                counters=counters,
            )
            assert counters.checkpoints_written == 4  # 1000 / 250
            assert heap.journal.stats.checkpoints == 4
        finally:
            heap.close()

    def test_requires_a_journal(self, tmp_path):
        heap = HeapFile(SCHEMA)
        with pytest.raises(ValueError, match="journal"):
            checkpointed_evaluate(heap, KOrderedTreeEvaluator("count", 1))


class TestResume:
    def test_resume_from_abandoned_run_matches_reference(self, tmp_path):
        """Checkpoint → abandon (crash stand-in) → recover → resume."""
        heap = durable_heap(tmp_path)
        checkpointed_evaluate(
            heap,
            KOrderedTreeEvaluator("sum", 1),
            attribute="salary",
            checkpoint_every=300,
            journal=heap.journal,
        )
        heap.abandon()
        recovered = HeapFile.durable(SCHEMA, str(tmp_path / "rel.dat"))
        try:
            payload = recovered.last_recovery.checkpoint
            assert payload is not None
            state = decode_checkpoint(payload)
            assert 0 < state["consumed"] < len(ROWS)  # genuinely mid-stream
            result = resume_evaluation(
                recovered,
                KOrderedTreeEvaluator("sum", 1),
                payload,
                attribute="salary",
            )
            assert result.rows == reference_rows("sum")
        finally:
            recovered.close()

    def test_aggregate_mismatch_is_refused(self, tmp_path):
        heap = durable_heap(tmp_path)
        try:
            payload = encode_checkpoint(
                KOrderedTreeEvaluator("sum", 1), heap, "salary"
            )
            with pytest.raises(RecoveryError, match="aggregate"):
                resume_evaluation(
                    heap, KOrderedTreeEvaluator("count", 1), payload
                )
        finally:
            heap.close()

    def test_checkpoint_beyond_heap_is_refused(self, tmp_path):
        heap = durable_heap(tmp_path)
        payload = encode_checkpoint(
            KOrderedTreeEvaluator("sum", 1), heap, "salary"
        )
        heap.close()
        short = HeapFile.durable(SCHEMA, str(tmp_path / "short.dat"))
        try:
            for row in ROWS[:10]:
                short.append(row)
            short.flush()
            state = decode_checkpoint(payload)
            state_consumed = state["consumed"]
            # Hand-craft a checkpoint claiming more consumed rows than
            # the (shorter) heap holds.
            evaluator = KOrderedTreeEvaluator("sum", 1)
            evaluator.begin()
            for row in ROWS[:50]:
                evaluator.step(row.start, row.end, row.values[0])
            bad = encode_checkpoint(evaluator, heap, "salary")
            with pytest.raises(RecoveryError, match="consumed|rows"):
                resume_evaluation(
                    short, KOrderedTreeEvaluator("sum", 1), bad, attribute="salary"
                )
            assert state_consumed == 0  # sanity: the fresh one was empty
        finally:
            short.close()


@pytest.mark.faults
class TestKilledAggregationResumes:
    def test_crash_mid_checkpoint_then_resume(self, tmp_path):
        """The acceptance scenario: a killed k-ordered aggregation
        resumes from its journaled checkpoint and emits the same rows
        as an uninterrupted run."""
        # Build the durable file first, without faults.
        heap = durable_heap(tmp_path)
        heap.close()
        path = str(tmp_path / "rel.dat")

        # Counting pass: how many journal writes does the re-open cost?
        faults.install_fault_plan(
            FaultPlan(
                io_faults=(IOFault(tag="any", operation="write", at_call=10**9),),
                name="counting",
            )
        )
        try:
            opened = HeapFile.durable(SCHEMA, path)
            # Snapshot before close(): close flushes and rotates, which
            # the crashed victim never gets to do.
            open_writes = faults._IO_CALLS.get(("journal", "write"), 0)
            opened.abandon()
        finally:
            faults.clear_fault_plan()

        # Crash while logging the third checkpoint of the evaluation.
        faults.install_fault_plan(
            FaultPlan(
                io_faults=(
                    IOFault(
                        tag="journal",
                        operation="write",
                        at_call=open_writes + 3,
                        kind="crash",
                    ),
                ),
                name="kill-checkpoint",
            )
        )
        try:
            victim = HeapFile.durable(SCHEMA, path)
            with pytest.raises(SimulatedCrash):
                checkpointed_evaluate(
                    victim,
                    KOrderedTreeEvaluator("avg", 1),
                    attribute="salary",
                    checkpoint_every=200,
                    journal=victim.journal,
                )
        finally:
            faults.clear_fault_plan()

        recovered = HeapFile.durable(SCHEMA, path)
        try:
            payload = recovered.last_recovery.checkpoint
            assert payload is not None  # two checkpoints landed pre-crash
            result = resume_evaluation(
                recovered,
                KOrderedTreeEvaluator("avg", 1),
                payload,
                attribute="salary",
            )
            assert result.rows == reference_rows("avg")
        finally:
            recovered.close()
