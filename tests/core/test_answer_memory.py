"""What a sweep evaluator's answer keeps alive: columns, not rows.

The sweep kernels emit each answer as ``array('q')`` start and end
columns plus a value list, and the evaluators hand those columns out
as they are.  At 8K tuples (about 16K answer rows) an answer from the
single columnar sweep or the in-process sharded sweep must keep at most
:data:`MAX_BYTES_PER_ROW` bytes alive per row, for every aggregate; a
row list of ``ConstantInterval`` tuples alone would cost 72.  Iterating
the answer streams its rows and keeps none of them.
"""

from __future__ import annotations

import gc
import tracemalloc

import pytest

from repro.core.aggregates import get_aggregate
from repro.core.columnar_sweep import ColumnarSweepEvaluator
from repro.core.parallel import ParallelSweepEvaluator
from repro.workload.generator import WorkloadParameters, generate_relation

AGGREGATES = [
    ("count", None),
    ("sum", "salary"),
    ("avg", "salary"),
    ("min", "salary"),
    ("max", "salary"),
]

#: Two 8-byte timestamps and one 8-byte list slot per row, the
#: columns' growth slack, plus the value object when the aggregate
#: computed a fresh one (a 28-byte int for large sums, a 24-byte float
#: for averages).
MAX_BYTES_PER_ROW = 64

EVALUATORS = {
    "columnar_sweep": lambda aggregate: ColumnarSweepEvaluator(aggregate),
    "parallel_sweep": lambda aggregate: ParallelSweepEvaluator(
        aggregate, shards=4
    ),
}


@pytest.fixture(scope="module")
def relation_8k():
    return generate_relation(WorkloadParameters(tuples=8192, seed=5))


def _traced() -> int:
    gc.collect()
    return tracemalloc.get_traced_memory()[0]


@pytest.mark.parametrize("strategy", sorted(EVALUATORS))
@pytest.mark.parametrize("aggregate,attribute", AGGREGATES)
def test_answer_retains_at_most_64_bytes_per_row(
    relation_8k, strategy, aggregate, attribute
):
    make = EVALUATORS[strategy]
    # A first evaluation warms what outlives it (the relation's column
    # snapshot, lazily imported kernel backends), so only the answer
    # is measured.
    make(get_aggregate(aggregate)).evaluate_relation(relation_8k, attribute)
    tracemalloc.start()
    try:
        before = _traced()
        result = make(get_aggregate(aggregate)).evaluate_relation(
            relation_8k, attribute
        )
        retained = _traced() - before
        rows = sum(1 for _row in result)
        iterated = _traced() - before - retained
    finally:
        tracemalloc.stop()
    assert rows == len(result) > 8192
    assert retained / rows <= MAX_BYTES_PER_ROW, (
        f"{strategy} {aggregate}: {retained} bytes retained for {rows} rows"
    )
    # Free lists may keep a few blocks; a stored row list would keep
    # over a megabyte here.
    assert iterated < 1024, f"iterating kept {iterated} bytes alive"
