"""What a cached answer costs in memory, and what the budget charges.

Each entry holds its shard partials once, as ``array('q')`` start and
end columns plus a plain value list.  At 8K tuples (about 16K answer
rows) the bytes a cached answer keeps alive must stay within
:data:`MAX_BYTES_PER_ROW` per answer row for every aggregate, and the
cache's ``live_bytes`` must be exactly the sum of its entries'
``charged_bytes``.
"""

from __future__ import annotations

import gc
import tracemalloc

import pytest

from repro.cache.evaluator import evaluate_cached
from repro.cache.store import CacheKey, ShardResultCache
from repro.workload.generator import WorkloadParameters, generate_relation

AGGREGATES = [
    ("count", None),
    ("sum", "salary"),
    ("avg", "salary"),
    ("min", "salary"),
    ("max", "salary"),
]

SHARDS = 4

#: Two 8-byte timestamps and one 8-byte list slot per row, plus the
#: value object when the aggregate computed a fresh one (a 28-byte int
#: for large sums, a 24-byte float for averages).
MAX_BYTES_PER_ROW = 64


@pytest.fixture(scope="module")
def relation_8k():
    return generate_relation(WorkloadParameters(tuples=8192, seed=5))


@pytest.mark.parametrize("aggregate,attribute", AGGREGATES)
def test_cached_answer_retains_at_most_64_bytes_per_row(
    relation_8k, aggregate, attribute
):
    # A first evaluation warms what the relation itself keeps (its
    # column snapshot), so only the new cache's entry is measured.
    evaluate_cached(
        relation_8k, aggregate, attribute, shards=SHARDS, cache=ShardResultCache()
    )
    cache = ShardResultCache()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = evaluate_cached(
            relation_8k, aggregate, attribute, shards=SHARDS, cache=cache
        )
        rows = len(result)
        del result
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(cache) == 1
    assert rows > 8192
    assert retained / rows <= MAX_BYTES_PER_ROW, (
        f"{aggregate}: {retained} bytes retained for {rows} answer rows"
    )


def test_live_bytes_is_the_sum_of_the_charged_bytes(relation_8k):
    cache = ShardResultCache()
    for aggregate, attribute in AGGREGATES:
        evaluate_cached(relation_8k, aggregate, attribute, shards=SHARDS, cache=cache)
    entries = [
        cache.lookup(CacheKey(relation_8k.uid, aggregate, attribute, SHARDS))
        for aggregate, attribute in AGGREGATES
    ]
    assert all(entry is not None for entry in entries)
    assert cache.live_bytes == sum(entry.charged_bytes for entry in entries)
    # Three 8-byte cells per pre-stitch row, plus the buffer headers.
    for entry in entries:
        cells = sum(len(part) for part in entry.parts)
        assert 24 * cells <= entry.charged_bytes <= 24 * cells + 256 * len(entry.parts)
    assert cache.shed() == sum(entry.charged_bytes for entry in entries)
    assert cache.live_bytes == 0
