"""Post-paper — the columnar and time-sharded sweeps.

The columnar kernel re-runs the endpoint sweep over flat (starts,
ends, values) columns: plain-int endpoint sorts at C speed, no
per-event tuples, rows batch-converted at the end.  ``parallel_sweep``
cuts the timeline into shards, clips tuples to each window, runs the
columnar kernel per shard, and stitches the per-shard rows back
together.  These cells feed raw triples, which carry no relation
identity for the resident pool to key shared memory on, so their
shards run in process at every size.

Timed cells record seconds for ``python -m repro.bench parallel`` to
report; the *asserted* facts are deterministic — identical rows and
identical abstract work — because wall-clock ratios on a loaded or
single-CPU CI host are noise.
"""

import pytest

from conftest import SIZES, run_once, workload
from repro.bench.measure import measure_strategy
from repro.core.engine import make_evaluator

SHARD_COUNTS = [1, 2, 4]


def evaluate(strategy, triples, shards=None):
    return make_evaluator(strategy, "count", shards=shards).evaluate(
        list(triples)
    )


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("strategy", ["sweep", "columnar_sweep"])
def test_columnar_vs_object_sweep(benchmark, n, strategy):
    run_once(benchmark, evaluate, strategy, workload(n, 0))
    benchmark.extra_info["series"] = f"{strategy} unordered"


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("shards", SHARD_COUNTS)
def test_sharded_sweep(benchmark, n, shards):
    run_once(benchmark, evaluate, "parallel_sweep", workload(n, 0), shards)
    benchmark.extra_info["series"] = f"parallel P={shards}"


def test_shape_columnar_work_equals_object_sweep(benchmark):
    def check():
        """Same algorithm, different layout: the abstract-work model
        must not see any difference at all."""
        n = SIZES[-1]
        triples = list(workload(n, 0))
        columnar = measure_strategy("columnar_sweep", triples)
        swept = measure_strategy("sweep", triples)
        assert columnar.work == swept.work
        assert columnar.result_rows == swept.result_rows

    run_once(benchmark, check)


def test_shape_sharding_duplicates_but_never_loses_events(benchmark):
    def check():
        """Clipping a spanning tuple into w windows charges its events
        once per window — work grows with shards, rows do not."""
        n = SIZES[-1]
        triples = list(workload(n, 0))
        single = measure_strategy("parallel_sweep", triples, shards=1)
        sharded = measure_strategy("parallel_sweep", triples, shards=4)
        assert sharded.work >= single.work
        assert sharded.result_rows == single.result_rows

    run_once(benchmark, check)


def test_shape_all_sweeps_agree_row_for_row(benchmark):
    def check():
        n = SIZES[-1]
        triples = list(workload(n, 0))
        expected = evaluate("sweep", triples).rows
        assert evaluate("columnar_sweep", triples).rows == expected
        for shards in SHARD_COUNTS:
            assert evaluate("parallel_sweep", triples, shards).rows == expected

    run_once(benchmark, check)
