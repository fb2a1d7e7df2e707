"""The result cache behind TSQL2 statements.

Every aggregate call runs through ``temporal_aggregate``, so a
repeated unfiltered statement is served by the shard-result cache the
way a repeated library call is.  WHERE and GROUP BY statements
aggregate relations built fresh for that statement, which no later
statement can hit: they must neither fill the cache nor touch its
repeat-signature set.
"""

import pytest

from repro.cache.store import default_cache, set_default_cache
from repro.tsql2.executor import Database
from repro.workload.generator import WorkloadParameters, generate_relation

COUNT = "SELECT COUNT(name) FROM W"


@pytest.fixture
def db():
    set_default_cache(None)
    database = Database()
    database.register(
        generate_relation(WorkloadParameters(tuples=8192, seed=5)), name="W"
    )
    yield database
    set_default_cache(None)


def tallies():
    counters = default_cache().counters
    return counters.cache_hits, counters.cache_misses, len(default_cache())


def test_repeated_statement_misses_then_hits(db):
    first = db.execute(COUNT).rows
    assert tallies() == (0, 0, 0)  # a new signature: planned, uncached
    assert db.execute(COUNT).rows == first
    assert tallies() == (0, 1, 1)  # a repeat: miss, stored
    assert db.execute(COUNT).rows == first
    assert tallies() == (1, 1, 1)  # pure hit


@pytest.mark.parametrize(
    "text",
    [
        "SELECT COUNT(name) FROM W WHERE salary > 40000",
        "SELECT name, COUNT(name) FROM W GROUP BY name",
        "SELECT COUNT(name) FROM W WHERE salary > 40000 "
        "USING ALGORITHM cached_sweep",
        "SELECT name, COUNT(name) FROM W GROUP BY name "
        "USING ALGORITHM cached_sweep",
    ],
)
def test_filtered_and_grouped_statements_leave_the_cache_alone(db, text):
    cache = default_cache()
    db.execute(COUNT)
    db.execute(COUNT)  # one stored entry and one remembered signature
    entries, signatures = dict(cache._entries), dict(cache._recent)
    for _ in range(2):
        db.execute(text)
    assert dict(cache._entries) == entries
    assert dict(cache._recent) == signatures
