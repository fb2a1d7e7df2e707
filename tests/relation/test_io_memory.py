"""The CSV load's transient memory is bounded by a chunk, not the file.

``read_csv`` reads a fixed number of records at a time and appends each
chunk to typed columns, so what a load allocates beyond the relation it
keeps should not grow with the file.  The transient is measured with
tracemalloc as the load's peak minus what it retains.  Holding the whole
file's cells, the 32K-tuple §6 relation read an 11.4 MB transient, 8×
the 4K relation's 1.4 MB; loading 4,096 records at a time, it reads
1.8 MB against the 4K relation's 1.6 MB.
"""

import gc
import tracemalloc

import pytest

from repro.relation.io import read_csv, write_csv
from repro.workload.generator import WorkloadParameters, generate_relation


def load_transient(path: str) -> int:
    """Peak minus retained traced bytes of one quarantining load."""
    gc.collect()
    tracemalloc.start()
    try:
        relation = read_csv(path, on_error="quarantine")
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(relation.quarantine) == 0
    return peak - retained


@pytest.fixture(scope="module")
def transients(tmp_path_factory) -> dict:
    directory = tmp_path_factory.mktemp("loads")
    measured = {}
    for tuples in (4_096, 32_768):
        path = str(directory / f"employed-{tuples}.csv")
        write_csv(generate_relation(WorkloadParameters(tuples=tuples, seed=1)), path)
        measured[tuples] = load_transient(path)
    return measured


def test_32k_load_transient_is_under_4_mb(transients):
    assert transients[32_768] < 4_000_000, transients


def test_32k_load_transient_is_under_twice_the_4k_one(transients):
    assert transients[32_768] < 2 * transients[4_096], transients
