"""Column storage: a relation held as typed columns must behave exactly
like the list of rows it stands for.

The property builds random relations every way the library can build
one and checks the row API, the column API, statistics and the chained
fingerprint against a plain list-of-rows model.  The fixed cases pin
the fingerprint's value, the immutability of handed-out column
snapshots under later appends, and the bytes a loaded relation keeps.
"""

from __future__ import annotations

import enum
import gc
import tracemalloc

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.interval import FOREVER
from repro.relation.io import from_csv_text, read_csv, to_csv_text, write_csv
from repro.relation.relation import (
    TemporalRelation,
    fingerprint_rows,
    statistics_from_columns,
)
from repro.relation.schema import Schema
from repro.relation.tuples import TemporalTuple
from repro.serve.snapshots import ServedRelation
from repro.workload.employed import employed_relation
from repro.workload.generator import WorkloadParameters, generate_relation

SCHEMA = Schema.of("name:str", "salary:int", "score:float")
ATTRIBUTES = ("name", "salary", "score")

#: The Employed relation's fingerprint, as the row-list relation folded
#: it; the journal, recovery and replication formats depend on it.
EMPLOYED_FINGERPRINT = 0xB3BA918F6ACAFAD6


class Level(enum.IntEnum):
    HIGH = 7


names = st.text(alphabet="ab ,'\"", max_size=3)
salaries = st.one_of(
    st.integers(-1000, 1000),
    st.sampled_from([2**63 - 1, 2**63, -(2**63) - 1, Level.HIGH]),
)
scores = st.one_of(
    st.floats(allow_nan=False, width=64),
    st.sampled_from([-0.0, 0.25, 1e308]),
)


@st.composite
def row_lists(draw):
    rows = []
    for _ in range(draw(st.integers(0, 12))):
        start = draw(st.integers(0, 40))
        end = draw(st.one_of(st.integers(start, start + 6), st.just(FOREVER)))
        values = (draw(names), draw(salaries), draw(scores))
        rows.append(TemporalTuple(values, start, end))
    return rows


BUILDS = (
    "constructor",
    "insert",
    "append_batch",
    "extend",
    "csv",
    "sorted_by_time",
    "reordered",
)


def time_sorted(rows):
    return sorted(rows, key=lambda row: (row.start, row.end))


def built(how, rows, data):
    """``(relation, model)``: the relation built ``how`` and the list
    of rows it must equal."""
    if how == "constructor":
        return TemporalRelation(SCHEMA, rows), rows
    if how == "insert":
        relation = TemporalRelation(SCHEMA)
        for row in rows:
            relation.insert(*row)
        return relation, rows
    if how == "append_batch":
        cut = data.draw(st.integers(0, len(rows)))
        relation = TemporalRelation(SCHEMA)
        relation.append_batch(rows[:cut])
        relation.append_batch(rows[cut:])
        return relation, rows
    if how == "extend":
        cut = data.draw(st.integers(0, len(rows)))
        relation = TemporalRelation(SCHEMA, rows[:cut])
        relation.extend(rows[cut:])
        return relation, rows
    if how == "csv":
        text = to_csv_text(TemporalRelation(SCHEMA, rows))
        model = [
            TemporalTuple(
                (name.strip(), int(str(salary)), float(str(score))), start, end
            )
            for (name, salary, score), start, end in rows
        ]
        return from_csv_text(text, schema=SCHEMA), model
    if how == "sorted_by_time":
        return TemporalRelation(SCHEMA, rows).sorted_by_time(), time_sorted(rows)
    permutation = data.draw(st.permutations(range(len(rows))))
    relation = TemporalRelation(SCHEMA, rows).reordered(permutation)
    return relation, [rows[i] for i in permutation]


def shown(rows):
    """Reprs keep what ``==`` hides: -0.0 against 0.0, an IntEnum
    member against its int."""
    return [repr(row) for row in rows]


def assert_matches(relation, model):
    assert len(relation) == len(model)
    assert shown(relation) == shown(model)
    assert shown(relation.rows()) == shown(model)
    assert shown(relation[i] for i in range(len(model))) == shown(model)
    if model:
        assert repr(relation[-1]) == repr(model[-1])
    assert relation.statistics() == statistics_from_columns(
        [row.start for row in model], [row.end for row in model]
    )
    timestamps = relation.columns(None)
    assert timestamps.values is None
    assert list(timestamps.starts) == [row.start for row in model]
    assert list(timestamps.ends) == [row.end for row in model]
    for position, attribute in enumerate(ATTRIBUTES):
        cells = [row.values[position] for row in model]
        assert shown(relation.columns(attribute).values) == shown(cells)
        assert shown(relation.scan_triples(attribute)) == shown(
            (row.start, row.end, row.values[position]) for row in model
        )
    assert relation.fingerprint == fingerprint_rows(list(relation))
    assert relation.fingerprint == fingerprint_rows(model)


class TestColumnsEqualTheRowModel:
    @settings(max_examples=120, deadline=None)
    @given(rows=row_lists(), how=st.sampled_from(BUILDS), data=st.data())
    def test_every_build_matches_the_model(self, rows, how, data):
        relation, model = built(how, rows, data)
        assert_matches(relation, model)

        # An append after the fingerprint was read extends the fold,
        # and a value the typed column cannot hold keeps its type.
        before, count = relation.fingerprint, len(relation)
        extra = TemporalTuple(("z", Level.HIGH, -0.0), 3, FOREVER)
        relation.append_batch([extra])
        assert_matches(relation, model + [extra])
        assert relation.verify_append_chain(count, before)


class TestFingerprintValue:
    def test_employed_fingerprint_is_unchanged(self):
        assert employed_relation().fingerprint == EMPLOYED_FINGERPRINT

    def test_loaded_employed_fingerprint_is_unchanged(self):
        loaded = from_csv_text(to_csv_text(employed_relation()))
        assert loaded.fingerprint == EMPLOYED_FINGERPRINT


class TestSnapshotsDoNotMove:
    """A column snapshot taken at version v shares the stored columns
    (no copy) and still reads version v's rows after later appends."""

    def test_column_set_is_unchanged_by_later_appends(self):
        relation = employed_relation()
        snapshot = relation.columns("salary")
        timestamps = relation.columns(None)
        assert snapshot.starts is timestamps.starts  # one shared copy
        frozen = (list(snapshot.starts), list(snapshot.ends), list(snapshot.values))
        relation.append_batch([(("Late", 1), 1, 2), (("Later", 2), 3, 4)])
        relation.insert(("Odd", Level.HIGH), 5, 6)  # the column becomes a list
        assert (
            list(snapshot.starts), list(snapshot.ends), list(snapshot.values)
        ) == frozen
        assert len(timestamps) == 4
        assert relation.columns("salary") is not snapshot
        assert len(relation.columns("salary")) == 7

    def test_pinned_view_columns_are_cut_once_and_never_move(self):
        served = ServedRelation(employed_relation())
        view = served.pin()
        columns = view.columns("salary")
        # The pin cut the prefix without copying the relation.
        assert columns.values is served.base.columns("salary").values
        rows = view.rows()
        frozen = (list(columns.starts), list(columns.ends), list(columns.values))
        served.append_batch([(("Late", 1), 1, 2)])
        served.append_batch([(("Odd", Level.HIGH), 3, 4)])
        assert view.rows() == rows
        assert view.columns("salary") is columns
        assert (
            list(columns.starts), list(columns.ends), list(columns.values)
        ) == frozen
        assert view.statistics().tuple_count == 4
        assert len(served.pin()) == 6


class TestLoadedBytes:
    def test_read_csv_retains_at_most_48_bytes_a_row(self, tmp_path):
        """The §6 relation at 32K tuples, loaded: typed columns keep
        ~32 B a row, where one row object a tuple kept ~220."""
        path = str(tmp_path / "employed.csv")
        write_csv(generate_relation(WorkloadParameters(tuples=32_768, seed=1)), path)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            relation = read_csv(path)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(relation) == 32_768
        assert retained / len(relation) <= 48
