"""Engine-boundary input validation (InvalidInput everywhere)."""

import pytest

from repro.core.engine import evaluate_triples, make_evaluator
from repro.core.parallel import ParallelSweepEvaluator
from repro.exec.errors import InvalidInput
from repro.exec.validation import check_triple, validate_shards, validated_triples
from repro.relation.relation import TemporalRelation
from repro.relation.schema import EMPLOYED_SCHEMA


class TestCheckTriple:
    def test_accepts_degenerate_single_instant(self):
        # Closed-interval model: [t, t] is the legal one-instant tuple.
        check_triple(5, 5, 1)

    @pytest.mark.parametrize("start,end", [(3.0, 5), (3, 5.0), (True, 5), (3, False)])
    def test_rejects_non_integer_endpoints(self, start, end):
        with pytest.raises(InvalidInput, match="plain integers"):
            check_triple(start, end, 1)

    def test_rejects_inverted_interval(self):
        with pytest.raises(InvalidInput):
            check_triple(7, 3, 1)

    def test_rejects_negative_start(self):
        with pytest.raises(InvalidInput):
            check_triple(-1, 3, 1)

    def test_rejects_nan_value(self):
        with pytest.raises(InvalidInput, match="NaN"):
            check_triple(0, 3, float("nan"))

    def test_non_nan_floats_are_fine(self):
        check_triple(0, 3, 2.5)


class TestEngineBoundary:
    def test_evaluate_triples_rejects_nan(self):
        with pytest.raises(InvalidInput, match="NaN"):
            evaluate_triples([(0, 5, float("nan"))], "sum", "sweep")

    def test_evaluate_triples_rejects_float_endpoints(self):
        with pytest.raises(InvalidInput):
            evaluate_triples([(0.5, 5, 1)], "sum", "sweep")

    def test_validate_false_skips_the_checks(self):
        # The escape hatch for benchmark inner loops stays available.
        result = evaluate_triples([(0, 5, 1)], "sum", "sweep", validate=False)
        assert result.value_at(3) == 1

    def test_validated_triples_streams_lazily(self):
        seen = []

        def source():
            for triple in [(0, 1, 1), (2, 1, 1)]:
                seen.append(triple)
                yield triple

        stream = validated_triples(source())
        assert next(stream) == (0, 1, 1)
        with pytest.raises(InvalidInput):
            next(stream)


class TestRelationInsert:
    def test_rejects_float_endpoints(self):
        relation = TemporalRelation(EMPLOYED_SCHEMA)
        with pytest.raises(InvalidInput, match="plain integers"):
            relation.insert(("Ed", 1), 0.0, 10)

    def test_rejects_bool_endpoints(self):
        relation = TemporalRelation(EMPLOYED_SCHEMA)
        with pytest.raises(InvalidInput):
            relation.insert(("Ed", 1), True, 10)

    def test_rejects_nan_attribute(self):
        relation = TemporalRelation(EMPLOYED_SCHEMA)
        with pytest.raises(InvalidInput, match="NaN"):
            relation.insert(("Ed", float("nan")), 0, 10)

    def test_valid_insert_still_works(self):
        relation = TemporalRelation(EMPLOYED_SCHEMA)
        row = relation.insert(("Ed", 7), 0, 10)
        assert row.start == 0 and row.end == 10


class TestShardValidation:
    """One place, one error type, for every shard/partition count."""

    def test_none_means_default(self):
        assert validate_shards(None) is None

    @pytest.mark.parametrize("bad", [0, -1, -7])
    def test_rejects_non_positive(self, bad):
        with pytest.raises(InvalidInput, match="at least one"):
            validate_shards(bad)

    @pytest.mark.parametrize("bad", [2.0, True, "4"])
    def test_rejects_non_integers(self, bad):
        with pytest.raises(InvalidInput):
            validate_shards(bad)

    def test_parallel_evaluator_uses_it(self):
        with pytest.raises(InvalidInput):
            ParallelSweepEvaluator("count", shards=0)

    def test_make_evaluator_uses_it(self):
        with pytest.raises(InvalidInput):
            make_evaluator("parallel_sweep", "count", shards=-2)

    def test_legacy_catches_still_work(self):
        # InvalidInput is a ValueError: pre-taxonomy callers keep passing.
        with pytest.raises(ValueError):
            ParallelSweepEvaluator("count", shards=0)
