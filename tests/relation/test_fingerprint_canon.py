"""Per-value canonicalization of the chained content fingerprint.

The address-bearing-repr degradation must hit only the values whose
repr actually embeds an address (default object reprs): legitimate
string data containing an ``" at 0x"`` substring keeps its full
contribution, and other columns of a row holding an unstable object
still distinguish the row.
"""

from __future__ import annotations

from repro.relation.relation import _stable_value_repr, fingerprint_rows
from repro.relation.tuples import TemporalTuple


class _Opaque:
    """Default repr: ``<..._Opaque object at 0x...>``."""


class TestStableValueRepr:
    def test_strings_are_never_degraded(self):
        text = "callback at 0x7f3a9c bound"
        assert _stable_value_repr(text) == repr(text)

    def test_default_object_repr_degrades_to_type_name(self):
        assert _stable_value_repr(_Opaque()) == "<_Opaque>"

    def test_value_determined_reprs_pass_through(self):
        assert _stable_value_repr(42) == "42"
        assert _stable_value_repr((1, "a")) == repr((1, "a"))


class TestFoldFingerprintCanon:
    def test_strings_containing_address_substring_still_distinguish(self):
        a = TemporalTuple(("fn at 0x1234", 1), 0, 10)
        b = TemporalTuple(("fn at 0x5678", 1), 0, 10)
        assert fingerprint_rows([a]) != fingerprint_rows([b])

    def test_same_row_fingerprints_identically(self):
        row = TemporalTuple(("fn at 0x1234", 1), 0, 10)
        again = TemporalTuple(("fn at 0x1234", 1), 0, 10)
        assert fingerprint_rows([row]) == fingerprint_rows([again])

    def test_other_columns_survive_an_unstable_value(self):
        # Two rows share an address-bearing object column; the stable
        # columns must still tell them apart (the old whole-payload
        # degradation collapsed both to time-only).
        a = TemporalTuple((_Opaque(), "alice"), 0, 10)
        b = TemporalTuple((_Opaque(), "bobby"), 0, 10)
        assert fingerprint_rows([a]) != fingerprint_rows([b])

    def test_unstable_value_itself_is_type_only(self):
        # Distinct instances of the same type contribute identically —
        # the documented (and process-stable) degradation.
        a = TemporalTuple((_Opaque(), "alice"), 0, 10)
        b = TemporalTuple((_Opaque(), "alice"), 0, 10)
        assert fingerprint_rows([a]) == fingerprint_rows([b])
