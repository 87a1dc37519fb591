"""Unit tests for the columnar count store."""

import pytest

from repro.scan.storage import CountMatrix, PrefixTable


class TestPrefixTable:
    def test_dense_first_seen_ids(self):
        table = PrefixTable()
        assert table.intern("10.0.0.0/24") == 0
        assert table.intern("10.0.1.0/24") == 1
        assert table.intern("10.0.0.0/24") == 0  # idempotent
        assert len(table) == 2
        assert table.prefix_for(1) == "10.0.1.0/24"
        assert table.get("10.0.1.0/24") == 1
        assert table.get("10.9.9.0/24") is None
        assert "10.0.0.0/24" in table
        assert list(table) == ["10.0.0.0/24", "10.0.1.0/24"]

    def test_equality_is_order_sensitive(self):
        assert PrefixTable(["a", "b"]) == PrefixTable(["a", "b"])
        assert PrefixTable(["a", "b"]) != PrefixTable(["b", "a"])


class TestCountMatrix:
    def test_day_counts_match_input(self):
        matrix = CountMatrix.from_day_dicts(
            [{"a": 3, "b": 1}, {"b": 2}, {"c": 5, "a": 1}]
        )
        assert matrix.day_count == 3
        assert matrix.day_counts(0) == {"a": 3, "b": 1}
        assert matrix.day_counts(1) == {"b": 2}
        assert matrix.day_counts(2) == {"c": 5, "a": 1}
        assert matrix.totals == [4, 2, 6]

    def test_absent_prefix_reads_zero(self):
        matrix = CountMatrix.from_day_dicts([{"a": 3}, {"b": 2}])
        # "b" was unknown on day 0: its column is shorter than the table.
        assert matrix.count(0, matrix.prefixes.get("b")) == 0
        assert matrix.row(matrix.prefixes.get("b")) == [0, 2]

    def test_day_view_matches_dict(self):
        matrix = CountMatrix.from_day_dicts([{"a": 3, "b": 1}, {"b": 2}])
        view = matrix.day_view(0)
        assert dict(view) == matrix.day_counts(0)
        assert view["a"] == 3
        assert len(view) == 2
        with pytest.raises(KeyError):
            view["b-day-two-only"]
        # Zero counts are absent from the view, like the dict accessor.
        assert "a" not in matrix.day_view(1)
