"""Tests for the text renderers."""

import datetime as dt

import pytest

from repro.reporting import TextTable, render_bar_chart, render_cdf, render_time_series


class TestTextTable:
    def test_basic_render(self):
        table = TextTable(["name", "count"], aligns=["<", ">"])
        table.add_row(["alpha", 10])
        table.add_row(["beta", 1234])
        rendered = table.render()
        lines = rendered.splitlines()
        assert lines[0].startswith("name")
        assert "1,234" in rendered
        assert len(lines) == 4

    def test_row_width_validation(self):
        table = TextTable(["a", "b"])
        with pytest.raises(ValueError):
            table.add_row([1])

    def test_row_length_mismatch_message_names_counts(self):
        table = TextTable(["a", "b"])
        with pytest.raises(ValueError, match="3 cells.*2 columns"):
            table.add_row([1, 2, 3])

    def test_alignment_validation(self):
        with pytest.raises(ValueError):
            TextTable(["a"], aligns=["x"])
        with pytest.raises(ValueError):
            TextTable(["a", "b"], aligns=["<"])

    def test_float_formatting(self):
        table = TextTable(["v"])
        table.add_row([3.14159])
        assert "3.1" in table.render()

    def test_row_count_and_str(self):
        table = TextTable(["v"])
        table.add_row([1])
        assert len(table.render().splitlines()) == 3  # header, rule, one row
        assert str(table) == table.render()

    def test_columns_aligned(self):
        table = TextTable(["name", "n"], aligns=["<", ">"])
        table.add_row(["a", 1])
        table.add_row(["long-name", 100])
        lines = table.render().splitlines()
        assert len(lines[2]) <= len(lines[0])
        header_sep = lines[0].index("|")
        assert all(line.index("|") == header_sep for line in [lines[2], lines[3]])


class TestBarChart:
    def test_bars_scale_to_peak(self):
        chart = render_bar_chart({"a": 100, "b": 50}, width=10)
        lines = chart.splitlines()
        assert lines[0].count("#") == 10
        assert lines[1].count("#") == 5

    def test_nonzero_values_get_a_bar(self):
        chart = render_bar_chart({"big": 10_000, "tiny": 1}, width=10)
        assert chart.splitlines()[1].count("#") >= 1

    def test_sort_desc(self):
        chart = render_bar_chart({"small": 1, "big": 10}, sort_desc=True)
        lines = chart.splitlines()
        assert lines[0].startswith("big")

    def test_empty(self):
        assert render_bar_chart({}) == "(no data)"

    def test_all_zero_values_clamp_scale(self):
        chart = render_bar_chart({"a": 0, "b": 0}, width=10)
        assert "#" not in chart

    def test_log_note(self):
        assert "log-scaled" in render_bar_chart({"a": 1}, log_note=True)


class TestCdfRender:
    def test_checkpoint_values(self):
        points = [(5.0, 0.5), (30.0, 0.8), (60.0, 1.0)]
        rendered = render_cdf({"net": points}, checkpoints=(10, 60))
        assert "net" in rendered
        assert "50.0%" in rendered
        assert "100.0%" in rendered

    def test_empty_series(self):
        rendered = render_cdf({"net": []})
        assert "0.0%" in rendered

    def test_empty_mapping(self):
        assert render_cdf({}) == "(no data)"


class TestTimeSeries:
    def test_downsampling(self):
        series = {dt.date(2021, 1, 1) + dt.timedelta(days=i): float(i) for i in range(100)}
        rendered = render_time_series({"x": series}, samples=10)
        data_lines = [line for line in rendered.splitlines() if line.startswith("  ")]
        assert 10 <= len(data_lines) <= 12

    def test_empty(self):
        assert "(no data)" in render_time_series({"x": {}})
        assert render_time_series({}) == "(no data)"

    def test_bars_scale_to_series_peak(self):
        series = {0: 400.0, 1: 200.0}
        rendered = render_time_series({"x": series}, width=10)
        data_lines = [line for line in rendered.splitlines() if line.startswith("  ")]
        assert data_lines[0].count("#") == 10
        assert data_lines[1].count("#") == 5

    def test_all_equal_values_clamp_to_full_width(self):
        series = {0: 7.0, 1: 7.0}
        rendered = render_time_series({"x": series}, width=10)
        data_lines = [line for line in rendered.splitlines() if line.startswith("  ")]
        assert all(line.count("#") == 10 for line in data_lines)
