"""Bench-harness formatting tests."""

import pytest

import repro.bench.harness as harness
from repro.bench.harness import format_cell, print_figure_series, print_table


@pytest.fixture(autouse=True)
def results_dir(tmp_path, monkeypatch):
    """Every test records into a temp dir, never the checkout's bench_results/."""
    monkeypatch.setattr(harness, "_RESULTS_DIR", str(tmp_path))
    return tmp_path


class TestFormatCell:
    def test_integers_passthrough(self):
        assert format_cell(42) == "42"

    def test_large_floats_rounded(self):
        assert format_cell(1234.567) == "1235"

    def test_mid_floats_two_decimals(self):
        assert format_cell(3.14159) == "3.14"

    def test_small_floats_four_decimals(self):
        assert format_cell(0.12345) == "0.1235"  # rounds, 4 decimals

    def test_zero(self):
        assert format_cell(0.0) == "0"

    def test_strings_passthrough(self):
        assert format_cell("ok") == "ok"


class TestPrintTable:
    def test_renders_aligned_table(self, capsys):
        print_table("EX", "demo", ["a", "bb"], [[1, 2.5], ["xx", 3]])
        out = capsys.readouterr().out
        assert "== EX: demo ==" in out
        lines = out.strip().splitlines()
        header = next(line for line in lines if line.startswith("a"))
        assert "bb" in header

    def test_empty_rows_ok(self, capsys):
        print_table("EX", "empty", ["only"], [])
        assert "only" in capsys.readouterr().out

    def test_records_tsv_when_dir_exists(self, results_dir, capsys):
        print_table("EX9", "demo", ["a"], [[1], [2]])
        capsys.readouterr()
        lines = (results_dir / "EX9.tsv").read_text().splitlines()
        # Provenance header first (commit / python / cpus), then the data.
        provenance, data = lines[:3], lines[3:]
        assert [line.split(":")[0] for line in provenance] == [
            "# commit",
            "# python",
            "# cpus",
        ]
        assert data == ["a", "1", "2"]

    def test_no_dir_no_write(self, tmp_path, monkeypatch, capsys):
        missing = tmp_path / "nope"
        monkeypatch.setattr(harness, "_RESULTS_DIR", str(missing))
        print_table("EX9", "demo", ["a"], [[1]])
        capsys.readouterr()
        assert not missing.exists()


class TestFigureSeries:
    def test_series_columns(self, capsys):
        print_figure_series(
            "F1", "curve", "x", [1, 2, 3], {"s1": [10, 20, 30], "s2": [0.1, 0.2, 0.3]}
        )
        out = capsys.readouterr().out
        assert "x" in out and "s1" in out and "s2" in out
        assert "30" in out
