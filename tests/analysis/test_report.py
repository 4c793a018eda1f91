"""Tests for the EXPERIMENTS.md report assembler."""

from pathlib import Path

import pytest

from repro.analysis.report import build_report, read_results_csv
from repro.analysis.tables import write_csv
from repro.core.registry import report_sections


class TestSections:
    def test_every_figure_and_table_covered(self):
        csvs = {s.csv_name for s in report_sections()}
        # Paper artifacts 1-10 plus Table III plus headline.
        for fig in range(1, 11):
            assert any(f"fig{fig:02d}" in c for c in csvs), fig
        assert "table3_geometry.csv" in csvs
        assert "headline_numbers.csv" in csvs

    def test_ablations_covered(self):
        csvs = {s.csv_name for s in report_sections()}
        assert "ablation_hyperq_width.csv" in csvs
        assert "ablation_admission.csv" in csvs
        assert "ablation_transfers.csv" in csvs


class TestBuildReport:
    def test_empty_results_dir(self, tmp_path):
        report = build_report(tmp_path, report_sections())
        assert report.startswith("# EXPERIMENTS")
        assert report.count("Not yet generated") == len(report_sections())

    def test_csv_rendered_as_markdown(self, tmp_path):
        write_csv(
            [{"pair": "nn+srad", "improvement_pct": 42.123}],
            tmp_path / "fig04_concurrency_speedup.csv",
        )
        report = build_report(tmp_path, report_sections())
        assert "| pair | improvement_pct |" in report
        assert "42.123" in report
        # Other sections still placeholder.
        assert "Not yet generated" in report

    def test_preamble_included(self, tmp_path):
        report = build_report(
            tmp_path, report_sections(), preamble="Custom context."
        )
        assert "Custom context." in report

    def test_numeric_coercion(self, tmp_path):
        write_csv(
            [{"NA": "8", "ratio": "2.50000"}],
            tmp_path / "fig06_effective_latency.csv",
        )
        report = build_report(tmp_path, report_sections())
        # Integers render without decimals, floats with fixed precision.
        assert "| 8 | 2.500 |" in report


class TestReadCsv:
    def test_roundtrip(self, tmp_path):
        path = write_csv([{"a": 1, "b": "x"}], tmp_path / "t.csv")
        rows = read_results_csv(path)
        assert rows == [{"a": "1", "b": "x"}]
