"""Reporting: ASCII timelines, tables and summary statistics."""

from .chrome_trace import to_chrome_trace, write_chrome_trace
from .critical_path import (
    CriticalPath,
    aggregate_critical_paths,
    extract_critical_paths,
    top_slowest,
)
from .profile_summary import kernel_summary, transfer_summary
from .report import Section, build_report, read_results_csv
from .stats import Summary, mean_confidence_interval, summarize
from .tables import format_markdown, format_table, format_value, write_csv
from .timeline import GLYPHS, render_timeline, timeline_rows
from .waterfall import (
    build_leaderboard,
    build_waterfall,
    render_leaderboard,
    render_waterfall,
    write_leaderboard_json,
)

__all__ = [
    "to_chrome_trace",
    "write_chrome_trace",
    "CriticalPath",
    "extract_critical_paths",
    "aggregate_critical_paths",
    "top_slowest",
    "kernel_summary",
    "transfer_summary",
    "build_report",
    "Section",
    "read_results_csv",
    "render_timeline",
    "timeline_rows",
    "GLYPHS",
    "format_table",
    "format_markdown",
    "format_value",
    "write_csv",
    "Summary",
    "summarize",
    "mean_confidence_interval",
    "build_leaderboard",
    "build_waterfall",
    "render_leaderboard",
    "render_waterfall",
    "write_leaderboard_json",
]
