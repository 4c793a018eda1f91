"""Assemble the EXPERIMENTS.md report from a benchmark run's CSV output.

The benchmark suite (``pytest benchmarks/ --benchmark-only``) drops one CSV
per figure/table into ``results/``.  :func:`build_report` stitches them into
a single markdown document with the paper's claims next to the measured
values — the file committed as ``EXPERIMENTS.md``.  The caller passes the
layout; :func:`repro.core.registry.report_sections` is the one the CLI's
``report`` command uses.

Usage::

    python -m repro report            # reads results/, writes EXPERIMENTS.md
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from .tables import format_markdown

__all__ = ["Section", "read_results_csv", "coerce_rows", "build_report"]


@dataclass(frozen=True)
class Section:
    """One report section backed by a results CSV."""

    title: str
    csv_name: str
    paper_claim: str
    columns: Optional[Sequence[str]] = None


def read_results_csv(path: Path) -> List[Dict[str, str]]:
    """Load one results CSV as a list of row dicts."""
    with path.open() as fh:
        return list(csv.DictReader(fh))


def coerce_rows(rows: List[Dict[str, str]]) -> List[Dict[str, object]]:
    """Parse numeric-looking cells so markdown formatting is tidy."""
    out: List[Dict[str, object]] = []
    for row in rows:
        parsed: Dict[str, object] = {}
        for key, value in row.items():
            try:
                number = float(value)
                parsed[key] = int(number) if number == int(number) else number
            except (TypeError, ValueError):
                parsed[key] = value
        out.append(parsed)
    return out


def build_report(
    results_dir: Path,
    sections: Sequence[Section],
    title: str = "EXPERIMENTS — paper vs measured",
    preamble: str = "",
) -> str:
    """Build the markdown report of ``sections`` from ``results_dir``.

    Sections whose CSV is missing are listed as "not yet generated" so a
    partial benchmark run still yields a coherent document.
    """
    lines: List[str] = [f"# {title}", ""]
    if preamble:
        lines.append(preamble.strip())
        lines.append("")
    for section in sections:
        lines.append(f"## {section.title}")
        lines.append("")
        lines.append(f"*Paper:* {section.paper_claim}")
        lines.append("")
        path = results_dir / section.csv_name
        if not path.exists():
            lines.append(
                f"_Not yet generated — run `pytest benchmarks/ "
                f"--benchmark-only` to produce `{section.csv_name}`._"
            )
        else:
            rows = coerce_rows(read_results_csv(path))
            lines.append(format_markdown(rows, columns=section.columns))
        lines.append("")
    return "\n".join(lines)
