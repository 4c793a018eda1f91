"""Source-size trajectory: ``src/`` lines and ``None``-check lines.

Appends one point to ``BENCH_size.json`` at the repo root holding

* ``src_lines`` — the newline count over every ``src/**/*.py`` file,
  what ``find src -name '*.py' | xargs wc -l`` totals; and
* ``none_check_lines`` — the lines of those files that contain
  ``is None`` or ``is not None``, what
  ``grep -rc 'is None\\|is not None' src`` sums.

The first counts code; the second counts the optional handles threaded
through it.  Simplification work is measured by both going down.  Run
it as a script (it takes no arguments and runs no simulation)::

    PYTHONPATH=src python benchmarks/bench_size.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict

from repro.telemetry.trajectory import record_trajectory_point

ROOT = Path(__file__).resolve().parent.parent
TRAJECTORY_PATH = ROOT / "BENCH_size.json"


def measure(src: Path) -> Dict[str, int]:
    """Line and ``None``-check counts over the ``*.py`` files under ``src``."""
    lines = none_checks = 0
    for path in sorted(src.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        lines += text.count("\n")
        none_checks += sum(
            1
            for line in text.split("\n")
            if "is None" in line or "is not None" in line
        )
    return {"src_lines": lines, "none_check_lines": none_checks}


def main() -> int:
    metrics = measure(ROOT / "src")
    record_trajectory_point(TRAJECTORY_PATH, "bench_size", metrics)
    print(json.dumps(metrics, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
