"""Per-layer delta report between two traced benchmark results.

    python3 perfbench/run.py --workload paper-sweep --trace 1 > before.txt
    # ... change the code ...
    python3 perfbench/run.py --workload paper-sweep --trace 1 > after.txt
    python3 perfbench/layerdiff.py before.txt after.txt

Each file is the output of a ``--trace 1`` run; its last line is the
result JSON.  One row per layer, sorted by the change in self time:
wins (less time) at the top, regressions at the bottom, both always
shown, in the style of ``repro.analysis.waterfall``.  That module's
``render_waterfall`` is written for goodput (higher is better), so the
rows are rendered with the same table formatter instead.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from layers import LAYERS  # noqa: E402
from repro.analysis.tables import format_table  # noqa: E402


def load(path: str) -> Dict[str, float]:
    """Metric name -> value from the last line of a benchmark output."""
    last = Path(path).read_text().strip().splitlines()[-1]
    return {name: m["value"] for name, m in json.loads(last)["metrics"].items()}


def layer_rows(before: Dict[str, float], after: Dict[str, float]) -> List[dict]:
    """Sorted win/regression rows, one per layer plus ``other``."""
    rows = []
    for layer in LAYERS + ("other",):
        old_s, new_s = before[f"{layer}.self_s"], after[f"{layer}.self_s"]
        delta = new_s - old_s
        rows.append(
            {
                "layer": layer,
                "verdict": "win" if delta < 0 else "regression" if delta > 0 else "tie",
                "self_s_before": old_s,
                "self_s_after": new_s,
                "delta_s": delta,
                "delta_pct": delta / old_s * 100.0 if old_s > 0 else 0.0,
                "share_before_pct": before[f"{layer}.share_pct"],
                "share_after_pct": after[f"{layer}.share_pct"],
            }
        )
    rows.sort(key=lambda r: (r["delta_s"], r["layer"]))
    return rows


def render(rows: List[dict]) -> str:
    peak = max(abs(r["delta_s"]) for r in rows) or 1.0
    for r in rows:
        width = int(round(abs(r["delta_s"]) / peak * 20))
        r["bar"] = ("-" if r["delta_s"] < 0 else "+") * width
    return format_table(
        rows, title="[layer self time: after vs before (sorted by delta)]"
    )


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    print(render(layer_rows(load(argv[0]), load(argv[1]))))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
