"""Golden manifest: exact outputs of the paper registry at tiny scale.

``golden_manifest.json`` pins the sha1 of every CSV each entry of
:data:`repro.core.registry.EXPERIMENTS` writes, of the Chrome traces
of Figure 1's default and synchronized runs, of the report
:func:`repro.analysis.report.build_report` assembles from those CSVs,
and of what the serving commands write (:data:`SERVING_COMMANDS`).
The CSVs come from the CLI (``python -m repro --scale tiny --out DIR
<entry>``), so the test also proves that every figure command writes
the paper bench's tables.  A refactor that claims unchanged behaviour
must leave every hash in place.

Run as a script to print a diff per entry, or rewrite the manifest after
an intended change::

    PYTHONPATH=src python tests/core/test_golden_manifest.py [--write]
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path
from typing import Dict, List

from repro.analysis.chrome_trace import write_chrome_trace
from repro.analysis.report import build_report
from repro.cli import main
from repro.core.experiments import fig1_fig2_timelines
from repro.core.registry import EXPERIMENTS, report_sections

MANIFEST = Path(__file__).with_name("golden_manifest.json")
SCALE = "tiny"

Hashes = Dict[str, Dict[str, str]]

#: CLI commands over the arrival-driven serving engine, with the files
#: each writes under ``--out``.
SERVING_COMMANDS = {
    "streaming": (["streaming"], ["streaming.csv"]),
    "serve": (["serve"], ["serving.csv", "serving_outcomes.csv"]),
    "traffic": (
        ["traffic", "--requests", "200"],
        ["traffic_steady_reject.csv"],
    ),
    "traffic-batched": (
        ["traffic", "--batched", "--requests", "200"],
        ["traffic_leaderboard.json"],
    ),
}


def _sha1(data: bytes) -> str:
    return hashlib.sha1(data).hexdigest()


def compute(out_dir: Path) -> Hashes:
    """Hash every output the manifest pins, writing them under ``out_dir``."""
    hashes: Hashes = {}
    for name, experiment in EXPERIMENTS.items():
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(["--scale", SCALE, "--out", str(out_dir), name])
        assert code == 0, name
        hashes[name] = {
            table.csv_name: _sha1((out_dir / table.csv_name).read_bytes())
            for table in experiment.tables
        }
    study = fig1_fig2_timelines(scale=SCALE)
    hashes["fig1-traces"] = {}
    for label, trace in (("default", study.default_trace), ("sync", study.sync_trace)):
        path = write_chrome_trace(trace, out_dir / f"fig01_{label}_trace.json")
        hashes["fig1-traces"][path.name] = _sha1(path.read_bytes())
    report = build_report(out_dir, report_sections())
    hashes["report"] = {"EXPERIMENTS.md": _sha1(report.encode("utf-8"))}
    for name, (argv, files) in SERVING_COMMANDS.items():
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(["--scale", SCALE, "--out", str(out_dir), *argv])
        assert code == 0, name
        hashes[name] = {f: _sha1((out_dir / f).read_bytes()) for f in files}
    return hashes


def diff(pinned: Hashes, actual: Hashes) -> List[str]:
    """One line per output whose hash moved, appeared or disappeared."""
    lines = []
    for entry in dict.fromkeys([*pinned, *actual]):
        old, new = pinned.get(entry, {}), actual.get(entry, {})
        for name in dict.fromkeys([*old, *new]):
            if old.get(name) != new.get(name):
                lines.append(
                    f"{entry}: {name}: {old.get(name, 'absent')} -> "
                    f"{new.get(name, 'absent')}"
                )
    return lines


def _pinned() -> Hashes:
    manifest = json.loads(MANIFEST.read_text())
    assert manifest["scale"] == SCALE
    return manifest["sha1"]


def test_golden_manifest(tmp_path):
    assert diff(_pinned(), compute(tmp_path)) == []


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--write", action="store_true", help="rewrite the manifest"
    )
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        actual = compute(Path(tmp))
    if args.write:
        MANIFEST.write_text(
            json.dumps({"scale": SCALE, "sha1": actual}, indent=2) + "\n"
        )
        print(f"wrote {MANIFEST}")
        sys.exit(0)
    lines = diff(_pinned(), actual)
    print("\n".join(lines) if lines else "manifest holds")
    sys.exit(1 if lines else 0)
