"""Tests for the experiment registry and its paper-bench checks."""

import ast
from pathlib import Path

from repro.core.registry import EXPERIMENTS


class TestRegistry:
    def test_every_entry_has_one_bench_check(self):
        """``bench_paper.py`` defines exactly one ``check_<name>`` per
        registry entry, and no check without an entry."""
        bench = Path(__file__).resolve().parents[2] / "benchmarks" / "bench_paper.py"
        checks = [
            node.name
            for node in ast.parse(bench.read_text()).body
            if isinstance(node, ast.FunctionDef) and node.name.startswith("check_")
        ]
        assert sorted(checks) == sorted(
            "check_" + name.replace("-", "_") for name in EXPERIMENTS
        )
