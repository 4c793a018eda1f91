"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_all_commands_registered(self):
        parser = build_parser()
        sub = next(
            a for a in parser._actions if a.dest == "command"
        )
        assert set(sub.choices) == {
            "list", "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7",
            "fig8", "fig9", "fig10", "timeline", "table3", "headline",
            "autotune", "streaming", "report", "homog", "resilience",
            "serve", "schedule", "fleet", "telemetry", "trace", "traffic",
            "verify", "ablation-ordering-shared", "ablation-hyperq",
            "ablation-admission", "ablation-transfers",
        }

    def test_requires_command(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "gaussian" in out
        assert "fig4" in out

    def test_fig3(self, capsys):
        assert main(["fig3", "--m", "2", "--n", "2"]) == 0
        out = capsys.readouterr().out
        assert "naive-fifo" in out
        assert "AX(1)" in out

    def test_fig5(self, capsys):
        assert main(["fig5"]) == 0
        out = capsys.readouterr().out
        assert "1203" in out
        assert "208" in out

    def test_table3(self, capsys):
        assert main(["--scale", "tiny", "table3"]) == 0
        out = capsys.readouterr().out
        assert "Fan1" in out
        assert "euclid" in out

    def test_fig4_tiny_with_csv(self, tmp_path, capsys):
        code = main([
            "--scale", "tiny", "--out", str(tmp_path),
            "fig4", "--na", "4", "--pair", "nn", "needle",
        ])
        assert code == 0
        assert (tmp_path / "fig04_concurrency_speedup.csv").exists()
        out = capsys.readouterr().out
        assert "improvement_pct" in out
        assert "full-concurrent:" in out

    def test_fig6_tiny(self, capsys):
        assert main([
            "--scale", "tiny", "fig6", "--pair", "nn", "needle", "--na", "4",
        ]) == 0
        assert "default_vs_expected" in capsys.readouterr().out

    def test_timeline(self, capsys):
        assert main([
            "--scale", "tiny", "timeline", "--pair", "nn", "needle",
            "--apps", "4", "--width", "60",
        ]) == 0
        out = capsys.readouterr().out
        assert "stream-" in out
        assert "legend" in out

    def test_timeline_sync_flag(self, capsys):
        assert main([
            "--scale", "tiny", "timeline", "--apps", "4", "--sync",
        ]) == 0
        assert "Figure 2" in capsys.readouterr().out

    def test_autotune_tiny(self, capsys):
        code = main([
            "--scale", "tiny", "autotune", "--pair", "nn", "needle",
            "--apps", "4", "--restarts", "0", "--swaps", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "best after search" in out
        assert "best schedule:" in out

    def test_streaming_tiny(self, capsys):
        code = main([
            "--scale", "tiny", "streaming", "--rate", "6000",
            "--duration", "0.003", "--streams", "8",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "greedy" in out
        assert "mean_sojourn_ms" in out

    def test_homog_tiny(self, capsys):
        code = main(["--scale", "tiny", "homog", "--apps", "nn", "--na", "4"])
        assert code == 0
        out = capsys.readouterr().out
        assert "improvement_pct" in out
        assert "best self-concurrency gain:" in out

    def test_resilience_tiny_with_csv(self, tmp_path, capsys):
        code = main([
            "--scale", "tiny", "--out", str(tmp_path),
            "resilience", "--apps", "4", "--streams", "4", "--seed", "42",
        ])
        assert code == 0
        assert (tmp_path / "resilience.csv").exists()
        assert (tmp_path / "resilience_summary.csv").exists()
        out = capsys.readouterr().out
        assert "clean" in out
        assert "faulted" in out
        assert "planned faults" in out

    def test_serve_tiny_with_csv(self, tmp_path, capsys):
        code = main([
            "--scale", "tiny", "--out", str(tmp_path),
            "serve", "--rate", "8000", "--duration", "0.004",
            "--streams", "8", "--cap", "2", "--qdepth", "4",
        ])
        assert code == 0
        assert (tmp_path / "serving.csv").exists()
        assert (tmp_path / "serving_outcomes.csv").exists()
        out = capsys.readouterr().out
        assert "goodput" in out

    def test_serve_crash_and_resume(self, tmp_path, capsys):
        journal = tmp_path / "run.jsonl"
        argv = [
            "--scale", "tiny", "--out", str(tmp_path),
            "serve", "--rate", "8000", "--duration", "0.004",
            "--streams", "8", "--cap", "2", "--qdepth", "4",
            "--journal", str(journal),
        ]
        assert main(argv + ["--crash-at", "0.002"]) == 3
        assert "harness crashed mid-run" in capsys.readouterr().out
        assert journal.exists()
        assert main(argv + ["--crash-at", "0.002", "--resume"]) == 0
        assert "goodput" in capsys.readouterr().out

    def test_schedule_tiny_with_csv(self, tmp_path, capsys):
        code = main([
            "--scale", "tiny", "--out", str(tmp_path),
            "schedule", "--batches", "3", "--apps", "4",
            "--policy", "greedy-interleave",
        ])
        assert code == 0
        assert (tmp_path / "schedule.csv").exists()
        out = capsys.readouterr().out
        assert "observed_ms" in out
        assert "greedy-interleave: 3 batches" in out

    def test_schedule_crash_and_resume(self, tmp_path, capsys):
        journal = tmp_path / "sched.jsonl"
        argv = [
            "--scale", "tiny",
            "schedule", "--batches", "4", "--apps", "4",
            "--journal", str(journal),
        ]
        assert main(argv + ["--crash-after", "2"]) == 3
        assert "harness crashed mid-run" in capsys.readouterr().out
        assert journal.exists()
        assert main(argv + ["--resume"]) == 0
        out = capsys.readouterr().out
        assert "resumed from journal" in out
        assert "bandit: 4 batches" in out

    def test_fleet_tiny_with_csv(self, tmp_path, capsys):
        code = main([
            "--scale", "tiny", "--out", str(tmp_path),
            "fleet", "--apps", "4", "--devices", "2", "--lose", "0",
            "--heartbeat", "2e-5", "--detect-latency", "5e-5",
        ])
        assert code == 0
        assert (tmp_path / "fleet.csv").exists()
        out = capsys.readouterr().out
        assert "lost" in out
        assert "migrations" in out

    def test_fleet_crash_and_resume(self, tmp_path, capsys):
        journal = tmp_path / "fleet.jsonl"
        argv = [
            "--scale", "tiny",
            "fleet", "--apps", "4", "--devices", "2", "--lose", "0",
            "--heartbeat", "2e-5", "--detect-latency", "5e-5",
            "--journal", str(journal),
        ]
        assert main(argv + ["--crash-at", "6e-3"]) == 3
        assert "harness crashed mid-run" in capsys.readouterr().out
        assert journal.exists()
        assert main(argv + ["--resume"]) == 0
        out = capsys.readouterr().out
        assert "resumed from journal" in out

    def test_telemetry_tiny_with_csv(self, tmp_path, capsys):
        prom = tmp_path / "metrics.prom"
        jsonl = tmp_path / "metrics.jsonl"
        code = main([
            "--scale", "tiny", "--out", str(tmp_path),
            "telemetry", "--apps", "4", "--interval", "2e-5",
            "--prom", str(prom), "--jsonl", str(jsonl),
        ])
        assert code == 0
        assert (tmp_path / "telemetry.csv").exists()
        out = capsys.readouterr().out
        assert "repro_gpu_power_watts" in out
        assert "trend" in out
        text = prom.read_text()
        assert text.startswith("# HELP") or text.startswith("# TYPE")
        assert "repro_sim_events_total" in text
        assert jsonl.read_text().count("\n") >= 1

    def test_telemetry_filter(self, capsys):
        code = main([
            "--scale", "tiny",
            "telemetry", "--apps", "4", "--interval", "2e-5",
            "--filter", "repro_gpu_power",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "repro_gpu_power_watts" in out
        assert "repro_sim_events_total" not in out

    def test_trace_tiny_with_exports(self, tmp_path, capsys):
        import json

        chrome = tmp_path / "trace.json"
        otlp = tmp_path / "spans.jsonl"
        alerts = tmp_path / "alerts.jsonl"
        code = main([
            "--scale", "tiny", "--out", str(tmp_path),
            "trace", "--rate", "9000", "--duration", "0.003",
            "--streams", "8", "--cap", "3",
            "--chrome", str(chrome), "--otlp", str(otlp),
            "--alerts", str(alerts),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Fleet critical path" in out
        assert "slowest traces" in out
        assert (tmp_path / "trace_aggregate.csv").exists()
        assert (tmp_path / "trace_slowest.csv").exists()
        doc = json.loads(chrome.read_text())
        assert any(e["ph"] in ("b", "e") for e in doc["traceEvents"])
        assert json.loads(otlp.read_text().splitlines()[0])["traceId"]
        assert alerts.exists()

    def test_report_missing_sections(self, tmp_path, capsys):
        code = main(["report", "--results", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "Figure 4" in out
        assert "Not yet generated" in out

    def test_report_write_with_csv(self, tmp_path, capsys):
        (tmp_path / "fig03_orders.csv").write_text(
            "order,schedule\nnaive-fifo,AX(1) AY(1)\n"
        )
        target = tmp_path / "report.md"
        code = main(["report", "--results", str(tmp_path), "--write", str(target)])
        assert code == 0
        text = target.read_text()
        assert "naive-fifo" in text
        assert "| order | schedule |" in text

    def test_fig9_tiny(self, capsys):
        assert main([
            "--scale", "tiny", "fig9", "--apps", "4",
            "--pair", "nn", "needle",
        ]) == 0
        out = capsys.readouterr().out
        assert "serial" in out
        assert "energy reduction" in out
