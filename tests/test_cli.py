"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import FIGURES, POLICIES, build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.policy == "concordia"
        assert args.workload == "none"
        assert args.load == 0.5

    def test_rejects_unknown_policy(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--policy", "magic"])

    def test_rejects_unknown_figure(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "fig99"])


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for policy in POLICIES:
            assert policy in out
        for figure in FIGURES:
            assert figure in out

    def test_run_json_output(self, capsys):
        code = main(["run", "--config", "20mhz", "--policy", "flexran",
                     "--slots", "200", "--cores", "4", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["policy"] == "flexran"
        assert payload["latency_us"]["deadline"] == 2000.0
        assert 0.0 <= payload["reclaimed_fraction"] <= 1.0

    def test_run_text_output(self, capsys):
        code = main(["run", "--policy", "dedicated", "--slots", "150",
                     "--cores", "4", "--workload", "nginx"])
        assert code == 0
        out = capsys.readouterr().out
        assert "reclaimed CPU" in out
        assert "nginx" in out

    def test_run_mac_mode(self, capsys):
        code = main(["run", "--policy", "flexran", "--slots", "150",
                     "--cores", "4", "--mac"])
        assert code == 0

    def test_train(self, capsys):
        code = main(["train", "--config", "20mhz", "--slots", "150"])
        assert code == 0
        out = capsys.readouterr().out
        assert "task models" in out
        assert "ldpc_decode" in out
        assert "walls: collect" in out and "s, fit " in out

    def test_figure_smoke(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.02")
        code = main(["figure", "fig3"])
        assert code == 0
        assert "Figure 3" in capsys.readouterr().out

    def test_trace_writes_chrome_trace(self, capsys, tmp_path):
        out = tmp_path / "trace.json"
        metrics = tmp_path / "metrics.json"
        code = main(["trace", "--slots", "60", "--cores", "4",
                     "--out", str(out), "--metrics-out", str(metrics)])
        assert code == 0
        trace = json.loads(out.read_text())
        assert trace["traceEvents"]
        phases = {e["ph"] for e in trace["traceEvents"]}
        assert {"M", "B", "E"} <= phases
        telemetry = json.loads(metrics.read_text())
        assert telemetry["counters"]["slots/completed"] > 0
        assert "events" in capsys.readouterr().out

    def test_trace_metrics_csv(self, capsys, tmp_path):
        out = tmp_path / "trace.json"
        metrics = tmp_path / "metrics.csv"
        code = main(["trace", "--slots", "60", "--cores", "4",
                     "--out", str(out), "--metrics-out", str(metrics)])
        assert code == 0
        lines = metrics.read_text().splitlines()
        assert lines[0] == "metric,value"
        assert any(line.startswith("sched/wakeups,") for line in lines)

    def test_postmortem_text_and_json(self, capsys):
        code = main(["postmortem", "--slots", "60", "--cores", "4"])
        assert code == 0
        out = capsys.readouterr().out
        assert "dominant" in out
        code = main(["postmortem", "--slots", "60", "--cores", "4",
                     "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["dominant_cause"] in (
            "wakeup latency", "wcet under-prediction",
            "queueing behind another cell")
        assert payload["tasks"] > 0


class TestSweep:
    SWEEP = ["sweep", "--config", "20mhz", "--policy", "flexran",
             "--workload", "none", "--loads", "0.25,0.75",
             "--slots", "120", "--cores", "4", "--json"]

    def test_cold_then_warm_cache(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "cache")
        argv = self.SWEEP + ["--cache-dir", cache_dir]
        assert main(argv) == 0
        cold = json.loads(capsys.readouterr().out)
        assert cold["summary"]["executed"] == 2
        assert cold["summary"]["cached"] == 0

        assert main(argv) == 0
        warm = json.loads(capsys.readouterr().out)
        assert warm["summary"]["executed"] == 0  # zero simulations ran
        assert warm["summary"]["cached"] == 2
        for before, after in zip(cold["results"], warm["results"]):
            assert after["p99999_us"] == before["p99999_us"]
            assert after["miss_fraction"] == before["miss_fraction"]

    def test_no_cache_always_executes(self, capsys, tmp_path):
        argv = self.SWEEP[:-1] + ["--loads", "0.25", "--no-cache",
                                  "--cache-dir", str(tmp_path), "--json"]
        for _ in range(2):
            assert main(argv) == 0
            payload = json.loads(capsys.readouterr().out)
            assert payload["summary"]["executed"] == 1
            assert payload["summary"]["cached"] == 0
        assert not any(tmp_path.iterdir())  # nothing was written

    def test_text_summary(self, capsys, tmp_path):
        argv = [a for a in self.SWEEP if a != "--json"] + \
            ["--loads", "0.25", "--cache-dir", str(tmp_path / "c")]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "1 executed, 0 cached, 0 failed" in out
        assert "p99.999=" in out

    def test_rejects_malformed_loads(self, capsys):
        code = main(["sweep", "--loads", "fast,slow", "--no-cache"])
        assert code == 2
        assert "--loads" in capsys.readouterr().err

    def test_rejects_malformed_repro_jobs(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "many")
        code = main(["sweep", "--config", "20mhz", "--loads", "0.25",
                     "--no-cache"])
        assert code == 2
        assert "REPRO_JOBS" in capsys.readouterr().err
