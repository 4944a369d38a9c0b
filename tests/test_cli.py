"""Tests for the command-line interface."""

import pytest

from repro.cli import main


class TestList:
    def test_lists_everything(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "scenario-1" in out
        assert "l3" in out
        assert "fig9" in out
        assert "cluster-outage" in out  # fault kinds


class TestRun:
    def test_runs_scenario(self, capsys):
        code = main(["run", "--scenario", "scenario-1", "--algorithm",
                     "round-robin", "--duration", "15", "--seed", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "99%" in out  # the latency spectrum table
        assert "success rate" in out

    def test_l3_prints_weights(self, capsys):
        main(["run", "--algorithm", "l3", "--duration", "15"])
        assert "final weights" in capsys.readouterr().out

    def test_rejects_unknown_algorithm(self):
        with pytest.raises(SystemExit):
            main(["run", "--algorithm", "psychic"])

    def test_rejects_unknown_scenario(self):
        with pytest.raises(SystemExit):
            main(["run", "--scenario", "scenario-42"])

    def test_there_is_no_engine_flag(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "--engine", "fast"])
        assert "unrecognized arguments: --engine" in capsys.readouterr().err


class TestRunWithFaults:
    def test_fault_spec_and_timeout(self, capsys):
        code = main([
            "run", "--scenario", "scenario-5", "--algorithm", "l3",
            "--duration", "30", "--request-timeout", "1.0",
            "--faults", "cluster-outage@5+10:cluster=cluster-2"
                        ":mode=blackhole",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "success rate" in out

    def test_request_timeout_zero_disables_the_deadline(self, capsys):
        # The same conversion as `live --request-timeout 0`: the run is
        # the paper's deadline-free default, byte for byte.
        argv = ["run", "--scenario", "scenario-5", "--algorithm",
                "round-robin", "--duration", "15"]
        assert main(argv) == 0
        default = capsys.readouterr().out
        assert main(argv + ["--request-timeout", "0"]) == 0
        assert capsys.readouterr().out == default

    def test_negative_request_timeout_rejected(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError, match="request_timeout_s"):
            main(["run", "--duration", "15", "--request-timeout", "-1"])

    def test_outlier_ejection_flag(self, capsys):
        code = main([
            "run", "--scenario", "scenario-5", "--algorithm",
            "round-robin", "--duration", "15", "--outlier-ejection",
        ])
        assert code == 0

    def test_bad_fault_spec_rejected(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            main(["run", "--duration", "15",
                  "--faults", "meteor-strike@10"])

    def test_unknown_fault_cluster_rejected_before_run(self):
        from repro.errors import FaultSpecError

        with pytest.raises(FaultSpecError, match="unknown cluster"):
            main(["run", "--duration", "15",
                  "--faults", "cluster-outage@5+5:cluster=nowhere"])


class TestHotel:
    def test_runs_hotel(self, capsys):
        code = main(["hotel", "--algorithm", "round-robin", "--rps", "30",
                     "--duration", "15"])
        assert code == 0
        assert "hotel-reservation" in capsys.readouterr().out


class TestTraceCommands:
    def test_export_and_run_scenario_file(self, tmp_path, capsys):
        trace = tmp_path / "s5.json"
        assert main(["export-trace", "scenario-5", str(trace)]) == 0
        assert trace.exists()
        code = main(["run", "--scenario-file", str(trace), "--algorithm",
                     "round-robin", "--duration", "15"])
        assert code == 0
        assert "scenario-5" in capsys.readouterr().out

    def test_run_records_distributed_trace(self, tmp_path, capsys):
        import json

        out = tmp_path / "spans.json"
        code = main(["run", "--scenario", "scenario-5", "--algorithm",
                     "round-robin", "--duration", "15",
                     "--trace", str(out), "--trace-sample", "0.5"])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "critical path" in stdout
        assert "wrote" in stdout
        data = json.loads(out.read_text())
        assert data["resourceSpans"]

    def test_run_records_chrome_trace(self, tmp_path, capsys):
        import json

        out = tmp_path / "spans.chrome.json"
        code = main(["run", "--scenario", "scenario-5", "--algorithm",
                     "l3", "--duration", "15", "--trace", str(out),
                     "--trace-format", "chrome"])
        assert code == 0
        data = json.loads(out.read_text())
        assert any(event["ph"] == "X" for event in data["traceEvents"])
        # The L3 controller's decision audit rides along as instant events.
        assert any(event["name"] == "l3.reconcile"
                   for event in data["traceEvents"])


class TestFigure:
    def test_pure_function_figure(self, capsys):
        assert main(["figure", "fig4"]) == 0
        assert "rate-control" in capsys.readouterr().out

    def test_trace_figures(self, capsys):
        assert main(["figure", "fig1"]) == 0
        assert "scenario-1" in capsys.readouterr().out
        assert main(["figure", "fig6"]) == 0
        assert "scenario-4" in capsys.readouterr().out

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            main(["figure", "fig99"])


class TestLiveCommand:
    def test_live_run_writes_report(self, tmp_path, capsys):
        report = tmp_path / "live.json"
        code = main(["live", "--duration", "2", "--rps", "30",
                     "--port-base", "19780", "--report", str(report)])
        out = capsys.readouterr().out
        assert code == 0
        assert "scenario-1 / l3" in out
        assert report.exists()

        import json

        payload = json.loads(report.read_text())
        assert payload["algorithm"] == "l3"
        assert payload["clean_shutdown"] is True
        assert payload["leaked_tasks"] == []
        assert payload["requests"] > 0
        assert len(payload["ports"]) == 4
        # 4 scrape targets + a few proxy connections, each reused.
        assert 0 < payload["connections_opened"] < payload["requests"] / 2
        assert payload["connection_reuse_ratio"] > 0.5
        assert set(payload["send_lag_ms"]) == {"p50", "p99"}
        assert 0.0 <= payload["send_lag_ms"]["p50"] \
            <= payload["send_lag_ms"]["p99"]

    def test_live_rejects_unknown_algorithm(self):
        with pytest.raises(SystemExit):
            main(["live", "--algorithm", "p2c"])

    def test_live_chaos_run_reports_fault_log(self, tmp_path, capsys):
        report = tmp_path / "chaos.json"
        code = main(["live", "--duration", "4", "--rps", "30",
                     "--port-base", "19800", "--ha-replicas", "2",
                     "--lease-ttl", "1.5", "--request-timeout", "0.5",
                     "--faults",
                     "scrape-outage@1+1 ; controller-crash@2:replica=0",
                     "--report", str(report)])
        out = capsys.readouterr().out
        assert code == 0
        assert "[chaos" in out
        assert "lease transitions" in out

        import json

        payload = json.loads(report.read_text())
        assert payload["clean_shutdown"] is True
        assert payload["chaos_errors"] == []
        assert [d.split(" ", 1)[0] for _t, d in payload["fault_log"]] == [
            "apply", "revert", "apply"]
        # The crashed leader was replaced: election + takeover.
        assert len(payload["lease_transitions"]) == 2

    def test_live_bad_fault_spec_fails_before_binding(self):
        from repro.errors import FaultSpecError

        with pytest.raises(FaultSpecError):
            main(["live", "--duration", "2", "--port-base", "19820",
                  "--faults", "cluster-outage@1+1:cluster=nowhere"])


class TestTournament:
    def test_small_grid_prints_leaderboard(self, tmp_path, capsys):
        out_path = tmp_path / "tournament.json"
        code = main(["tournament", "--algorithms", "round-robin", "p2c",
                     "--scenarios", "scenario-1", "--duration", "15",
                     "--output", str(out_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "leaderboard" in out
        assert "head-to-head" in out

        import json

        document = json.loads(out_path.read_text())
        assert document["schema"] == 1
        assert set(document["grid"]) == {"scenario-1"}
        assert set(document["grid"]["scenario-1"]) == {"round-robin", "p2c"}
        assert document["leaderboard"]["ranking"]

    def test_check_passes_on_degraded_backend(self, capsys):
        code = main(["tournament", "--algorithms", "l3", "round-robin",
                     "--scenarios", "degraded-backend", "--duration", "24",
                     "--check"])
        assert code == 0
        assert "check OK" in capsys.readouterr().out

    def test_check_without_required_cells_fails(self, capsys):
        code = main(["tournament", "--algorithms", "p2c",
                     "--scenarios", "scenario-1", "--duration", "15",
                     "--check"])
        assert code == 1
        assert "CHECK FAILED" in capsys.readouterr().out

    def test_rejects_unknown_algorithm(self):
        with pytest.raises(SystemExit):
            main(["tournament", "--algorithms", "nope",
                  "--scenarios", "scenario-1"])

    def test_rejects_unknown_scenario(self):
        with pytest.raises(SystemExit):
            main(["tournament", "--scenarios", "nope"])

    def test_list_mentions_tournament_grid(self, capsys):
        main(["list"])
        out = capsys.readouterr().out
        assert "tournament:" in out
        assert "degraded-backend" in out
