"""CLI round-trip tests (``python -m repro ...``)."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_trace_args(self):
        args = build_parser().parse_args(
            ["trace", "SG", "-o", "x.trc", "--threads", "2", "--ops", "10"]
        )
        assert args.benchmark == "SG" and args.threads == 2


class TestCommands:
    def test_trace_then_coalesce(self, tmp_path, capsys):
        out = tmp_path / "t.trc"
        assert main(["trace", "MG", "-o", str(out), "--threads", "2", "--ops", "200"]) == 0
        assert out.exists()
        assert main(["coalesce", str(out)]) == 0
        text = capsys.readouterr().out
        assert "coalescing efficiency" in text

    def test_text_trace_format(self, tmp_path, capsys):
        out = tmp_path / "t.txt"
        main(["trace", "IS", "-o", str(out), "--threads", "2", "--ops", "100"])
        assert out.read_text().startswith(("LD", "ST"))

    def test_replay_all_devices(self, tmp_path, capsys):
        out = tmp_path / "t.trc"
        main(["trace", "SG", "-o", str(out), "--threads", "2", "--ops", "150"])
        for device in ("hmc", "hbm", "ddr"):
            assert main(["replay", str(out), "--device", device]) == 0
        assert main(["replay", str(out), "--no-mac"]) == 0
        text = capsys.readouterr().out
        assert "bank conflicts" in text
        assert "row-hit rate" in text

    def test_replay_rejects_out_of_range_dead_link(self, tmp_path, capsys):
        out = tmp_path / "t.trc"
        main(["trace", "SG", "-o", str(out), "--threads", "2", "--ops", "50"])
        capsys.readouterr()
        assert main(["replay", str(out), "--dead-links", "7"]) == 2
        captured = capsys.readouterr()
        assert "link 7" in captured.err and "4 links" in captured.err
        assert captured.out == ""

    def test_replay_policy_and_arq_flags(self, tmp_path, capsys):
        out = tmp_path / "t.trc"
        main(["trace", "SP", "-o", str(out), "--threads", "2", "--ops", "100"])
        assert main(["coalesce", str(out), "--arq", "8", "--policy", "exact"]) == 0

    def test_info(self, capsys):
        assert main(["info"]) == 0
        text = capsys.readouterr().out
        assert "2062" in text
        assert "GRAPPOLO" in text

    def test_figures_fast(self, capsys):
        assert main(["figures", "--fast", "--only", "fig11"]) == 0
        assert "fig11" in capsys.readouterr().out

    def test_unknown_benchmark_raises(self, tmp_path):
        with pytest.raises(KeyError):
            main(["trace", "NOPE", "-o", str(tmp_path / "x.trc")])

    def test_run_with_observability_exports(self, tmp_path, capsys):
        import json

        trace_out = tmp_path / "events.json"
        metrics_out = tmp_path / "metrics.json"
        assert (
            main(
                [
                    "run",
                    "IS",
                    "--threads",
                    "2",
                    "--ops",
                    "200",
                    "--trace-out",
                    str(trace_out),
                    "--metrics-out",
                    str(metrics_out),
                ]
            )
            == 0
        )
        text = capsys.readouterr().out
        assert "trace events" in text and "metrics" in text
        doc = json.loads(trace_out.read_text())
        assert doc["traceEvents"]
        assert doc["otherData"]["dropped_events"] == 0
        metrics = json.loads(metrics_out.read_text())
        assert "mac.coalesced_packets" in metrics
        assert any(k.startswith("device.") for k in metrics)

    def test_run_jsonl_trace(self, tmp_path, capsys):
        import json

        out = tmp_path / "events.jsonl"
        assert (
            main(["run", "IS", "--threads", "2", "--ops", "100", "--trace-out", str(out)])
            == 0
        )
        first = json.loads(out.read_text().splitlines()[0])
        assert {"cycle", "channel", "name"} <= set(first)

    def test_run_without_outputs(self, capsys):
        assert main(["run", "MG", "--threads", "2", "--ops", "100"]) == 0
        assert "coalescing efficiency" in capsys.readouterr().out

    def test_run_attribution_exports_metrics(self, tmp_path, capsys):
        import json

        out = tmp_path / "metrics.json"
        args = ["run", "IS", "--threads", "2", "--ops", "200"]
        assert main(args + ["--metrics-out", str(out)]) == 0
        plain = json.loads(out.read_text())
        assert not any(k.startswith("attribution.") for k in plain)

        assert main(args + ["--attribution", "--metrics-out", str(out)]) == 0
        metrics = json.loads(out.read_text())
        assert metrics["attribution.requests_finalized"] > 0
        assert any(k.startswith("attribution.stages.") for k in metrics)
        assert any(k.startswith("attribution.stalls.") for k in metrics)


class TestAnalyze:
    SIZING = ["--threads", "2", "--ops", "200"]

    def test_analyze_benchmark_prints_exact_report(self, capsys):
        assert main(["analyze", "GUPS"] + self.SIZING) == 0
        text = capsys.readouterr().out
        assert "per-stage latency" in text
        assert "critical stage:" in text
        assert "== end-to-end" in text and ": yes" in text

    def test_analyze_json_report(self, capsys):
        import json

        assert main(["analyze", "SG", "--json"] + self.SIZING) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["exact"] is True
        assert report["requests"] > 0
        assert report["meta"]["benchmark"] == "SG"
        assert report["stage_cycle_sum"] == report["end_to_end"]["total"]

    def test_analyze_metrics_file_round_trip(self, tmp_path, capsys):
        metrics = tmp_path / "metrics.json"
        run = ["run", "IS", "--attribution", "--metrics-out", str(metrics)]
        assert main(run + self.SIZING) == 0
        capsys.readouterr()
        assert main(["analyze", "--metrics", str(metrics)]) == 0
        assert ": yes" in capsys.readouterr().out

    def test_analyze_metrics_without_attribution_fails(self, tmp_path):
        metrics = tmp_path / "metrics.json"
        assert main(["run", "IS", "--metrics-out", str(metrics)] + self.SIZING) == 0
        with pytest.raises(ValueError, match="attribution"):
            main(["analyze", "--metrics", str(metrics)])

    def test_analyze_diff_mac_vs_baseline(self, tmp_path, capsys):
        import json

        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["analyze", "SG", "--report-out", str(a)] + self.SIZING) == 0
        assert (
            main(["analyze", "SG", "--no-mac", "--report-out", str(b)] + self.SIZING)
            == 0
        )
        capsys.readouterr()
        assert main(["analyze", "--diff", str(a), str(b)]) == 0
        text = capsys.readouterr().out
        assert "A/B bottleneck diff" in text
        assert "critical stage:" in text

        assert main(["analyze", "--diff", str(a), str(b), "--json"]) == 0
        diff = json.loads(capsys.readouterr().out)
        # Uncoalesced baseline runs longer end to end (the §5.2 story).
        assert diff["end_to_end"]["total"]["delta"] > 0

    def test_analyze_without_inputs_exits_2(self, capsys):
        assert main(["analyze"]) == 2
        assert "analyze needs" in capsys.readouterr().err
