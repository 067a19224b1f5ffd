"""CLI round-trip tests (``python -m repro ...``)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import build_parser, main

SRC = str(Path(repro.__file__).parents[1])
FIGURES_FAST = Path(__file__).resolve().parent / "golden" / "figures_fast.txt"
CLI_SMOKE = Path(__file__).resolve().parent / "golden" / "cli_smoke.txt"


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_trace_args(self):
        args = build_parser().parse_args(
            ["trace", "SG", "-o", "x.trc", "--threads", "2", "--ops", "10"]
        )
        assert args.benchmark == "SG" and args.threads == 2

    @pytest.mark.parametrize("flag", ["--trace-capacity", "--timeline-epoch"])
    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_run_rejects_non_positive_obs_sizes(self, capsys, flag, value):
        argv = ["run", "SG", "--trace-out", "t.json", "--timeline-out", "tl.json"]
        with pytest.raises(SystemExit) as exc:
            main(argv + [flag, value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert flag in err and f"must be a positive integer, got {value}" in err

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (argv, flag)
            for argv, flags in (
                (["trace", "SG", "-o", "t.trc"], ("--threads", "--ops")),
                (["coalesce", "t.trc"], ("--arq", "--row-bytes")),
                (["replay", "t.trc"], ("--arq", "--row-bytes", "--noc-buffers")),
                (
                    ["run", "SG"],
                    ("--threads", "--ops", "--arq", "--row-bytes", "--noc-buffers",
                     "--nodes"),
                ),
                (["analyze", "SG"], ("--threads", "--ops", "--arq", "--row-bytes")),
            )
            for flag in flags
        ],
    )
    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_rejects_non_positive_sizes(self, capsys, argv, flag, value):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv + [flag, value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert flag in err and f"must be a positive integer, got {value}" in err

    @pytest.mark.parametrize("command", ["run", "replay"])
    def test_noc_arbitration_rejects_oldest_first(self, capsys, command):
        target = "SG" if command == "run" else "t.trc"
        with pytest.raises(SystemExit) as exc:
            main([command, target, "--noc-arbitration", "oldest_first"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--noc-arbitration" in err and "invalid choice: 'oldest_first'" in err


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
        assert main(["replay", str(out)]) == 0
        assert main(["replay", str(out), "--no-mac"]) == 0
        text = capsys.readouterr().out
        assert "on hmc (MAC)" in text
        assert "on hmc (raw)" in text
        assert "bank conflicts" in text

    @pytest.mark.parametrize("command", ["coalesce", "replay"])
    def test_text_trace_with_bad_tid_exits_2(self, tmp_path, capsys, command):
        out = tmp_path / "bad.txt"
        out.write_text("LD 0x1000 8 1 0 0\nLD 0x1000 8 70000 0 0\n")
        assert main([command, str(out)]) == 2
        captured = capsys.readouterr()
        assert f"{command}: {out}:2: tid 70000 outside 0..65535" in captured.err
        assert captured.out == ""

    def test_replay_rejects_out_of_range_dead_link(self, tmp_path, capsys):
        out = tmp_path / "t.trc"
        main(["trace", "SG", "-o", str(out), "--threads", "2", "--ops", "50"])
        capsys.readouterr()
        assert main(["replay", str(out), "--dead-links", "7"]) == 2
        captured = capsys.readouterr()
        assert "link 7" in captured.err and "4 links" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "removed",
        [
            ["--supervised"],
            ["--resume"],
            ["--checkpoint", "figs.ckpt.jsonl"],
            ["--cell-timeout", "1"],
            ["--max-retries", "1"],
        ],
    )
    def test_figures_rejects_removed_resilience_flag(self, capsys, removed):
        """The crash-resilient sweep layer is gone; its flags are usage errors."""
        with pytest.raises(SystemExit) as exc:
            main(["figures", "--fast", "--only", "fig11", *removed])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert f"unrecognized arguments: {' '.join(removed)}" in captured.err
        assert captured.out == ""  # rejected before any cell ran

    @pytest.mark.parametrize("value", ["-1", "-3"])
    def test_figures_rejects_negative_jobs(self, capsys, value):
        with pytest.raises(SystemExit) as exc:
            main(["figures", "--fast", "--only", "fig11", "--jobs", value])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert f"--jobs: must be >= 0, got {value}" in captured.err
        assert captured.out == ""

    def test_figures_jobs_0_runs_on_all_cores(self, capsys):
        assert main(["figures", "--fast", "--only", "fig11", "--jobs", "0"]) == 0
        fig11 = FIGURES_FAST.read_text().splitlines()[1]
        assert capsys.readouterr().out.splitlines()[0] == fig11

    def test_coalesce_and_raw_replay_golden(self, tmp_path, capsys, monkeypatch):
        """``coalesce`` and ``replay --no-mac`` stdout is pinned byte for byte.

        The trace is named by a relative path, as in the golden; CI's CLI
        smoke compares the same two commands in fresh interpreters.
        """
        monkeypatch.chdir(tmp_path)
        main(["trace", "SG", "--threads", "2", "--ops", "100", "-o", "smoke.trc"])
        capsys.readouterr()
        assert main(["coalesce", "smoke.trc"]) == 0
        assert main(["replay", "smoke.trc", "--no-mac"]) == 0
        assert capsys.readouterr().out == CLI_SMOKE.read_text()

    def test_replay_policy_and_arq_flags(self, tmp_path, capsys):
        out = tmp_path / "t.trc"
        main(["trace", "SP", "-o", str(out), "--threads", "2", "--ops", "100"])
        assert main(["coalesce", str(out), "--arq", "8", "--policy", "exact"]) == 0

    def test_info(self, capsys):
        assert main(["info"]) == 0
        text = capsys.readouterr().out
        assert "2062" in text
        assert "GRAPPOLO" in text

    def test_figures_fast(self):
        """``figures --fast`` stdout is pinned byte for byte.

        A fresh process, so no trace or graph memo of an earlier test
        is reused; progress lines go to stderr.
        """
        out = subprocess.run(
            [sys.executable, "-m", "repro", "figures", "--fast", "--jobs", "1"],
            env=dict(os.environ, PYTHONPATH=SRC),
            capture_output=True,
        )
        assert out.returncode == 0, out.stderr.decode()
        assert out.stdout == FIGURES_FAST.read_bytes()

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


class TestRunMesh:
    SIZING = ["--threads", "2", "--ops", "200"]

    def _metrics(self, tmp_path, capsys, *flags):
        import json

        out = tmp_path / "m.json"
        argv = ["run", "GUPS", *self.SIZING, *flags, "--metrics-out", str(out)]
        assert main(argv) == 0
        capsys.readouterr()
        return json.loads(out.read_text())

    def test_attribution_runs_serially_and_changes_nothing_else(
        self, tmp_path, capsys
    ):
        mesh = ["--nodes", "2"]
        plain = self._metrics(tmp_path, capsys, *mesh)
        attributed = self._metrics(tmp_path, capsys, *mesh, "--attribution")
        assert attributed["attribution.requests_finalized"] > 0
        rest = {
            k: v for k, v in attributed.items() if not k.startswith("attribution.")
        }
        assert rest == plain

    def test_node_sites_round_trip_through_analyze(self, tmp_path, capsys):
        """``node<k>.`` sites add a dotted level to the flat keys; the
        report rebuilt from the file names them whole again."""
        from repro.obs.analyze import report_from_metrics

        m = self._metrics(tmp_path, capsys, "--nodes", "2", "--attribution")
        report = report_from_metrics(m)
        assert report["exact"] is True
        assert "node0.arq" in report["depth"]
        assert report["stalls"] and all(
            site.split(".")[0] in ("node0", "node1", "fabric")
            for site in report["stalls"]
        )
        assert main(["analyze", "--metrics", str(tmp_path / "m.json")]) == 0
        assert ": yes" in capsys.readouterr().out

    def test_shards_flag_exits_2(self, capsys):
        """Sharding was removed; its flag is a usage error, not a crash."""
        with pytest.raises(SystemExit) as exc:
            main(["run", "GUPS", "--nodes", "2", "--shards", "2", *self.SIZING])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments: --shards 2" in err
        assert "Traceback" not in err

    def test_profile_counts_engine_work(self, tmp_path, capsys):
        m = self._metrics(tmp_path, capsys, "--nodes", "4", "--profile")
        assert m["sim.ticks"] > 0 and m["sim.skipped_cycles"] > 0
        assert m["sim.final_cycle"] == m["system.cycles"]
