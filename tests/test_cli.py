"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main
from repro.streams.io import read_edge_file, write_edge_file


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_experiment_arguments(self):
        args = build_parser().parse_args(["run-experiment", "table1", "--preset", "quick"])
        assert args.experiment == "table1"
        assert args.preset == "quick"

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run-experiment", "figure99"])

    def test_estimate_defaults(self):
        args = build_parser().parse_args(["estimate", "some.tsv"])
        assert args.method == "FreeRS"
        assert args.top == 10

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve", "some.tsv"])
        assert args.port == 0  # pick a free port, announced on stdout
        assert args.refresh_every == 1
        assert args.host == "127.0.0.1"
        assert args.resume is False

    def test_serve_without_stream_or_resume_rejected(self):
        with pytest.raises(SystemExit, match="needs a stream"):
            main(["serve"])

    def test_serve_epoch_mode_required_for_fresh_monitor(self, tmp_path):
        path = tmp_path / "edges.tsv"
        write_edge_file(path, [(1, 2), (1, 3)])
        with pytest.raises(SystemExit, match="epoch-pairs"):
            main(["serve", str(path)])


class TestCommands:
    def test_list_experiments(self, capsys):
        assert main(["list-experiments"]) == 0
        output = capsys.readouterr().out
        assert "table1" in output
        assert "figure5" in output

    def test_generate_dataset_and_estimate(self, tmp_path, capsys):
        path = tmp_path / "chicago.tsv"
        assert main(["generate-dataset", "chicago", str(path), "--scale", "0.02"]) == 0
        assert path.exists()
        stream = read_edge_file(path)
        assert len(stream) > 100

        assert main(["estimate", str(path), "--method", "FreeBS", "--top", "3"]) == 0
        output = capsys.readouterr().out
        assert "estimated_cardinality" in output

    def test_run_experiment_table1_with_csv(self, tmp_path, capsys, monkeypatch):
        # Patch the quick preset to an even smaller configuration so the CLI
        # test stays fast.
        from repro.experiments.config import ExperimentConfig

        tiny = ExperimentConfig(
            dataset_scale=0.02, memory_bits=1 << 14, virtual_size=64, datasets=["chicago"]
        )
        monkeypatch.setattr(ExperimentConfig, "quick", classmethod(lambda cls: tiny))
        csv_path = tmp_path / "table1.csv"
        assert main(["run-experiment", "table1", "--preset", "quick", "--csv", str(csv_path)]) == 0
        output = capsys.readouterr().out
        assert "Table I" in output
        assert csv_path.exists()

    def test_estimate_rejects_unknown_method(self, tmp_path):
        path = tmp_path / "edges.tsv"
        write_edge_file(path, [(1, 2)])
        with pytest.raises(SystemExit):
            main(["estimate", str(path), "--method", "NotAMethod"])


class TestRunCommand:
    def _dataset(self, tmp_path):
        path = tmp_path / "chicago.tsv"
        assert main(["generate-dataset", "chicago", str(path), "--scale", "0.02"]) == 0
        return path

    def test_run_parallel_matches_single_process_json(self, tmp_path, capsys):
        path = self._dataset(tmp_path)
        single_json = tmp_path / "single.json"
        parallel_json = tmp_path / "parallel.json"
        base = ["run", str(path), "--method", "vHLL", "--memory-bits", str(1 << 16)]
        assert main(base + ["--workers", "1", "--shards", "2", "--json", str(single_json)]) == 0
        assert main(base + ["--workers", "2", "--json", str(parallel_json)]) == 0
        assert single_json.read_text() == parallel_json.read_text()
        output = capsys.readouterr().out
        assert "workers=2 shards=2" in output
        assert "estimated_cardinality" in output

    def test_run_rejects_fewer_shards_than_workers(self, tmp_path):
        path = self._dataset(tmp_path)
        with pytest.raises(SystemExit):
            main(["run", str(path), "--workers", "4", "--shards", "2"])

    def test_run_has_no_transport_option(self, capsys):
        # The shared-memory ring is the only chunk handoff: argparse treats
        # --transport as an unknown option (exit status 2, usage on stderr).
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["run", "edges.tsv", "--transport", "queue"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --transport" in capsys.readouterr().err


class TestMonitorCommand:
    def _dataset(self, tmp_path):
        path = tmp_path / "chicago.tsv"
        assert main(["generate-dataset", "chicago", str(path), "--scale", "0.02"]) == 0
        return path

    def test_monitor_emits_windows_and_alerts(self, tmp_path, capsys):
        import json

        path = self._dataset(tmp_path)
        capsys.readouterr()
        feed_path = tmp_path / "feed.jsonl"
        assert (
            main(
                [
                    "monitor",
                    str(path),
                    "--method",
                    "FreeRS",
                    "--memory-bits",
                    str(1 << 15),
                    "--epoch-pairs",
                    "500",
                    "--window",
                    "3",
                    "--out",
                    str(feed_path),
                ]
            )
            == 0
        )
        lines = [json.loads(line) for line in feed_path.read_text().splitlines()]
        kinds = {record["type"] for record in lines}
        assert {"window", "alert", "summary"} <= kinds
        stdout_lines = capsys.readouterr().out.strip().splitlines()
        assert len(stdout_lines) == len(lines)

    def test_monitor_snapshot_and_resume(self, tmp_path, capsys):
        path = self._dataset(tmp_path)
        snapshot_dir = tmp_path / "snaps"
        args = [
            "monitor",
            str(path),
            "--epoch-pairs",
            "400",
            "--memory-bits",
            str(1 << 14),
            "--snapshot-dir",
            str(snapshot_dir),
            "--snapshot-every",
            "2",
        ]
        assert main(args) == 0
        assert list(snapshot_dir.glob("snapshot-*.json"))
        capsys.readouterr()
        assert main(args + ["--resume"]) == 0
        output = capsys.readouterr().out
        assert "# resumed from" in output

    def test_monitor_resume_without_snapshots_exits_with_clear_error(self, tmp_path):
        path = self._dataset(tmp_path)
        snapshot_dir = tmp_path / "empty-snaps"
        with pytest.raises(SystemExit) as excinfo:
            main(
                ["monitor", str(path), "--epoch-pairs", "400",
                 "--snapshot-dir", str(snapshot_dir), "--resume"]
            )
        message = str(excinfo.value)
        assert "--resume failed" in message
        assert "no snapshot files found" in message
        assert str(snapshot_dir) in message

    def test_monitor_resume_truncated_snapshot_exits_with_clear_error(self, tmp_path):
        path = self._dataset(tmp_path)
        snapshot_dir = tmp_path / "snaps"
        args = [
            "monitor", str(path), "--epoch-pairs", "400",
            "--memory-bits", str(1 << 14),
            "--snapshot-dir", str(snapshot_dir), "--snapshot-every", "2",
        ]
        assert main(args) == 0
        latest = sorted(snapshot_dir.glob("snapshot-*.json"))[-1]
        text = latest.read_text(encoding="utf-8")
        latest.write_text(text[: len(text) // 3], encoding="utf-8")
        with pytest.raises(SystemExit) as excinfo:
            main(args + ["--resume"])
        message = str(excinfo.value)
        assert str(latest) in message
        assert "truncated or corrupt" in message
        assert "Recovery options" in message

    def test_monitor_requires_one_epoch_mode(self, tmp_path):
        path = self._dataset(tmp_path)
        with pytest.raises(SystemExit):
            main(["monitor", str(path)])
        with pytest.raises(SystemExit):
            main(["monitor", str(path), "--epoch-pairs", "10", "--epoch-span", "5"])

    def test_monitor_absolute_threshold_flag(self, tmp_path, capsys):
        import json

        path = self._dataset(tmp_path)
        capsys.readouterr()
        assert (
            main(["monitor", str(path), "--epoch-pairs", "500", "--threshold", "8"]) == 0
        )
        records = [
            json.loads(line) for line in capsys.readouterr().out.strip().splitlines()
        ]
        windows = [record for record in records if record["type"] == "window"]
        assert windows and all(record["enter_threshold"] == 8.0 for record in windows)
        with pytest.raises(SystemExit):
            main(["monitor", str(path), "--epoch-pairs", "500",
                  "--threshold", "8", "--delta", "0.01"])

    def test_monitor_epoch_span_uses_event_index_clock(self, tmp_path, capsys):
        import json

        path = self._dataset(tmp_path)
        capsys.readouterr()
        assert main(["monitor", str(path), "--epoch-span", "600", "--window", "2"]) == 0
        records = [
            json.loads(line) for line in capsys.readouterr().out.strip().splitlines()
        ]
        windows = [record for record in records if record["type"] == "window"]
        assert windows and windows[0]["end_time"] == 600.0
