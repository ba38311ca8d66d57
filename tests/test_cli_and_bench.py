"""Tests for the command line interface and the benchmark harnesses."""

import json
import sys
from pathlib import Path

import pytest

from repro.bench import (
    experiment_scale,
    format_fig12,
    format_fig13,
    format_fig14,
    format_fig15,
    format_fig16,
    format_table,
    mean,
    run_fig15,
    run_matching_cost_ablation,
    std,
)
from repro.cli import build_parser, main
from repro.workflow import adaptive_diamond_workflow, diamond_workflow, workflow_to_json


@pytest.fixture()
def workflow_file(tmp_path):
    path = tmp_path / "wf.json"
    workflow_to_json(diamond_workflow(2, 2, duration=0.05), path)
    return str(path)


class TestCLI:
    def test_parser_subcommands(self):
        parser = build_parser()
        args = parser.parse_args(["run", "wf.json", "--broker", "kafka"])
        assert args.command == "run" and args.broker == "kafka"

    def test_validate_command(self, workflow_file, capsys):
        assert main(["validate", workflow_file]) == 0
        assert "OK" in capsys.readouterr().out

    def test_run_command_simulated(self, workflow_file, capsys):
        assert main(["run", workflow_file, "--nodes", "5"]) == 0
        output = capsys.readouterr().out
        assert "succeeded" in output

    def test_run_command_json_output(self, workflow_file, capsys):
        assert main(["run", workflow_file, "--nodes", "5", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["succeeded"] is True

    def test_run_centralized_mode(self, workflow_file):
        assert main(["run", workflow_file, "--mode", "centralized"]) == 0

    def test_run_adaptive_workflow(self, tmp_path, capsys):
        path = tmp_path / "adaptive.json"
        workflow_to_json(adaptive_diamond_workflow(2, 2, duration=0.05), path)
        assert main(["run", str(path), "--nodes", "5"]) == 0
        assert "adaptations" in capsys.readouterr().out

    def test_show_hocl_command(self, workflow_file, capsys):
        assert main(["show-hocl", workflow_file]) == 0
        output = capsys.readouterr().out
        assert "SRC" in output and "DST" in output

    def test_missing_file_returns_error(self, capsys):
        assert main(["run", "nope.json"]) == 2
        assert "error" in capsys.readouterr().err

    def test_invalid_failure_config_rejected(self, workflow_file):
        # failures need Kafka; the CLI surfaces the configuration error
        assert main(["run", workflow_file, "--failure-probability", "0.5"]) == 2


class TestBenchHelpers:
    def test_experiment_scale_default(self, monkeypatch):
        monkeypatch.delenv("GINFLOW_FULL", raising=False)
        assert experiment_scale() == "small"
        assert experiment_scale("paper") == "paper"

    def test_experiment_scale_env(self, monkeypatch):
        monkeypatch.setenv("GINFLOW_FULL", "1")
        assert experiment_scale() == "paper"

    def test_format_table(self):
        text = format_table([{"a": 1, "b": 2.5}], title="t")
        assert "t" in text and "2.50" in text

    def test_format_table_empty(self):
        assert "(no data)" in format_table([])

    def test_mean_std(self):
        assert mean([1, 2, 3]) == 2
        assert mean([]) == 0.0
        assert std([2, 2, 2]) == 0.0
        assert std([1]) == 0.0


def _import_collate_trend():
    bench_dir = str(Path(__file__).resolve().parent.parent / "benchmarks")
    sys.path.insert(0, bench_dir)
    try:
        import collate_trend
    finally:
        sys.path.remove(bench_dir)
    return collate_trend


class TestCollateTrendPlot:
    @staticmethod
    def _artifact(wall):
        return {
            "benchmark": "hocl-reduction",
            "schema_version": 4,
            "scenarios": {
                "montage-100-centralized": {
                    "reactions": 100,
                    "incremental": {"match_attempts": 10, "wall_seconds": wall},
                    "naive": {"match_attempts": 99, "wall_seconds": wall * 10},
                    "speedup": {"match_attempts": 9.9, "wall_clock": 10.0},
                    "modes": {
                        "serial": {
                            "match_attempts": 10,
                            "wall_seconds": wall,
                            "timings": {
                                "match": wall * 0.5, "rewrite": wall * 0.2,
                                "patch": wall * 0.2, "index": wall * 0.1,
                            },
                        }
                    },
                }
            },
        }

    def test_plot_renders_svg(self, tmp_path):
        collate_trend = _import_collate_trend()
        for sha, wall in (("aaaaaaa", 1.0), ("bbbbbbb", 1.2)):
            (tmp_path / f"BENCH_reduction-{sha}.json").write_text(
                json.dumps(self._artifact(wall))
            )
        svg = tmp_path / "trend.svg"
        assert collate_trend.main(
            [str(tmp_path), "--order", "name", "--plot", str(svg)]
        ) == 0
        body = svg.read_text()
        assert body.startswith("<svg")
        assert "reduction wall seconds per commit" in body
        assert "phase split: montage-100-centralized [serial]" in body
        # one wall polyline + four phase polylines
        assert body.count("<polyline") == 5

    def test_reads_schema_4_strategy_rows_beside_schema_5(self, tmp_path):
        collate_trend = _import_collate_trend()
        old = self._artifact(1.0)
        serial = old["scenarios"]["montage-100-centralized"]["modes"]["serial"]
        old["scenarios"]["montage-100-centralized"]["modes"].update(
            batch={**serial, "wall_seconds": 1.5, "batches": 40},
            parallel={**serial, "wall_seconds": 2.0, "batches": 40},
        )
        new = self._artifact(0.8)
        new["schema_version"] = 5
        new["scenarios"]["montage-100-centralized"]["modes"]["rebuild"] = {
            **serial, "wall_seconds": 3.0,
        }
        (tmp_path / "BENCH_reduction-aaaaaaa.json").write_text(json.dumps(old))
        (tmp_path / "BENCH_reduction-bbbbbbb.json").write_text(json.dumps(new))
        files = sorted(collate_trend.discover([tmp_path]))
        rows = collate_trend.collate(files, None)
        walls = {(row["commit"], row["mode"]): row["wall_seconds"] for row in rows}
        assert walls == {
            ("aaaaaaa", "batch"): 1.5,
            ("aaaaaaa", "parallel"): 2.0,
            ("aaaaaaa", "serial"): 1.0,
            ("bbbbbbb", "rebuild"): 3.0,
            ("bbbbbbb", "serial"): 0.8,
        }
        serial_drift = [row["drift"] for row in rows if row["mode"] == "serial"]
        assert serial_drift == [0.0, -0.2]
        assert "batch" in collate_trend.format_table(rows)


class TestHarnesses:
    def test_fig15_harness(self):
        data = run_fig15()
        assert data["task_count"] == 118
        assert "Fig. 15" in format_fig15(data)

    def test_matching_cost_ablation_rows(self):
        rows = run_matching_cost_ablation(sizes=(5, 10))
        assert [row["solution_size"] for row in rows] == [5, 10]
        assert rows[0]["reactions"] == 4

    def test_formatters_accept_rows(self):
        rows = [
            {"connectivity": "simple", "horizontal": 1, "vertical": 1, "services": 3,
             "coordination_time": 1.0, "messages": 3, "succeeded": True}
        ]
        assert "Fig. 12" in format_fig12(rows)
        fig13_rows = [{"scenario": "s", "configuration": "1x1", "size": 1, "baseline_time": 1.0,
                       "adaptive_time": 2.0, "ratio": 2.0, "adaptations_triggered": 1, "succeeded": True}]
        assert "Fig. 13" in format_fig13(fig13_rows)
        fig14_rows = [{"executor": "ssh", "broker": "activemq", "nodes": 5, "deployment_time": 1.0,
                       "execution_time": 2.0, "total_time": 3.0, "repetitions": 1}]
        assert "Fig. 14" in format_fig14(fig14_rows)
        fig16_rows = [{"T": 0.0, "p": 0.2, "execution_time": 10.0, "execution_time_std": 1.0,
                       "failures": 2, "recoveries": 2, "repetitions": 1}]
        assert "Fig. 16" in format_fig16(fig16_rows, {"mean": 9.0, "std": 0.5})
