"""Smoke test of the benchmark at tiny sizes.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from workloads import DigestService, Workload, check_report, expected_results  # noqa: E402

from repro import GinFlow, ServiceRegistry, build_scenario  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
FACTS = json.loads((HERE / "facts.json").read_text())


@pytest.fixture
def tiny(monkeypatch: pytest.MonkeyPatch) -> None:
    """Every workload at size 20 (half size 10), one set-up, one pass."""
    for name, workload in list(workloads.WORKLOADS.items()):
        monkeypatch.setitem(workloads.WORKLOADS, name,
                            Workload(workload.name, workload.mode, workload.families, 20))
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [entry["name"] for entry in CONTRACT["workloads"]])
def test_every_metric_is_printed_with_its_unit(tiny: None, capsys: pytest.CaptureFixture,
                                               workload: str, trace: int) -> None:
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0.01", "--trace", str(trace)])
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    declared = CONTRACT["per_layer" if trace else "end_to_end"]
    assert code == 0 and result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {name: metric["unit"] for name, metric in result["metrics"].items()} == {
        metric["name"]: metric["unit"] for metric in declared
    }
    for metric in declared:
        assert any(line.split()[:1] == [metric["name"]] and line.split()[-1] == metric["unit"]
                   for line in lines[:-1]), metric["name"]


def test_timings_are_rescaled_by_the_speed_factor(tiny: None, capsys: pytest.CaptureFixture) -> None:
    assert run.main(["--workload", "async-mix", "--seed", "3", "--seconds", "0.01", "--trace", "0"]) == 0
    lines = capsys.readouterr().out.splitlines()
    report = {line.split()[0]: float(line.split()[1]) for line in lines[1:-1] if "n/a" not in line}
    assert 0 < report["speed_factor"]
    assert report["enact_s"] == pytest.approx(report["enact_wall_s"] * report["speed_factor"], rel=1e-3)


def test_speed_probe_runs_its_share() -> None:
    probe = speed.SpeedProbe()
    probe.sample(0.0)
    assert len(probe.units_s) == 1
    probe.sample(1.0)
    assert sum(probe.units_s[1:]) >= speed.PROBE_SHARE
    assert probe.factor() == pytest.approx(speed.REFERENCE_UNIT_S / statistics.median(probe.units_s))


def test_cold_setup_runs_in_a_fresh_process() -> None:
    assert run.child_setup_s("async-mix", 3) > 0


def test_corrupted_results_are_caught() -> None:
    workflow = build_scenario("montage:size=20,seed=3")
    expected = expected_results(workflow)
    ginflow = GinFlow(registry=ServiceRegistry(default_factory=DigestService))
    for mode in ("simulated", "centralized", "asyncio"):
        report = ginflow.run(workflow, mode=mode)
        assert check_report(workflow, expected, report) == []
        (exit_task,) = workflow.exit_tasks()
        report.results[exit_task] = "corrupted"
        assert check_report(workflow, expected, report)
        report.results[exit_task] = expected[exit_task]
        report.tasks[workflow.entry_tasks()[0]].result = "corrupted"
        assert check_report(workflow, expected, report)


def test_tracer_removes_every_wrapper_and_reconciles() -> None:
    originals = {(owner, name): owner.__dict__[name] for owner, name, _layer in layers.TIMED}
    tracer = layers.LayerTracer()
    tracer.install()
    try:
        client = workloads.Client(Workload("tiny", "simulated", ("montage",), 20))
        sample = client.enact(client.workload.pool(3)[0], tracer)
    finally:
        tracer.remove()
    assert all(owner.__dict__[name] is original for (owner, name), original in originals.items())
    assert not sample.problems
    metrics = tracer.metrics(passes=1)
    self_times = sum(metrics[name] for name in layers.SELF_TIMES.values())
    assert self_times + metrics["unattributed_s"] == pytest.approx(metrics["trace.wall_s"], rel=1e-12)
    assert 0 <= metrics["unattributed_s"] < metrics["trace.wall_s"]


def test_facts_cover_the_contract() -> None:
    assert set(FACTS["workloads"]) == {entry["name"] for entry in CONTRACT["workloads"]}
    assert set(FACTS["per_layer"]) == {metric["name"] for metric in CONTRACT["per_layer"]}
    for name, facts in FACTS["workloads"].items():
        workload = workloads.WORKLOADS[name]
        assert (facts["runtime"], tuple(facts["families"]), facts["size"], facts["seeds_per_family"]) == (
            workload.mode, workload.families, workload.size, workload.seeds_per_family)


def test_fails_without_the_program(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, *CONTRACT["command"][1:], "--workload", "sim-montage",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
