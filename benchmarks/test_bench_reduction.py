"""Benchmark matrix of the HOCL reduction engine.

Four claims are checked and published as ``BENCH_reduction.json``:

* **Equivalence** — the optimized incremental engine (inertness caching,
  head-symbol indexing, quick-reject pre-checks, version-stamped rejection
  memos) produces a :attr:`ReductionReport.history` identical to the naive
  engine's on every scenario;
* **Attempt speedup** — the incremental engine performs at least 5× fewer
  match attempts than the naive re-reduce-everything engine (deterministic,
  machine-independent);
* **Wall-clock** — the montage-500 centralised reduction completes in
  ≤ 5 s (the PR-4 target; PR 2 measured 15.18 s), and — full profile —
  montage-1000 stays ≤ 7.2 s (calibrated; the delta-rewrite target over the
  9.0 s rebuild-path wall) with full-rebuild rewrite time no longer
  dominating: the ``rewrite`` share of the timing split stays < 30 %;
* **Delta parity** — the in-place delta path (the default) reaches the same
  final solution, reaction trace and match-attempt count as the
  full-rebuild reference path (``delta=False``) on every scenario.

Every scenario row carries a ``modes`` object (schema_version 5) with two
rows: ``serial`` (the engine as shipped, deltas on) and ``rebuild`` (the
``delta=False`` reference run the parity check compared against).  Each
holds the match attempts, the wall seconds, the match/rewrite/patch/index
timing split (``patch`` is the time spent applying in-place rewrite deltas,
``rewrite`` what remains on the full-rebuild path) and the count of
delta-``patched`` reactions.  The legacy ``incremental`` object aliases
``modes.serial`` so older tooling keeps working.

Scenario matrix (the paper's two workflow shapes at several scales, plus two
families from the scenario catalog, :mod:`repro.scenarios`):

* ``montage-100-centralized`` — the scaled-down scenario the CI regression
  gate re-runs on every PR (see ``benchmarks/check_regression.py``);
* ``montage-500-centralized`` — the Section IV-C sized baseline;
* ``montage-1000-centralized`` — 2× the paper scale (run with
  ``GINFLOW_FULL=1``; skipped in the CI quick profile);
* ``diamond-16x8-full-centralized`` — the fully-connected diamond of
  Fig. 11, the densest dependency structure ``gw_pass`` has to search;
* ``cybershake-200-centralized`` — two-level wide fan-out/fan-in (per-site
  seismogram synthesis), the widest fan-in pressure after the diamond;
* ``sipht-200-centralized`` — many independent per-group fan-ins merging,
  the most fragmented solution structure (one agent-region per group).

The two catalog scenarios are regression-gated by ``check_regression.py``
exactly like montage-100, so a data-layer change that only bites deep
fan-ins or fragmented regions can no longer sail through CI.

The JSON artifact gives the perf trajectory a baseline: CI uploads it on
every build and ``check_regression.py`` fails a PR whose wall-clock regresses
more than 20% against the committed copy.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from repro.hocl import ReductionEngine, default_registry
from repro.hoclflow import encode_workflow
from repro.hoclflow.generic_rules import register_workflow_externals
from repro.scenarios import build_scenario
from repro.services import InvocationContext, ServiceRegistry
from repro.workflow import diamond_workflow
from repro.workflow.montage import montage_workflow

#: Where the benchmark numbers are published (repository root).
_ARTIFACT = Path(__file__).resolve().parent.parent / "BENCH_reduction.json"

#: Montage projection-stage width giving an N-task workflow (N-10 + 10 fixed).
_SCENARIOS = {
    "montage-100-centralized": lambda: montage_workflow(projections=90, duration_scale=0.01),
    "montage-500-centralized": lambda: montage_workflow(projections=490, duration_scale=0.01),
    "montage-1000-centralized": lambda: montage_workflow(projections=990, duration_scale=0.01),
    "diamond-16x8-full-centralized": lambda: diamond_workflow(16, 8, connectivity="full"),
    "cybershake-200-centralized": lambda: build_scenario("cybershake:size=200,seed=1"),
    "sipht-200-centralized": lambda: build_scenario("sipht:size=200,seed=1"),
}

#: Scenarios too slow for the CI quick profile (run with GINFLOW_FULL=1).
_FULL_ONLY = {"montage-1000-centralized"}

#: Wall-clock ceiling of the PR-4 acceptance criterion (seconds); slower CI
#: hardware can widen it via GINFLOW_WALL_BUDGET without touching the code.
_MONTAGE_500_BUDGET = float(os.environ.get("GINFLOW_WALL_BUDGET", "5.0"))

#: Wall-clock ceiling of the delta-rewrite criterion: montage-1000 serial
#: reduction, >= 1.25x over the committed 9.0 s rebuild-path wall.
_MONTAGE_1000_BUDGET = 7.2


def _full_profile() -> bool:
    return bool(os.environ.get("GINFLOW_FULL"))


def reduce_scenario(scenario: str, incremental: bool = True, delta: bool = True):
    """Centralised reduction of one scenario; returns (report, wall_seconds, solution)."""
    return reduce_workflow(_SCENARIOS[scenario](), incremental, delta)


def reduce_workflow(workflow, incremental: bool = True, delta: bool = True):
    """Centralised reduction of ``workflow``; returns (report, wall_seconds, solution).

    The final solution is what the delta-parity check hashes.
    ``incremental=False`` selects the naive re-reduce-everything engine (the
    calibration baseline); ``delta=False`` forces the full-rebuild reference
    path (the delta-parity baseline).
    """
    encoding = encode_workflow(workflow)
    solution = encoding.to_multiset()
    registry = ServiceRegistry()
    attempts: dict[str, int] = {}

    def invoke(task_name: str, service_name: str, parameters: list) -> object:
        attempts[task_name] = attempts.get(task_name, 0) + 1
        task = encoding.tasks[task_name]
        context = InvocationContext(
            task_name=task_name, duration=task.duration, metadata=task.metadata,
            attempt=attempts[task_name],
        )
        outcome = registry.resolve(service_name).invoke(list(parameters), context)
        if outcome.failed:
            raise RuntimeError(outcome.error or "invocation failed")
        return outcome.value

    externals = default_registry()
    register_workflow_externals(externals, invoke)
    engine = ReductionEngine(
        externals=externals, max_steps=5_000_000, incremental=incremental, delta=delta
    )
    start = time.perf_counter()
    report = engine.reduce(solution)
    elapsed = time.perf_counter() - start
    assert report.inert
    return report, elapsed, solution


def _trace(report):
    return [(r.rule, r.depth, r.consumed, r.produced) for r in report.history]


def _mode_row(report, seconds: float) -> dict:
    return {
        "match_attempts": report.match_attempts,
        "wall_seconds": round(seconds, 3),
        "timings": {k: round(v, 3) for k, v in report.timings.items()},
        "patched": report.patched,
    }


def _measure(scenario: str) -> dict:
    """Run one scenario serial, naive and rebuild; check parity, package the row."""
    serial, seconds_serial, serial_solution = reduce_scenario(scenario)
    naive, seconds_naive, _naive_solution = reduce_scenario(scenario, incremental=False)
    assert _trace(serial) == _trace(naive), f"{scenario}: trace diverged"
    attempts_speedup = naive.match_attempts / max(1, serial.match_attempts)
    assert attempts_speedup >= 5.0, (
        f"{scenario}: expected >=5x fewer match attempts, got {attempts_speedup:.1f}x "
        f"({naive.match_attempts} -> {serial.match_attempts})"
    )

    # Delta parity: the full-rebuild reference path (delta=False) must reach
    # the same final solution with the same reaction trace.  Kept anchors are
    # repositioned where rebuild appends its products, so this is exact trace
    # identity — not just confluence-up-to-order.
    rebuild, seconds_rebuild, rebuild_solution = reduce_scenario(scenario, delta=False)
    assert rebuild_solution.content_hash() == serial_solution.content_hash(), (
        f"{scenario}: rebuild (delta=False) reached a different final solution"
    )
    assert rebuild.rule_fires == serial.rule_fires, (
        f"{scenario}: rebuild (delta=False) reaction multiset diverged"
    )
    assert _trace(rebuild) == _trace(serial), (
        f"{scenario}: rebuild (delta=False) trace diverged from the delta path"
    )
    assert rebuild.match_attempts == serial.match_attempts, (
        f"{scenario}: rebuild match_attempts {rebuild.match_attempts} != "
        f"delta {serial.match_attempts}"
    )
    assert rebuild.patched == 0, f"{scenario}: delta=False engine patched reactions"

    modes = {
        "serial": _mode_row(serial, seconds_serial),
        "rebuild": _mode_row(rebuild, seconds_rebuild),
    }
    return {
        "reactions": serial.reactions,
        # legacy alias of modes.serial (schema v2 consumers: the CI gate's
        # committed-row lookup and the trend collator's fallback)
        "incremental": modes["serial"],
        "naive": {
            "match_attempts": naive.match_attempts,
            "wall_seconds": round(seconds_naive, 3),
        },
        "speedup": {
            "match_attempts": round(attempts_speedup, 1),
            "wall_clock": round(seconds_naive / max(1e-9, seconds_serial), 2),
        },
        "modes": modes,
    }


def test_reduction_micro_benchmark(benchmark):
    """Micro-benchmark: one 128-task reduction with the incremental engine."""
    report = benchmark.pedantic(
        lambda: reduce_workflow(montage_workflow(projections=118, duration_scale=0.01))[0],
        rounds=1,
        iterations=1,
    )
    assert report.reactions > 0


def test_trace_equivalence_small():
    """Incremental and naive engines agree reaction-for-reaction."""
    scenario = "montage-100-centralized"
    incremental, _, _ = reduce_scenario(scenario)
    naive, _, _ = reduce_scenario(scenario, incremental=False)
    assert _trace(incremental) == _trace(naive)
    assert incremental.reactions == naive.reactions
    assert incremental.match_attempts < naive.match_attempts


def naive_calibration(
    measured_naive_wall: float, committed_naive_wall: float, floor: float | None = None
) -> float:
    """Machine-speed factor: this machine's naive wall over the committed one.

    The one calibration used by both the acceptance budget below and the CI
    gate (``check_regression.py``): scaling a committed incremental budget by
    this factor makes the comparison hardware-relative, so a uniformly slower
    runner moves both sides while a real incremental regression still fails.
    ``floor`` clamps the factor from below (the acceptance budget uses 1.0 so
    fast machines keep the strict absolute budget).
    """
    factor = measured_naive_wall / max(1e-9, committed_naive_wall)
    if floor is not None:
        factor = max(floor, factor)
    return factor


def _committed_scenarios() -> dict:
    if not _ARTIFACT.exists():
        return {}
    try:
        return json.loads(_ARTIFACT.read_text()).get("scenarios", {})
    except (json.JSONDecodeError, AttributeError):
        return {}


def test_benchmark_matrix_and_artifact():
    """Run the scenario matrix, enforce the wall budget, publish the artifact."""
    committed = _committed_scenarios()  # read before the rewrite below
    scenarios = {}
    for scenario in _SCENARIOS:
        if scenario in _FULL_ONLY and not _full_profile():
            continue
        scenarios[scenario] = _measure(scenario)

    # The 5 s acceptance budget is an authoring-machine number.  Calibrate it
    # by this machine's naive run over the committed naive wall (floored at
    # 1.0 so fast machines keep the strict budget) — a slower CI runner
    # scales both sides, a real incremental regression still fails.
    montage_500 = scenarios["montage-500-centralized"]
    committed_naive = (
        committed.get("montage-500-centralized", {}).get("naive", {}).get("wall_seconds")
    )
    calibration = 1.0
    if committed_naive:
        calibration = naive_calibration(
            montage_500["naive"]["wall_seconds"], committed_naive, floor=1.0
        )
    budget = _MONTAGE_500_BUDGET * calibration
    assert montage_500["incremental"]["wall_seconds"] <= budget, (
        f"montage-500 centralised reduction took "
        f"{montage_500['incremental']['wall_seconds']} s "
        f"(budget {_MONTAGE_500_BUDGET} s x calibration {calibration:.2f})"
    )

    # Full profile: the delta-rewrite acceptance gate.  montage-1000 serial
    # must stay within its 7.2 s budget, calibrated to this machine the same
    # way (via the scenario's own naive run), and full-rebuild rewrite time
    # must not dominate its timing split.
    if "montage-1000-centralized" in scenarios:
        row = scenarios["montage-1000-centralized"]
        committed_naive_1000 = (
            committed.get("montage-1000-centralized", {}).get("naive", {}).get("wall_seconds")
        )
        calibration_1000 = 1.0
        if committed_naive_1000:
            calibration_1000 = naive_calibration(
                row["naive"]["wall_seconds"], committed_naive_1000, floor=1.0
            )
        serial = row["modes"]["serial"]
        ceiling = _MONTAGE_1000_BUDGET * calibration_1000
        assert serial["wall_seconds"] <= ceiling, (
            f"montage-1000 serial wall {serial['wall_seconds']} s misses the "
            f"delta-rewrite budget {_MONTAGE_1000_BUDGET} s "
            f"(calibration x{calibration_1000:.2f})"
        )
        timed = sum(serial["timings"].values())
        rewrite_share = serial["timings"].get("rewrite", 0.0) / max(1e-9, timed)
        assert rewrite_share < 0.30, (
            f"montage-1000 serial rewrite share {rewrite_share:.0%} >= 30% — "
            f"full-rebuild expansion still dominates ({serial['timings']})"
        )
        print(
            f"\nmontage-1000 acceptance: serial {serial['wall_seconds']} s "
            f"(budget {ceiling:.3f} s); rewrite share {rewrite_share:.0%}"
        )

    # keep the committed rows for the scenarios this profile deliberately
    # skipped (and only those: renamed/removed scenarios must not linger)
    for name, row in committed.items():
        if name in _SCENARIOS:
            scenarios.setdefault(name, row)

    payload = {
        "benchmark": "hocl-reduction",
        "schema_version": 5,
        "scenarios": scenarios,
    }
    _ARTIFACT.write_text(json.dumps(payload, indent=2) + "\n")
    summary = {name: row["speedup"] for name, row in scenarios.items()}
    print(f"\nreduction benchmarks: {json.dumps(summary)} -> {_ARTIFACT.name}")
