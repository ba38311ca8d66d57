"""End-to-end enactment benchmark of the GinFlow reproduction.

Run one workload (the form the metrics contract uses)::

    python3 perfbench/run.py --workload sim-montage --seed 1 --seconds 15 --trace 0

or every workload in turn, each in its own process::

    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0

Enactments go through the public API (``build_scenario`` -> ``GinFlow.run``)
with the program's own tracing off, from one closed-loop client; every one is
checked (see ``workloads.py``).  ``--trace 0`` measures the end-to-end
metrics; ``--trace 1`` measures the per-layer metrics in a separate traced
phase (see ``layers.py``).  The end-to-end timings are rescaled to a
reference host speed measured next to them (see ``speed.py``), and the
command keeps itself on one CPU.  The metric names and units printed on the
last line are those of ``BENCHMARK.json``; the lines before it are a
readable report that also shows the figures the last line cannot carry.  The
exit code is non-zero when any enactment failed its check.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402 - the clock above must start before every import
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Cold set-ups per ``--trace 0`` run, each in a fresh process (the run's own
#: first, the rest in child processes); ``setup_s`` is their median.
SETUP_REPEATS = 3
#: A percentile is reported only with at least ten samples beyond it.
P90_MIN_SAMPLES = 100

#: Units of the figures printed only in the readable report.
REPORT_ONLY_UNITS = {
    "enact_wall_s": "s",
    "setup_wall_s": "s",
    "speed_factor": "ratio",
    "failed_frac": "ratio",
    "enact_p90_s": "s",
    "virtual_makespan_s": "s",
    "enactments": "count",
}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, required=True, help="workload seed (>= 0)")
    parser.add_argument("--seconds", type=float, default=0.0, help="measured seconds per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer traced run")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or (args.seconds <= 0 and not args.setup_only):
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def load_contract() -> dict:
    """``BENCHMARK.json``: the metric names and units the last line carries."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_all(args: argparse.Namespace, names: list[str]) -> int:
    """Run every workload in its own process; the last line merges them."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for workload in names:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=False)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        code = code or done.returncode
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            merged["correct"] = False
            continue
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(merged))
    return code


def cold_setup(workload_name: str, seed: int) -> tuple[float, object, list]:
    """This process's set-up: import (since start-up), pool generation and
    one checked enactment.  Returns (seconds, client, pool)."""
    from workloads import WORKLOADS, Client

    workload = WORKLOADS[workload_name]
    client = Client(workload)
    pool = workload.pool(seed)
    client.enact(pool[0])
    return time.perf_counter() - STARTED, client, pool


def child_setup_s(workload_name: str, seed: int) -> float:
    """One cold set-up in a fresh process (see ``--setup-only``)."""
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", workload_name,
               "--seed", str(seed), "--setup-only"]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"cold set-up of {workload_name} failed with exit code {done.returncode}")
    return float(done.stdout.splitlines()[-1])


def measure(workload_name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict, object]:
    """Run one workload; returns (metric values, report-only values, client)."""
    if trace:
        from layers import traced_metrics
        from workloads import WORKLOADS, Client

        client = Client(WORKLOADS[workload_name])
        return traced_metrics(client, seed, seconds), {}, client
    from speed import SpeedProbe

    setup_s, client, pool = cold_setup(workload_name, seed)
    setup_probe, probe = SpeedProbe(), SpeedProbe()
    setups = [setup_s]
    setup_probe.sample(setup_s)
    for _ in range(SETUP_REPEATS - 1):
        setups.append(child_setup_s(workload_name, seed))
        setup_probe.sample(setups[-1])
    samples = client.run_passes(pool, seconds, probe)
    walls = [sample.wall_s for sample in samples]
    passes = [samples[start:start + len(pool)] for start in range(0, len(samples), len(pool))]
    factor = probe.factor()
    values = {
        "enact_s": statistics.median(walls) * factor,
        "tasks_per_s": statistics.median(
            sum(sample.tasks for sample in done) / sum(sample.wall_s for sample in done) for done in passes
        ) / factor,
        "setup_s": statistics.median(setups) * setup_probe.factor(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    extra = {
        "enact_wall_s": statistics.median(walls),
        "setup_wall_s": statistics.median(setups),
        "speed_factor": factor,
        "enactments": len(samples),
        "failed_frac": client.failed / client.attempted,
    }
    if len(samples) >= P90_MIN_SAMPLES:
        extra["enact_p90_s"] = statistics.quantiles(walls, n=10, method="inclusive")[8] * factor
    if client.workload.mode == "simulated":
        extra["virtual_makespan_s"] = statistics.median(
            sample.counts.virtual_makespan_s for sample in samples if sample.counts is not None
        )
    return values, extra, client


def pin_to_one_cpu() -> None:
    """Keep this process, and the set-up processes it starts, on the last CPU
    it may use.  The CPUs of a shared host can differ in speed for minutes
    at a time, so a run that the scheduler happened to place or move onto
    another one would read slower or faster for that reason alone."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: {ROOT / 'src'} holds no repro sources; run from a full checkout", file=sys.stderr)
        return 2
    contract = load_contract()
    names = [entry["name"] for entry in contract["workloads"]]
    if args.workload == "all":
        return run_all(args, names)
    if args.workload not in names:
        print(f"perfbench: unknown workload {args.workload!r}; expected one of {names} or 'all'", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.setup_only:
        setup_s, client, _pool = cold_setup(args.workload, args.seed)
        print(setup_s)
        return 0 if client.failed == 0 else 1
    values, extra, client = measure(args.workload, args.seed, args.seconds, bool(args.trace))

    declared = contract["per_layer" if args.trace else "end_to_end"]
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    for metric in declared:
        print(f"  {metric['name']:<32} {values[metric['name']]:>16.6f} {metric['unit']}")
    for name, value in extra.items():
        print(f"  {name:<32} {value:>16.6f} {REPORT_ONLY_UNITS[name]}  (report only)")
    if "enact_p90_s" not in extra and not args.trace:
        print(f"  {'enact_p90_s':<32} {'n/a':>16} s  (needs >= {P90_MIN_SAMPLES} enactments)")
    result = {
        "correct": client.failed == 0,
        "attempted": client.attempted,
        "failed": client.failed,
        "metrics": {metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
                    for metric in declared},
    }
    print(json.dumps(result))
    return 0 if client.failed == 0 else 1


if __name__ == "__main__":
    pin_to_one_cpu()
    sys.exit(main())
