"""Workloads, the closed-loop client and the per-enactment output check.

A workload is a runtime plus a *pool* of scenario workflows generated from
the workload seed.  One *pass* enacts every workflow of the pool once, in
pool order; the client runs passes back to back, sending the next enactment
only after the previous one returned (a closed loop with one client).

Every task of every workflow runs :class:`DigestService`, whose result is a
digest of the task name and of the parameters the task received.  The
expected value of every task therefore follows from the DAG alone
(:func:`expected_results`), and a result that went to the wrong task, lost
an input or arrived out of order fails the check.
"""

from __future__ import annotations

import gc
import hashlib
import sys
import traceback
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, NamedTuple

from repro import GinFlow, RunReport, ServiceRegistry, Workflow, build_scenario
from repro.services import InvocationContext, InvocationResult, Service

#: Every family of the built-in scenario catalog, in catalog order.
CATALOG_FAMILIES = (
    "epigenomics",
    "cybershake",
    "inspiral",
    "sipht",
    "random-layered",
    "mapreduce",
    "forkjoin",
    "montage",
    "longchain",
)

#: Wall-clock bound of one asyncio enactment; virtual-time runs ignore it.
ENACTMENT_TIMEOUT_S = 60.0


def task_digest(task: str, parameters: list[Any]) -> str:
    """The value :class:`DigestService` returns for ``task`` on ``parameters``."""
    return hashlib.blake2b(repr((task, parameters)).encode(), digest_size=8).hexdigest()


class DigestService(Service):
    """A service whose result digests its task name and its parameters."""

    def invoke(self, parameters: list[Any], context: InvocationContext) -> InvocationResult:
        return InvocationResult(value=task_digest(context.task_name, parameters), duration=context.duration)


def expected_results(workflow: Workflow) -> dict[str, str]:
    """Every task's expected result.

    A task's parameters are its initial inputs, then its predecessors'
    results ordered by predecessor name (the order the agents and the
    centralized interpreter both build them in).
    """
    values: dict[str, str] = {}
    for name in workflow.topological_order():
        parameters = list(workflow.task(name).inputs)
        parameters += [values[source] for source in sorted(workflow.predecessors(name))]
        values[name] = task_digest(name, parameters)
    return values


def check_report(workflow: Workflow, expected: dict[str, str], report: RunReport) -> list[str]:
    """Everything wrong with one enactment's report (empty when correct)."""
    problems = []
    if report.timed_out:
        problems.append("timed out")
    if not report.succeeded:
        problems.append("did not succeed")
    for name, value in expected.items():
        outcome = report.tasks.get(name)
        if outcome is None:
            problems.append(f"task {name} missing from the report")
        elif outcome.error or outcome.result != value:
            problems.append(f"task {name}: result {outcome.result!r}, expected {value!r}")
    exits = {name: expected[name] for name in workflow.exit_tasks()}
    if report.results != exits:
        problems.append(f"exit results {report.results!r}, expected {exits!r}")
    return problems


class Counts(NamedTuple):
    """The counts that must repeat exactly whenever one workflow is enacted."""

    reactions: int
    match_attempts: int
    rule_fires: tuple
    published: int
    delivered: int
    virtual_events: int
    virtual_makespan_s: float


def counts_of(report: RunReport) -> Counts:
    return Counts(
        report.reduction_reactions,
        report.reduction_match_attempts,
        tuple(sorted(report.extra.get("rule_fires", {}).items())),
        report.messages_published,
        report.messages_delivered,
        report.extra.get("virtual_events", 0),
        report.makespan if report.mode == "simulated" else 0.0,
    )


@dataclass(frozen=True)
class Entry:
    """One workflow of a workload's pool."""

    spec: str
    workflow: Workflow
    expected: dict[str, str]


@dataclass(frozen=True)
class Workload:
    """A runtime and the scenario families its pool is generated from."""

    name: str
    mode: str
    families: tuple[str, ...]
    size: int
    seeds_per_family: int = 1

    def pool(self, seed: int, size: int | None = None) -> list[Entry]:
        """The pool for workload seed ``seed``; entry ``i`` gets scenario seed
        ``seed * len(pool) + i``, so distinct workload seeds never share one."""
        count = len(self.families) * self.seeds_per_family
        entries = []
        for _ in range(self.seeds_per_family):
            for family in self.families:
                spec = f"{family}:size={size or self.size},seed={seed * count + len(entries)}"
                workflow = build_scenario(spec)
                entries.append(Entry(spec, workflow, expected_results(workflow)))
        return entries


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload("sim-montage", "simulated", ("montage",), 1000),
        Workload("central-montage", "centralized", ("montage",), 1000),
        Workload("async-mix", "asyncio", CATALOG_FAMILIES, 80, seeds_per_family=2),
    )
}


@dataclass
class Sample:
    """One checked enactment."""

    spec: str
    wall_s: float
    tasks: int
    counts: Counts | None
    problems: list[str] = field(default_factory=list)


class Client:
    """The closed-loop client: one enactment at a time, each one checked.

    ``tracer``, when given, has its recording window opened and closed
    around exactly the timed ``GinFlow.run`` call.
    """

    def __init__(self, workload: Workload) -> None:
        self.workload = workload
        self.ginflow = GinFlow(registry=ServiceRegistry(default_factory=DigestService))
        self.counts: dict[str, Counts] = {}
        self.attempted = 0
        self.failed = 0

    def enact(self, entry: Entry, tracer: Any = None) -> Sample:
        self.attempted += 1
        # Collect the previous enactment's garbage outside the timed region,
        # so every enactment starts from the same heap.
        gc.collect()
        if tracer is not None:
            tracer.begin()
        started = perf_counter()
        try:
            report = self.ginflow.run(entry.workflow, mode=self.workload.mode, timeout=ENACTMENT_TIMEOUT_S)
        except Exception:  # noqa: BLE001 - a crashed enactment is a failed one; the loop goes on
            report = None
            traceback.print_exc(file=sys.stderr)
        wall = perf_counter() - started
        if tracer is not None:
            tracer.end(wall)
        if report is None:
            sample = Sample(entry.spec, wall, 0, None, ["raised"])
        else:
            counts = counts_of(report)
            sample = Sample(entry.spec, wall, len(report.completed_tasks()), counts)
            sample.problems = check_report(entry.workflow, entry.expected, report)
            first = self.counts.setdefault(entry.spec, counts)
            if counts != first:
                sample.problems.append(f"deterministic counts {counts} differ from {first}")
        if sample.problems:
            self.failed += 1
            print(f"FAILED {entry.spec}: {'; '.join(sample.problems[:5])}", file=sys.stderr)
        return sample

    def run_passes(self, pool: list[Entry], seconds: float, probe: Any = None) -> list[Sample]:
        """Run whole passes over ``pool`` while the next one fits in ``seconds``
        (at least one pass).  ``probe``, a :class:`speed.SpeedProbe`, samples
        the host's speed right after every enactment."""
        samples: list[Sample] = []
        passes = 0
        started = perf_counter()
        while True:
            for entry in pool:
                samples.append(self.enact(entry))
                if probe is not None:
                    probe.sample(samples[-1].wall_s)
            passes += 1
            elapsed = perf_counter() - started
            if elapsed + elapsed / passes > seconds:
                return samples
