"""The traced run's layer accounting, installed from the benchmark's side.

:class:`LayerTracer` replaces the public entry points of each layer of
``repro`` with timing wrappers for the duration of the traced phase and puts
the originals back afterwards; the program itself runs with its own tracing
off.  A wrapper's *self time* is its duration minus the durations of the
wrapped calls nested in it.  Garbage-collector pauses (``gc.callbacks``) are
nested frames of their own, so they are taken out of the frame they
interrupt.  Only single-threaded runtimes are traced, so one stack suffices.

Every self time is disjoint from every other, hence

    sum(self times) + unattributed_s == traced wall

holds by construction; :meth:`LayerTracer.metrics` checks it anyway.
"""

from __future__ import annotations

import functools
import gc
import statistics
import sys
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable

from repro.agents.core import AgentCore
from repro.executors.centralized import CentralizedExecutor
from repro.executors.mesos import MesosExecutor
from repro.executors.ssh import SSHExecutor
from repro.hocl import patterns
from repro.hocl.engine import ReductionEngine
from repro.hocl.multiset import Multiset
from repro.hoclflow.translator import encode_workflow
from repro.messaging.broker import InProcessBroker
from repro.messaging.simulated import SimulatedBroker
from repro.runtime.aio import AsyncioRun
from repro.runtime.enactment import EnactmentEngine, ReportAssembler
from repro.runtime.simulation import SimulatedRun
from repro.simkernel import Simulator

#: Stimulus entry points of an agent.
STIMULI = ("boot", "receive_result", "receive_adapt", "invocation_started",
           "invocation_succeeded", "invocation_failed")

#: Timed entry points: (owner, attribute, layer).  A layer's self time is the
#: sum over its entry points.
TIMED = (
    *((AgentCore, name, "agents") for name in (*STIMULI, "status")),
    (AgentCore, "__init__", "agents.init"),
    (ReductionEngine, "reduce", "hocl.reduce"),
    (CentralizedExecutor, "execute", "executors"),
    (SSHExecutor, "plan", "executors.plan"),
    (MesosExecutor, "plan", "executors.plan"),
    (SimulatedBroker, "publish", "messaging.publish"),
    (InProcessBroker, "publish", "messaging.publish"),
    (EnactmentEngine, "dispatch", "enactment.dispatch"),
    (EnactmentEngine, "boot", "enactment.stimulus"),
    (EnactmentEngine, "deliver", "enactment.stimulus"),
    (EnactmentEngine, "complete_invocation", "enactment.stimulus"),
    (EnactmentEngine, "on_status_message", "enactment.status"),
    (EnactmentEngine, "record_status", "enactment.status"),
    (ReportAssembler, "assemble", "enactment.report"),
    (SimulatedRun, "run", "runtime.driver"),
    (AsyncioRun, "run", "runtime.driver"),
    (Simulator, "run", "simkernel"),
)

#: The metric carrying each layer's self time.
SELF_TIMES = {
    "agents": "agents.self_s",
    "agents.init": "agents.init_s",
    "hoclflow.encode": "hoclflow.encode_s",
    "hocl.reduce": "hocl.reduce_s",
    "executors": "executors.self_s",
    "executors.plan": "executors.plan_s",
    "messaging.publish": "messaging.publish_s",
    "enactment.dispatch": "enactment.dispatch_s",
    "enactment.stimulus": "enactment.stimulus_s",
    "enactment.status": "enactment.status_s",
    "enactment.report": "enactment.report_s",
    "runtime.driver": "runtime.driver_s",
    "simkernel": "simkernel.self_s",
    "gc": "gc.pause_s",
}

#: Share of ``--seconds`` the traced run spends on its untraced reference.
REFERENCE_SHARE = 1 / 3


def _quantile(values: list[float], fraction: float) -> float:
    """``fraction`` quantile of ``values`` (0 for no samples)."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(fraction * 100) - 1]


class LayerTracer:
    """Self time, call counts and work counts per layer of one traced phase."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.receive_result_self_s: list[float] = []
        self.reduce_s: list[float] = []
        self.deliver_waits_s: list[float] = []
        self.reduction: dict[str, float] = defaultdict(float)
        self.quick_reject_calls = 0
        self.inert_checks = 0
        self.gc_collections = 0
        self.wall_s = 0.0
        self.top_s = 0.0
        self._stack: list[float] = []
        self._published_at: dict[int, float] = {}
        self._recording = False
        self._gc_started = 0.0
        self._patches: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------ windows
    def begin(self) -> None:
        """Open the recording window (just before ``GinFlow.run``)."""
        self._recording = True

    def end(self, wall_s: float) -> None:
        """Close it, adding the enactment's measured wall."""
        self._recording = False
        self.wall_s += wall_s
        self._published_at.clear()

    # ------------------------------------------------------------ frames
    def _close(self, layer: str, started: float) -> tuple[float, float]:
        """Pop the innermost frame; returns its (self time, duration)."""
        duration = perf_counter() - started
        own = duration - self._stack.pop()
        self.self_s[layer] += own
        if self._stack:
            self._stack[-1] += duration
        else:
            self.top_s += duration
        return own, duration

    def _timed(self, key: str, layer: str, function: Callable[..., Any],
               on_close: Callable[[float, float, Any], None] | None = None) -> Callable[..., Any]:
        """Wrap ``function`` in a frame of ``layer``; ``on_close`` gets the
        frame's self time, its duration and the result (None on a raise)."""
        stack, close, calls = self._stack, self._close, self.calls

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            calls[key] += 1
            stack.append(0.0)
            started = perf_counter()
            result = None
            try:
                result = function(*args, **kwargs)
                return result
            finally:
                own, duration = close(layer, started)
                if on_close is not None:
                    on_close(own, duration, result)

        return functools.wraps(function)(wrapper)

    def _on_receive_result(self, own: float, _duration: float, _result: Any) -> None:
        self.receive_result_self_s.append(own)

    def _on_reduce(self, _own: float, duration: float, report: Any) -> None:
        self.reduce_s.append(duration)
        if report is not None:
            self._count_reduction(report)

    def _count_reduction(self, report: Any) -> None:
        self.reduction["reactions"] += report.reactions
        self.reduction["match_attempts"] += report.match_attempts
        for phase, seconds in report.timings.items():
            self.reduction[phase] += seconds

    def _on_gc(self, phase: str, _info: dict) -> None:
        if not self._recording:
            return
        if phase == "start":
            self.gc_collections += 1
            self._stack.append(0.0)
            self._gc_started = perf_counter()
        else:
            self._close("gc", self._gc_started)

    # ------------------------------------------------------------ install
    def _patch(self, owner: Any, name: str, replacement: Any) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, replacement)

    def install(self) -> None:
        """Wrap every layer entry point."""
        on_close = {"AgentCore.receive_result": self._on_receive_result,
                    "ReductionEngine.reduce": self._on_reduce}
        for owner, name, layer in TIMED:
            key = f"{owner.__name__}.{name}"
            self._patch(owner, name, self._timed(key, layer, owner.__dict__[name], on_close.get(key)))
        timed_encode = self._timed("encode_workflow", "hoclflow.encode", encode_workflow)
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("repro.") \
                    and module.__dict__.get("encode_workflow") is encode_workflow:
                self._patch(module, "encode_workflow", timed_encode)
        for broker in (SimulatedBroker, InProcessBroker):
            self._stamp_publish(broker)
        self._time_delivery()
        for owner in vars(patterns).values():
            if isinstance(owner, type) and issubclass(owner, patterns.Pattern) \
                    and "quick_reject" in owner.__dict__:
                self._patch(owner, "quick_reject", self._count_quick_rejects(owner.__dict__["quick_reject"]))
        self._count_inert_checks()
        gc.callbacks.append(self._on_gc)

    def _stamp_publish(self, broker: type) -> None:
        timed = broker.__dict__["publish"]
        published_at = self._published_at

        def publish(instance: Any, message: Any) -> None:
            published_at[message.message_id] = perf_counter()
            timed(instance, message)

        self._patch(broker, "publish", functools.wraps(timed)(publish))

    def _time_delivery(self) -> None:
        timed = EnactmentEngine.__dict__["deliver"]
        published_at, waits = self._published_at, self.deliver_waits_s

        def deliver(engine: Any, host: Any, message: Any) -> Any:
            sent = published_at.pop(message.message_id, None)
            if sent is not None:
                waits.append(perf_counter() - sent)
            return timed(engine, host, message)

        self._patch(EnactmentEngine, "deliver", functools.wraps(timed)(deliver))

    def _count_quick_rejects(self, quick_reject: Callable[..., bool]) -> Callable[..., bool]:
        tracer = self

        def counted(pattern: Any, atom: Any) -> bool:
            tracer.quick_reject_calls += 1
            return quick_reject(pattern, atom)

        return functools.wraps(quick_reject)(counted)

    def _count_inert_checks(self) -> None:
        getter = Multiset.__dict__["known_inert"].fget
        tracer = self

        def known_inert(solution: Multiset) -> bool:
            tracer.inert_checks += 1
            return getter(solution)

        self._patch(Multiset, "known_inert", property(functools.wraps(getter)(known_inert)))

    def remove(self) -> None:
        """Restore every original, newest patch first, and verify it."""
        gc.callbacks.remove(self._on_gc)
        originals = {}
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
            originals[owner, name] = original
        leftovers = [f"{owner.__name__}.{name}" for (owner, name), original in originals.items()
                     if owner.__dict__[name] is not original]
        self._patches.clear()
        if leftovers:
            raise RuntimeError(f"wrappers left installed: {leftovers}")

    # ------------------------------------------------------------ metrics
    def work_counts(self) -> tuple[float, ...]:
        """The counters that must repeat exactly on every pass."""
        return (
            self.quick_reject_calls,
            self.inert_checks,
            self.reduction["reactions"],
            self.reduction["match_attempts"],
            *(self.calls[f"{owner.__name__}.{name}"] for owner, name, _layer in TIMED),
        )

    def metrics(self, passes: int) -> dict[str, float]:
        """Per-layer metrics, per pass over the pool."""
        if self._stack:
            raise RuntimeError(f"{len(self._stack)} frames left open")
        total_self = sum(self.self_s.values())
        if abs(total_self - self.top_s) > 1e-6 * max(1.0, self.top_s) or total_self > self.wall_s:
            raise RuntimeError(
                f"self times {total_self:.6f}s do not reconcile with the top-level frames "
                f"{self.top_s:.6f}s and the wall {self.wall_s:.6f}s"
            )
        per = 1.0 / passes
        reactions = self.reduction["reactions"]
        attempts = self.reduction["match_attempts"]
        stimuli = sum(self.calls[f"AgentCore.{name}"] for name in STIMULI)
        values = {metric: self.self_s[layer] * per for layer, metric in SELF_TIMES.items()}
        return values | {
            "agents.stimuli": stimuli * per,
            "agents.receive_result_p50_us": _quantile(self.receive_result_self_s, 0.50) * 1e6,
            "agents.receive_result_p99_us": _quantile(self.receive_result_self_s, 0.99) * 1e6,
            "hocl.reduce_calls": self.calls["ReductionEngine.reduce"] * per,
            "hocl.reduce_p99_us": _quantile(self.reduce_s, 0.99) * 1e6,
            "hocl.match_s": self.reduction["match"] * per,
            "hocl.rewrite_s": self.reduction["rewrite"] * per,
            "hocl.patch_s": self.reduction["patch"] * per,
            "hocl.index_s": self.reduction["index"] * per,
            "hocl.match_attempts": attempts * per,
            "hocl.reactions": reactions * per,
            "hocl.useful_ratio": reactions / attempts if attempts else 0.0,
            "hocl.quick_reject_calls": self.quick_reject_calls * per,
            "hocl.inert_checks": self.inert_checks * per,
            "enactment.deliver_wait_p90_us": _quantile(self.deliver_waits_s, 0.90) * 1e6,
            "gc.collections": self.gc_collections * per,
            "unattributed_s": (self.wall_s - total_self) * per,
            "trace.wall_s": self.wall_s * per,
        }


def traced_metrics(client: Any, seed: int, seconds: float) -> dict[str, float]:
    """The ``--trace 1`` run: an untraced reference, the same passes traced,
    then one traced pass at half the workflow size for the scaling ratio."""
    workload = client.workload
    pool = workload.pool(seed)
    client.enact(pool[0])
    reference = client.run_passes(pool, seconds * REFERENCE_SHARE)
    passes = len(reference) // len(pool)

    tracer = LayerTracer()
    tracer.install()
    try:
        traced, per_pass = [], []
        for _ in range(passes):
            before = tracer.work_counts()
            traced += [client.enact(entry, tracer) for entry in pool]
            per_pass.append(tuple(now - then for now, then in zip(tracer.work_counts(), before)))
    finally:
        tracer.remove()
    half = LayerTracer()
    half.install()
    try:
        for entry in workload.pool(seed, size=workload.size // 2):
            client.enact(entry, half)
    finally:
        half.remove()

    values = tracer.metrics(passes)
    counts = [sample.counts for sample in traced if sample.counts is not None]
    values.update({
        "hocl.quick_reject_scaling": tracer.quick_reject_calls / passes / half.quick_reject_calls,
        "messaging.published": sum(c.published for c in counts) / passes,
        "messaging.delivered": sum(c.delivered for c in counts) / passes,
        "simkernel.events": sum(c.virtual_events for c in counts) / passes,
        "simkernel.virtual_makespan_s": sum(c.virtual_makespan_s for c in counts) / passes,
        "trace.overhead_ratio": tracer.wall_s / sum(sample.wall_s for sample in reference),
    })
    problems = []
    if len(set(per_pass)) != 1:
        problems.append(f"traced work counts differ between passes: {sorted(set(per_pass))}")
    publishes = tracer.calls["SimulatedBroker.publish"] + tracer.calls["InProcessBroker.publish"]
    if len(counts) == len(traced) and (
        tracer.reduction["reactions"] != sum(c.reactions for c in counts)
        or publishes != sum(c.published for c in counts)
    ):
        problems.append("wrapper counts disagree with the run reports")
    for problem in problems:
        client.failed += 1
        print(f"FAILED traced run: {problem}", file=sys.stderr)
    for premise in premises(workload.name, values):
        print(premise)
    return values


def premises(workload: str, values: dict[str, float]) -> list[str]:
    """The premises the benchmark was built on, as measured by this run."""
    layers = {name: values[name] for name in (*SELF_TIMES.values(), "unattributed_s")}
    largest = max(layers, key=layers.__getitem__)
    expected = {"sim-montage": "agents.self_s", "central-montage": "hocl.reduce_s"}.get(workload)
    lines = [f"premise: largest self time is {largest} ({layers[largest]:.3f} s)"
             + ("" if expected is None else f"; expected {expected}: "
                + ("holds" if largest == expected else "DOES NOT HOLD"))]
    if workload == "central-montage":
        for name in ("agents.stimuli", "messaging.published", "simkernel.events"):
            lines.append(f"premise: {name} == 0 on central-montage: "
                         + ("holds" if values[name] == 0 else f"DOES NOT HOLD ({values[name]:g})"))
    return lines
