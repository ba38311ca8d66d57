"""The HOCL reduction engine.

Reduction repeatedly applies applicable rules to a solution until no rule can
fire anywhere — the solution is then *inert*.  Two points of the HOCL
execution model matter for GinFlow and are implemented here:

* **Nested solutions reduce first.**  A rule of an outer solution may only
  consume a sub-solution once that sub-solution is inert.  The engine
  enforces this by reducing depth-first: at every step, all nested solutions
  (including those stored inside tuples, which is how task sub-solutions are
  encoded) are brought to inertness before any outer rule is tried.
* **One-shot rules.**  A ``replace-one`` rule is removed from its solution
  when it fires.

The engine is deliberately deterministic for a fixed rule set and solution:
rules are tried in priority order (then insertion order) and the first match
found is applied.  HOCL semantics allow any order; determinism makes tests
and the simulation reproducible without changing the set of reachable inert
states for the confluent programs used by GinFlow.

Incremental reduction
---------------------
By default the engine is *incremental*: it relies on the dirty tracking of
:class:`~repro.hocl.multiset.Multiset` to avoid redoing work that cannot
have changed since the last reduction:

* a solution proven inert is stamped (:meth:`Multiset.note_inert`) and is
  skipped — along with its whole subtree — until any mutation anywhere
  below it bumps its version again;
* rules are drawn from the multiset's cached priority ordering, and a rule
  is only *tried* (and only then charged a ``match_attempt``) when every
  one of its patterns has at least one candidate in the solution's
  head-symbol index; after a reaction this leaves only the plausibly
  applicable rules.

Both optimisations are trace-preserving: skipping an inert solution skips
zero reactions, and skipping an index-refuted rule skips a search that was
guaranteed to fail, so :attr:`ReductionReport.history` is identical to the
naive engine's (``incremental=False``), which remains available as the
reference implementation and as the baseline of the reduction benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable

from repro.obs.tracer import Tracer, active as active_tracer

from .errors import ReductionError
from .externals import ExternalRegistry, default_registry
from .matching import Match
from .multiset import Multiset
from .rules import Rule

__all__ = ["ReductionReport", "ReactionRecord", "ReductionEngine", "reduce_solution", "is_inert"]


@dataclass
class ReactionRecord:
    """One rule firing, as recorded in a :class:`ReductionReport`.

    ``consumed`` counts the matched atoms and ``produced`` the atoms the
    firing left behind — products on the rebuild path, kept anchors plus
    ``produce`` expansions on the delta path.  A delta rule whose rebuild
    products list the kept fields first (the convention every workflow rule
    follows) records identical numbers on both paths.
    """

    rule: str
    depth: int
    consumed: int
    produced: int


@dataclass
class ReductionReport:
    """Statistics gathered while reducing a solution.

    Attributes
    ----------
    reactions:
        Number of rule firings.
    match_attempts:
        Number of (rule, solution) match searches performed; the simulation
        cost model charges virtual time proportional to this and to the
        solution size.
    inert:
        ``True`` when reduction reached a state where no rule can fire;
        ``False`` only when the step limit was hit.
    history:
        Per-reaction records (rule name, nesting depth, atoms consumed and
        produced), useful for debugging and for the execution traces.
    timings:
        Wall-clock seconds spent per reduction phase: ``"match"`` (searching
        for applicable rules), ``"rewrite"`` (expanding full rebuild
        products), ``"patch"`` (applying in-place rewrite deltas, including
        the nested-solution edits they perform) and ``"index"`` (mutating
        the top-level multiset — removals, insertions and the index
        maintenance they imply).  Indicative, not deterministic; used to
        diagnose where a perf regression lives.
    rule_fires:
        Number of firings per rule name, aggregated across the whole
        reduction (and across merged reports).  ``sum(rule_fires.values())``
        always equals ``reactions``; the dynamic analyzer uses this to flag
        registered rules that never fired over a run or sweep.
    patched:
        Number of reactions applied through the in-place delta path
        (:class:`~repro.hocl.deltas.RewriteDelta`) rather than by rebuilding
        products; ``patched <= reactions`` always, and the ratio measures
        how much of the rewrite work the deltas absorbed.
    """

    reactions: int = 0
    match_attempts: int = 0
    inert: bool = True
    history: list[ReactionRecord] = field(default_factory=list)
    timings: dict[str, float] = field(
        default_factory=lambda: {"match": 0.0, "rewrite": 0.0, "patch": 0.0, "index": 0.0}
    )
    rule_fires: dict[str, int] = field(default_factory=dict)
    patched: int = 0

    def merge(self, other: "ReductionReport") -> None:
        """Accumulate ``other`` into this report.

        Every counter is summed key-by-key: ``timings`` and ``rule_fires``
        keys present only in ``other`` are *added*, not dropped, so merged
        accounting stays balanced (``sum(rule_fires.values()) == reactions``)
        even when the two sides saw disjoint rule sets — the invariant the
        dynamic analyzer's accounting check relies on.
        """
        self.reactions += other.reactions
        self.match_attempts += other.match_attempts
        self.inert = self.inert and other.inert
        self.history.extend(other.history)
        self.patched += other.patched
        for phase, seconds in other.timings.items():
            self.timings[phase] = self.timings.get(phase, 0.0) + seconds
        for name, fires in other.rule_fires.items():
            self.rule_fires[name] = self.rule_fires.get(name, 0) + fires

    def reduction_units(self, solution_size: int) -> float:
        """Cost units of this reduction: attempts weighted by solution size.

        This is the accounting consumed by
        :meth:`repro.runtime.costs.CostModel.handling_cost`.  A *unit* is one
        match attempt over one atom of the local solution; under the
        incremental engine ``match_attempts`` only counts searches that were
        actually performed (index-refuted rules and already-inert solutions
        are free), so the charged virtual time shrinks exactly where the
        real interpreter's work does.
        """
        return self.match_attempts * max(1, solution_size)


#: Optional observer invoked after every reaction with
#: ``(rule, match, depth)``; the GinFlow agents use it for tracing.
ReactionObserver = Callable[[Rule, Match, int], None]


class ReductionEngine:
    """Reduce HOCL solutions to inertness.

    Parameters
    ----------
    externals:
        External function registry used to expand ``Call`` templates; a
        default registry (with ``list`` et al.) is created when omitted.
    max_steps:
        Safety bound on the number of reactions in one :meth:`reduce` call.
        Workflow programs always terminate, but user-supplied rules might
        not; exceeding the bound marks the report as non-inert instead of
        looping forever.
    observer:
        Optional callback invoked after each reaction.
    incremental:
        When ``True`` (the default) the engine caches inertness per
        sub-solution and prunes rules through the multiset's head-symbol
        index; ``False`` restores the naive re-reduce-everything behaviour
        (same traces, used as the benchmark baseline).
    delta:
        When ``True`` (the default), rules that carry a
        :class:`~repro.hocl.deltas.RewriteDelta` fire through it: matched
        atoms stay in place (minus the delta's consume set) and the delta's
        patches edit their nested solutions under copy-on-write, instead of
        removing everything matched and rebuilding products.  ``False``
        forces the classic rebuild path for every rule — the reference
        semantics the delta-vs-rebuild parity harness compares against.
        Both paths produce structurally identical final solutions and the
        same ``rule_fires``; ``ReductionReport.patched`` counts the
        reactions the delta path absorbed.
    trace:
        Optional :class:`~repro.obs.tracer.Tracer`: when active, every
        timing window the engine accumulates into
        :attr:`ReductionReport.timings` is also recorded as a span
        (``reduction.match`` / ``reduction.rewrite`` / ``reduction.patch``,
        with the index-maintenance share as an ``index_seconds`` attribute)
        using the *same* ``perf_counter`` values — span totals therefore
        reconcile with the report.  A disabled tracer is normalised to
        ``None`` and costs one pointer check per window.  Tracing never
        changes what reduction does: history, ``match_attempts`` and the
        final solution are identical with and without it.
    trace_track:
        Trace track the spans land on (the hosting agent's name; the
        centralised executor uses ``"centralized"``).
    """

    def __init__(
        self,
        externals: ExternalRegistry | None = None,
        max_steps: int = 100_000,
        observer: ReactionObserver | None = None,
        incremental: bool = True,
        delta: bool = True,
        trace: Tracer | None = None,
        trace_track: str = "reduction",
    ):
        self.externals = externals if externals is not None else default_registry()
        self.max_steps = int(max_steps)
        self.observer = observer
        self.incremental = bool(incremental)
        self.delta = bool(delta)
        self.trace = active_tracer(trace)
        self.trace_track = trace_track

    # ----------------------------------------------------------------- public
    def reduce(self, solution: Multiset) -> ReductionReport:
        """Rewrite ``solution`` in place until it is inert (or the step limit hits)."""
        report = ReductionReport()
        self._reduce_level(solution, depth=0, report=report)
        return report

    def step(self, solution: Multiset) -> bool:
        """Apply at most one reaction (anywhere in the solution tree).

        Returns ``True`` if a reaction was applied.  Useful for debugging and
        for tests that need to observe intermediate states.
        """
        report = ReductionReport()
        return self._try_one_reaction(solution, depth=0, report=report)

    def is_inert(self, solution: Multiset) -> bool:
        """Whether no rule can fire anywhere in ``solution`` (non-mutating)."""
        report = ReductionReport()
        return not self._has_applicable_rule(solution, report)

    # --------------------------------------------------------------- internal
    def _nested_solutions(self, solution: Multiset) -> list[Multiset]:
        """Sub-solutions at this level, including those wrapped in tuples.

        The multiset maintains this list incrementally (in exactly the
        depth-first descent order a scan would produce), so re-descending
        after every reaction costs O(nested) instead of O(atoms).
        """
        return solution.nested_solutions()

    def _reduce_level(self, solution: Multiset, depth: int, report: ReductionReport) -> None:
        incremental = self.incremental
        while True:
            if report.reactions >= self.max_steps:
                report.inert = False
                return
            if incremental and solution.known_inert:
                # proven inert at this exact version: nothing below can fire
                # (any mutation in the subtree would have bumped the version
                # through the parent chain).
                return
            # 1. bring every nested solution to inertness first
            for nested in self._nested_solutions(solution):
                if incremental and nested.known_inert:
                    continue
                self._reduce_level(nested, depth + 1, report)
                if report.reactions >= self.max_steps:
                    report.inert = False
                    return
            # 2. then react at this level: one reaction, then loop — the
            # reaction may have created new nested solutions or re-enabled
            # nested rules.
            if not self._apply_first_applicable(solution, depth, report):
                if incremental:
                    solution.note_inert()
                return

    def _try_one_reaction(self, solution: Multiset, depth: int, report: ReductionReport) -> bool:
        if self.incremental and solution.known_inert:
            return False
        for nested in self._nested_solutions(solution):
            if self._try_one_reaction(nested, depth + 1, report):
                return True
        return self._apply_first_applicable(solution, depth, report)

    def _ordered_rules(self, solution: Multiset) -> list[Rule]:
        # priority descending, insertion order preserved among equals —
        # cached by the multiset and invalidated only when rules change.
        return solution.rules_by_priority()

    def _plausible(self, rule: Rule, solution: Multiset) -> bool:
        """Whether the index leaves any candidates for every pattern of ``rule``.

        A ``False`` answer proves the rule cannot match (each pattern's key
        names a bucket that must contain any atom it matches), so the search
        — and its ``match_attempts`` charge — is skipped entirely.
        """
        for key in rule.pattern_index_keys:
            if key is not None and not solution.has_candidates(key):
                return False
        return True

    def _apply_first_applicable(
        self, solution: Multiset, depth: int, report: ReductionReport
    ) -> bool:
        started = perf_counter()
        for rule in self._ordered_rules(solution):
            if self.incremental and not self._plausible(rule, solution):
                continue
            report.match_attempts += 1
            match = self._find_match_excluding_self(rule, solution)
            if match is None:
                continue
            now = perf_counter()
            report.timings["match"] += now - started
            if self.trace is not None:
                self.trace.span("reduction.match", self.trace_track, started, now, depth=depth, rule=rule.name)
            self._apply(rule, match, solution, depth, report)
            return True
        now = perf_counter()
        report.timings["match"] += now - started
        if self.trace is not None:
            self.trace.span("reduction.match", self.trace_track, started, now, depth=depth)
        return False

    def _has_applicable_rule(self, solution: Multiset, report: ReductionReport) -> bool:
        if self.incremental and solution.known_inert:
            return False
        for nested in self._nested_solutions(solution):
            if self._has_applicable_rule(nested, report):
                return True
        for rule in self._ordered_rules(solution):
            if self.incremental and not self._plausible(rule, solution):
                continue
            report.match_attempts += 1
            if self._find_match_excluding_self(rule, solution) is not None:
                return True
        if self.incremental:
            # nothing can fire here or below: remember it (atoms untouched —
            # `is_inert` stays non-mutating, only the cache marker is set).
            solution.note_inert()
        return False

    @staticmethod
    def _find_match_excluding_self(rule: Rule, solution: Multiset) -> Match | None:
        """First match of ``rule`` whose consumed atoms do not include the rule itself."""
        for match in rule.find_all_matches(solution):
            if not any(consumed is rule for consumed in match.consumed):
                return match
        return None

    def _apply(
        self, rule: Rule, match: Match, solution: Multiset, depth: int, report: ReductionReport
    ) -> None:
        """Fire ``rule`` on ``match`` and record the reaction in ``report``."""
        started = perf_counter()
        delta = rule.delta if self.delta else None
        if delta is not None:
            try:
                applied = delta.apply(match, solution, self.externals)
            except Exception as exc:  # noqa: BLE001 - context added
                raise ReductionError(
                    f"rule {rule.name!r} failed to apply its rewrite delta: {exc}"
                ) from exc
            patched_at = perf_counter()
            report.timings["patch"] += patched_at - started
            if rule.one_shot:
                # the rule removes itself once fired (replace-one semantics)
                try:
                    solution.remove_identical(rule)
                except KeyError:
                    solution.discard(rule)
            indexed_at = perf_counter()
            report.timings["index"] += indexed_at - patched_at
            report.patched += 1
            if self.trace is not None:
                self.trace.span(
                    "reduction.patch",
                    self.trace_track,
                    started,
                    patched_at,
                    rule=rule.name,
                    depth=depth,
                    index_seconds=indexed_at - patched_at,
                )
            produced = len(applied.kept) + len(applied.added)
        else:
            try:
                products = rule.produce(match, self.externals)
            except Exception as exc:  # noqa: BLE001 - context added
                raise ReductionError(
                    f"rule {rule.name!r} failed to produce its products: {exc}"
                ) from exc
            produced_at = perf_counter()
            report.timings["rewrite"] += produced_at - started
            for consumed in match.consumed:
                solution.remove_identical(consumed)
            if rule.one_shot:
                # the rule removes itself once fired (replace-one semantics)
                try:
                    solution.remove_identical(rule)
                except KeyError:
                    solution.discard(rule)
            for atom in products:
                solution.add(atom)
            indexed_at = perf_counter()
            report.timings["index"] += indexed_at - produced_at
            if self.trace is not None:
                self.trace.span(
                    "reduction.rewrite",
                    self.trace_track,
                    started,
                    produced_at,
                    rule=rule.name,
                    depth=depth,
                    index_seconds=indexed_at - produced_at,
                )
            produced = len(products)
        report.reactions += 1
        report.rule_fires[rule.name] = report.rule_fires.get(rule.name, 0) + 1
        report.history.append(
            ReactionRecord(
                rule=rule.name, depth=depth, consumed=len(match.consumed), produced=produced
            )
        )
        rule.fire_effect(match)
        if self.observer is not None:
            self.observer(rule, match, depth)


def reduce_solution(
    solution: Multiset,
    externals: ExternalRegistry | None = None,
    max_steps: int = 100_000,
) -> ReductionReport:
    """Convenience wrapper: reduce ``solution`` with a fresh engine."""
    return ReductionEngine(externals=externals, max_steps=max_steps).reduce(solution)


def is_inert(solution: Multiset, externals: ExternalRegistry | None = None) -> bool:
    """Convenience wrapper: whether ``solution`` is inert."""
    return ReductionEngine(externals=externals).is_inert(solution)
