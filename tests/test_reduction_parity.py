"""Trace parity of the optimized incremental engine against the naive engine.

The PR-2/PR-4 optimisations (inertness caching, head-symbol indexing,
quick-reject pre-checks, version-stamped rejection memos, cached structural
hashes) are all required to be *trace-preserving*: reducing the same solution
must fire exactly the same rules in exactly the same order as the naive
re-reduce-everything engine.  These tests lock that property on the two
workflow shapes the paper measures (Montage and the fully-connected diamond)
and on the cache-invalidation edges the memoization introduces.
"""

from __future__ import annotations

import pytest

from repro.hocl import (
    Multiset,
    Omega,
    ReductionEngine,
    Rule,
    SolutionPattern,
    Subsolution,
    Symbol,
    SymbolPattern,
    TupleAtom,
    TuplePattern,
    Var,
    default_registry,
)
from repro.hoclflow import encode_workflow
from repro.hoclflow.generic_rules import register_workflow_externals
from repro.services import InvocationContext, ServiceRegistry
from repro.workflow import diamond_workflow
from repro.workflow.montage import montage_workflow


def _reduce_centralized(workflow, incremental: bool):
    """One centralised reduction of ``workflow``; returns the report."""
    encoding = encode_workflow(workflow)
    solution = encoding.to_multiset()
    registry = ServiceRegistry()
    attempts: dict[str, int] = {}

    def invoke(task_name: str, service_name: str, parameters: list) -> object:
        attempts[task_name] = attempts.get(task_name, 0) + 1
        task = encoding.tasks[task_name]
        context = InvocationContext(
            task_name=task_name,
            duration=task.duration,
            metadata=task.metadata,
            attempt=attempts[task_name],
        )
        outcome = registry.resolve(service_name).invoke(list(parameters), context)
        if outcome.failed:
            raise RuntimeError(outcome.error or "invocation failed")
        return outcome.value

    externals = default_registry()
    register_workflow_externals(externals, invoke)
    engine = ReductionEngine(externals=externals, max_steps=1_000_000, incremental=incremental)
    report = engine.reduce(solution)
    assert report.inert
    return report


def _trace(report):
    return [(r.rule, r.depth, r.consumed, r.produced) for r in report.history]


class TestWorkflowTraceParity:
    @pytest.mark.parametrize("projections", [5, 30])
    def test_montage_trace_identical(self, projections):
        incremental = _reduce_centralized(montage_workflow(projections=projections), True)
        naive = _reduce_centralized(montage_workflow(projections=projections), False)
        assert _trace(incremental) == _trace(naive)
        assert incremental.reactions == naive.reactions
        assert incremental.match_attempts <= naive.match_attempts

    @pytest.mark.parametrize("width,depth", [(3, 3), (6, 4)])
    def test_fully_connected_diamond_trace_identical(self, width, depth):
        incremental = _reduce_centralized(
            diamond_workflow(width, depth, connectivity="full"), True
        )
        naive = _reduce_centralized(diamond_workflow(width, depth, connectivity="full"), False)
        assert _trace(incremental) == _trace(naive)
        assert incremental.reactions == naive.reactions

    def test_simple_diamond_trace_identical(self):
        incremental = _reduce_centralized(diamond_workflow(4, 3, connectivity="simple"), True)
        naive = _reduce_centralized(diamond_workflow(4, 3, connectivity="simple"), False)
        assert _trace(incremental) == _trace(naive)

    def test_timings_populated(self):
        report = _reduce_centralized(montage_workflow(projections=5), True)
        assert set(report.timings) >= {"match", "rewrite", "index"}
        assert all(seconds >= 0.0 for seconds in report.timings.values())

    def test_timings_merge_accumulates(self):
        first = _reduce_centralized(montage_workflow(projections=5), True)
        second = _reduce_centralized(montage_workflow(projections=5), True)
        match_sum = first.timings["match"] + second.timings["match"]
        first.merge(second)
        assert first.timings["match"] == pytest.approx(match_sum)


class TestRejectionCacheInvalidation:
    """The quick-reject memos must never survive a relevant mutation."""

    def test_solution_pattern_rejection_expires_on_mutation(self):
        pattern = SolutionPattern(Var("x"), rest=Omega("w"))
        empty = Subsolution()
        assert pattern.quick_reject(empty)  # needs at least one atom
        assert pattern.quick_reject(empty)  # cached rejection
        empty.solution.add(1)
        assert not pattern.quick_reject(empty)
        matches = list(pattern.match(empty, {}))
        assert len(matches) == 1

    def test_tuple_pattern_rejection_expires_on_nested_mutation(self):
        # RES : <w> with an atom inside — the task-field idiom of gw_call
        pattern = TuplePattern(
            SymbolPattern("RES"), SolutionPattern(Var("res"), rest=Omega("w"))
        )
        res = TupleAtom([Symbol("RES"), Subsolution()])
        assert pattern.quick_reject(res)
        assert pattern.quick_reject(res)  # memoised on the structure version
        res.elements[1].solution.add("value")
        assert not pattern.quick_reject(res)
        assert list(pattern.match(res, {}))

    def test_immutable_tuple_rejection_is_permanent_and_sound(self):
        pattern = TuplePattern(SymbolPattern("SRC"), Var("x"))
        other = TupleAtom([Symbol("DST"), 1])
        assert pattern.quick_reject(other)
        assert pattern.quick_reject(other)
        matching = TupleAtom([Symbol("SRC"), 2])
        assert not pattern.quick_reject(matching)

    def test_engine_refires_after_inertness_with_new_atoms(self):
        # a rule refuted by the quick checks must fire once its atom appears
        rule = Rule("grab", [TuplePattern(SymbolPattern("K"), Var("x"))], ["done"])
        solution = Multiset([rule])
        engine = ReductionEngine(incremental=True)
        report = engine.reduce(solution)
        assert report.reactions == 0
        solution.add(TupleAtom([Symbol("K"), 7]))
        report = engine.reduce(solution)
        assert report.reactions == 1
        assert solution.count("done") == 1


class TestDataLayerCaches:
    def test_symbols_are_interned(self):
        assert Symbol("ADAPT") is Symbol("ADAPT")
        assert Symbol("ADAPT") == Symbol("ADAPT")
        assert Symbol("A") != Symbol("B")

    def test_mutable_tuple_hash_tracks_nested_mutation(self):
        atom = TupleAtom([Symbol("RES"), Subsolution([1])])
        before = hash(atom)
        equal = TupleAtom([Symbol("RES"), Subsolution([1])])
        assert hash(equal) == before and equal == atom
        atom.elements[1].solution.add(2)
        assert atom != equal
        assert hash(atom) == hash(TupleAtom([Symbol("RES"), Subsolution([1, 2])]))

    def test_immutable_tuple_hash_is_stable(self):
        atom = TupleAtom([Symbol("SRC"), 1, "x"])
        assert hash(atom) == hash(TupleAtom([Symbol("SRC"), 1, "x"]))

    def test_nested_solutions_match_a_scan(self):
        solution = Multiset()
        solution.add(TupleAtom([Symbol("T1"), Subsolution([1])]))
        inner = Subsolution([2])
        solution.add(inner)
        solution.add(TupleAtom([Symbol("T2"), Subsolution([3]), Subsolution([4])]))

        def scan():
            nested = []
            for atom in solution.atoms():
                if isinstance(atom, Subsolution):
                    nested.append(atom.solution)
                elif isinstance(atom, TupleAtom):
                    nested.extend(
                        e.solution for e in atom.elements if isinstance(e, Subsolution)
                    )
            return nested

        assert [id(s) for s in solution.nested_solutions()] == [id(s) for s in scan()]
        solution.remove_identical(inner)
        assert [id(s) for s in solution.nested_solutions()] == [id(s) for s in scan()]

    def test_nested_solutions_order_survives_aliased_removal(self):
        # the same sub-solution aliased into two non-adjacent entries: a
        # removal must drop that entry's occurrence, not the first equal one
        shared = Subsolution([1])
        solution = Multiset()
        first = solution.add(TupleAtom([Symbol("T1"), shared]))
        solution.add(Subsolution([2]))
        second = solution.add(TupleAtom([Symbol("T2"), shared]))
        assert [id(s) for s in solution.nested_solutions()] == [
            id(shared.solution),
            id(solution.atoms()[1].solution),
            id(shared.solution),
        ]
        solution.remove_identical(second)
        assert [id(s) for s in solution.nested_solutions()] == [
            id(shared.solution),
            id(solution.atoms()[1].solution),
        ]
        solution.remove_identical(first)
        assert [id(s) for s in solution.nested_solutions()] == [
            id(solution.atoms()[0].solution)
        ]

    def test_content_hash_changes_with_contents(self):
        solution = Multiset([1, 2])
        first = solution.content_hash()
        assert first == Multiset([2, 1]).content_hash()  # order-insensitive
        solution.add(3)
        assert solution.content_hash() != first


# --------------------------------------------------------------------------
# Strategy parity: the shipped engine against its two oracles
# --------------------------------------------------------------------------

from repro.executors.centralized import CentralizedExecutor  # noqa: E402
from repro.hocl import ReductionReport  # noqa: E402
from repro.runtime import GinFlow  # noqa: E402
from repro.scenarios import available_scenarios, build_scenario  # noqa: E402

_FAMILIES = available_scenarios()


def _centralized_outcome(workflow):
    outcome = CentralizedExecutor().execute(workflow)
    assert outcome.report.inert
    return outcome


class TestStrategyParity:
    """The serial engine and its oracles agree on every family and runtime.

    Reduction is done one way — the serial incremental engine with rewrite
    deltas.  The naive engine (``incremental=False``) and the full-rebuild
    path (``delta=False``) are its references: centralized, both must give
    the same reaction trace, final solution and per-task results; on the
    threaded and asyncio runtimes the rebuild path must give the same
    results and reaction multiset, and both match the centralized run.
    """

    @pytest.mark.parametrize("family", _FAMILIES)
    def test_centralized_strategies_agree(self, family, substitute_engine):
        def outcome(**engine_options):
            substitute_engine(**engine_options)
            return _centralized_outcome(build_scenario(f"{family}:size=12,seed=1"))

        serial = outcome()
        for oracle in ({"incremental": False}, {"delta": False}):
            other = outcome(**oracle)
            assert _trace(other.report) == _trace(serial.report), oracle
            assert other.solution.content_hash() == serial.solution.content_hash()
            assert other.report.rule_fires == serial.report.rule_fires
            assert other.results == serial.results
            assert other.errors == serial.errors
            assert other.invocations == serial.invocations
            assert other.report.match_attempts >= serial.report.match_attempts

    @pytest.mark.parametrize("mode", ["threaded", "asyncio"])
    @pytest.mark.parametrize("family", _FAMILIES)
    def test_runtime_strategies_agree(self, family, mode, substitute_engine):
        spec = f"{family}:size=10,seed=1"

        def run():
            report = GinFlow().run(build_scenario(spec), mode=mode, timeout=60.0)
            assert report.succeeded and not report.timed_out
            return report

        serial = run()
        substitute_engine(delta=False)
        rebuild = run()
        assert rebuild.extra["reduction_timings"]["patch"] == 0.0
        assert rebuild.results == serial.results
        assert rebuild.extra.get("rule_fires") == serial.extra.get("rule_fires")
        workflow = build_scenario(spec)
        reference = _centralized_outcome(workflow)
        assert serial.results == {name: reference.results[name] for name in workflow.exit_tasks()}


class TestReportMergeAccounting:
    """`ReductionReport.merge` must add keys absent on either side."""

    def test_merge_adds_absent_timing_and_rule_keys(self):
        left = ReductionReport(reactions=1, timings={"match": 1.0}, rule_fires={"a": 1})
        right = ReductionReport(reactions=3, timings={"match": 0.5, "rewrite": 0.25}, rule_fires={"b": 3})
        left.merge(right)
        assert left.timings == {"match": 1.5, "rewrite": 0.25}
        assert left.rule_fires == {"a": 1, "b": 3}
        assert left.reactions == 4
        assert sum(left.rule_fires.values()) == left.reactions

    def test_merge_into_empty_report(self):
        merged = ReductionReport()
        merged.merge(ReductionReport(reactions=2, rule_fires={"r": 2}, timings={"index": 0.1}))
        assert merged.rule_fires == {"r": 2}
        assert merged.timings["index"] == pytest.approx(0.1)
        assert sum(merged.rule_fires.values()) == merged.reactions
