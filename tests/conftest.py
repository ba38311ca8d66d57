"""Shared fixtures of the test suite."""

from __future__ import annotations

import functools

import pytest

from repro.hocl import ReductionEngine


@pytest.fixture
def substitute_engine(monkeypatch):
    """Call with ``ReductionEngine`` options to make every runtime use them.

    The agents and the centralized executor build their engines through the
    module-level ``ReductionEngine`` name; substituting a partial there puts
    the oracles (``incremental=False``, ``delta=False``) under any runtime
    without a configuration knob.  The substitution lasts for the test.
    """

    def apply(**options):
        engine = functools.partial(ReductionEngine, **options)
        monkeypatch.setattr("repro.agents.core.ReductionEngine", engine)
        monkeypatch.setattr("repro.executors.centralized.ReductionEngine", engine)

    return apply
