"""Malformed workflow documents through the real CLI process.

Each fixture is written to a file and run as ``python -m repro.cli run FILE``
in a subprocess, so the whole path is covered: file reading, JSON parsing,
schema and type checks, workflow validation and the CLI's error boundary.
A malformed document must exit non-zero with exactly one line on stderr
and never a traceback; the single-task document is the well-formed control.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

_SRC = Path(__file__).resolve().parent.parent / "src"


def _task(name, **fields):
    return {"name": name, "service": "echo", **fields}


def _workflow(*tasks, **fields):
    return json.dumps({"name": "wf", "tasks": list(tasks), **fields})


#: fixture name -> (document text, expected exit status, stderr fragment)
FIXTURES = {
    "EMPTY_FILE": ("", 2, "invalid JSON"),
    "NO_TASKS": (_workflow(), 2, "'tasks' must be a non-empty list"),
    "SINGLE_TASK": (_workflow(_task("a")), 0, None),
    "CYCLE": (
        _workflow(_task("a", depends_on=["b"]), _task("b", depends_on=["a"])),
        2,
        "cycle",
    ),
    "SELF_LOOP": (_workflow(_task("a", depends_on=["a"])), 2, "cannot depend on itself"),
    "DANGLING_DST": (
        _workflow(_task("a", depends_on=["ghost"])),
        2,
        "dependency 'ghost' -> 'a' references unknown task 'ghost'",
    ),
    "DUPLICATE_NAMES": (_workflow(_task("a"), _task("a")), 2, "duplicate task name 'a'"),
    "TRUNCATED": (_workflow(_task("a"), _task("b"))[:-5], 2, "invalid JSON"),
    "DEPENDS_ON_STRING": (
        _workflow(_task("a"), _task("b"), _task("c", depends_on="ab")),
        2,
        "task 'c': 'depends_on' must be a list, got str",
    ),
    "INPUTS_STRING": (
        _workflow(_task("a", inputs="xyz")),
        2,
        "task 'a': 'inputs' must be a list, got str",
    ),
    "METADATA_NUMBER": (
        _workflow(_task("a", metadata=5)),
        2,
        "task 'a': 'metadata' must be an object, got int",
    ),
    "DURATION_STRING": (
        _workflow(_task("a", duration="slow")),
        2,
        "task 'a': 'duration' must be a number, got str",
    ),
    "ADAPTATION_NUMBER": (
        _workflow(_task("a"), adaptations=[5]),
        2,
        "each adaptation must be an object, got int",
    ),
    "ADAPTATIONS_OBJECT": (
        _workflow(_task("a"), adaptations={"name": "x"}),
        2,
        "'adaptations' must be a list, got dict",
    ),
}


def _run_cli(path: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(_SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", "run", str(path)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


@pytest.mark.parametrize("fixture", sorted(FIXTURES))
def test_cli_run_on_fixture(fixture, tmp_path):
    document, expected_status, fragment = FIXTURES[fixture]
    path = tmp_path / f"{fixture.lower()}.json"
    path.write_text(document, encoding="utf-8")
    completed = _run_cli(path)
    assert completed.returncode == expected_status, completed.stderr
    assert "Traceback" not in completed.stderr
    if fragment is None:
        assert completed.stderr == ""
        assert "succeeded" in completed.stdout
    else:
        lines = completed.stderr.splitlines()
        assert len(lines) == 1, completed.stderr
        assert lines[0].startswith("error: ") and fragment in lines[0]
