"""JSON workflow format.

Section IV-D: "the workflow is given in a JSON format which will be
translated into an HOCL workflow prior to execution".  This module defines
that user-facing format and its (de)serialisation.  The schema is:

.. code-block:: json

    {
      "name": "my-workflow",
      "tasks": [
        {"name": "T1", "service": "s1", "inputs": ["input"], "duration": 1.0,
         "depends_on": [], "metadata": {}},
        {"name": "T2", "service": "s2", "depends_on": ["T1"]}
      ],
      "adaptations": [
        {"name": "replace-T2",
         "replaced": ["T2"],
         "trigger_on": ["T2"],
         "entry_sources": {"T2p": ["T1"]},
         "replacement": {"name": "alt", "tasks": [
             {"name": "T2p", "service": "s2-alt", "depends_on": []}]}}
      ]
    }

``workflow_from_json`` accepts a JSON string, a parsed dictionary or a file
path; ``workflow_to_json`` is its inverse (round-trip safe).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Mapping

from .adaptive import AdaptationSpec
from .dag import Task, Workflow
from .errors import JSONFormatError

__all__ = ["workflow_from_json", "workflow_to_json", "workflow_to_dict", "workflow_from_dict"]


def _json_safe(value: Any, context: str) -> Any:
    """Canonical JSON form of a task input / metadata value.

    ``json.dumps`` silently mutates some values (tuples become lists) and
    raises deep inside the encoder on others (numpy integers); scenario
    generators stamp exactly that kind of cost-profile metadata.  Converting
    *before* serialisation makes the round-trip lossless — the canonical form
    is what both the file and the parsed workflow carry — and turns the rest
    into a :class:`JSONFormatError` naming the offending task field.
    """
    if isinstance(value, bool) or value is None or isinstance(value, (int, float, str)):
        return value
    if isinstance(value, Mapping):
        return {str(key): _json_safe(item, context) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(item, context) for item in value]
    # numpy arrays (tolist) and scalars (item) without importing numpy here;
    # tolist first so a 1-element array stays a list instead of collapsing
    # to item()'s scalar
    for attribute in ("tolist", "item"):
        converter = getattr(value, attribute, None)
        if callable(converter):
            try:
                return _json_safe(converter(), context)
            except (TypeError, ValueError):
                continue
    raise JSONFormatError(
        f"{context}: value {value!r} of type {type(value).__name__} is not JSON-serialisable"
    )


def workflow_to_dict(workflow: Workflow) -> dict[str, Any]:
    """Serialise a workflow (and its adaptations) into a JSON-compatible dict.

    Inputs and metadata are normalised to their canonical JSON form
    (tuples/arrays to lists, numpy scalars to Python scalars), so
    ``workflow_from_dict(workflow_to_dict(w))`` reproduces the document
    exactly; values with no JSON form raise :class:`JSONFormatError` here
    instead of deep inside ``json.dumps``.
    """
    document: dict[str, Any] = {
        "name": workflow.name,
        "tasks": [
            {
                "name": task.name,
                "service": task.service,
                "inputs": _json_safe(list(task.inputs), f"task {task.name!r} inputs"),
                "duration": float(task.duration),
                "depends_on": workflow.predecessors(task.name),
                "metadata": _json_safe(dict(task.metadata), f"task {task.name!r} metadata"),
            }
            for task in workflow
        ],
    }
    if workflow.adaptations:
        document["adaptations"] = [
            {
                "name": spec.name,
                "replaced": list(spec.replaced),
                "trigger_on": spec.trigger_tasks(),
                "entry_sources": {key: list(value) for key, value in spec.entry_sources.items()},
                "clear_destination_inputs": spec.clear_destination_inputs,
                "replacement": workflow_to_dict(spec.replacement),
            }
            for spec in workflow.adaptations
        ]
    return document


def workflow_to_json(workflow: Workflow, path: str | Path | None = None, indent: int = 2) -> str:
    """Serialise a workflow to a JSON string, optionally writing it to ``path``."""
    text = json.dumps(workflow_to_dict(workflow), indent=indent)
    if path is not None:
        Path(path).write_text(text + "\n", encoding="utf-8")
    return text


def _require(mapping: Mapping[str, Any], key: str, context: str) -> Any:
    if key not in mapping:
        raise JSONFormatError(f"{context}: missing required key {key!r}")
    return mapping[key]


#: How each JSON type a field may require is named in error messages.
_TYPE_NAMES: dict[Any, str] = {
    list: "a list",
    Mapping: "an object",
    (int, float): "a number",
    str: "a string",
}


_MISSING: Any = object()


def _typed(mapping: Mapping[str, Any], key: str, kind: Any, context: str, default: Any = _MISSING) -> Any:
    """``mapping[key]`` (``default`` when absent), required to be of ``kind``.

    Without ``default`` the key is required.  Without the type check a
    string ``depends_on`` iterates as characters and a numeric ``metadata``
    fails deep inside the model with no task named.
    """
    if key not in mapping:
        if default is _MISSING:
            raise JSONFormatError(f"{context}: missing required key {key!r}")
        return default
    value = mapping[key]
    if not isinstance(value, kind) or (kind == (int, float) and isinstance(value, bool)):
        raise JSONFormatError(
            f"{context}: {key!r} must be {_TYPE_NAMES[kind]}, got {type(value).__name__}"
        )
    return value


def workflow_from_dict(document: Mapping[str, Any]) -> Workflow:
    """Build a workflow from a parsed JSON document."""
    if not isinstance(document, Mapping):
        raise JSONFormatError(f"workflow document must be an object, got {type(document).__name__}")
    name = document.get("name", "workflow")
    tasks = _require(document, "tasks", f"workflow {name!r}")
    if not isinstance(tasks, list) or not tasks:
        raise JSONFormatError(f"workflow {name!r}: 'tasks' must be a non-empty list")

    workflow = Workflow(name=name)
    dependencies: list[tuple[str, str]] = []
    for entry in tasks:
        if not isinstance(entry, Mapping):
            raise JSONFormatError(f"workflow {name!r}: each task must be an object")
        task_name = _typed(entry, "name", str, f"workflow {name!r} task")
        context = f"task {task_name!r}"
        task = Task(
            name=task_name,
            service=_typed(entry, "service", str, context),
            inputs=list(_typed(entry, "inputs", list, context, [])),
            duration=float(_typed(entry, "duration", (int, float), context, 0.0)),
            metadata=dict(_typed(entry, "metadata", Mapping, context, {})),
        )
        workflow.add_task(task)
        for source in _typed(entry, "depends_on", list, context, []):
            if not isinstance(source, str):
                raise JSONFormatError(
                    f"{context}: 'depends_on' entries must be task names, got {source!r}"
                )
            dependencies.append((source, task_name))
    for source, destination in dependencies:
        workflow.add_dependency(source, destination)

    for adaptation in _typed(document, "adaptations", list, f"workflow {name!r}", []):
        if not isinstance(adaptation, Mapping):
            raise JSONFormatError(
                f"workflow {name!r}: each adaptation must be an object, got {type(adaptation).__name__}"
            )
        spec_name = _require(adaptation, "name", "adaptation")
        context = f"adaptation {spec_name!r}"
        replacement_doc = _require(adaptation, "replacement", context)
        entry_sources = _typed(adaptation, "entry_sources", Mapping, context, {})
        trigger_on = _typed(adaptation, "trigger_on", list, context, [])
        spec = AdaptationSpec(
            name=spec_name,
            replaced=list(_typed(adaptation, "replaced", list, context)),
            replacement=workflow_from_dict(replacement_doc),
            entry_sources={
                key: list(_typed(entry_sources, key, list, f"{context} entry_sources"))
                for key in entry_sources
            },
            trigger_on=list(trigger_on) if trigger_on else None,
            clear_destination_inputs=bool(adaptation.get("clear_destination_inputs", False)),
        )
        workflow.add_adaptation(spec)

    workflow.validate()
    return workflow


def workflow_from_json(source: str | Path | Mapping[str, Any]) -> Workflow:
    """Build a workflow from a JSON string, a file path or a parsed dict."""
    if isinstance(source, Mapping):
        return workflow_from_dict(source)
    if isinstance(source, Path) or (isinstance(source, str) and "\n" not in source and source.endswith(".json")):
        path = Path(source)
        if not path.exists():
            raise JSONFormatError(f"workflow file not found: {path}")
        text = path.read_text(encoding="utf-8")
    else:
        text = str(source)
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise JSONFormatError(f"invalid JSON workflow document: {exc}") from exc
    return workflow_from_dict(document)
