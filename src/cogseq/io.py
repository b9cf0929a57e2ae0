"""Workflow and cost-model JSON documents, bundled fixtures, and DOT export.

Documents are UTF-8 JSON.  A workflow document carries `tasks`,
`variant_groups`, and optional `known_orderings` (named reference orderings,
e.g. published study sequences).  A cost-model document may override the
matrix (5 rows of 5 effect sizes), individual rule costs (null withholds a
rule), and the recent-practice scope, and ``"rules_enabled": false``
withholds every rule; omitted fields keep the published defaults.  An
unknown key anywhere is a :class:`DocumentError`, as is every other
malformed field, any string that cannot be written back as UTF-8, and any
file that cannot be read, is not UTF-8 text, or does not parse as JSON.
"""

from __future__ import annotations

import json
import os
from collections.abc import Mapping
from pathlib import Path
from typing import NamedTuple

from .costs import (
    CostModel,
    DEFAULT_RULE_COSTS,
    Rule,
    Scope,
    render_effect,
    to_thousandths,
)
from .errors import CogseqError, DocumentError, _printable, _shown
from .model import (
    Ordering,
    Resource,
    Task,
    VariantGroup,
    Workflow,
    _code,
)

RESOURCE_ALIASES = {
    "vwm": Resource.VWM,
    "visual working memory": Resource.VWM,
    "pm": Resource.PM,
    "procedural memory": Resource.PM,
    "dr": Resource.DR,
    "declarative recall": Resource.DR,
    "sr": Resource.SR,
    "semantic recognition": Resource.SR,
    "er": Resource.ER,
    "episodic recognition": Resource.ER,
    "episodic": Resource.ER,
}


def parse_resource(label: str) -> Resource:
    """Accept the short code or the descriptive label (shorthand included)."""
    try:
        return RESOURCE_ALIASES[label.strip().lower()]
    except (KeyError, AttributeError):
        raise DocumentError(
            f"unknown resource {label!r} (expected one of "
            + ", ".join(r.value for r in Resource) + " or their full names)"
        ) from None


def _parse_voluntary(value) -> bool:
    if isinstance(value, bool):
        return value
    if isinstance(value, str):
        folded = value.strip().lower()
        if folded in ("yes", "true"):
            return True
        if folded in ("no", "false"):
            return False
    raise DocumentError(
        f"voluntary must be yes/no or true/false, got {value!r}")


def _require_int(value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise DocumentError(f"expected an integer, got {value!r}")
    return value


def _require_str(value) -> str:
    if not isinstance(value, str):
        raise DocumentError(f"expected a string, got {_shown(value)}")
    try:
        value.encode("utf-8")
    except UnicodeEncodeError:
        # JSON can spell a lone surrogate ("\ud800"), which no output
        # stream can write back.
        raise DocumentError(f"not encodable as UTF-8: {value!r}") from None
    return value


def _require_code(value) -> str:
    return _code("code", _require_str(value))


def _at(field: str | None, parse, value):
    """``parse(value)``, a CogseqError it raises reported at ``field`` (None
    for a fault across entries, such as a duplicate code).  The one place
    that names a field in an error; a DocumentError keeps its raw message."""
    try:
        return parse(value)
    except CogseqError as exc:
        message = exc.message if isinstance(exc, DocumentError) else str(exc)
        raise DocumentError(message, field=field) from None


def _check_keys(obj: Mapping, allowed: set[str], *,
                where: str = "document") -> None:
    unknown = sorted(set(obj) - allowed)
    if unknown:
        raise DocumentError(f"unknown keys in {where}: " + ", ".join(unknown))


class WorkflowDocument(NamedTuple):
    """A parsed workflow file: the workflow plus any named reference orderings."""

    workflow: Workflow
    known_orderings: Mapping[str, Ordering]


def _read_text(path: Path) -> str:
    """A file's text.  This is the one place that opens a path a user names:
    one that cannot be opened (missing, a directory, an over-long name, a
    NUL byte) or is not UTF-8 text is a DocumentError."""
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DocumentError(f"not UTF-8 text: {exc}", path=path) from None
    except (OSError, ValueError) as exc:
        # An OSError's str() names the path again; the NUL ValueError's
        # does not and has no strerror.
        raise DocumentError(getattr(exc, "strerror", None) or str(exc),
                            path=path) from None


def _exact(literal: str):
    """A JSON number literal with a fraction or an exponent, as written."""
    # Imported here: only a cost model that holds such a literal needs it.
    from decimal import Decimal

    return Decimal(literal)


def _json_value(text: str, parse_float=None):
    try:
        return json.loads(text, parse_float=parse_float)
    except json.JSONDecodeError as exc:
        raise DocumentError(
            f"malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    except ValueError as exc:  # an integer literal too long to convert
        raise DocumentError(f"unreadable JSON: {exc}") from None
    except RecursionError:
        raise DocumentError("unreadable JSON: nested too deeply") from None


def _load(path: Path | str, parse, parse_float=None):
    """``parse`` applied to a JSON file, its number literals with a fraction
    or an exponent read by ``parse_float`` (``float`` by default).  The one
    place that names the file in an error: a DocumentError from the JSON or
    the parser gets the path."""
    path = Path(path)
    text = _read_text(path)
    try:
        return parse(_json_value(text, parse_float))
    except DocumentError as exc:
        raise DocumentError(exc.message, path=path, field=exc.field) from None


#: Each task key and its parser, in ``Task``'s field order, which is also
#: the order the fields are read in: a row's first fault is reported.
_TASK_FIELDS = {
    "code": _require_code,
    "name": _require_str,
    "resource": parse_resource,
    "modality": _require_str,
    "voluntary": _parse_voluntary,
    "familiarity": _require_int,
    "complexity": _require_int,
}


def parse_workflow_document(data) -> WorkflowDocument:
    if not isinstance(data, dict):
        raise DocumentError("top level must be a JSON object")
    _check_keys(data, {"tasks", "variant_groups", "known_orderings"})
    raw_tasks = data.get("tasks")
    if not isinstance(raw_tasks, list):
        raise DocumentError("`tasks` must be an array", field="tasks")

    task_keys = {*_TASK_FIELDS, "prerequisites"}
    tasks: list[Task] = []
    for i, row in enumerate(raw_tasks):
        field = f"tasks[{i}]"
        if not isinstance(row, dict):
            raise DocumentError("task entry must be an object", field=field)
        _check_keys(row, task_keys, where=field)
        missing = sorted(_TASK_FIELDS.keys() - row.keys())
        if missing:
            raise DocumentError("missing keys: " + ", ".join(missing),
                                field=field)
        prereqs = row.get("prerequisites", [])
        if not isinstance(prereqs, list):
            raise DocumentError("`prerequisites` must be an array",
                                field=f"{field}.prerequisites")
        tasks.append(Task(
            *[_at(f"{field}.{key}", parse, row[key])
              for key, parse in _TASK_FIELDS.items()],
            frozenset(_at(f"{field}.prerequisites", _require_str, p)
                      for p in prereqs),
        ))

    raw_groups = data.get("variant_groups", [])
    if not isinstance(raw_groups, list):
        raise DocumentError("`variant_groups` must be an array",
                            field="variant_groups")
    groups: list[VariantGroup] = []
    for i, row in enumerate(raw_groups):
        field = f"variant_groups[{i}]"
        if not isinstance(row, dict):
            raise DocumentError("variant group entry must be an object",
                                field=field)
        _check_keys(row, {"code", "members"}, where=field)
        members = row.get("members")
        if not isinstance(members, list) or not members:
            raise DocumentError("`members` must be a non-empty array",
                                field=f"{field}.members")
        groups.append(VariantGroup(
            code=_at(f"{field}.code", _require_code, row.get("code")),
            members=frozenset(_at(f"{field}.members", _require_str, m)
                              for m in members),
        ))

    workflow = _at(None, lambda parts: Workflow.from_tasks(*parts),
                   (tasks, groups))

    known: dict[str, Ordering] = {}
    raw_known = data.get("known_orderings", {})
    if not isinstance(raw_known, dict):
        raise DocumentError("`known_orderings` must be an object",
                            field="known_orderings")
    for name, codes in raw_known.items():
        field = f"known_orderings.{name}"
        if not isinstance(codes, list):
            raise DocumentError("ordering must be an array of codes",
                                field=field)
        ordering = tuple(_at(field, _require_str, code) for code in codes)
        for code in ordering:
            if code not in workflow.tasks:
                raise DocumentError(f"ordering names unknown task {code!r}",
                                    field=field)
        known[name] = ordering
    return WorkflowDocument(workflow=workflow, known_orderings=known)


def load_document(path: Path | str) -> WorkflowDocument:
    return _load(path, parse_workflow_document)


def parse_cost_model_document(data) -> CostModel:
    if not isinstance(data, dict):
        raise DocumentError("top level must be a JSON object")
    _check_keys(
        data, {"matrix", "rules", "recent_practice_scope", "rules_enabled"})

    kwargs: dict = {}
    if "matrix" in data:
        raw = data["matrix"]
        if not (isinstance(raw, list) and len(raw) == 5
                and all(isinstance(r, list) and len(r) == 5 for r in raw)):
            raise DocumentError("`matrix` must be 5 rows of 5 values",
                                field="matrix")
        kwargs["matrix"] = tuple(
            tuple(_at("matrix", to_thousandths, cell) for cell in row)
            for row in raw
        )

    if "rules" in data:
        raw = data["rules"]
        if not isinstance(raw, dict):
            raise DocumentError("`rules` must be an object of {rule: cost}",
                                field="rules")
        costs = dict(DEFAULT_RULE_COSTS)
        labels: dict[Rule, str] = {}
        for label, value in raw.items():
            field = f"rules.{label}"
            rule = _at(field, Rule.parse, label)
            if rule in labels:
                raise DocumentError(
                    f"labels {labels[rule]!r} and {label!r} both name rule "
                    f"{rule.value}", field=field)
            labels[rule] = label
            if value is None:
                costs.pop(rule, None)  # null withholds the rule outright
                continue
            costs[rule] = _at(field, to_thousandths, value)
        kwargs["rules"] = costs

    if "recent_practice_scope" in data:
        kwargs["recent_practice_scope"] = _at(
            "recent_practice_scope",
            lambda label: Scope.parse(_require_str(label)),
            data["recent_practice_scope"])

    if "rules_enabled" in data:
        if not isinstance(data["rules_enabled"], bool):
            raise DocumentError("`rules_enabled` must be true or false",
                                field="rules_enabled")
        if not data["rules_enabled"]:
            # Withholds every rule, whatever `rules` lists.
            kwargs["rules"] = {}

    return _at(None, lambda fields: CostModel(**fields), kwargs)


def load_cost_model(path: Path | str) -> CostModel:
    """Load a cost-model file.

    An empty document ({}) yields the full published model: omitted fields
    default to the literal matrix and rule tables.
    """
    # Effect sizes are read as written: a float would round 1e-400 to 0.
    return _load(path, parse_cost_model_document, _exact)


FIXTURES = ("checkin-full.json", "checkin-validation.json")


def fixture_text(name: str) -> str:
    # Imported here: from Python 3.12 it loads inspect, which only the
    # commands that read a bundled fixture need.
    from importlib import resources

    base = resources.files("cogseq").joinpath("fixtures")
    candidate = base.joinpath(name)
    if not candidate.is_file():
        raise DocumentError(
            f"no bundled fixture {name!r} (available: {', '.join(FIXTURES)})"
        )
    return candidate.read_text(encoding="utf-8")


def load_fixture(name: str) -> WorkflowDocument:
    data = json.loads(fixture_text(name))
    return parse_workflow_document(data)


def resolve_workflow_path(spec: str) -> WorkflowDocument:
    """Load a workflow from a filesystem path, falling back to fixture names."""
    # os.path.exists, not Path.exists: it is False, never an error, for a
    # name the system refuses (too long, a NUL), which then ends below.
    if os.path.exists(spec):
        return load_document(spec)
    name = spec if spec.endswith(".json") else spec + ".json"
    if name in FIXTURES:
        return load_fixture(name)
    raise DocumentError(
        f"no such file {spec!r}, and no bundled fixture of that name "
        f"(bundled: {', '.join(FIXTURES)})"
    )


def parse_ordering_text(text: str) -> Ordering:
    """Split an ordering given as comma- and/or whitespace-separated codes."""
    codes = [c for chunk in text.split(",") for c in chunk.split()]
    return tuple(codes)


def read_orderings_file(path: Path | str) -> list[Ordering]:
    """One ordering per line; '#' starts a comment; blank lines skipped."""
    orderings = []
    for line in _read_text(Path(path)).splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            orderings.append(parse_ordering_text(line))
    return orderings


def export_dot(workflow: Workflow) -> str:
    """Precedence DAG in DOT form, one edge per prerequisite entry.

    Edges are emitted exactly as written (no transitive reduction).  Variant
    groups appear as dashed boxes whose label lists the members; prerequisite
    edges may point at a group node.  Backslashes and double quotes in codes
    and names are escaped, so every quoted ID and label ends where it should,
    and a character that cannot be printed is written as ``repr`` does.
    """
    lines = ["digraph workflow {", "  rankdir=LR;"]
    for code in workflow.codes():
        task = workflow.tasks[code]
        node = _dot_escape(code)
        label = f"{node}\\n{_dot_escape(task.name)}" if task.name else node
        lines.append(f'  "{node}" [label="{label}"];')
    for grp in workflow.variant_groups:
        node = _dot_escape(grp.code)
        members = _dot_escape(", ".join(sorted(grp.members)))
        lines.append(
            f'  "{node}" [shape=box, style=dashed, '
            f'label="{node}\\none of: {members}"];'
        )
    for pre, dependent in workflow.precedence_edges():
        lines.append(f'  "{_dot_escape(pre)}" -> "{_dot_escape(dependent)}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _dot_escape(text: str) -> str:
    """``text`` inside a DOT double-quoted string, on one printable line."""
    return _printable(text.replace("\\", "\\\\").replace('"', '\\"'))


def render_cost_model(model: CostModel) -> str:
    """Human-readable summary of a cost model's configuration."""
    lines = ["resource-transition matrix (from row to column):"]
    names = [r.value for r in Resource]
    lines.append(" " * 6 + " ".join(f"{n:>6}" for n in names))
    for i, name in enumerate(names):
        cells = " ".join(
            f"{render_effect(model.matrix[i][j]):>6}" for j in range(5)
        )
        lines.append(f"{name:>6} {cells}")
    active = model.active_rule_costs()
    lines.append("rules: " + ("enabled" if active else "disabled"))
    for rule, cost in active.items():
        lines.append(f"  {rule.value}: {render_effect(cost)}")
    lines.append(f"recent-practice scope: {model.recent_practice_scope.value}")
    return "\n".join(lines)
