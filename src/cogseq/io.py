"""Workflow and cost-model JSON documents, bundled fixtures, and DOT export.

Documents are UTF-8 JSON.  A workflow document carries `tasks`,
`variant_groups`, and optional `known_orderings` (named reference orderings,
e.g. published study sequences).  A cost-model document may override the
matrix, individual rule costs (null withholds a rule), and the
recent-practice scope, and ``"rules_enabled": false`` withholds every rule;
omitted fields keep the published defaults.  An unknown key anywhere is a
:class:`DocumentError`, and so is every other malformed field.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .costs import (
    CostModel,
    DEFAULT_RULE_COSTS,
    Rule,
    Scope,
    TransitionRule,
    render_effect,
    to_thousandths,
)
from .errors import CogseqError, DocumentError
from .model import (
    Ordering,
    Resource,
    Task,
    VariantGroup,
    Workflow,
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


def parse_resource(label: str, *, path=None, field=None) -> Resource:
    """Accept the short code or the descriptive label (shorthand included)."""
    try:
        return RESOURCE_ALIASES[label.strip().lower()]
    except (KeyError, AttributeError):
        raise DocumentError(
            f"unknown resource {label!r} (expected one of "
            + ", ".join(r.value for r in Resource) + " or their full names)",
            path=path, field=field,
        ) from None


def _parse_voluntary(value, *, path=None, field=None) -> bool:
    if isinstance(value, bool):
        return value
    if isinstance(value, str):
        folded = value.strip().lower()
        if folded in ("yes", "true"):
            return True
        if folded in ("no", "false"):
            return False
    raise DocumentError(
        f"voluntary must be yes/no or true/false, got {value!r}",
        path=path, field=field,
    )


def _require_int(value, *, path=None, field=None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise DocumentError(f"expected an integer, got {value!r}",
                            path=path, field=field)
    return value


def _require_str(value, *, path=None, field=None) -> str:
    if not isinstance(value, str):
        raise DocumentError(f"expected a string, got {value!r}",
                            path=path, field=field)
    return value


def _require_code(value, *, path=None, field=None) -> str:
    code = _require_str(value, path=path, field=field)
    if not code.strip():
        raise DocumentError("code must be non-empty", path=path, field=field)
    return code


def _check_keys(obj: Mapping, allowed: set[str], *,
                path=None, where: str = "document") -> None:
    unknown = sorted(set(obj) - allowed)
    if unknown:
        raise DocumentError(
            f"unknown keys in {where}: " + ", ".join(unknown), path=path)


@dataclass(frozen=True)
class WorkflowDocument:
    """A parsed workflow file: the workflow plus any named reference orderings."""

    workflow: Workflow
    known_orderings: Mapping[str, Ordering]
    source: Path | None = None


def _read_json(path: Path | str):
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise DocumentError(str(exc), path=path) from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(
            f"malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}",
            path=path,
        ) from None
    except ValueError as exc:  # an integer literal too long to convert
        raise DocumentError(f"unreadable JSON: {exc}", path=path) from None


def parse_workflow_document(data, *,
                            path: Path | None = None) -> WorkflowDocument:
    if not isinstance(data, dict):
        raise DocumentError("top level must be a JSON object", path=path)
    _check_keys(data, {"tasks", "variant_groups", "known_orderings"},
                path=path)
    raw_tasks = data.get("tasks")
    if not isinstance(raw_tasks, list):
        raise DocumentError("`tasks` must be an array", path=path, field="tasks")

    task_keys = {"code", "name", "resource", "modality", "voluntary",
                 "familiarity", "complexity", "prerequisites"}
    tasks: list[Task] = []
    for i, row in enumerate(raw_tasks):
        field = f"tasks[{i}]"
        if not isinstance(row, dict):
            raise DocumentError("task entry must be an object",
                                path=path, field=field)
        _check_keys(row, task_keys, path=path, where=field)
        missing = sorted(task_keys - {"prerequisites"} - set(row))
        if missing:
            raise DocumentError("missing keys: " + ", ".join(missing),
                                path=path, field=field)
        prereqs = row.get("prerequisites", [])
        if not isinstance(prereqs, list):
            raise DocumentError("`prerequisites` must be an array",
                                path=path, field=f"{field}.prerequisites")
        tasks.append(Task(
            code=_require_code(row["code"], path=path, field=f"{field}.code"),
            name=_require_str(row["name"], path=path, field=f"{field}.name"),
            resource=parse_resource(row["resource"],
                                    path=path, field=f"{field}.resource"),
            modality=_require_str(row["modality"],
                                  path=path, field=f"{field}.modality"),
            voluntary=_parse_voluntary(row["voluntary"],
                                       path=path, field=f"{field}.voluntary"),
            familiarity=_require_int(row["familiarity"],
                                     path=path, field=f"{field}.familiarity"),
            complexity=_require_int(row["complexity"],
                                    path=path, field=f"{field}.complexity"),
            prerequisites=frozenset(
                _require_str(p, path=path, field=f"{field}.prerequisites")
                for p in prereqs
            ),
        ))

    raw_groups = data.get("variant_groups", [])
    if not isinstance(raw_groups, list):
        raise DocumentError("`variant_groups` must be an array",
                            path=path, field="variant_groups")
    groups: list[VariantGroup] = []
    for i, row in enumerate(raw_groups):
        field = f"variant_groups[{i}]"
        if not isinstance(row, dict):
            raise DocumentError("variant group entry must be an object",
                                path=path, field=field)
        _check_keys(row, {"code", "members"}, path=path, where=field)
        members = row.get("members")
        if not isinstance(members, list) or not members:
            raise DocumentError("`members` must be a non-empty array",
                                path=path, field=f"{field}.members")
        groups.append(VariantGroup(
            code=_require_code(row.get("code"), path=path,
                               field=f"{field}.code"),
            members=frozenset(
                _require_str(m, path=path, field=f"{field}.members")
                for m in members
            ),
        ))

    try:
        workflow = Workflow.from_tasks(tasks, groups)
    except CogseqError as exc:
        raise DocumentError(str(exc), path=path) from None

    known: dict[str, Ordering] = {}
    raw_known = data.get("known_orderings", {})
    if not isinstance(raw_known, dict):
        raise DocumentError("`known_orderings` must be an object",
                            path=path, field="known_orderings")
    for name, codes in raw_known.items():
        field = f"known_orderings.{name}"
        if not isinstance(codes, list):
            raise DocumentError("ordering must be an array of codes",
                                path=path, field=field)
        ordering = tuple(
            _require_str(code, path=path, field=field) for code in codes
        )
        for code in ordering:
            if code not in workflow.tasks:
                raise DocumentError(f"ordering names unknown task {code!r}",
                                    path=path, field=field)
        known[name] = ordering
    return WorkflowDocument(workflow=workflow, known_orderings=known,
                            source=path)


def load_document(path: Path | str) -> WorkflowDocument:
    return parse_workflow_document(_read_json(path), path=Path(path))


def load_workflow(path: Path | str) -> Workflow:
    return load_document(path).workflow


def document_to_dict(document: WorkflowDocument) -> dict:
    """Canonical JSON form: tasks by ascending code, normalized labels."""
    workflow = document.workflow
    tasks = []
    for code in workflow.codes():
        task = workflow.tasks[code]
        tasks.append({
            "code": task.code,
            "name": task.name,
            "resource": task.resource.value,
            "modality": task.modality,
            "voluntary": task.voluntary,
            "familiarity": task.familiarity,
            "complexity": task.complexity,
            "prerequisites": sorted(task.prerequisites),
        })
    out: dict = {"tasks": tasks}
    if workflow.variant_groups:
        out["variant_groups"] = [
            {"code": grp.code, "members": sorted(grp.members)}
            for grp in workflow.variant_groups
        ]
    if document.known_orderings:
        out["known_orderings"] = {
            name: list(ordering)
            for name, ordering in document.known_orderings.items()
        }
    return out


def save_document(document: WorkflowDocument, path: Path | str) -> None:
    Path(path).write_text(
        json.dumps(document_to_dict(document), indent=2) + "\n",
        encoding="utf-8",
    )


def parse_cost_model_document(data, *,
                              path: Path | None = None) -> CostModel:
    if not isinstance(data, dict):
        raise DocumentError("top level must be a JSON object", path=path)
    _check_keys(
        data,
        {"matrix", "rules", "recent_practice_scope", "rules_enabled"},
        path=path,
    )

    kwargs: dict = {}
    if "matrix" in data:
        raw = data["matrix"]
        if (isinstance(raw, list) and len(raw) == 25
                and not any(isinstance(x, list) for x in raw)):
            raw = [raw[i * 5:(i + 1) * 5] for i in range(5)]
        if not (isinstance(raw, list) and len(raw) == 5
                and all(isinstance(r, list) and len(r) == 5 for r in raw)):
            raise DocumentError(
                "`matrix` must be 5 rows of 5 values (or a flat list of 25)",
                path=path, field="matrix",
            )
        try:
            kwargs["matrix"] = tuple(
                tuple(to_thousandths(cell) for cell in row) for row in raw
            )
        except CogseqError as exc:
            raise DocumentError(str(exc), path=path, field="matrix") from None

    if "rules" in data:
        raw = data["rules"]
        if not isinstance(raw, dict):
            raise DocumentError("`rules` must be an object of {rule: cost}",
                                path=path, field="rules")
        costs = dict(DEFAULT_RULE_COSTS)
        for label, value in raw.items():
            field = f"rules.{label}"
            try:
                rule = Rule.parse(label)
            except CogseqError as exc:
                raise DocumentError(str(exc), path=path, field=field) from None
            if value is None:
                costs.pop(rule, None)  # null withholds the rule outright
                continue
            try:
                costs[rule] = to_thousandths(value)
            except CogseqError as exc:
                raise DocumentError(str(exc), path=path, field=field) from None
        kwargs["rules"] = frozenset(
            TransitionRule(rule, cost) for rule, cost in costs.items()
        )

    if "recent_practice_scope" in data:
        label = _require_str(data["recent_practice_scope"], path=path,
                             field="recent_practice_scope")
        try:
            kwargs["recent_practice_scope"] = Scope.parse(label)
        except CogseqError as exc:
            raise DocumentError(str(exc), path=path,
                                field="recent_practice_scope") from None

    if "rules_enabled" in data:
        if not isinstance(data["rules_enabled"], bool):
            raise DocumentError("`rules_enabled` must be true or false",
                                path=path, field="rules_enabled")
        if not data["rules_enabled"]:
            # Withholds every rule, whatever `rules` lists.
            kwargs["rules"] = frozenset()

    try:
        return CostModel(**kwargs)
    except CogseqError as exc:
        raise DocumentError(str(exc), path=path) from None


def load_cost_model(path: Path | str) -> CostModel:
    """Load a cost-model file.

    An empty document ({}) yields the full published model: omitted fields
    default to the literal matrix and rule tables.
    """
    return parse_cost_model_document(_read_json(path), path=Path(path))


FIXTURES = ("checkin-full.json", "checkin-validation.json")


def fixture_text(name: str) -> str:
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
    path = Path(spec)
    if path.exists():
        return load_document(path)
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
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise DocumentError(str(exc), path=path) from None
    orderings = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            orderings.append(parse_ordering_text(line))
    return orderings


def export_dot(workflow: Workflow) -> str:
    """Precedence DAG in DOT form, one edge per prerequisite entry.

    Edges are emitted exactly as written (no transitive reduction).  Variant
    groups appear as dashed boxes whose label lists the members; prerequisite
    edges may point at a group node.
    """
    lines = ["digraph workflow {", "  rankdir=LR;"]
    for code in workflow.codes():
        task = workflow.tasks[code]
        label = f"{code}\\n{task.name}" if task.name else code
        lines.append(f'  "{code}" [label="{label}"];')
    for grp in workflow.variant_groups:
        members = ", ".join(sorted(grp.members))
        lines.append(
            f'  "{grp.code}" [shape=box, style=dashed, '
            f'label="{grp.code}\\none of: {members}"];'
        )
    for pre, dependent in workflow.precedence_edges():
        lines.append(f'  "{pre}" -> "{dependent}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


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
