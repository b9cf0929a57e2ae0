"""Command-line interface.

``main(argv)`` is the entry point: it writes to ``sys.stdout`` and
``sys.stderr`` and returns the exit status, 0 success, 1 domain error (bad
workflow, infeasible ordering, malformed document; an ``error:`` line on
stderr), 2 usage error.  Machine-readable output reports totals both as
integer thousandths and as rendered decimals, and carries no timing or search
counters, so identical requests produce byte-identical output.
"""

from __future__ import annotations

import json
import sys

import click

from .costs import CostModel, render_effect, sequence_cost
from .errors import CogseqError, WorkflowError
from .io import (
    export_dot,
    load_cost_model,
    parse_ordering_text,
    read_orderings_file,
    render_cost_model,
    resolve_workflow_path,
)
from .model import instantiate_variant, validate_workflow
from .solver import Objective, Solution, SolveRequest, compare_variants, solve


def _workflow_argument(f):
    return click.argument("workflow_file", metavar="WORKFLOW")(f)


def _variant_option(f):
    return click.option(
        "--variant", "variants", multiple=True, metavar="GROUP=MEMBER",
        help="Resolve a variant group to one member (repeatable).",
    )(f)


def _cost_model_option(f):
    return click.option(
        "--cost-model", "cost_model_spec", metavar="FILE",
        help="Cost-model file, or the names 'calibrated' (default) and "
             "'literal' for the built-in configurations.",
    )(f)


def _format_option(f):
    return click.option(
        "--format", "fmt", type=click.Choice(["table", "json"]),
        default="table", show_default=True, help="Output format.",
    )(f)


def _load_model(spec: str | None) -> CostModel:
    if spec is None or spec == "calibrated":
        return CostModel.calibrated()
    if spec == "literal":
        return CostModel()
    return load_cost_model(spec)


def _apply_variants(document, variants):
    workflow = document.workflow
    resolved: set[str] = set()
    for spec in variants:
        group, sep, member = spec.partition("=")
        group, member = group.strip(), member.strip()
        if not sep or not group or not member:
            raise click.BadParameter("expected GROUP=MEMBER",
                                     param_hint="--variant")
        if group in resolved:
            raise click.BadParameter(f"variant group {group!r} given twice",
                                     param_hint="--variant")
        resolved.add(group)
        workflow = instantiate_variant(workflow, group, member)
    return workflow


def _require_concrete_cli(workflow) -> None:
    if not workflow.is_concrete:
        groups = ", ".join(g.code for g in workflow.variant_groups)
        raise WorkflowError(
            f"workflow has unresolved variant groups: {groups}; pick members "
            f"with --variant GROUP=MEMBER or run compare-variants"
        )


def _transition_json(breakdown) -> dict:
    return {
        "from": breakdown.previous,
        "to": breakdown.current,
        "resource_cost_thousandths": breakdown.resource_cost,
        "resource_cost": render_effect(breakdown.resource_cost),
        "rules": [
            {
                "rule": rule.value,
                "cost_thousandths": cost,
                "cost": render_effect(cost),
            }
            for rule, cost in breakdown.fired
        ],
        "total_thousandths": breakdown.total,
        "total": render_effect(breakdown.total),
    }


def _solution_json(solution: Solution, rank: int) -> dict:
    return {
        "rank": rank,
        "ordering": list(solution.ordering),
        "total_thousandths": solution.total,
        "total": render_effect(solution.total),
        "transitions": [_transition_json(b) for b in solution.breakdowns],
    }


def _echo_json(payload) -> None:
    click.echo(json.dumps(payload, indent=2))


def _transition_table(breakdowns) -> list[str]:
    lines = [f"{'from':>6} {'to':>6} {'resource':>9} {'step':>7} "
             f"{'running':>8}  rules"]
    running = 0
    for breakdown in breakdowns:
        running += breakdown.total
        fired = "+".join(rule.value for rule, _ in breakdown.fired) or "-"
        lines.append(
            f"{breakdown.previous:>6} {breakdown.current:>6} "
            f"{render_effect(breakdown.resource_cost):>9} "
            f"{render_effect(breakdown.total):>7} "
            f"{render_effect(running):>8}  {fired}"
        )
    return lines


@click.group()
def cli() -> None:
    """Minimum cognitive-cost orderings for partially ordered workflows.

    WORKFLOW arguments take a JSON file path or the name of a bundled
    fixture (checkin-full, checkin-validation).
    """


@cli.command()
@_workflow_argument
def validate(workflow_file: str) -> None:
    """Check a workflow document's structural invariants."""
    document = resolve_workflow_path(workflow_file)
    report = validate_workflow(document.workflow)
    if not report.ok:
        for violation in report:
            click.echo(f"[{violation.kind}] {violation.message}")
        sys.exit(1)
    workflow = document.workflow
    click.echo(
        f"OK: {len(workflow.tasks)} tasks, "
        f"{len(workflow.variant_groups)} variant groups, "
        f"{len(workflow.precedence_edges())} precedence edges"
    )


@cli.command(name="solve")
@_workflow_argument
@_variant_option
@click.option("--objective", type=click.Choice(["min", "max"]), default="min",
              show_default=True, help="Minimize or maximize total cost.")
@click.option("--k", type=click.IntRange(min=1), default=1, show_default=True,
              help="Number of best solutions to report.")
@_cost_model_option
@_format_option
def solve_cmd(workflow_file: str, variants, objective: str, k: int,
              cost_model_spec, fmt: str) -> None:
    """Find the k extremal task orderings of a workflow."""
    document = resolve_workflow_path(workflow_file)
    workflow = _apply_variants(document, variants)
    _require_concrete_cli(workflow)
    model = _load_model(cost_model_spec)
    request = SolveRequest(
        workflow=workflow, model=model,
        objective=Objective.parse(objective), k=k,
    )
    solutions = solve(request)
    if fmt == "json":
        _echo_json({
            "objective": request.objective.value,
            "k": k,
            "solutions": [
                _solution_json(s, i + 1) for i, s in enumerate(solutions)
            ],
        })
        return
    click.echo(f"objective: {request.objective.value}   solutions: "
               f"{len(solutions)}")
    for i, solution in enumerate(solutions, start=1):
        click.echo(f"{i:>4}  {render_effect(solution.total):>8}  "
                   + " ".join(solution.ordering))


@cli.command(name="compare-variants")
@_workflow_argument
@_variant_option
@_cost_model_option
@_format_option
def compare_variants_cmd(workflow_file: str, variants, cost_model_spec,
                         fmt: str) -> None:
    """Solve per variant-group member and rank the members by optimal cost."""
    document = resolve_workflow_path(workflow_file)
    workflow = _apply_variants(document, variants)
    model = _load_model(cost_model_spec)
    comparisons = compare_variants(workflow, model)
    if fmt == "json":
        _echo_json({
            "comparisons": [
                {
                    "group": comp.group,
                    "delta_thousandths": comp.delta,
                    "delta": render_effect(comp.delta),
                    "rows": [
                        {
                            "member": row.member,
                            "total_thousandths": row.solution.total,
                            "total": render_effect(row.solution.total),
                            "ordering": list(row.solution.ordering),
                        }
                        for row in comp.rows
                    ],
                }
                for comp in comparisons
            ],
        })
        return
    for comp in comparisons:
        click.echo(f"group {comp.group}:")
        for row in comp.rows:
            click.echo(f"  {row.member:>8} {render_effect(row.solution.total):>8}  "
                       + " ".join(row.solution.ordering))
        click.echo(f"  delta (dearest - cheapest): {render_effect(comp.delta)}")


@cli.command()
@_workflow_argument
@click.option("--ordering", required=True, metavar="CODES",
              help="Comma- or space-separated task codes, or the name of a "
                   "known ordering from the workflow file.")
@_variant_option
@_cost_model_option
@_format_option
def explain(workflow_file: str, ordering: str, variants, cost_model_spec,
            fmt: str) -> None:
    """Price one ordering and show every transition's cost terms."""
    document = resolve_workflow_path(workflow_file)
    workflow = _apply_variants(document, variants)
    _require_concrete_cli(workflow)
    model = _load_model(cost_model_spec)
    if ordering in document.known_orderings:
        codes = document.known_orderings[ordering]
    else:
        codes = parse_ordering_text(ordering)
    total, breakdowns = sequence_cost(codes, workflow, model)
    if fmt == "json":
        _echo_json({
            "ordering": list(codes),
            "total_thousandths": total,
            "total": render_effect(total),
            "transitions": [_transition_json(b) for b in breakdowns],
        })
        return
    click.echo("ordering: " + " ".join(codes))
    for line in _transition_table(breakdowns):
        click.echo(line)
    click.echo(f"total: {render_effect(total)}")


@cli.command()
@click.option("--a", "a_text", required=True, metavar="CODES")
@click.option("--b", "b_text", required=True, metavar="CODES")
def distance(a_text: str, b_text: str) -> None:
    """Euclidean distance between two orderings of the same tasks."""
    # Imported on use: only distance and consensus need analysis.
    from .analysis import ordering_distance

    a = parse_ordering_text(a_text)
    b = parse_ordering_text(b_text)
    click.echo(f"{ordering_distance(a, b):.4f}")


@cli.command()
@click.argument("orderings_file", metavar="FILE")
def consensus(orderings_file: str) -> None:
    """Least-squares consensus of a file of orderings.

    FILE holds one ordering per line, # comments allowed.  The consensus is
    the tasks sorted by summed position, then by code.
    """
    from .analysis import consensus_ordering

    orderings = read_orderings_file(orderings_file)
    result = consensus_ordering(orderings)
    click.echo(", ".join(result))


@cli.command(name="export-dot")
@_workflow_argument
@_variant_option
def export_dot_cmd(workflow_file: str, variants) -> None:
    """Emit the precedence DAG as DOT text (one edge per prerequisite)."""
    document = resolve_workflow_path(workflow_file)
    workflow = _apply_variants(document, variants)
    click.echo(export_dot(workflow), nl=False)


@cli.command(name="show-model")
@_cost_model_option
def show_model(cost_model_spec) -> None:
    """Print the active cost-model configuration."""
    click.echo(render_cost_model(_load_model(cost_model_spec)))


def main(argv: list[str] | None = None) -> int:
    """Run the command line on ``argv`` (default ``sys.argv[1:]``) and return
    its exit status; output goes to ``sys.stdout`` and ``sys.stderr``."""
    try:
        cli.main(argv, prog_name="cogseq")
    except CogseqError as exc:
        click.echo(f"error: {exc}", err=True)
        return 1
    except SystemExit as exc:  # click's standalone mode always ends here
        return exc.code or 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
