"""Command-line interface.

``main(argv)`` is the entry point: it writes to ``sys.stdout`` and
``sys.stderr`` and returns the exit status, 0 success, 1 domain error (bad
workflow, infeasible ordering, malformed document; an ``error:`` line on
stderr), 2 usage error (a usage line and the error on stderr).  The parser
is the standard library's ``argparse``.  Machine-readable output reports
totals both as integer thousandths and as rendered decimals, and carries no
timing or search counters, so identical requests produce byte-identical
output.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

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
from .solver import Objective, SolveRequest, compare_variants, solve


class _HelpFormatter(argparse.HelpFormatter):
    """Help wrapped at 80 columns whatever the terminal's width, so that
    ``--help`` prints the same bytes in a terminal and in a pipe."""

    def __init__(self, prog: str):
        super().__init__(prog, width=80)


class _VariantAction(argparse.Action):
    """``--variant GROUP=MEMBER``, repeatable: collects ``(group, member)``
    pairs in order.  A malformed value or a group given twice is a usage
    error."""

    def __call__(self, parser, namespace, value, option_string=None):
        group, sep, member = value.partition("=")
        group, member = group.strip(), member.strip()
        if not sep or not group or not member:
            raise argparse.ArgumentError(
                self, f"expected GROUP=MEMBER, got {value!r}")
        variants = getattr(namespace, self.dest)
        if any(group == seen for seen, _ in variants):
            raise argparse.ArgumentError(
                self, f"variant group {group!r} given twice")
        setattr(namespace, self.dest, (*variants, (group, member)))


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a valid integer") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"{value} is not in the range x>=1")
    return value


def _load_model(spec: str | None) -> CostModel:
    if spec is None or spec == "calibrated":
        return CostModel.calibrated()
    if spec == "literal":
        return CostModel()
    return load_cost_model(spec)


def _resolved(args):
    """The document that WORKFLOW names, and its workflow with every
    ``--variant`` applied."""
    document = resolve_workflow_path(args.workflow)
    workflow = document.workflow
    for group, member in args.variants:
        workflow = instantiate_variant(workflow, group, member)
    return document, workflow


def _require_concrete_cli(workflow) -> None:
    if not workflow.is_concrete:
        groups = ", ".join(g.code for g in workflow.variant_groups)
        raise WorkflowError(
            f"workflow has unresolved variant groups: {groups}; pick members "
            f"with --variant GROUP=MEMBER or run compare-variants"
        )


def _effect(name: str, thousandths: int) -> dict:
    """An effect size as JSON: ``NAME_thousandths``, then ``NAME`` rendered."""
    return {f"{name}_thousandths": thousandths,
            name: render_effect(thousandths)}


def _transition_json(breakdown) -> dict:
    return {
        "from": breakdown.previous,
        "to": breakdown.current,
        **_effect("resource_cost", breakdown.resource_cost),
        "rules": [{"rule": rule.value, **_effect("cost", cost)}
                  for rule, cost in breakdown.fired],
        **_effect("total", breakdown.total),
    }


def _priced_json(ordering, total: int, breakdowns) -> dict:
    return {
        "ordering": list(ordering),
        **_effect("total", total),
        "transitions": [_transition_json(b) for b in breakdowns],
    }


def _echo(*lines: str) -> None:
    """Write ``lines`` to stdout, each ending in a newline, in one write: a
    reader that closes the pipe early then meets no later, partial write."""
    sys.stdout.write("".join(f"{line}\n" for line in lines))


def _echo_json(payload) -> None:
    _echo(json.dumps(payload, indent=2))


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


# Each command takes the parsed arguments and returns its exit status, or
# None for 0.

def _validate(args) -> int | None:
    workflow = resolve_workflow_path(args.workflow).workflow
    report = validate_workflow(workflow)
    if not report.ok:
        _echo(report.summary())
        return 1
    _echo(
        f"OK: {len(workflow.tasks)} tasks, "
        f"{len(workflow.variant_groups)} variant groups, "
        f"{len(workflow.precedence_edges())} precedence edges"
    )
    return None


def _solve(args) -> None:
    _, workflow = _resolved(args)
    _require_concrete_cli(workflow)
    model = _load_model(args.cost_model)
    request = SolveRequest(
        workflow=workflow, model=model,
        objective=Objective.parse(args.objective), k=args.k,
    )
    solutions = solve(request)
    if args.format == "json":
        _echo_json({
            "objective": request.objective.value,
            "k": args.k,
            "solutions": [
                {"rank": rank,
                 **_priced_json(s.ordering, s.total, s.breakdowns)}
                for rank, s in enumerate(solutions, start=1)
            ],
        })
        return
    _echo(f"objective: {request.objective.value}   solutions: "
          f"{len(solutions)}",
          *(f"{i:>4}  {render_effect(solution.total):>8}  "
            + " ".join(solution.ordering)
            for i, solution in enumerate(solutions, start=1)))


def _compare_variants(args) -> None:
    _, workflow = _resolved(args)
    model = _load_model(args.cost_model)
    comparisons = compare_variants(workflow, model)
    if args.format == "json":
        _echo_json({
            "comparisons": [
                {
                    "group": comp.group,
                    **_effect("delta", comp.delta),
                    "rows": [
                        {"member": row.member,
                         **_effect("total", row.solution.total),
                         "ordering": list(row.solution.ordering)}
                        for row in comp.rows
                    ],
                }
                for comp in comparisons
            ],
        })
        return
    lines = []
    for comp in comparisons:
        lines.append(f"group {comp.group}:")
        for row in comp.rows:
            lines.append(
                f"  {row.member:>8} {render_effect(row.solution.total):>8}  "
                + " ".join(row.solution.ordering))
        lines.append(
            f"  delta (dearest - cheapest): {render_effect(comp.delta)}")
    _echo(*lines)


def _explain(args) -> None:
    document, workflow = _resolved(args)
    _require_concrete_cli(workflow)
    model = _load_model(args.cost_model)
    if args.ordering in document.known_orderings:
        codes = document.known_orderings[args.ordering]
    else:
        codes = parse_ordering_text(args.ordering)
    total, breakdowns = sequence_cost(codes, workflow, model)
    if args.format == "json":
        _echo_json(_priced_json(codes, total, breakdowns))
        return
    _echo("ordering: " + " ".join(codes), *_transition_table(breakdowns),
          f"total: {render_effect(total)}")


def _distance(args) -> None:
    # Imported on use: only distance and consensus need analysis.
    from .analysis import ordering_distance

    a = parse_ordering_text(args.a)
    b = parse_ordering_text(args.b)
    _echo(f"{ordering_distance(a, b):.4f}")


def _consensus(args) -> None:
    from .analysis import consensus_ordering

    orderings = read_orderings_file(args.file)
    _echo(", ".join(consensus_ordering(orderings)))


def _export_dot(args) -> None:
    sys.stdout.write(export_dot(_resolved(args)[1]))


def _show_model(args) -> None:
    _echo(render_cost_model(_load_model(args.cost_model)))


def _parser() -> argparse.ArgumentParser:
    """The ``cogseq`` parser.  The arguments that several commands share are
    built once, as parent parsers."""
    workflow = argparse.ArgumentParser(add_help=False)
    workflow.add_argument(
        "workflow", metavar="WORKFLOW",
        help="a JSON file path or the name of a bundled fixture "
             "(checkin-full, checkin-validation)")
    variant = argparse.ArgumentParser(add_help=False)
    variant.add_argument(
        "--variant", dest="variants", action=_VariantAction, default=(),
        metavar="GROUP=MEMBER",
        help="resolve a variant group to one member (repeatable)")
    cost_model = argparse.ArgumentParser(add_help=False)
    cost_model.add_argument(
        "--cost-model", metavar="FILE",
        help="cost-model file, or the names 'calibrated' (default) and "
             "'literal' for the built-in configurations")
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--format", choices=("table", "json"),
                        default="table",
                        help="output format (default: %(default)s)")

    parser = argparse.ArgumentParser(
        prog="cogseq", allow_abbrev=False, formatter_class=_HelpFormatter,
        description="Minimum cognitive-cost orderings for partially ordered "
                    "workflows.")
    commands = parser.add_subparsers(dest="command", metavar="COMMAND",
                                     required=True)

    def command(run, name: str, summary: str, *parents):
        sub = commands.add_parser(
            name, parents=parents, help=summary, description=summary,
            allow_abbrev=False, formatter_class=_HelpFormatter)
        sub.set_defaults(run=run)
        return sub

    command(_validate, "validate",
            "Check a workflow document's structural invariants.", workflow)
    sub = command(_solve, "solve",
                  "Find the k extremal task orderings of a workflow.",
                  workflow, variant, cost_model, output)
    sub.add_argument("--objective", choices=("min", "max"), default="min",
                     help="minimize or maximize total cost "
                          "(default: %(default)s)")
    sub.add_argument("--k", type=_positive_int, default=1,
                     help="number of best solutions to report "
                          "(default: %(default)s)")
    command(_compare_variants, "compare-variants",
            "Solve per variant-group member and rank the members by optimal "
            "cost.", workflow, variant, cost_model, output)
    sub = command(_explain, "explain",
                  "Price one ordering and show every transition's cost "
                  "terms.", workflow, variant, cost_model, output)
    sub.add_argument("--ordering", required=True, metavar="CODES",
                     help="comma- or space-separated task codes, or the "
                          "name of a known ordering from the workflow file")
    sub = command(_distance, "distance",
                  "Euclidean distance between two orderings of the same "
                  "tasks.")
    sub.add_argument("--a", required=True, metavar="CODES")
    sub.add_argument("--b", required=True, metavar="CODES")
    sub = command(_consensus, "consensus",
                  "Least-squares consensus of a file of orderings: the tasks "
                  "sorted by summed position, then by code.")
    sub.add_argument("file", metavar="FILE",
                     help="one ordering per line, # comments allowed")
    command(_export_dot, "export-dot",
            "Emit the precedence DAG as DOT text (one edge per "
            "prerequisite).", workflow, variant)
    command(_show_model, "show-model",
            "Print the active cost-model configuration.", cost_model)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run the command line on ``argv`` (default ``sys.argv[1:]``) and return
    its exit status; output goes to ``sys.stdout`` and ``sys.stderr``."""
    try:
        try:
            args = _parser().parse_args(argv)
        except SystemExit as exc:  # argparse: --help (0) or a usage error (2)
            status = exc.code
        else:
            status = args.run(args) or 0
        sys.stdout.flush()
    except CogseqError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        sys.stderr.write("\nAborted!\n")
        return 1
    except BrokenPipeError:
        # The reader closed stdout: end quietly.  The interpreter flushes
        # stdout again on exit, so it is pointed at the null device first.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return status


class _ClickShim:
    """Stands in for the click group that ``cli`` used to be.  It serves only
    ``perfbench/run.py`` ``cli_layers``, which runs it through
    ``click.testing.CliRunner`` and reads nothing but ``name`` and
    ``main(args=..., prog_name=...)``; it goes with ROADMAP item 1, which
    drives that layer through :func:`main` instead."""

    name = "cogseq"

    def main(self, args=(), prog_name=None, **_):
        sys.exit(main(list(args)))


cli = _ClickShim()


if __name__ == "__main__":
    sys.exit(main())
