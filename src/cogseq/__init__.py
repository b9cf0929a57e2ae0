"""cogseq: minimum cognitive-cost orderings for partially ordered workflows.

Workflows are task sets with prerequisite edges and optional variant groups;
costs come from an empirically grounded task-switching model (a 5x5
cognitive-resource matrix plus five property-transition rules).  The solver
finds exact optima with a dynamic program over order ideals and one
best-first pass keyed by its exact cost-to-go; a brute-force oracle and a
WCSP encoding provide independent evaluation routes.
"""

from ._backend import KERNEL_NAME
from .costs import (
    DEFAULT_MATRIX,
    DEFAULT_RULE_COSTS,
    CostModel,
    Rule,
    Scope,
    TransitionBreakdown,
    fired_rules,
    pair_cost,
    render_effect,
    resource_switch_cost,
    sequence_cost,
    to_thousandths,
    transition_cost,
)
from .errors import (
    BudgetExceededError,
    CogseqError,
    CostModelError,
    DocumentError,
    OrderingError,
    WorkflowError,
)
from .io import (
    FIXTURES,
    WorkflowDocument,
    export_dot,
    fixture_text,
    load_cost_model,
    load_document,
    load_fixture,
    parse_cost_model_document,
    parse_ordering_text,
    parse_resource,
    parse_workflow_document,
    read_orderings_file,
    render_cost_model,
    resolve_workflow_path,
)
from .model import (
    Ordering,
    Resource,
    Task,
    ValidationReport,
    VariantGroup,
    Violation,
    Workflow,
    count_linear_extensions,
    enumerate_linear_extensions,
    instantiate_variant,
    is_linear_extension,
    validate_workflow,
)
from .solver import (
    Objective,
    SearchStats,
    Solution,
    SolveRequest,
    VariantComparison,
    VariantRow,
    brute_force,
    compare_variants,
    solve,
)

#: Names resolved on first access (PEP 562), by the module that defines
#: them: only the non-solve commands use these modules, so ``import cogseq``
#: does not load them.
_LAZY = {
    "consensus_ordering": "analysis",
    "ordering_distance": "analysis",
    "AllDifferent": "wcsp",
    "Assignment": "wcsp",
    "OrderPair": "wcsp",
    "WcspInstance": "wcsp",
    "assignment_to_ordering": "wcsp",
    "encode_workflow": "wcsp",
    "evaluate_assignment": "wcsp",
    "ordering_to_assignment": "wcsp",
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value


__version__ = "0.1.0"

__all__ = [
    "AllDifferent", "Assignment", "BudgetExceededError",
    "CogseqError", "CostModel", "CostModelError", "DEFAULT_MATRIX",
    "DEFAULT_RULE_COSTS", "DocumentError", "FIXTURES", "KERNEL_NAME",
    "Objective", "OrderPair", "Ordering", "OrderingError",
    "Resource", "Rule", "Scope", "SearchStats", "Solution", "SolveRequest",
    "Task", "TransitionBreakdown", "ValidationReport",
    "VariantComparison", "VariantGroup", "VariantRow", "Violation",
    "WcspInstance", "Workflow", "WorkflowDocument", "WorkflowError",
    "assignment_to_ordering", "brute_force", "compare_variants",
    "consensus_ordering", "count_linear_extensions", "encode_workflow",
    "enumerate_linear_extensions", "evaluate_assignment", "export_dot",
    "fired_rules", "fixture_text", "instantiate_variant",
    "is_linear_extension", "load_cost_model", "load_document",
    "load_fixture", "ordering_distance",
    "ordering_to_assignment", "pair_cost", "parse_cost_model_document",
    "parse_ordering_text", "parse_resource", "parse_workflow_document",
    "read_orderings_file", "render_cost_model", "render_effect",
    "resolve_workflow_path", "resource_switch_cost",
    "sequence_cost", "solve", "to_thousandths", "transition_cost",
    "validate_workflow",
]
