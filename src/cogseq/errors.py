"""Exception types shared across the package."""

from __future__ import annotations


class CogseqError(Exception):
    """Base class for domain errors (CLI maps these to exit code 1)."""


class WorkflowError(CogseqError):
    """Structural problem with a workflow or variant-group operation."""


class OrderingError(CogseqError):
    """An ordering is not a linear extension of the workflow it was paired with."""


class CostModelError(CogseqError):
    """Invalid cost-model data (matrix shape, rule ids, precision)."""


class DocumentError(CogseqError):
    """A workflow or cost-model document failed to parse or validate.

    Carries the offending file path and, where known, the field context.
    """

    def __init__(self, message: str, *, path: str | None = None, field: str | None = None):
        self.path = path
        self.field = field
        prefix = ""
        if path:
            prefix += f"{path}: "
        if field:
            prefix += f"{field}: "
        super().__init__(prefix + message)


class BudgetExceededError(CogseqError):
    """A search would exceed its budget.

    ``what`` names what was counted: the linear extensions that
    ``brute_force`` would price, the order ideals that the search builds, or
    the search steps that a request takes.  Steps belong to the request,
    since its k sets how many the search tries; the other counts belong to
    the workflow.
    """

    def __init__(self, count: int, budget: int,
                 what: str = "linear extensions"):
        self.count = count
        self.budget = budget
        self.what = what
        owner = ("request takes" if what == "search steps or more"
                 else "workflow has")
        super().__init__(
            f"{owner} {count} {what}, exceeding the budget of {budget}"
        )
