"""Exception types shared across the package."""

from __future__ import annotations

import os
import sys


def _printable(text: str) -> str:
    """``text`` with each character that cannot be printed written as
    ``repr`` does (``\\x00``, ``\\n``, ``\\x1b``): one line that a terminal
    shows as written.  A printable character is left as it is."""
    return "".join(c if c.isprintable() else repr(c)[1:-1] for c in text)


def _shown(value) -> str:
    """``repr(value)``, but a Decimal, which is how a cost-model document's
    number literal with a fraction or an exponent is read, as written."""
    # A Decimal exists only once its module is loaded: none is loaded here.
    decimal = sys.modules.get("decimal")
    if decimal is not None and isinstance(value, decimal.Decimal):
        return str(value)
    return repr(value)


class CogseqError(Exception):
    """Base class for domain errors (CLI maps these to exit code 1)."""


class WorkflowError(CogseqError):
    """Structural problem with a workflow or variant-group operation."""


class OrderingError(CogseqError):
    """An ordering is not a linear extension of the workflow it was paired
    with, or two orderings cover different tasks.  Its text is one line."""

    def __init__(self, message: str):
        super().__init__(_printable(message))


class CostModelError(CogseqError):
    """Invalid cost-model data (matrix shape, rule ids, precision)."""


class DocumentError(CogseqError):
    """A workflow or cost-model document failed to parse or validate.

    Carries the offending file path and, where known, the field context;
    ``message`` is the text without them.  The three parts keep what the
    document or the caller gave; the text is made one printable line (see
    ``_printable``).
    """

    def __init__(self, message: str, *, field: str | None = None,
                 path: str | os.PathLike[str] | None = None):
        self.message = message
        self.path = path
        self.field = field
        text = "".join(f"{part}: " for part in (path, field) if part) + message
        super().__init__(_printable(text))


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
