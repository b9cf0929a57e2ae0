"""The search engine that ``solve`` calls, looked up at call time.

``solve`` reaches the engine through this module's ``search`` attribute, so
tests and tracing tools can substitute or wrap it in one place.
"""

from __future__ import annotations

from ._search import search

#: Name of the search engine, recorded by benchmark stamps: it is pure Python.
KERNEL_NAME = "pure"

__all__ = ["KERNEL_NAME", "search"]
