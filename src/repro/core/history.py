"""Bounded history: keep a recent window of records, count the rest.

A deployed bridge runs as long as its legacy peers do, so what it keeps
per session served must not grow without limit.  Record lists (completed
and evicted sessions, the runtime's retired-worker records, the legacy
services' ``handled``) keep the most recent :data:`HISTORY_WINDOW`
entries; counts come from counters kept beside them.  The lists stay
plain lists, trimmed by dropping the older half at twice the window
(amortised O(1) per append).
"""

from __future__ import annotations

from typing import Iterable, List, TypeVar

__all__ = ["HISTORY_WINDOW", "append_bounded", "extend_bounded"]

T = TypeVar("T")

#: Most recent entries every bounded history keeps.
HISTORY_WINDOW = 1024


def append_bounded(history: List[T], item: T) -> None:
    """Append ``item``, dropping the older half at twice the window."""
    history.append(item)
    if len(history) >= 2 * HISTORY_WINDOW:
        del history[:-HISTORY_WINDOW]


def extend_bounded(history: List[T], items: Iterable[T]) -> None:
    """Append every item of ``items``, then trim as :func:`append_bounded`."""
    history.extend(items)
    if len(history) >= 2 * HISTORY_WINDOW:
        del history[:-HISTORY_WINDOW]
