"""Span-tree reconstruction from a trace, for checking span nesting.

Adaptation rounds nest attempts and attempts nest migrations; the tree is
rebuilt from the ``span``/``parent`` envelope fields alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class Span:
    """One reconstructed span with its nested children."""

    span_id: str
    parent_id: str | None
    name: str
    t_start_s: float
    t_end_s: float | None = None
    children: list["Span"] = field(default_factory=list)

    @property
    def duration_s(self) -> float | None:
        if self.t_end_s is None:
            return None
        return self.t_end_s - self.t_start_s


def build_spans(records: list[dict]) -> list[Span]:
    """Rebuild the span forest from ``span.start``/``span.end`` records.

    Returns the root spans (those with no parent) in start order; children
    are nested.  Unclosed spans keep ``t_end_s=None``.
    """
    by_id: dict[str, Span] = {}
    roots: list[Span] = []
    for record in records:
        kind = record.get("kind")
        if kind == "span.start":
            span = Span(
                span_id=record.get("span") or "",
                parent_id=record.get("parent"),
                name=str(record.get("name", "")),
                t_start_s=float(record.get("t_s", 0.0)),
            )
            by_id[span.span_id] = span
            parent = by_id.get(span.parent_id) if span.parent_id else None
            if parent is not None:
                parent.children.append(span)
            else:
                roots.append(span)
        elif kind == "span.end":
            span = by_id.get(record.get("span") or "")
            if span is not None:
                span.t_end_s = float(record.get("t_s", 0.0))
    return roots
