"""Lightweight request tracing: spans with ids/parents, JSON span trees.

A :class:`Tracer` owns one trace — a root span opened at construction and
a stack of in-flight child spans.  ``tracer.span("decompose")`` is a
context manager: it opens a child of whatever span is currently
innermost, times it and pops it on exit, so nesting in the code *is*
nesting in the trace.

Every span, parent-side or worker-side, is stamped with one clock,
``time.monotonic()``: it never steps backwards, and on Linux it is
system-wide, so a forked worker's chunk interval lands inside the
parent's ``execute`` interval on the same axis.  The root's ``epoch``
attribute is the wall-clock (``time.time()``) reading at the root's
start, the one anchor from which a viewer converts stamps to dates.

Crossing a process boundary works by value, not by object: the parent
serialises its current position as a :class:`TraceContext` (trace id +
span id), ships it inside the per-request config, and the worker builds a
plain span *record* (:func:`span_record` — a dict, no live Tracer) with
that parent id.  Records come back with the chunk results and are grafted
into the tree with :meth:`Tracer.attach`.  Span ids are deterministic —
``s<seq>`` parent-side, ``chunk<index>`` worker-side — so a trace for a
given request shape is stable across runs and across OS scheduling.

``to_dict()`` returns the nested JSON tree (the ``--trace`` dump and the
service's ``trace: true`` response payload).
"""

from __future__ import annotations

import itertools
import os
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

_TRACE_IDS = itertools.count(1)


@dataclass(frozen=True)
class TraceContext:
    """A serialisable position in a trace: ship this to a worker."""

    trace_id: str
    span_id: str


@dataclass
class Span:
    """One timed operation; ``seconds`` is filled when the span closes."""

    name: str
    span_id: str
    parent_id: str | None
    start: float  # time.monotonic() seconds (comparable across processes)
    seconds: float = 0.0
    attrs: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "id": self.span_id,
            "parent": self.parent_id,
            "start": self.start,
            "seconds": self.seconds,
            "attrs": dict(self.attrs),
        }


def span_record(name: str, *, context: TraceContext, span_id: str,
                start: float, seconds: float, **attrs) -> dict:
    """A worker-side span as a plain dict, parented on ``context``.

    Shaped exactly like :meth:`Span.as_dict` so :meth:`Tracer.attach`
    grafts it without translation.
    """
    return {
        "name": name,
        "id": span_id,
        "parent": context.span_id,
        "start": start,
        "seconds": seconds,
        "attrs": dict(attrs),
    }


class _OpenSpan:
    """Context manager binding one span to the tracer's stack."""

    __slots__ = ("_tracer", "span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self.span = span

    def __enter__(self) -> Span:
        self._tracer._stack.append(self.span)
        return self.span

    def __exit__(self, *exc_info) -> None:
        self.span.seconds = time.monotonic() - self.span.start
        self._tracer._stack.pop()


class Tracer:
    """One trace: a root span plus every child opened under it."""

    def __init__(self, name: str, *, trace_id: str | None = None,
                 **attrs) -> None:
        self.trace_id = trace_id if trace_id is not None \
            else f"{os.getpid():x}-{next(_TRACE_IDS)}"
        self._seq = itertools.count(1)
        self._stack: list[Span] = []
        self._spans: list[Span] = []
        self._grafts: list[dict] = []
        self.root = Span(name=name, span_id="s0", parent_id=None,
                         start=time.monotonic(),
                         attrs={**attrs, "epoch": time.time()})
        self._stack.append(self.root)

    # ------------------------------------------------------------------
    # Building the tree
    # ------------------------------------------------------------------
    def span(self, name: str, **attrs) -> _OpenSpan:
        """Open a child of the innermost open span (a context manager)."""
        parent = self._stack[-1]
        child = Span(
            name=name,
            span_id=f"s{next(self._seq)}",
            parent_id=parent.span_id,
            start=time.monotonic(),
            attrs=attrs,
        )
        self._spans.append(child)
        return _OpenSpan(self, child)

    @property
    def current(self) -> TraceContext:
        """The shippable position of the innermost open span."""
        return TraceContext(trace_id=self.trace_id,
                            span_id=self._stack[-1].span_id)

    def attach(self, record: dict) -> None:
        """Graft a worker-built span record (see :func:`span_record`)."""
        self._grafts.append(dict(record))

    def annotate(self, **attrs) -> None:
        """Attach attributes to the root span (e.g. folded counters)."""
        self.root.attrs.update(attrs)

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def finish(self) -> None:
        """Close the root span; idempotent (keeps the first duration)."""
        if self.root.seconds == 0.0:
            self.root.seconds = time.monotonic() - self.root.start

    def to_dict(self) -> dict:
        """The nested span tree (closes the root if still open).

        Grafted records whose parent id is unknown (a worker raced a
        dropped span, say) attach under the root rather than vanishing.
        """
        self.finish()
        nodes: dict[str, dict] = {}
        for span in [self.root] + self._spans:
            nodes[span.span_id] = {**span.as_dict(), "children": []}
        for record in self._grafts:
            nodes[record["id"]] = {**record, "children": []}
        known = set(nodes)
        for span_id, node in nodes.items():
            if span_id == self.root.span_id:
                continue
            parent = node.get("parent")
            target = parent if parent in known else self.root.span_id
            nodes[target]["children"].append(node)
        for node in nodes.values():
            node["children"].sort(key=lambda child: (child["start"],
                                                     child["id"]))
        tree = nodes[self.root.span_id]
        tree["trace_id"] = self.trace_id
        return tree


def maybe_span(tracer: Tracer | None, name: str, **attrs):
    """``tracer.span(...)`` or a no-op context when tracing is off."""
    if tracer is None:
        return nullcontext()
    return tracer.span(name, **attrs)


def find_spans(tree: dict, name: str) -> list[dict]:
    """All spans named ``name`` in a serialised trace tree (test helper)."""
    found = []
    stack = [tree]
    while stack:
        node = stack.pop()
        if node["name"] == name:
            found.append(node)
        stack.extend(node.get("children", ()))
    return found
