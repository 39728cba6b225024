"""In-memory span recorder and function wrapping for the traced runs.

A :class:`Recorder` keeps every span in a list until the run ends.  Each
span has a name, start and end on one clock (``time.perf_counter_ns``),
its parent's id and the request id of the root it belongs to.  Spans are
opened by wrappers installed around the program's public functions, at
the name each caller binds (a module attribute or a class attribute), and
restored afterwards; the program's sources are never edited.

Work that happens far too often for a span per call (a clique handed to a
sink) is *folded*: its time is added to the innermost open span under a
layer name, and it counts as covered time when self times are computed.

Self time of a span = duration - time covered by its child spans - its
folded time.  Summed over every span of one request, self times plus
folded times equal the root's wall time.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable

now_ns = time.perf_counter_ns


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    request: int | None
    start: int
    end: int = 0
    attrs: dict[str, Any] = field(default_factory=dict)
    folded: dict[str, int] = field(default_factory=dict)

    @property
    def duration(self) -> int:
        return self.end - self.start

    def as_dict(self) -> dict[str, Any]:
        return {"id": self.id, "name": self.name, "parent": self.parent,
                "request": self.request, "start": self.start, "end": self.end,
                "attrs": self.attrs, "folded": self.folded}


class Recorder:
    """Spans of one process, with a stack of open spans per thread."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._local = threading.local()
        self._ids = 0
        self._id_lock = threading.Lock()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Span | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def root(self) -> Span | None:
        stack = self._stack()
        return stack[0] if stack else None

    def open(self, name: str, **attrs: Any) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        with self._id_lock:
            self._ids += 1
            span_id = self._ids
        span = Span(span_id, name,
                    parent.id if parent is not None else None,
                    parent.request if parent is not None else span_id,
                    now_ns(), attrs=attrs)
        stack.append(span)
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = now_ns()
        stack = self._stack()
        if not stack or stack[-1] is not span:
            raise RuntimeError(f"span {span.name!r} closed out of order")
        stack.pop()

    def fold(self, layer: str, ns: int) -> None:
        span = self.current()
        if span is not None:
            span.folded[layer] = span.folded.get(layer, 0) + ns

    def add(self, key: str, amount: int) -> None:
        """Add to a numeric attribute of the innermost open span."""
        span = self.current()
        if span is not None:
            span.attrs[key] = span.attrs.get(key, 0) + amount


#: ``before(args, kwargs) -> state`` and ``after(span, args, kwargs,
#: result, state)``: optional hooks a wrapper runs around the call to
#: pull attributes (sizes, counters, reports) into the span.
Before = Callable[[tuple, dict], Any]
After = Callable[[Span, tuple, dict, Any, Any], None]


def span_wrapper(recorder: Recorder, name: str, fn: Callable,
                 before: Before | None = None,
                 after: After | None = None) -> Callable:
    def wrapped(*args: Any, **kwargs: Any) -> Any:
        state = before(args, kwargs) if before is not None else None
        span = recorder.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.close(span)
        if after is not None:
            after(span, args, kwargs, result, state)
        return result

    wrapped.__wrapped__ = fn  # type: ignore[attr-defined]
    return wrapped


class EmitMeter:
    """Folds the time spent inside clique sinks into the open span.

    Sinks may nest (bit translation -> suppression -> counting -> the
    caller's sink); only the outermost timed call is measured, so nothing
    is counted twice.  This runs once per clique, so it is kept to two
    clock reads and a dict update: the open-span stack is looked up when
    the sink is wrapped, which is the thread that then calls it.
    """

    layer = "emit.sink"

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        self.depth = 0

    def timed(self, sink: Callable) -> Callable:
        stack = self.recorder._stack()
        layer = self.layer
        meter = self

        def metered(*args: Any) -> Any:
            if meter.depth or not stack:
                return sink(*args)
            meter.depth = 1
            start = now_ns()
            try:
                return sink(*args)
            finally:
                folded = stack[-1].folded
                folded[layer] = folded.get(layer, 0) + now_ns() - start
                meter.depth = 0

        return metered


class Patches:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self) -> None:
        self._saved: list[tuple[Any, str, Any]] = []

    def set(self, owner: Any, attr: str, value: Any) -> None:
        # Read through __dict__ so classmethods/staticmethods are restored
        # as the descriptors they were.
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# Analysis
# ---------------------------------------------------------------------------


def children_of(spans: list[Span]) -> dict[int, list[Span]]:
    out: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            out.setdefault(s.parent, []).append(s)
    return out


def covered(children: list[Span]) -> int:
    """Length of the union of the children's intervals."""
    total = 0
    reach = None
    for c in sorted(children, key=lambda s: s.start):
        if reach is None or c.start >= reach:
            total += c.duration
            reach = c.end
        elif c.end > reach:
            total += c.end - reach
            reach = c.end
    return total


def self_times(spans: list[Span]) -> dict[int, int]:
    """Self time of every span: duration minus child and folded cover."""
    kids = children_of(spans)
    return {s.id: s.duration - covered(kids.get(s.id, []))
            - sum(s.folded.values()) for s in spans}


def nesting_problems(spans: list[Span]) -> list[str]:
    """Every violation of proper nesting; an empty list means well formed."""
    problems: list[str] = []
    by_id = {s.id: s for s in spans}
    kids = children_of(spans)
    for s in spans:
        if s.end < s.start:
            problems.append(f"{s.name}#{s.id}: negative duration")
        parent = by_id.get(s.parent) if s.parent is not None else None
        if s.parent is not None and parent is None:
            problems.append(f"{s.name}#{s.id}: unknown parent {s.parent}")
        if parent is not None:
            if s.start < parent.start or s.end > parent.end:
                problems.append(f"{s.name}#{s.id}: outside parent "
                                f"{parent.name}#{parent.id}")
            if s.request != parent.request:
                problems.append(f"{s.name}#{s.id}: request id differs "
                                "from its parent's")
        if s.duration - covered(kids.get(s.id, [])) \
                - sum(s.folded.values()) < 0:
            problems.append(f"{s.name}#{s.id}: folded time exceeds "
                            "uncovered time")
    return problems


def layer_totals(spans: list[Span]) -> dict[str, int]:
    """Self plus folded time per span name / folded layer, in ns."""
    totals: dict[str, int] = {}
    selfs = self_times(spans)
    for s in spans:
        totals[s.name] = totals.get(s.name, 0) + selfs[s.id]
        for layer, ns in s.folded.items():
            totals[layer] = totals.get(layer, 0) + ns
    return totals
