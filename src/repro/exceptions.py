"""Exception hierarchy for the :mod:`repro` library.

All library-raised errors derive from :class:`ReproError`, so callers can
catch one type to handle any failure originating here while still letting
programming errors (``TypeError`` etc.) propagate untouched.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class GraphFormatError(ReproError):
    """Raised when a graph file or edge stream cannot be parsed."""


class InvalidVertexError(ReproError, KeyError):
    """Raised when an operation references a vertex that is not in the graph."""

    # KeyError's own __str__ quotes its message like a dict key.
    __str__ = Exception.__str__


class InvalidParameterError(ReproError, ValueError):
    """Raised when an algorithm or generator receives an invalid parameter."""


class UnknownAlgorithmError(ReproError, KeyError):
    """Raised when an algorithm name is not present in the registry."""

    # KeyError's own __str__ quotes its message like a dict key.
    __str__ = Exception.__str__


class NotAPlexError(ReproError):
    """Raised when a t-plex-only routine receives a graph that is not one."""


class WorkerPoolError(ReproError):
    """Raised when the parallel worker pool fails structurally.

    A worker that dies mid-task has its task rerun once on a replacement;
    this error ends the request when the same task is lost a second time,
    or when a worker dies while a new graph state is being shipped (the
    state itself may be what killed it).  The pool's workers are stopped
    by then; its next request starts fresh ones.
    """
