"""Extensions the paper sketches but does not evaluate.

* :mod:`repro.extensions.filtered` — the Section V-A remark: directed or
  weighted inputs are handled by enumerating on the underlying simple graph
  and filtering cliques by user-defined conditions.
* :mod:`repro.extensions.maximum` — maximum clique / clique number on top
  of the enumeration engines.
"""

from repro.extensions.filtered import (
    directed_maximal_cliques,
    weighted_maximal_cliques,
)
from repro.extensions.maximum import clique_number, maximum_clique

__all__ = [
    "clique_number",
    "directed_maximal_cliques",
    "maximum_clique",
    "weighted_maximal_cliques",
]
