"""One validated run configuration, shared by every front end.

The API entry points, the CLI, the service and its protocol each build a
:class:`RunConfig`; :meth:`RunConfig.validate` is the one place a knob is
checked, and the pool ships the validated config to its workers as is.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace

from repro.exceptions import InvalidParameterError
from repro.graph.adjacency import Graph

#: What an engine option may be: the JSON scalars plus an explicit
#: ``bit_order`` vertex permutation.  Spelled out (rather than ``Any``) so
#: the picklesafety checker can verify what crosses the process boundary.
OptionValue = str | int | float | bool | None | list[int] | tuple[int, ...]

def validate_n_jobs(n_jobs: object) -> int:
    """``n_jobs`` must be a positive ``int`` (bools are rejected too)."""
    if isinstance(n_jobs, int) and not isinstance(n_jobs, bool) \
            and n_jobs >= 1:
        return n_jobs
    raise InvalidParameterError(
        f"n_jobs must be a positive integer, got {n_jobs!r}"
    )


@dataclass(frozen=True)
class RunConfig:
    """Every knob of one run: the algorithm, its options and the schedule.

    ``options`` go to the algorithm's runner: ``backend``, ``bit_order``,
    ``et_threshold``, ``graph_reduction`` and the rest of its keyword
    parameters.  A ``backend`` left out (or ``None``) is resolved from the
    graph by :meth:`validate`.  ``n_jobs=None`` is the classic
    single-process run.  With ``n_jobs`` the run is partitioned over the
    worker pool (:mod:`repro.parallel`) on one schedule: X-aware
    subproblems packed by a cost read off the degeneracy peel into one
    chunk per worker, or with ``steal=True`` into four times as many,
    handed out dynamically, largest first: the same subproblems, so the
    same cliques and counters.  ``steal`` left ``None`` was not given:
    without ``n_jobs`` it must stay so, and with ``n_jobs`` it means
    ``False``.
    """

    algorithm: str
    options: dict[str, OptionValue] = field(default_factory=dict)
    n_jobs: int | None = None
    steal: bool | None = None

    def validate(self, g: Graph) -> RunConfig:
        """Check every knob for a run on ``g``; return the config to run.

        Raises :class:`repro.exceptions.UnknownAlgorithmError` for an
        unregistered algorithm and ``InvalidParameterError`` for any other
        bad knob.  A request that names no ``backend`` gets the one its
        algorithm runs on ``g`` written into the options
        (:meth:`repro.api.AlgorithmSpec.backend_for`), so the pool, its
        workers, the subproblem runs and the service all see one explicit
        backend; a ``bit_order`` without a named backend is left for the
        runner to refuse.  A serial run returns ``self`` when there is
        nothing to fill in: its runner checks the option values before
        any work.  A parallel run must fail in the parent, so its option
        values go through a dry run of the runner on the empty graph (an
        explicit ``bit_order`` is checked against ``g`` instead), and it
        returns a copy with the defaults filled in.
        """
        from repro.api import get_algorithm  # deferred: the api imports us

        spec = get_algorithm(self.algorithm)
        unknown = sorted(set(self.options) - spec.option_names)
        if unknown:
            raise InvalidParameterError(
                f"algorithm {spec.name!r} takes no option "
                f"{', '.join(unknown)}; it takes "
                f"{', '.join(sorted(spec.option_names))}"
            )
        if self.steal is not None and not isinstance(self.steal, bool):
            raise InvalidParameterError(
                f"steal must be a bool, got {self.steal!r}"
            )
        config = self
        if self.options.get("backend") is None \
                and self.options.get("bit_order") is None:
            backend = spec.backend_for(g)
            if backend is not None:
                config = replace(self, options={**self.options,
                                                "backend": backend})
        if self.n_jobs is None:
            if self.steal is not None:
                raise InvalidParameterError(
                    "steal requires n_jobs (the parallel path)"
                )
            return config

        resolved = replace(config, n_jobs=validate_n_jobs(self.n_jobs),
                           steal=self.steal is True)
        if "initial_x" in self.options:
            raise InvalidParameterError(
                "initial_x cannot be combined with n_jobs; the "
                "decomposition seeds it per subproblem"
            )
        dry_options = resolved.options
        bit_order = self.options.get("bit_order")
        if bit_order is not None and not isinstance(bit_order, str):
            from repro.graph.bitadj import check_permutation

            check_permutation(bit_order, g.n)  # type: ignore[arg-type]
            dry_options = {**dry_options, "bit_order": "input"}
        spec.runner(Graph(0), lambda clique: None, **dry_options)
        return resolved

    def keywords(self) -> dict[str, object]:
        """The config as the API's keyword arguments, options inline."""
        knobs = {f.name: getattr(self, f.name) for f in fields(self)
                 if f.name != "options"}
        return {**knobs, **self.options}
