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

#: the fields that only mean something on the parallel path.
_SCHEDULING = ("chunk_strategy", "cost_model", "chunks_per_worker",
               "x_aware", "steal")


def _positive_int(name: str, value: object) -> int:
    if isinstance(value, int) and not isinstance(value, bool) and value >= 1:
        return value
    raise InvalidParameterError(
        f"{name} must be a positive integer, got {value!r}"
    )


def _choice(what: str, value: str | None, choices: tuple[str, ...],
            default: str) -> str:
    if value is None:
        return default
    if value not in choices:
        raise InvalidParameterError(
            f"unknown {what} {value!r}; expected one of {choices}"
        )
    return value


def validate_n_jobs(n_jobs: object) -> int:
    """``n_jobs`` must be a positive ``int`` (bools are rejected too)."""
    return _positive_int("n_jobs", n_jobs)


@dataclass(frozen=True)
class RunConfig:
    """Every knob of one run: the algorithm, its options and the schedule.

    ``options`` go to the algorithm's runner: ``backend``, ``bit_order``,
    ``et_threshold``, ``graph_reduction`` and the rest of its keyword
    parameters.  ``n_jobs=None`` is the classic single-process run.  With
    ``n_jobs`` the run is partitioned over the worker pool
    (:mod:`repro.parallel`), and ``chunk_strategy``, ``cost_model``,
    ``chunks_per_worker``, ``x_aware`` and ``steal`` shape its schedule.
    A scheduling field left ``None`` was not given: without ``n_jobs`` it
    must stay so, and with ``n_jobs`` the pool's default fills it in.
    """

    algorithm: str
    options: dict[str, OptionValue] = field(default_factory=dict)
    n_jobs: int | None = None
    chunk_strategy: str | None = None
    cost_model: str | None = None
    chunks_per_worker: int | None = None
    x_aware: bool | None = None
    steal: bool | None = None

    def validate(self, g: Graph) -> RunConfig:
        """Check every knob for a run on ``g``; return the config to run.

        Raises :class:`repro.exceptions.UnknownAlgorithmError` for an
        unregistered algorithm and ``InvalidParameterError`` for any other
        bad knob.  A serial run returns ``self``: its runner checks the
        option values before any work.  A parallel run must fail in the
        parent, so its option values go through a dry run of the runner
        on the empty graph (an explicit ``bit_order`` is checked against
        ``g`` instead), and it returns a copy with the defaults filled in.
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
        for name in ("x_aware", "steal"):
            value = getattr(self, name)
            if value is not None and not isinstance(value, bool):
                raise InvalidParameterError(
                    f"{name} must be a bool, got {value!r}"
                )
        if self.n_jobs is None:
            given = [name for name in _SCHEDULING
                     if getattr(self, name) is not None]
            if given:
                raise InvalidParameterError(
                    f"{given[0]} requires n_jobs (the parallel path)"
                )
            return self

        from repro.parallel.decompose import COST_MODELS, DEFAULT_COST_MODEL
        from repro.parallel.scheduler import (
            CHUNK_STRATEGIES,
            DEFAULT_CHUNK_STRATEGY,
        )

        resolved = replace(
            self, n_jobs=validate_n_jobs(self.n_jobs),
            chunk_strategy=_choice("chunk strategy", self.chunk_strategy,
                                   CHUNK_STRATEGIES, DEFAULT_CHUNK_STRATEGY),
            cost_model=_choice("cost model", self.cost_model, COST_MODELS,
                               DEFAULT_COST_MODEL),
            chunks_per_worker=1 if self.chunks_per_worker is None
            else _positive_int("chunks_per_worker", self.chunks_per_worker),
            x_aware=self.x_aware is not False,
            steal=self.steal is True,
        )
        if "initial_x" in self.options:
            raise InvalidParameterError(
                "initial_x cannot be combined with n_jobs; the "
                "decomposition seeds it per subproblem"
            )
        dry_options = self.options
        bit_order = self.options.get("bit_order")
        if bit_order is not None and not isinstance(bit_order, str):
            from repro.graph.bitadj import check_permutation

            check_permutation(bit_order, g.n)  # type: ignore[arg-type]
            dry_options = {**self.options, "bit_order": "input"}
        spec.runner(Graph(0), lambda clique: None, **dry_options)
        return resolved

    def keywords(self) -> dict[str, object]:
        """The config as the API's keyword arguments, options inline."""
        knobs = {f.name: getattr(self, f.name) for f in fields(self)
                 if f.name != "options"}
        return {**knobs, **self.options}
