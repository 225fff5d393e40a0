"""The algorithm registry behind :func:`repro.api.solve`.

Every solver the library ships — the paper's algorithms in
:mod:`repro.core` plus the MIS/matching baselines in :mod:`repro.mis`
and :mod:`repro.matching` — is described by one :class:`AlgorithmSpec`
and registered here at import time (see :mod:`repro.api.algorithms`).
The CLI, the experiment adapters and the examples all dispatch through
this table, so adding an algorithm to the library is one
``@algorithm(...)`` entry, not new plumbing in every consumer.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..errors import InvalidInstance, ReproError
from .instance import CONGEST, LOCAL, Instance


class UnknownAlgorithm(ReproError, KeyError):
    """Lookup of an algorithm name that is not registered."""

    # KeyError.__str__ repr-quotes the message; keep it human-readable.
    __str__ = Exception.__str__


class UnsupportedModel(InvalidInstance):
    """A known algorithm was asked to run in a model it does not support."""


@dataclass(frozen=True)
class AlgorithmSpec:
    """Declarative description of one registered solver.

    ``name`` is the unique registry key (``"maxis-layers"``); ``cli``
    is the short name exposed by ``python -m repro <problem>
    --algorithm`` (``None`` keeps an algorithm out of the CLI, e.g.
    when it needs a bipartite instance).  ``bound`` maps an
    :class:`~repro.api.instance.Instance` to the numeric approximation
    factor guaranteed on it (e.g. ``lambda inst: 2 + inst.eps``), or is
    ``None`` for heuristics.

    ``run`` is the entry's one runner, in one of two forms.  A plain
    function ``run(instance, **options) -> SolveReport`` rides the
    coarse begin/end adapter in :mod:`repro.api.facade`.  A generator
    function ``run(instance, **options)`` is the algorithm's *phase*
    runner: it yields :class:`~repro.api.Checkpoint` objects at the
    algorithm's phase boundaries and returns the final report (or
    ``None`` when a round budget interrupted it cooperatively).  Every
    registry entry is interruptible either way, and :attr:`anytime` is
    read off the form, so there is no second field to keep in sync.

    A phase runner also defines the algorithm's *resume* capability: it
    must accept ``resume_state=`` and continue a truncated run
    bit-for-bit from a captured checkpoint (the registry-wide contract
    test in ``tests/api/test_resume.py`` fails any phase entry whose
    resume path does not reproduce the uncut run) — :attr:`anytime`
    reports ``"phases"`` for these.  Coarse entries report
    ``"coarse"``: they are still resumable via
    :func:`repro.api.resume`, but only from the fresh begin state (a
    warm start is a deterministic re-run from scratch).
    """

    name: str
    problem: str                       # "maxis" | "matching" | "mis"
    paper: str                         # paper anchor, e.g. "Theorem 3.2"
    guarantee: str                     # human-readable guarantee
    run: Callable
    cli: Optional[str] = None
    bound: Optional[Callable[[Instance], float]] = None
    weighted: bool = False             # objective is a weight, not a count
    deterministic: bool = False
    uses_eps: bool = False
    requires_bipartite: bool = False
    models: Tuple[str, ...] = (CONGEST, LOCAL)
    tags: Tuple[str, ...] = ()
    array_kernel: bool = False         # has a vectorized round kernel

    @property
    def backends(self) -> Tuple[str, ...]:
        """Simulator backends this algorithm executes natively on.

        Every algorithm runs on the object backend; entries with
        :attr:`array_kernel` also run vectorized under
        ``Instance(backend="array")`` (the rest fall back
        transparently).
        """

        return ("object", "array") if self.array_kernel else ("object",)

    @property
    def anytime(self) -> str:
        """``"phases"`` for real per-phase checkpointing (and per-phase
        resume), ``"coarse"`` for the begin/end adapter (interruptible,
        restart-only resume); read off the form of :attr:`run`."""

        return "phases" if inspect.isgeneratorfunction(self.run) else "coarse"

    def resolve_model(self, instance: Instance) -> str:
        """The model this run executes in (instance override or native)."""

        if instance.model is None:
            return self.models[0]
        if instance.model not in self.models:
            raise UnsupportedModel(
                f"algorithm {self.name!r} does not run in the "
                f"{instance.model} model (supported: {self.models})"
            )
        return instance.model

    def describe(self) -> Dict[str, object]:
        """JSON-able registry entry (``python -m repro info --json``)."""

        return {
            "name": self.name,
            "problem": self.problem,
            "cli": self.cli,
            "paper": self.paper,
            "guarantee": self.guarantee,
            "weighted": self.weighted,
            "deterministic": self.deterministic,
            "uses_eps": self.uses_eps,
            "requires_bipartite": self.requires_bipartite,
            "models": list(self.models),
            "tags": list(self.tags),
            # simulator backends with native support; algorithms
            # without an array kernel fall back to "object" silently.
            "backends": list(self.backends),
            # anytime capability: "phases" = real per-phase checkpoints,
            # "coarse" = begin/end adapter (still interruptible).
            "anytime": self.anytime,
            # resume capability mirrors it: "phases" = warm-start from
            # any captured checkpoint (bit-for-bit continuation),
            # "coarse" = resumable only as a deterministic re-run from
            # the fresh begin state.
            "resume": self.anytime,
        }


_ALGORITHMS: Dict[str, AlgorithmSpec] = {}


def register_algorithm(spec: AlgorithmSpec) -> AlgorithmSpec:
    """Register ``spec`` under its name; duplicate names are an error."""
    if spec.name in _ALGORITHMS:
        raise ValueError(f"algorithm {spec.name!r} already registered")
    _ALGORITHMS[spec.name] = spec
    return spec


def algorithm(**spec_fields) -> Callable[[Callable], Callable]:
    """Decorator form: registers the wrapped runner, returns it unchanged."""

    def deco(run: Callable) -> Callable:
        register_algorithm(AlgorithmSpec(run=run, **spec_fields))
        return run

    return deco


def get_algorithm(name: str, problem: Optional[str] = None) -> AlgorithmSpec:
    """Look up a spec by registry name, or by CLI name within ``problem``."""

    if name in _ALGORITHMS:
        spec = _ALGORITHMS[name]
        if problem is None or spec.problem == problem:
            return spec
    if problem is not None:
        for spec in _ALGORITHMS.values():
            if spec.problem == problem and spec.cli == name:
                return spec
    known = ", ".join(sorted(_ALGORITHMS)) or "<none>"
    scope = f" for problem {problem!r}" if problem else ""
    raise UnknownAlgorithm(
        f"unknown algorithm {name!r}{scope} (registered: {known})"
    )


def list_algorithms(problem: Optional[str] = None) -> List[AlgorithmSpec]:
    """All registered specs sorted by name, optionally per problem."""
    return [
        _ALGORITHMS[name]
        for name in sorted(_ALGORITHMS)
        if problem is None or _ALGORITHMS[name].problem == problem
    ]


def cli_names(problem: str) -> Tuple[str, ...]:
    """CLI ``--algorithm`` choices for one problem, registry-ordered."""

    return tuple(
        spec.cli for spec in list_algorithms(problem) if spec.cli is not None
    )


def registry_as_json() -> List[Dict[str, object]]:
    """The whole registry as JSON-able dicts, sorted by name."""

    return [spec.describe() for spec in list_algorithms()]


__all__ = [
    "AlgorithmSpec",
    "UnknownAlgorithm",
    "UnsupportedModel",
    "algorithm",
    "cli_names",
    "get_algorithm",
    "list_algorithms",
    "register_algorithm",
    "registry_as_json",
]
