"""Span recorder and the layer boundaries the traced run wraps.

The benchmark records spans from its own files: :class:`LayerSpans`
replaces the public functions at each layer boundary of ``repro``
with thin wrappers for the duration of a traced pass and restores the
originals afterwards, so the program itself carries no tracing code
and an untraced run executes it unmodified.

A layer's *self time* is its span's duration minus the time its direct
child spans cover.  Summed over every span, self times telescope to
the total duration of the root spans, which is the "stages add up"
check :meth:`Tracer.addup_error` reports.  The root span's own self
time is the ``unattributed`` share: op time no layer span covers.
"""

from __future__ import annotations

import functools
import os
import statistics
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Tuple

#: Name of the per-op root span.
OP = "op"


class Tracer:
    """In-memory span recorder with per-name self-time totals.

    Spans must nest (one thread).  ``clock`` is injectable so the
    self-time arithmetic can be tested with a fake clock.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.reset()

    def reset(self) -> None:
        """Drop every recorded total (open spans must be closed)."""

        self._stack: List[list] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        #: Total duration of spans opened with an empty stack.
        self.root_s: Dict[str, float] = defaultdict(float)

    def enter(self, name: str) -> None:
        self._stack.append([name, self.clock(), 0.0])

    def exit(self) -> float:
        """Close the innermost span; returns its duration."""

        name, start, children = self._stack.pop()
        duration = self.clock() - start
        self.self_s[name] += duration - children
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][2] += duration
        else:
            self.root_s[name] += duration
        return duration

    def span(self, name: str) -> "_Span":
        """Context manager form of :meth:`enter` / :meth:`exit`."""

        return _Span(self, name)

    @property
    def open_spans(self) -> int:
        return len(self._stack)

    def snapshot(self) -> Dict[str, Tuple[float, int, float]]:
        """``{name: (self_s, calls, root_s)}`` — picklable totals."""

        return {name: (self.self_s[name], self.calls[name],
                       self.root_s.get(name, 0.0))
                for name in self.self_s}

    def merge(self, snapshot: Dict[str, Tuple[float, int, float]]) -> None:
        """Add totals recorded elsewhere (a pool worker's snapshot)."""

        for name, (self_s, calls, root_s) in snapshot.items():
            self.self_s[name] += self_s
            self.calls[name] += calls
            if root_s:
                self.root_s[name] += root_s

    def addup_error(self) -> float:
        """``|Σ self − Σ root durations|`` as a share of the latter."""

        roots = sum(self.root_s.values())
        if roots <= 0.0:
            return 0.0
        return abs(sum(self.self_s.values()) - roots) / roots


class _Span:
    __slots__ = ("tracer", "name")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> None:
        self.tracer.enter(self.name)

    def __exit__(self, *exc) -> bool:
        self.tracer.exit()
        return False


def traced_call(tracer: Tracer, name: str, fn: Callable) -> Callable:
    """Wrap a function so every call is one ``name`` span."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.exit()

    return wrapper


def traced_generator(tracer: Tracer, name: str, fn: Callable) -> Callable:
    """Wrap a generator function so every resumption is one span.

    Time the consumer spends between resumptions stays outside the
    span, which is what makes a round loop's self time its own.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return _resumptions(tracer, name, fn(*args, **kwargs))

    return wrapper


def _resumptions(tracer: Tracer, name: str, gen):
    step = gen.send
    value = None
    while True:
        tracer.enter(name)
        try:
            item = step(value)
        except StopIteration as stop:
            return stop.value
        finally:
            tracer.exit()
        try:
            value = yield item
        except GeneratorExit:
            gen.close()
            raise
        step = gen.send


class LayerSpans:
    """The layer boundaries of ``repro`` as patchable span points.

    :meth:`install` swaps every boundary function for a traced wrapper
    (in the defining module and in every ``repro`` module that imported
    it by name); :meth:`uninstall` puts the originals back.  Pool
    workers forked while installed inherit the wrappers.
    """

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._undo: List[Tuple[object, str, object]] = []

    def install(self) -> None:
        if self._undo:
            return
        from repro.api import batch, facade, report, serialize
        from repro.congest import array_network, network
        from repro.dynamic import compat, mutations, splice

        tracer = self.tracer
        call = functools.partial(traced_call, tracer)
        gen = functools.partial(traced_generator, tracer)

        # api: fingerprint, certify, the resume-payload codec.
        self._everywhere(batch.instance_fingerprint,
                         call("api.fingerprint", batch.instance_fingerprint))
        self._everywhere(facade.solve, call("api.solve", facade.solve))
        # The codec recurses through its own module globals: wrap only
        # the imported names so one top-level call is one span.
        for fn in (serialize.to_jsonable, serialize.from_jsonable):
            self._everywhere(fn, call("api.serialize", fn),
                             skip=serialize.__name__)
        self._set(report.SolveReport, "certify",
                  call("api.certify", report.SolveReport.certify))

        # congest: network build, CSR compile, RNG derivation, the
        # array kernel path and the object round loop.
        sync = network.SynchronousNetwork
        arr = array_network.ArrayNetwork
        self._set(sync, "__init__",
                  call("congest.network_build", sync.__init__))
        self._set(sync, "run_stepwise",
                  gen("congest.object_rounds", sync.run_stepwise))
        self._set(arr, "run_stepwise",
                  call("congest.kernel", arr.run_stepwise))
        self._set(arr, "_drive_kernel",
                  gen("congest.kernel", arr._drive_kernel))
        self._set(array_network.GraphCSR, "__init__",
                  call("congest.csr_compile",
                       array_network.GraphCSR.__init__))
        self._set(array_network.ArrayKernel, "rng",
                  call("congest.rng_derive", array_network.ArrayKernel.rng))

        # dynamic: policy reconcile, influence region, state splicers.
        self._set(compat.MutationCompat, "reconcile",
                  call("dynamic.reconcile",
                       compat.MutationCompat.reconcile))
        self._everywhere(mutations.influence_region,
                         call("dynamic.influence_region",
                              mutations.influence_region))
        for name, fn in list(splice.SPLICERS.items()):
            self._undo.append((splice.SPLICERS, name, fn))
            splice.SPLICERS[name] = call("dynamic.splice", fn)

        # batch: each pool task is one op, traced inside the worker.
        self._set(batch, "_solve_task",
                  _worker_op(tracer, batch._solve_task, os.getpid()))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _everywhere(self, original, wrapper, skip: str = "") -> None:
        for modname, module in list(sys.modules.items()):
            if not modname.startswith("repro") or modname == skip:
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, wrapper)


#: Attribute a pool worker hangs its span totals on (the report object
#: is what travels back to the parent).
WORKER_SPANS = "_bench_spans"


def _worker_op(tracer: Tracer, task_fn: Callable, parent_pid: int):
    """Wrap the batch engine's task body as one op root span.

    In a forked pool worker the tracer is the worker's own copy: it is
    reset per task and its totals ride back on the task's report.
    ``functools.wraps`` keeps the qualified name, so the pool pickles
    the wrapper by reference and the forked worker resolves it.
    """

    @functools.wraps(task_fn)
    def wrapper(task):
        in_worker = os.getpid() != parent_pid
        if in_worker:
            tracer.reset()
        tracer.enter(OP)
        try:
            result = task_fn(task)
        finally:
            tracer.exit()
        if in_worker and result[0] is not None:
            setattr(result[0], WORKER_SPANS, tracer.snapshot())
        return result

    return wrapper


#: Layers whose per-op self time the traced run reports.
SELF_TIMED = (
    "api.solve", "api.fingerprint", "api.certify", "api.serialize",
    "congest.network_build", "congest.csr_compile", "congest.rng_derive",
    "congest.kernel", "congest.object_rounds",
    "dynamic.reconcile", "dynamic.influence_region", "dynamic.splice",
)


def layer_metrics(tracer: Tracer, ops: int,
                  scale: float = 1.0) -> Dict[str, float]:
    """Per-op self times and the unattributed share.

    Times are multiplied by ``scale`` (the run's median speed factor),
    so they read at the same reference speed as the end-to-end ones.
    """

    ms = 1000.0 * scale / max(1, ops)
    out = {f"{name}.self_ms_per_op": tracer.self_s.get(name, 0.0) * ms
           for name in SELF_TIMED}
    out["api.fingerprint.calls_per_op"] = (
        tracer.calls.get("api.fingerprint", 0) / max(1, ops))
    op_wall = tracer.root_s.get(OP, 0.0)
    unattributed = tracer.self_s.get(OP, 0.0)
    out["unattributed.self_ms_per_op"] = unattributed * ms
    out["trace.op_ms_per_op"] = op_wall * ms
    out["trace.unattributed_share"] = (unattributed / op_wall
                                       if op_wall > 0 else 0.0)
    return out


def overhead_share(traced: List[float], untraced: List[float]) -> float:
    """Median traced op time ÷ median untraced op time − 1."""

    if not traced or not untraced:
        return 0.0
    return statistics.median(traced) / statistics.median(untraced) - 1.0


def addup_problems(tracer: Tracer, names=SELF_TIMED + (OP,),
                   tolerance: float = 1e-6) -> List[str]:
    """Why the recorded spans fail to add up (empty when they do).

    Every span must be closed, carry one of ``names``, and the self
    times of all spans must sum to the wall time of the root spans.
    """

    problems = []
    if tracer.open_spans:
        problems.append(f"{tracer.open_spans} span(s) left open")
    unknown = sorted(set(tracer.self_s) - set(names))
    if unknown:
        problems.append(f"unknown span names {unknown}")
    error = tracer.addup_error()
    if error > tolerance:
        problems.append(f"self times miss the op wall time by "
                        f"{error:.2e} of it")
    return problems


__all__ = ["LayerSpans", "OP", "SELF_TIMED", "Tracer", "WORKER_SPANS",
           "addup_problems", "layer_metrics", "overhead_share",
           "traced_call", "traced_generator"]
