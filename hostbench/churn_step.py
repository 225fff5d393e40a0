"""``churn-step``: warm re-solves of mutation batches.

Closed loop, one caller.  Each op is one mutation batch re-solved by
``resolve_incremental``'s per-step path: the public ``resume_iter``
with ``allow=MutationCompat(batch)``, drained to its final report and
resume payload.  The input is one sparse G(2000, 6/n) graph on the
object backend with a stream of :data:`BATCHES` batches whose sizes
alternate 1 and 4 (edge deletes and inserts, node-weight edits),
solved by ``maxis-layers`` and ``matching-proposal`` in turn.
Building the ``DynamicInstance`` and solving version 0 are set-up; a
pass replays the stream from version 0, and runs hold whole passes.
"""

from __future__ import annotations

import random
import statistics

from .common import (Checker, RunOutput, Samples, clock, derive, end_to_end,
                     load_reference, peak_rss_mb, quiesce, signature,
                     speed_factor, timed_setup)
from .tracing import (OP, LayerSpans, Tracer, addup_problems, layer_metrics,
                      overhead_share)

NAME = "churn-step"
NODES = 2000
AVG_DEGREE = 6
MAX_WEIGHT = 1 << 10
BATCHES = 12
BATCH_SIZES = (1, 4)
RADIUS = 1
ALGORITHMS = ("maxis-layers", "matching-proposal")
BACKEND = "object"
#: Tail percentile the nominal sample (a 20 s run) supports.
TAIL_PCT = 90.0
#: One caller thread, no pool.
CONCURRENCY = {"threads": 1}
KEYS = tuple(f"{algorithm}:v{t}" for t in range(1, BATCHES + 1)
             for algorithm in ALGORITHMS)


def _stream(graph, seed: int):
    """Deterministic batches: delete, insert, re-weight, in turn."""

    from repro.dynamic import add_edge, remove_edge, set_node_weight

    rng = random.Random(derive(seed, "mutations"))
    # Only the edge set steers the draws; DynamicInstance validates
    # and applies the batches for real.
    current = graph.copy()
    batches = []
    slot = 0
    for index in range(BATCHES):
        batch = []
        for _ in range(BATCH_SIZES[index % len(BATCH_SIZES)]):
            kind = slot % 3
            slot += 1
            if kind == 0:
                edges = sorted(current.edges)
                u, v = edges[rng.randrange(len(edges))]
                current.remove_edge(u, v)
                mutation = remove_edge(u, v)
            elif kind == 1:
                while True:
                    u, v = rng.randrange(NODES), rng.randrange(NODES)
                    if u != v and not current.has_edge(u, v):
                        break
                current.add_edge(u, v)
                mutation = add_edge(u, v)
            else:
                mutation = set_node_weight(rng.randrange(NODES),
                                           1 + rng.randrange(MAX_WEIGHT))
            batch.append(mutation)
        batches.append(batch)
    return batches


def _drain(stream):
    """Final report and last resume payload of a checkpoint stream."""

    payload = None
    while True:
        try:
            checkpoint = next(stream)
        except StopIteration as stop:
            return stop.value, payload
        if checkpoint.resume_state is not None:
            payload = checkpoint.resume_state


def run(seed: int, seconds: float, trace: bool, import_s: float) -> RunOutput:
    import repro.api as api
    from repro.core.maxis_layers import default_round_budget
    from repro.dynamic import DynamicInstance, MutationCompat, influence_region
    from repro.graphs import assign_node_weights, sparse_gnp_graph

    checker = Checker(reference=load_reference(NAME, seed))
    generate_s = []

    def setup():
        started = clock()
        graph = sparse_gnp_graph(NODES, AVG_DEGREE / NODES,
                                 seed=derive(seed, "graph"))
        assign_node_weights(graph, MAX_WEIGHT,
                            seed=derive(seed, "weights"))
        generate_s.append(clock() - started)
        dynamic = DynamicInstance(
            api.Instance(graph, seed=derive(seed, "solve"), backend=BACKEND),
            batches=_stream(graph, seed))
        base = dynamic.version(
            0, max_rounds=default_round_budget(dynamic.graph(0)))
        start = {}
        for algorithm in ALGORITHMS:
            report, payload = _drain(api.solve_iter(base, algorithm))
            checker.verify(f"{algorithm}:v0", signature(report))
            start[algorithm] = (report, payload)
        return dynamic, start

    (dynamic, start), setup_times = timed_setup(setup)

    tracer = Tracer()
    layers = LayerSpans(tracer)
    samples = Samples()
    factors, traced, untraced = [], [], []
    traced_ops = repair_rounds = region_nodes = 0
    while not samples.passes or samples.wall < seconds:
        tracing = trace and len(samples.passes) % 2 == 0
        state = dict(start)
        if tracing:
            layers.install()
        try:
            for t, batch in enumerate(dynamic.batches, start=1):
                before, after = dynamic.graph(t - 1), dynamic.graph(t)
                for algorithm in ALGORITHMS:
                    previous, payload = state[algorithm]
                    instance = dynamic.version(
                        t, max_rounds=previous.rounds
                        + default_round_budget(after))
                    policy = MutationCompat(batch, base=before,
                                            radius=RADIUS)
                    key = f"{algorithm}:v{t}"
                    quiesce()
                    factor = speed_factor()
                    started = clock()
                    if tracing:
                        tracer.enter(OP)
                        tracer.enter("api.solve")
                    try:
                        report, payload = _drain(api.resume_iter(
                            payload, instance=instance, allow=policy))
                    except Exception as exc:  # noqa: BLE001 — failed op
                        report, error = None, f"{type(exc).__name__}: {exc}"
                    else:
                        error = None
                    finally:
                        if tracing:
                            tracer.exit()
                            tracer.exit()
                        elapsed = clock() - started
                    if report is not None and report.status != "complete":
                        error = f"status {report.status}"
                    if report is not None and payload is None:
                        error = "no resume payload for the next step"
                    ok = checker.check(
                        key, signature(report) if report else None, error)
                    samples.add(elapsed, factor, ok)
                    factors.append(factor)
                    if not ok:
                        # The stream cannot continue from a failed step.
                        state[algorithm] = (previous, None)
                        continue
                    (traced if tracing else untraced).append(elapsed * factor)
                    if tracing:
                        traced_ops += 1
                        repair_rounds += report.rounds - previous.rounds
                        # Imported before the spans went in: untraced.
                        region_nodes += len(influence_region(
                            before, after, batch, RADIUS))
                    state[algorithm] = (report, payload)
        finally:
            layers.uninstall()
        samples.end_pass()

    notes = {"backend": BACKEND, "algorithms": list(ALGORITHMS),
             "nodes": NODES, "batches": BATCHES,
             "batch_sizes": list(BATCH_SIZES), "loop": "closed, 1 caller",
             "speed_factor_p50": statistics.median(factors)}
    if not trace:
        return end_to_end(checker, samples, list(KEYS), import_s,
                          setup_times, peak_rss_mb(), TAIL_PCT, notes)

    ops = max(1, traced_ops)
    metrics = layer_metrics(tracer, traced_ops, statistics.median(factors))
    metrics["dynamic.repair_rounds_per_op"] = repair_rounds / ops
    metrics["dynamic.region_share"] = region_nodes / (ops * NODES)
    metrics["graphs.generate_s"] = statistics.median(generate_s)
    metrics["trace.overhead_share"] = overhead_share(traced, untraced)
    checker.require(addup_problems(tracer))
    notes["traced_ops"] = traced_ops
    return checker.output(metrics, notes)
