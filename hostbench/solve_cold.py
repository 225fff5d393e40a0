"""``solve-cold``: one caller, unbudgeted array-backend Algorithm 2/3.

Closed loop.  Each op is ``solve(Instance(g, seed=s,
backend="array"), "maxis-layers")`` on a fresh copy of one of
:data:`GRAPHS` sparse G(n=10⁴, 6/n) graphs with uniform node weights
up to 2²⁰.  The copy is made outside the timed region, so the
per-graph CSR cache is cold on every op, as on a user's first call.
One algorithm only, so the median never jumps between op kinds.
Graphs are kept pickled and unpickled per op, which is a cheaper copy
than ``Graph.copy()`` and yields the same node and adjacency order.
"""

from __future__ import annotations

import pickle
import statistics

from .common import (Checker, RunOutput, Samples, clock, derive, end_to_end,
                     load_reference, peak_rss_mb, quiesce, signature,
                     speed_factor, timed_setup)
from .tracing import (OP, LayerSpans, Tracer, addup_problems, layer_metrics,
                      overhead_share)

NAME = "solve-cold"
NODES = 10_000
AVG_DEGREE = 6
MAX_WEIGHT = 1 << 20
#: Graphs per pass: enough that the pass's summed rounds vary little
#: from seed to seed.
GRAPHS = 12
ALGORITHM = "maxis-layers"
BACKEND = "array"
KEYS = tuple(f"g{i}" for i in range(GRAPHS))
#: Tail percentile the nominal sample (a 20 s run) supports.
TAIL_PCT = 75.0
#: One caller thread, no pool.
CONCURRENCY = {"threads": 1}


def _graphs(seed: int):
    from repro.graphs import assign_node_weights, sparse_gnp_graph

    graphs = []
    for i in range(GRAPHS):
        graph = sparse_gnp_graph(NODES, AVG_DEGREE / NODES,
                                 seed=derive(seed, "graph", i))
        assign_node_weights(graph, MAX_WEIGHT, scheme="uniform",
                            seed=derive(seed, "weights", i))
        graphs.append(pickle.dumps(graph, protocol=pickle.HIGHEST_PROTOCOL))
    return graphs


def _solve(api, graph, seed: int, index: int):
    instance = api.Instance(graph, seed=derive(seed, "solve", index),
                            backend=BACKEND)
    return api.solve(instance, ALGORITHM)


def run(seed: int, seconds: float, trace: bool, import_s: float) -> RunOutput:
    import repro.api as api

    checker = Checker(reference=load_reference(NAME, seed))
    generate_s = []

    def setup():
        started = clock()
        graphs = _graphs(seed)
        generate_s.append(clock() - started)
        # Warm-up: fills lazy imports and first-call caches; its
        # outcome is checked like an op's but not counted as one.
        checker.verify(KEYS[0], signature(_solve(
            api, pickle.loads(graphs[0]), seed, 0)))
        return graphs

    graphs, setup_times = timed_setup(setup)

    tracer = Tracer()
    layers = LayerSpans(tracer)
    samples = Samples()
    factors, traced, untraced = [], [], []
    traced_ops = messages = cache_hits = cache_lookups = 0
    while not samples.passes or samples.wall < seconds:
        tracing = trace and len(samples.passes) % 2 == 0
        if tracing:
            layers.install()
        try:
            for index, (key, graph) in enumerate(zip(KEYS, graphs)):
                copy = pickle.loads(graph)
                quiesce()
                factor = speed_factor()
                started = clock()
                if tracing:
                    tracer.enter(OP)
                try:
                    report = _solve(api, copy, seed, index)
                except Exception as exc:  # noqa: BLE001 — a failed op
                    report, error = None, f"{type(exc).__name__}: {exc}"
                else:
                    error = None
                finally:
                    if tracing:
                        tracer.exit()
                    elapsed = clock() - started
                if report is not None and report.status != "complete":
                    error = f"status {report.status}"
                ok = checker.check(
                    key, signature(report) if report else None, error)
                samples.add(elapsed, factor, ok)
                factors.append(factor)
                if ok:
                    (traced if tracing else untraced).append(elapsed * factor)
                if tracing and report is not None:
                    traced_ops += 1
                    net = report.metrics
                    messages += net.messages
                    cache_hits += net.payload_cache.get("hits", 0)
                    cache_lookups += (net.payload_cache.get("hits", 0)
                                      + net.payload_cache.get("misses", 0))
                del copy, report
        finally:
            layers.uninstall()
        samples.end_pass()

    notes = {"backend": BACKEND, "algorithm": ALGORITHM, "nodes": NODES,
             "graphs": GRAPHS, "loop": "closed, 1 caller",
             "speed_factor_p50": statistics.median(factors)}
    if not trace:
        return end_to_end(checker, samples, list(KEYS), import_s,
                          setup_times, peak_rss_mb(), TAIL_PCT, notes)

    metrics = layer_metrics(tracer, traced_ops, statistics.median(factors))
    metrics["congest.messages_per_op"] = messages / max(1, traced_ops)
    metrics["congest.payload_cache_hit_ratio"] = (
        cache_hits / cache_lookups if cache_lookups else 0.0)
    metrics["graphs.generate_s"] = statistics.median(generate_s)
    metrics["trace.overhead_share"] = overhead_share(traced, untraced)
    checker.require(addup_problems(tracer))
    notes["traced_ops"] = traced_ops
    return checker.output(metrics, notes)
