"""``paper-batch``: the paper's algorithm set through ``solve_many``.

Each pass is one ``solve_many(instances, algorithms, workers=2)``
called as users call it, so the process pool starts inside the pass.
The grid is :data:`GRAPHS` sparse G(n, 8/n) graphs, n alternating
200 and 400, on the object backend × the paper's six algorithms.  An
op is one task; its latency is the task's ``BatchItem.seconds``.  Runs
contain whole passes only, so every run has the same mix of op kinds.
"""

from __future__ import annotations

import pickle
import statistics

from .common import (Checker, RunOutput, Samples, clock, cores_speed_factor,
                     derive, end_to_end, load_reference, peak_rss_mb,
                     quiesce, signature, timed_setup)
from .tracing import (WORKER_SPANS, LayerSpans, Tracer, addup_problems,
                      layer_metrics, overhead_share)

NAME = "paper-batch"
SIZES = (200, 400)
GRAPHS = 16
AVG_DEGREE = 8
MAX_WEIGHT = 1 << 10
ALGORITHMS = ("maxis-layers", "maxis-coloring", "matching-lines",
              "matching-fast2eps", "matching-oneeps", "matching-proposal")
BACKEND = "object"
WORKERS = 2
#: Tail percentile the nominal sample (a 20 s run) supports.
TAIL_PCT = 95.0
#: The pool's worker processes (the calling thread only waits on them).
CONCURRENCY = {"pool_workers": WORKERS}


def _key(index: int) -> str:
    """Op key of task ``index`` (instance-major, algorithm-minor)."""

    graph, algorithm = divmod(index, len(ALGORITHMS))
    return f"g{graph}:{ALGORITHMS[algorithm]}"


KEYS = tuple(_key(i) for i in range(GRAPHS * len(ALGORITHMS)))


def _instances(api, seed: int):
    from repro.graphs import (assign_edge_weights, assign_node_weights,
                              sparse_gnp_graph)

    instances = []
    for i in range(GRAPHS):
        n = SIZES[i % len(SIZES)]
        graph = sparse_gnp_graph(n, AVG_DEGREE / n,
                                 seed=derive(seed, "graph", i))
        assign_node_weights(graph, MAX_WEIGHT,
                            seed=derive(seed, "node-weights", i))
        assign_edge_weights(graph, MAX_WEIGHT,
                            seed=derive(seed, "edge-weights", i))
        instances.append(api.Instance(graph, seed=derive(seed, "solve", i),
                                      backend=BACKEND))
    return instances


def run(seed: int, seconds: float, trace: bool, import_s: float) -> RunOutput:
    import repro.api as api
    from repro.graphs import sparse_gnp_graph

    checker = Checker(reference=load_reference(NAME, seed))
    generate_s = []

    def setup():
        started = clock()
        instances = _instances(api, seed)
        generate_s.append(clock() - started)
        # Warm-up in the calling process (the pool forks from it): one
        # small solve per algorithm, so lazy imports are paid here.
        probe = api.Instance(sparse_gnp_graph(24, 0.2, seed=seed),
                             seed=seed, backend=BACKEND)
        for algorithm in ALGORITHMS:
            report = api.solve(probe, algorithm)
            if report.status != "complete":
                checker.require([f"warm-up {algorithm}: {report.status}"])
        return instances

    instances, setup_times = timed_setup(setup)

    tracer = Tracer()
    layers = LayerSpans(tracer)
    samples = Samples()
    factors, traced, untraced, ipc_shares = [], [], [], []
    traced_tasks = messages = cache_hits = cache_lookups = 0
    while not samples.passes or samples.wall < seconds:
        tracing = trace and len(samples.passes) % 2 == 0
        quiesce()
        # The pool's workers run on every core: calibrate them all, on
        # both sides of the pass, and scale by the mean.
        before = cores_speed_factor()
        if tracing:
            layers.install()
        try:
            started = clock()
            batch = api.solve_many(instances, ALGORITHMS, workers=WORKERS)
            wall = clock() - started
        finally:
            layers.uninstall()
        factor = (before + cores_speed_factor()) / 2.0
        factors.append(factor)
        samples.add_pass_time(wall, factor)
        for index, item in enumerate(batch):
            report = item.report
            error = item.error
            if report is not None and report.status != "complete":
                error = f"status {report.status}"
            ok = checker.check(_key(index),
                               signature(report) if report else None, error)
            samples.add(item.seconds, factor, ok, timed=False)
            if ok:
                (traced if tracing else untraced).append(
                    item.seconds * factor)
            if tracing and report is not None:
                traced_tasks += 1
                tracer.merge(getattr(report, WORKER_SPANS, {}))
                net = report.metrics
                if net is not None:
                    messages += net.messages
                    cache_hits += net.payload_cache.get("hits", 0)
                    cache_lookups += (net.payload_cache.get("hits", 0)
                                      + net.payload_cache.get("misses", 0))
        samples.end_pass()
        if tracing:
            task_time = sum(item.seconds for item in batch)
            ipc_shares.append(1.0 - task_time / (WORKERS * wall))

    notes = {"backend": BACKEND, "algorithms": list(ALGORITHMS),
             "sizes": list(SIZES), "graphs": GRAPHS, "workers": WORKERS,
             "tasks_per_pass": len(KEYS),
             "loop": "closed, one solve_many pass at a time",
             "speed_factor_p50": statistics.median(factors)}
    if not trace:
        return end_to_end(checker, samples, list(KEYS), import_s,
                          setup_times, peak_rss_mb(children=True), TAIL_PCT,
                          notes)

    metrics = layer_metrics(tracer, traced_tasks, statistics.median(factors))
    metrics["congest.messages_per_op"] = messages / max(1, traced_tasks)
    metrics["congest.payload_cache_hit_ratio"] = (
        cache_hits / cache_lookups if cache_lookups else 0.0)
    metrics["batch.ipc_share"] = statistics.median(ipc_shares)
    metrics["batch.pickle_bytes_per_task"] = statistics.mean(
        len(pickle.dumps(instance)) for instance in instances)
    metrics["graphs.generate_s"] = statistics.median(generate_s)
    metrics["trace.overhead_share"] = overhead_share(traced, untraced)
    checker.require(addup_problems(tracer))
    notes["traced_tasks"] = traced_tasks
    return checker.output(metrics, notes)
