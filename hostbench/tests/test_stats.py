"""Tests of the benchmark's own statistics and span arithmetic.

Run from the checkout root: ``python3 -m pytest hostbench/tests -q``.
"""

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from hostbench import run  # noqa: E402
from hostbench.common import Checker, Samples, end_to_end  # noqa: E402
from hostbench.stats import (beyond_count, latency_summary,  # noqa: E402
                             nearest_rank, tail_percentile)
from hostbench.tracing import (OP, Tracer, addup_problems,  # noqa: E402
                               layer_metrics, traced_call,
                               traced_generator)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def test_nearest_rank_returns_observed_samples():
    samples = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert nearest_rank(samples, 50) == 3.0
    assert nearest_rank(samples, 80) == 4.0
    assert nearest_rank(samples, 100) == 5.0
    assert nearest_rank(samples, 0) == 1.0


def test_tail_rule_needs_ten_samples_beyond():
    assert beyond_count(100, 90) == 10
    assert tail_percentile(100) == 90.0
    # One sample fewer and p90 has only nine beyond it.
    assert beyond_count(99, 90) == 9
    assert tail_percentile(99) == 75.0
    assert tail_percentile(1000) == 99.0
    assert tail_percentile(40) == 75.0
    assert tail_percentile(39) == 50.0
    assert tail_percentile(5) == 50.0


def test_tail_rule_respects_the_workload_cap():
    assert tail_percentile(10_000, highest=90.0) == 90.0
    assert tail_percentile(99, highest=90.0) == 75.0


def test_latency_summary_reports_ms_and_counts():
    samples = [i / 1000.0 for i in range(1, 101)]  # 1..100 ms
    summary = latency_summary(samples)
    assert summary["count"] == 100
    assert abs(summary["p50_ms"] - 50.5) < 1e-9
    assert summary["tail_pct"] == 90.0
    assert abs(summary["tail_ms"] - 90.0) < 1e-9
    assert summary["tail_beyond"] == 10


def test_self_time_subtracts_direct_children_only():
    clock = FakeClock()
    tracer = Tracer(clock)
    tracer.enter(OP)
    clock.advance(1.0)
    tracer.enter("api.solve")
    clock.advance(2.0)
    tracer.enter("api.fingerprint")
    clock.advance(3.0)
    tracer.exit()
    clock.advance(0.5)
    tracer.exit()
    clock.advance(0.25)
    tracer.exit()
    assert tracer.self_s["api.fingerprint"] == 3.0
    assert tracer.self_s["api.solve"] == 2.5
    assert tracer.self_s[OP] == 1.25
    assert tracer.root_s[OP] == 6.75
    assert tracer.addup_error() == 0.0
    assert addup_problems(tracer) == []
    metrics = layer_metrics(tracer, ops=1)
    assert metrics["api.fingerprint.self_ms_per_op"] == 3000.0
    assert metrics["unattributed.self_ms_per_op"] == 1250.0
    assert abs(metrics["trace.unattributed_share"] - 1.25 / 6.75) < 1e-12


def test_generator_spans_exclude_the_consumer():
    clock = FakeClock()
    tracer = Tracer(clock)

    def rounds():
        clock.advance(1.0)
        yield 1
        clock.advance(2.0)
        return "done"

    wrapped = traced_generator(tracer, "congest.object_rounds", rounds)
    tracer.enter(OP)
    stream = wrapped()
    assert next(stream) == 1
    clock.advance(10.0)  # the consumer's own work
    try:
        next(stream)
    except StopIteration as stop:
        assert stop.value == "done"
    tracer.exit()
    assert tracer.self_s["congest.object_rounds"] == 3.0
    assert tracer.calls["congest.object_rounds"] == 2
    assert tracer.self_s[OP] == 10.0


def test_traced_call_closes_its_span_on_error():
    tracer = Tracer(FakeClock())

    def boom():
        raise ValueError("x")

    wrapped = traced_call(tracer, "api.certify", boom)
    try:
        wrapped()
    except ValueError:
        pass
    assert tracer.open_spans == 0
    assert tracer.calls["api.certify"] == 1


def test_addup_flags_open_and_unknown_spans():
    tracer = Tracer(FakeClock())
    tracer.enter("mystery")
    tracer.exit()
    tracer.enter(OP)
    problems = addup_problems(tracer)
    assert any("open" in p for p in problems)
    assert any("mystery" in p for p in problems)


def test_worker_snapshots_merge():
    clock = FakeClock()
    worker = Tracer(clock)
    worker.enter(OP)
    clock.advance(2.0)
    worker.exit()
    parent = Tracer(clock)
    parent.merge(worker.snapshot())
    parent.merge(worker.snapshot())
    assert parent.root_s[OP] == 4.0
    assert parent.calls[OP] == 2


def test_checker_counts_wrong_and_failed_ops():
    checker = Checker(reference={"a": [1, 2, 3]})
    assert checker.check("a", (1, 2, 3))
    assert not checker.check("a", (1, 2, 4))  # differs from first run
    assert not checker.check("c", None, "boom")
    assert (checker.attempted, checker.failed) == (3, 2)
    # Keys the reference does not record are checked for repeats only.
    assert checker.check("b", (1, 1, 1))
    assert not checker.check("b", (1, 1, 2))
    assert not Checker(reference={"a": [1, 2, 3]}).check("a", (0, 2, 3))
    free = Checker()
    assert free.check("x", (5, 5, 5))
    assert free.check("x", (5, 5, 5))
    assert free.pass_totals(["x", "x"]) == (10, 10, 10)


def test_samples_scale_ops_and_report_throughput_per_pass():
    samples = Samples()
    # Pass 1: two 1 s ops on a core running at half reference speed.
    samples.add(1.0, 0.5)
    samples.add(1.0, 0.5)
    samples.end_pass()
    # Pass 2: one failed op (time counts, no sample), then one good op.
    samples.add(2.0, 1.0, ok=False)
    samples.add(2.0, 1.0)
    samples.end_pass()
    # Pass 3: a batch pass of 4 s at reference speed with 3 tasks.
    samples.add_pass_time(4.0, 1.0)
    for _ in range(3):
        samples.add(1.5, 1.0, timed=False)
    samples.end_pass()
    assert samples.wall == 10.0
    assert samples.passes == [(2, 1.0), (1, 4.0), (3, 4.0)]
    checker = Checker()
    checker.check("a", (1, 2, 3))
    out = end_to_end(checker, samples, ["a", "a"], 0.5, [1.0, 3.0, 2.0],
                     7.0, 75.0, {})
    assert out.metrics["ops_per_s"] == 0.75  # median of 2, 0.25, 0.75
    assert out.metrics["setup_s"] == 2.5
    assert out.metrics["latency_p50_ms"] == 1500.0
    assert out.notes["wall_latency"]["p50_ms"] == 1500.0
    assert (out.metrics["rounds"], out.metrics["objective"]) == (2, 6)


def test_benchmark_json_matches_the_metric_tables():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return
    with open(path, encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == run.PER_LAYER
