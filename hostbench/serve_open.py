"""``serve-open``: an open-loop client against ``python -m repro serve``.

The daemon runs as ``python -m repro serve --workers 1 --port 0
--state-dir <tmp>`` with ``REPRO_BACKEND`` cleared, so it solves on
the object backend.  One client thread sends :data:`RATE` requests a
second on a seeded schedule (fixed spacing plus up to half a period
of jitter), whatever the daemon's progress, and opens one connection
at a time.  Specs are ``maxis-layers`` and ``matching-proposal`` on
n=300 workload recipes, alternating; every :data:`REPEAT_EVERY`-th
request repeats an earlier spec (alternating algorithms too, so every
run has the same mix), which the daemon's result cache serves.

A request's latency runs from when it was due to when the client saw
it terminal.  The client polls each pending job every :data:`POLL_S`
seconds, starting at a random phase: the poll delay then averages out
of the median instead of locking every sample to one grid, and the
daemon's event loop is not kept busy answering polls.  After the window every
served result is compared with an in-process solve of the same spec.
"""

from __future__ import annotations

import contextlib
import http.client
import json
import os
import random
import selectors
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

from .common import (ROOT, Checker, RunOutput, Samples, clock,
                     cores_speed_factor, derive, end_to_end, load_reference,
                     timed_setup)
from .tracing import OP, Tracer, addup_problems

NAME = "serve-open"
NODES = 300
EDGE_PROBABILITY = 0.03
MAX_WEIGHT = 64
SPECS = (("maxis", "maxis-layers"), ("matching", "matching-proposal"))
#: Requests per second: about half of what one daemon worker completes.
RATE = 8.0
REPEAT_EVERY = 4
POLL_S = 0.02
#: Fresh specs (the first ones sent) whose results ``rounds``, ``bits``
#: and ``objective`` sum.
PASS = 48
TAIL_PCT = 90.0
#: Load generator: one thread; at most this many connections open.
THREADS = 1
MAX_CONNECTIONS = 2
CONCURRENCY = {"loadgen_threads": THREADS,
               "loadgen_connections": MAX_CONNECTIONS}
TERMINAL = ("complete", "truncated", "failed")
JOB_TIMEOUT_S = 30.0
CLIENT_SPANS = (OP, "serve.submit", "serve.poll", "loadgen.sleep",
                "loadgen.calibrate")
#: The client measures the speed factor when nothing is pending for at
#: least this long, at most every :data:`CALIBRATE_EVERY_S`.
CALIBRATE_IDLE_S = 0.05
CALIBRATE_EVERY_S = 0.25


def _spec(seed: int, fresh: int) -> dict:
    problem, algorithm = SPECS[fresh % len(SPECS)]
    return {
        "workload": {"problem": problem, "nodes": NODES,
                     "edge_probability": EDGE_PROBABILITY,
                     "max_weight": MAX_WEIGHT, "seed": derive(seed, fresh),
                     "eps": 0.5},
        "algorithm": algorithm,
    }


def _spec_key(spec: dict) -> str:
    return f"{spec['algorithm']}:{spec['workload']['seed']}"


def schedule(seed: int, count: int):
    """``(due offset in s, spec)`` per request: seeded and rate-fixed.

    Returns the plan and the fresh specs in the order first sent.
    """

    rng = random.Random(derive(seed, "schedule"))
    period = 1.0 / RATE
    fresh = []
    plan = []
    for i in range(count):
        if i % REPEAT_EVERY == REPEAT_EVERY - 1:
            # Repeat a spec sent at least three requests earlier, so it
            # has (almost always) finished and sits in the cache.  The
            # repeated algorithm alternates like the fresh ones.
            kind = (i // REPEAT_EVERY) % len(SPECS)
            choices = fresh[kind:len(fresh) - 2:len(SPECS)]
            spec = choices[rng.randrange(len(choices))]
        else:
            spec = _spec(seed, len(fresh))
            fresh.append(spec)
        plan.append((i * period + rng.random() * period / 2, spec))
    return plan, fresh


class Daemon:
    """One ``python -m repro serve`` process and an HTTP client for it."""

    def __init__(self, state_dir: str):
        env = dict(os.environ)
        env.pop("REPRO_BACKEND", None)
        src = os.path.join(ROOT, "src")
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in [env.get("PYTHONPATH")] if p])
        self._log = open(os.path.join(state_dir, "daemon.log"), "wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--workers", "1",
             "--port", "0", "--state-dir", os.path.join(state_dir, "state")],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=self._log,
            text=True)
        self.port = None
        self.connections = 0
        self.max_connections = 0

    def wait_ready(self, timeout_s: float = 60.0) -> None:
        deadline = time.monotonic() + timeout_s
        with selectors.DefaultSelector() as selector:
            selector.register(self.proc.stdout, selectors.EVENT_READ)
            while time.monotonic() < deadline:
                if not selector.select(deadline - time.monotonic()):
                    break
                line = self.proc.stdout.readline()
                if not line:
                    break
                if "listening on http://" in line:
                    self.port = int(line.split("http://")[1]
                                    .split()[0].rsplit(":", 1)[1])
                    return
        raise RuntimeError("daemon did not print its ready line")

    def request(self, method: str, path: str, body=None):
        conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                          timeout=10.0)
        self.connections += 1
        self.max_connections = max(self.max_connections, self.connections)
        try:
            conn.request(method, path,
                         body=None if body is None else json.dumps(body),
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            return response.status, json.loads(response.read())
        finally:
            conn.close()
            self.connections -= 1

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def stop(self) -> None:
        """SIGTERM (graceful drain), then kill if it hangs; always reaped."""

        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=20.0)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()


def _wait_terminal(daemon: Daemon, job_id: str) -> dict:
    deadline = time.monotonic() + JOB_TIMEOUT_S
    while time.monotonic() < deadline:
        status, record = daemon.request("GET", f"/jobs/{job_id}")
        if status == 200 and record["status"] in TERMINAL:
            return record
        time.sleep(POLL_S)
    raise RuntimeError(f"job {job_id} did not finish")


def run(seed: int, seconds: float, trace: bool, import_s: float) -> RunOutput:
    import repro.api as api
    from repro.serve.protocol import encode_solution

    checker = Checker(reference=load_reference(NAME, seed))
    scratch = tempfile.mkdtemp(prefix="serve-", dir=_scratch_root())
    daemons = []

    def setup():
        if daemons:
            daemons.pop().stop()
        daemon = Daemon(tempfile.mkdtemp(dir=scratch))
        daemons.append(daemon)
        daemon.wait_ready()
        # Warm-up: one job per algorithm on specs the run never sends.
        for k in range(len(SPECS)):
            spec = _spec(derive(seed, "warm-up"), k)
            status, record = daemon.request("POST", "/jobs", spec)
            if status != 201:
                raise RuntimeError(f"warm-up submit returned {status}")
            _wait_terminal(daemon, record["id"])
        return daemon

    try:
        daemon, setup_times = timed_setup(setup)
        plan, fresh = schedule(seed, max(
            PASS * REPEAT_EVERY // (REPEAT_EVERY - 1) + 1,
            int(round(seconds * RATE))))
        tracer = Tracer()
        window = _open_loop(daemon, plan, tracer if trace else None)
        _, stats = daemon.request("GET", "/stats")
        peak_rss = daemon.peak_rss_mb()
    finally:
        for daemon in daemons:
            daemon.stop()
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(scratch))
        except OSError:  # another run's files are still there
            pass

    # Check every served result against an in-process solve.
    local = {}
    samples = Samples()
    for (_, spec), outcome in zip(plan, window["outcomes"]):
        key = _spec_key(spec)
        if key not in local:
            instance = api.instance_from_workload(spec["workload"],
                                                  backend="object")
            local[key] = api.solve(instance, spec["algorithm"],
                                   problem=spec["workload"]["problem"])
        expected = local[key]
        error = outcome.get("error")
        result = outcome.get("result")
        if error is None and (
                result is None or result["status"] != expected.status
                or result["rounds"] != expected.rounds
                or result["objective"] != expected.objective
                or result["solution"] != encode_solution(expected.solution)):
            error = "served result differs from the in-process solve"
        bits = expected.metrics.bits if expected.metrics is not None else 0
        sig = (None if result is None
               else (result["rounds"], bits, result["objective"]))
        ok = checker.check(key, sig, error)
        samples.add(outcome.get("latency", 0.0), outcome.get("factor", 1.0),
                    ok, timed=False)
    # Open loop: the offered rate sets throughput, so the window is not
    # rescaled.
    samples.add_pass_time(window["span_s"], 1.0)
    samples.end_pass()

    scale = statistics.median(window["factors"])
    notes = {"backend": "object (REPRO_BACKEND cleared for the daemon)",
             "rate_per_s": RATE, "requests": len(plan),
             "repeat_every": REPEAT_EVERY, "poll_s": POLL_S,
             "loadgen": {"threads": THREADS,
                         "max_connections_allowed": MAX_CONNECTIONS,
                         "max_connections_seen": window["max_connections"]},
             "loop": "open, one client thread", "speed_factor_p50": scale}
    if window["max_connections"] > MAX_CONNECTIONS:
        checker.require([f"load generator opened "
                         f"{window['max_connections']} connections"])
    if not trace:
        return end_to_end(checker, samples,
                          [_spec_key(spec) for spec in fresh[:PASS]],
                          import_s, setup_times, peak_rss, TAIL_PCT, notes)

    jobs = max(1, stats["jobs"]["total"])
    run_ms = stats["latency"]["p50_ms"] * scale
    latency_p50_ms = (statistics.median(samples.scaled) * 1000.0
                      if samples.scaled else 0.0)
    metrics = {
        "serve.submit_ms_p50": statistics.median(window["submit_s"])
        * 1000.0 * scale,
        "serve.run_ms_p50": run_ms,
        "serve.wait_ms_p50": latency_p50_ms - run_ms,
        "serve.cache_hit_ratio": window["cache_hits"] / len(plan),
        "serve.checkpoints_per_job": stats["checkpoints_total"] / jobs,
        "loadgen.late_ms_max": window["late_max_s"] * 1000.0,
        "loadgen.sent": float(len(plan)),
        "unattributed.self_ms_per_op": tracer.self_s.get(OP, 0.0)
        * 1000.0 * scale / len(plan),
        "trace.op_ms_per_op": tracer.root_s.get(OP, 0.0) * 1000.0
        * scale / len(plan),
        "trace.unattributed_share": (tracer.self_s.get(OP, 0.0)
                                     / tracer.root_s.get(OP, 1.0)),
        "trace.overhead_share": _span_cost(tracer) / window["span_s"],
    }
    checker.require(addup_problems(tracer, names=CLIENT_SPANS))
    return checker.output(metrics, notes)


def _span_cost(tracer: Tracer) -> float:
    """Seconds the client spent recording spans: calls × the measured
    cost of one span.  The daemon runs no tracing code, so this is the
    whole tracing overhead of the workload."""

    probe = Tracer()
    reps = 20000
    started = clock()
    for _ in range(reps):
        probe.enter("probe")
        probe.exit()
    per_span = (clock() - started) / reps
    return per_span * sum(tracer.calls.values())


def _scratch_root() -> str:
    path = os.path.join(ROOT, ".hostbench-tmp")
    os.makedirs(path, exist_ok=True)
    return path


def _open_loop(daemon: Daemon, plan, tracer):
    """Send ``plan`` on schedule; poll pending jobs until terminal."""

    def span(name):
        return (tracer.span(name) if tracer is not None
                else contextlib.nullcontext())

    rng = random.Random(len(plan))
    outcomes = [{} for _ in plan]
    submit_s = []
    pending = {}  # job id -> [request index, next poll time]
    late_max = 0.0
    cache_hits = 0
    daemon.max_connections = 0
    # The daemon and the client share the cores, so the factor covers
    # every core.  It is measured only while no job is pending (the
    # daemon is idle, so the kernel competes with nothing); each request
    # is scaled by the latest factor at its submission.
    factors = [cores_speed_factor(repeats=1)]
    calibrated = clock()
    if tracer is not None:
        tracer.enter(OP)
    start = clock()
    due = [start + offset for offset, _ in plan]
    cursor = 0
    last_done = start
    while cursor < len(plan) or pending:
        now = clock()
        if cursor < len(plan) and due[cursor] <= now:
            i = cursor
            cursor += 1
            late_max = max(late_max, now - due[i])
            outcomes[i]["factor"] = factors[-1]
            try:
                with span("serve.submit"):
                    status, record = daemon.request("POST", "/jobs",
                                                    plan[i][1])
            except (OSError, ValueError) as exc:
                outcomes[i]["error"] = f"submit failed: {exc}"
                continue
            after = clock()
            submit_s.append(after - now)
            if status != 201:
                outcomes[i]["error"] = f"submit returned {status}"
                continue
            cache_hits += bool(record.get("cache_hit"))
            if record["status"] in TERMINAL:
                outcomes[i].update(result=record["result"],
                                   latency=after - due[i])
                last_done = after
            else:
                pending[record["id"]] = [i, after + rng.random() * POLL_S]
            continue
        if pending:
            job_id, (i, next_poll) = min(pending.items(),
                                         key=lambda item: item[1][1])
            if next_poll <= now:
                try:
                    with span("serve.poll"):
                        status, record = daemon.request("GET",
                                                        f"/jobs/{job_id}")
                except (OSError, ValueError) as exc:
                    status, record = 0, {"error": str(exc)}
                after = clock()
                if status == 200 and record["status"] in TERMINAL:
                    outcomes[i].update(result=record["result"],
                                       latency=after - due[i])
                    last_done = after
                    del pending[job_id]
                elif after - due[i] > JOB_TIMEOUT_S:
                    outcomes[i]["error"] = f"no terminal record ({status})"
                    del pending[job_id]
                else:
                    pending[job_id][1] = after + POLL_S
                continue
        wakes = [entry[1] for entry in pending.values()]
        if cursor < len(plan):
            wakes.append(due[cursor])
        wake = min(wakes)
        if (not pending and wake - now > CALIBRATE_IDLE_S
                and now - calibrated > CALIBRATE_EVERY_S):
            with span("loadgen.calibrate"):
                factors.append(cores_speed_factor(repeats=1))
            calibrated = clock()
            continue
        with span("loadgen.sleep"):
            time.sleep(max(0.0, wake - clock()))
    if tracer is not None:
        tracer.exit()
    return {"outcomes": outcomes, "submit_s": submit_s,
            "late_max_s": late_max, "cache_hits": cache_hits,
            "factors": factors,
            "span_s": max(1e-9, last_done - start),
            "max_connections": daemon.max_connections}

