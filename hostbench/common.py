"""Shared pieces of the workloads: seeds, output checks, resources.

Everything here is the benchmark's own code; it only *calls* into
``repro``.  Inputs derive from ``--seed`` through :func:`derive`, a
hash that does not depend on the program under test.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import random
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from .stats import latency_summary

#: The benchmark's root and the checkout it runs in.
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
REFERENCE_FILE = os.path.join(BENCH_DIR, "reference.json")

#: Set-up repetitions per run; ``setup_s`` is import time plus their
#: median.
SETUP_REPEATS = 3

#: An op's exact outcome: (rounds, bits, objective).
Signature = Tuple[int, int, int]

clock = time.perf_counter


def derive(seed: int, *parts) -> int:
    """A 31-bit input seed for ``parts`` under benchmark seed ``seed``."""

    key = "|".join([str(seed)] + [str(p) for p in parts])
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big") >> 1


def signature(report) -> Signature:
    """``(rounds, bits, objective)`` of a facade report.

    Algorithms whose report carries no simulator metrics count 0 bits.
    """

    bits = report.metrics.bits if report.metrics is not None else 0
    return (int(report.rounds), int(bits), int(report.objective))


def quiesce() -> None:
    """Collect garbage outside the timed region, so no op pays for the
    previous op's garbage."""

    gc.collect()


def peak_rss_mb(children: bool = False) -> float:
    """Peak resident set of this process (or of its largest waited-for
    child, whichever is larger when ``children``), in MB."""

    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        peak = max(peak,
                   resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0


def load_reference(workload: str, seed: int) -> Optional[Dict[str, list]]:
    """The recorded per-op signatures for ``workload`` at ``seed``, or
    ``None`` when the reference was recorded at another seed."""

    try:
        with open(REFERENCE_FILE, encoding="utf-8") as handle:
            table = json.load(handle)
    except FileNotFoundError:
        return None
    if table.get("seed") != seed:
        return None
    return table.get("workloads", {}).get(workload)


@dataclass
class RunOutput:
    """What one workload run hands back to the driver script."""

    attempted: int
    failed: int
    metrics: Dict[str, float]
    #: Context printed beside the metrics (sample counts, tail
    #: percentile, backend, load-generator limits).
    notes: Dict[str, object] = field(default_factory=dict)
    #: Failed checks, op-level and run-level; empty on a correct run.
    problems: List[str] = field(default_factory=list)
    #: First outcome of every op key (what ``record_reference`` saves).
    outcomes: Dict[str, Signature] = field(default_factory=dict)


@dataclass
class Checker:
    """Counts attempted and failed ops and checks each op's outcome.

    The first outcome of each op key is compared with the recorded
    reference when the run uses the reference seed and the key is
    recorded (the reference covers one pass of the op list); every
    later outcome of the same key must repeat the first exactly.
    """

    reference: Optional[Dict[str, list]] = None
    attempted: int = 0
    failed: int = 0
    first: Dict[str, Signature] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)

    def _problem(self, key: str, outcome: Optional[Signature],
                 error: Optional[str]) -> Optional[str]:
        if error is not None:
            return f"{key}: {error}"
        if outcome is None:
            return f"{key}: no outcome"
        seen = self.first.get(key)
        if seen is not None:
            if seen != outcome:
                return f"{key}: {outcome} differs from first run {seen}"
            return None
        self.first[key] = outcome
        expected = (self.reference or {}).get(key)
        if expected is not None and tuple(expected) != outcome:
            return (f"{key}: {outcome} differs from the recorded "
                    f"reference {tuple(expected)}")
        return None

    def check(self, key: str, outcome: Optional[Signature],
              error: Optional[str] = None) -> bool:
        """Record one measured op; ``outcome`` is ``None`` if it failed."""

        self.attempted += 1
        problem = self._problem(key, outcome, error)
        if problem is None:
            return True
        self.failed += 1
        self.require([problem])
        return False

    def verify(self, key: str, outcome: Optional[Signature],
               error: Optional[str] = None) -> None:
        """Check a set-up op (warm-up) without counting it as an op."""

        problem = self._problem(key, outcome, error)
        if problem is not None:
            self.require([f"set-up {problem}"])

    def require(self, problems: List[str]) -> None:
        """Record run-level problems (each makes the run incorrect)."""

        room = max(0, 20 - len(self.problems))
        self.problems.extend(problems[:room])

    def pass_totals(self, keys: List[str]) -> Signature:
        """Σ rounds, bits and objective over one pass of ``keys``."""

        rows = [self.first[key] for key in keys if key in self.first]
        return tuple(sum(row[i] for row in rows)  # type: ignore[return-value]
                     for i in range(3))

    def output(self, metrics: Dict[str, float],
               notes: Dict[str, object]) -> RunOutput:
        return RunOutput(self.attempted, self.failed, metrics, notes,
                         list(self.problems), dict(self.first))


#: Seconds :func:`calibration_kernel` takes on the reference machine
#: state (this repository's 2-CPU Xeon box when its cores run fast).
REFERENCE_KERNEL_S = 0.003


def calibration_kernel() -> None:
    """Fixed pure-Python work: no ``repro`` code, so no change to the
    program can alter its cost."""

    rng = random.Random(1)
    pairs = [(rng.random(), i) for i in range(6000)]
    pairs.sort()
    table = {}
    for value, i in pairs:
        table[i] = value
    sum(table.values())


def speed_factor() -> float:
    """Reference kernel time ÷ the kernel's time right now.

    Shared cloud cores change speed by up to ~40% for seconds to
    minutes at a time, and the program slows with them.  Multiplying
    a time measured next to this call by the factor gives that time at
    the reference speed, which is what the end-to-end metrics report.
    """

    started = clock()
    calibration_kernel()
    return REFERENCE_KERNEL_S / (clock() - started)


def cores_speed_factor(repeats: int = 3) -> float:
    """:func:`speed_factor` averaged over every core this process may use.

    For work that spreads over all cores (a process pool; a daemon and
    its client): the calling thread visits each core in turn, warms it
    with one unmeasured kernel run, and keeps the median of
    ``repeats`` factors there.
    """

    cores = sorted(os.sched_getaffinity(0))
    factors = []
    try:
        for core in cores:
            os.sched_setaffinity(0, {core})
            calibration_kernel()
            factors.append(statistics.median(
                speed_factor() for _ in range(repeats)))
    finally:
        os.sched_setaffinity(0, cores)
    return statistics.mean(factors)


def timed_setup(build: Callable[[], object]) -> Tuple[object, List[float]]:
    """Run ``build`` :data:`SETUP_REPEATS` times; keep the last product.

    Returns the product and each repetition's time at reference speed.
    Afterwards every surviving object is frozen out of the collector's
    reach, so the per-op collection in :func:`quiesce` only walks new
    objects.
    """

    times = []
    product = None
    for _ in range(SETUP_REPEATS):
        product = None  # let the previous repetition's objects go
        quiesce()
        factor = speed_factor()
        started = clock()
        product = build()
        times.append((clock() - started) * factor)
    quiesce()
    gc.freeze()
    return product, times


@dataclass
class Samples:
    """Successful op latencies of a run, grouped into passes.

    Each op is timed in wall seconds and scaled to reference speed by
    the :func:`speed_factor` measured just before it.
    """

    raw: List[float] = field(default_factory=list)
    scaled: List[float] = field(default_factory=list)
    #: Per pass: (ops completed, scaled measured seconds).
    passes: List[Tuple[int, float]] = field(default_factory=list)
    #: Wall seconds measured so far; closed loops stop on it.
    wall: float = 0.0
    _ops: int = 0
    _busy: float = 0.0

    def add(self, seconds: float, factor: float, ok: bool = True,
            timed: bool = True) -> None:
        """One op; a failed op adds measured time but no sample.  With
        ``timed=False`` the op's time is already in a pass time."""

        if timed:
            self.wall += seconds
            self._busy += seconds * factor
        if ok:
            self._ops += 1
            self.raw.append(seconds)
            self.scaled.append(seconds * factor)

    def add_pass_time(self, seconds: float, factor: float) -> None:
        """Measured time of a pass whose ops overlap (a batch pass)."""

        self.wall += seconds
        self._busy += seconds * factor

    def end_pass(self) -> None:
        self.passes.append((self._ops, self._busy))
        self._ops, self._busy = 0, 0.0


def end_to_end(checker: Checker, samples: Samples, pass_keys: List[str],
               import_s: float, setup_times: List[float], peak_rss: float,
               tail_pct: float, notes: Dict[str, object]) -> RunOutput:
    """The end-to-end metrics of a run (raw wall times go in ``notes``).

    ``setup_s`` is import time plus the median set-up repetition, and
    ``ops_per_s`` the median over passes of ops ÷ measured time.
    """

    rounds, bits, objective = checker.pass_totals(pass_keys)
    metrics = {"setup_s": import_s + statistics.median(setup_times),
               "peak_rss_mb": peak_rss,
               "rounds": rounds, "bits": bits, "objective": objective}
    if samples.scaled:
        summary = latency_summary(samples.scaled, tail_pct)
        metrics["latency_p50_ms"] = summary["p50_ms"]
        metrics["latency_tail_ms"] = summary["tail_ms"]
        notes["latency"] = summary
        notes["wall_latency"] = latency_summary(samples.raw, tail_pct)
    rates = [ops / busy for ops, busy in samples.passes if busy > 0]
    if rates:
        metrics["ops_per_s"] = statistics.median(rates)
    notes["passes"] = len(samples.passes)
    return checker.output(metrics, notes)


__all__ = ["BENCH_DIR", "Checker", "REFERENCE_FILE", "REFERENCE_KERNEL_S",
           "ROOT", "RunOutput", "SETUP_REPEATS", "Samples", "Signature",
           "calibration_kernel", "clock", "cores_speed_factor", "derive",
           "end_to_end", "load_reference", "peak_rss_mb", "quiesce",
           "signature", "speed_factor", "timed_setup"]
