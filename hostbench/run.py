"""Repository benchmark: host time of solves, batches, churn and serve.

Run from the root of a checkout::

    python3 hostbench/run.py --workload solve-cold --seed 0 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the
same workload with layer spans and reports the per-layer metrics.
Every metric is printed by name with its unit, then provenance, and
the last line of standard output is one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

``failed`` ÷ ``attempted`` is the failed-op ratio.  The program under
test is imported from ``src/`` of the same checkout; without it the
script exits with code 2 and prints no result.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import sys
import time

_started = time.perf_counter()
_HERE = os.path.dirname(os.path.abspath(__file__))
_ROOT = os.path.dirname(_HERE)
_SRC = os.path.join(_ROOT, "src")

#: End-to-end metrics, reported by every workload with ``--trace 0``.
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "rounds": "count",
    "bits": "count",
    "objective": "weight",
}

#: Per-layer metrics, reported by every workload with ``--trace 1``
#: (0 where the workload does not run the layer).
PER_LAYER = {
    "api.solve.self_ms_per_op": "ms",
    "api.fingerprint.self_ms_per_op": "ms",
    "api.fingerprint.calls_per_op": "count",
    "api.certify.self_ms_per_op": "ms",
    "api.serialize.self_ms_per_op": "ms",
    "congest.network_build.self_ms_per_op": "ms",
    "congest.csr_compile.self_ms_per_op": "ms",
    "congest.rng_derive.self_ms_per_op": "ms",
    "congest.kernel.self_ms_per_op": "ms",
    "congest.object_rounds.self_ms_per_op": "ms",
    "congest.messages_per_op": "count",
    "congest.payload_cache_hit_ratio": "ratio",
    "batch.ipc_share": "ratio",
    "batch.pickle_bytes_per_task": "bytes",
    "dynamic.reconcile.self_ms_per_op": "ms",
    "dynamic.influence_region.self_ms_per_op": "ms",
    "dynamic.splice.self_ms_per_op": "ms",
    "dynamic.repair_rounds_per_op": "count",
    "dynamic.region_share": "ratio",
    "serve.submit_ms_p50": "ms",
    "serve.run_ms_p50": "ms",
    "serve.wait_ms_p50": "ms",
    "serve.cache_hit_ratio": "ratio",
    "serve.checkpoints_per_job": "count",
    "loadgen.late_ms_max": "ms",
    "loadgen.sent": "count",
    "graphs.generate_s": "s",
    "unattributed.self_ms_per_op": "ms",
    "trace.op_ms_per_op": "ms",
    "trace.unattributed_share": "ratio",
    "trace.overhead_share": "ratio",
}

WORKLOADS = ("solve-cold", "paper-batch", "churn-step", "serve-open")


def _workload_module(name: str):
    """``solve-cold`` → ``hostbench.solve_cold`` (imported on demand)."""

    return importlib.import_module("hostbench." + name.replace("-", "_"))


def _commit() -> str:
    """The checkout's commit, read from ``.git`` inside it if present."""

    head = os.path.join(_ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as handle:
            ref = handle.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(_ROOT, ".git", ref[5:]),
                      encoding="utf-8") as handle:
                return handle.read().strip()
        return ref
    except OSError:
        return "unknown"


def _source_digest() -> str:
    """sha256 over ``src/`` Python files: the program's identity even
    where the checkout carries no git metadata."""

    digest = hashlib.sha256()
    for folder, dirs, files in os.walk(_SRC):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, _SRC).encode("utf-8"))
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def _provenance(args, nproc: int, backend_env) -> dict:
    import networkx
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "networkx": networkx.__version__,
        "commit": _commit(),
        "src_sha256": _source_digest(),
        "repro_backend_env": backend_env,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(_SRC, "repro", "__init__.py")):
        print(f"hostbench: no program to measure: {_SRC}/repro is missing",
              file=sys.stderr)
        return 2
    if sys.path and os.path.abspath(sys.path[0]) == _HERE:
        del sys.path[0]
    sys.path[:0] = [_SRC, _ROOT]
    # Backends are pinned per Instance; the variable is recorded and
    # cleared so neither this process nor the daemon follows it.
    backend_env = os.environ.pop("REPRO_BACKEND", None)

    import repro  # noqa: F401  (import time is part of set-up)

    if not os.path.abspath(repro.__file__).startswith(_SRC + os.sep):
        print(f"hostbench: imported repro from {repro.__file__}, not from "
              f"{_SRC}", file=sys.stderr)
        return 2
    module = _workload_module(args.workload)
    from hostbench.common import speed_factor

    # At reference speed, like every other time the benchmark reports.
    import_s = (time.perf_counter() - _started) * speed_factor()

    nproc = len(os.sched_getaffinity(0))
    concurrency = dict(module.CONCURRENCY)
    over = {key: count for key, count in concurrency.items()
            if count > nproc}
    if over:
        print(f"hostbench: {args.workload} needs {over} but nproc is "
              f"{nproc}", file=sys.stderr)
        return 3

    out = module.run(args.seed, args.seconds, bool(args.trace), import_s)

    wanted = PER_LAYER if args.trace else END_TO_END
    metrics = {name: {"value": float(out.metrics.get(name, 0.0)),
                      "unit": unit}
               for name, unit in wanted.items()}
    failed_ratio = out.failed / out.attempted if out.attempted else 1.0
    for name, entry in metrics.items():
        print(f"{name:42s} {entry['value']:>16.6g} {entry['unit']}")
    print(f"{'failed_ratio':42s} {failed_ratio:>16.6g} ratio")
    provenance = _provenance(args, nproc, backend_env)
    provenance["concurrency"] = concurrency
    print(json.dumps({"provenance": provenance, "notes": out.notes},
                     sort_keys=True, default=str))
    for problem in out.problems:
        print(f"hostbench: check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not out.problems and out.failed == 0
                   and out.attempted > 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
