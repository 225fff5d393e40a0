"""Record ``reference.json``: every op's exact outcome at the default seed.

Run from the checkout root, on a commit whose outputs are trusted::

    python3 hostbench/record_reference.py

Each workload runs one pass of its op list at seed 0 with no
reference loaded, and every op key's ``(rounds, bits, objective)`` is
saved.  A benchmark run at seed 0 then fails any op whose outcome
differs from the saved one.
"""

from __future__ import annotations

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 0


def main() -> int:
    if sys.path and os.path.abspath(sys.path[0]) == HERE:
        del sys.path[0]
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    os.environ.pop("REPRO_BACKEND", None)
    from hostbench import common, run

    common.load_reference = lambda workload, seed: None
    table = {"seed": SEED, "workloads": {}}
    for name in run.WORKLOADS:
        module = run._workload_module(name)
        started = time.perf_counter()
        out = module.run(SEED, 0.0, False, 0.0)
        if out.problems or out.failed:
            print(f"{name}: checks failed: {out.problems}", file=sys.stderr)
            return 1
        table["workloads"][name] = {key: list(value) for key, value
                                    in sorted(out.outcomes.items())}
        print(f"{name}: {len(out.outcomes)} op keys "
              f"({time.perf_counter() - started:.1f} s)")
    with open(common.REFERENCE_FILE, "w", encoding="utf-8") as handle:
        json.dump(table, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
