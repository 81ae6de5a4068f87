"""One fresh-interpreter start, timed from inside.

Run as ``python3 perfbench/probe.py WORKLOAD SEED`` with the program's
``src`` on ``PYTHONPATH``.  It does what a user's process does before its
first scenario -- import the program and build the ``campaign`` grid,
or, for ``served``, run the server's startup parity check -- then prints one
JSON line with the time each step took and exits.  The parent times the
whole start from spawn to that line.
"""

from __future__ import annotations

import json
import sys
import time

#: The arguments ``LineSearchService`` passes to its startup parity check.
SERVER_PARITY_ARGS = dict(
    pairs=[(3, 1), (4, 2)], targets_per_pair=6, fault_sets_per_target=2,
    seed=2016,
)


def main(workload: str, seed: int) -> dict:
    started = time.perf_counter()
    if workload == "served":
        import repro.cli  # noqa: F401 - what `linesearch serve` imports
        import repro.service.server  # noqa: F401
        from repro.batch import run_parity_harness

        imported = time.perf_counter()
        report = run_parity_harness(**SERVER_PARITY_ARGS)
        if not report.passed:
            raise SystemExit("startup parity check failed")
        return {
            "import_s": imported - started,
            "parity_s": time.perf_counter() - imported,
        }
    import inputs
    from repro.robustness import CampaignExecutor

    imported = time.perf_counter()
    grid = inputs.campaign_grid(seed)
    CampaignExecutor(jobs=1)
    return {
        "import_s": imported - started,
        "build_s": time.perf_counter() - imported,
        "scenarios": len(grid),
    }


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1], int(sys.argv[2]))), flush=True)
