"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload table4_batch --seed 1 \
        --seconds 30 --trace 0

Run from the repository root.  The last stdout line is the result:
``{"correct", "attempted", "failed", "metrics"}``; the line before it
records provenance (host CPU count, Python, commit, seed, budget,
corpus size) and any failed output check.  ``--trace 0`` reports the
end-to-end metrics of BENCHMARK.json, ``--trace 1`` the per-layer
ones from a traced run.  Exit code 0 means every output check passed.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
from pathlib import Path

WORKLOADS = ("table4_batch", "maze_batch", "service_mixed")


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    src = Path(__file__).resolve().parent.parent / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure: {src}/repro is missing",
              file=sys.stderr)
        return 2
    # Runs must never share solver or instrumentation results through
    # the on-disk cache tier.
    os.environ.pop("REPRO_CACHE_DIR", None)
    sys.path.insert(0, str(src))
    # A SIGTERM unwinds like an error, so daemons started by the run
    # are stopped and waited for on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))

    from common import emit
    trace = bool(args.trace)
    if args.workload == "service_mixed":
        from service import run_service
        outcome = run_service(args.seed, args.seconds, trace)
    else:
        from batch import run_batch
        outcome = run_batch(args.workload, args.seed, args.seconds, trace)
    return emit(*outcome, trace=trace)


if __name__ == "__main__":
    sys.exit(main())
