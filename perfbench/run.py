"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cold-small --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
same requests untraced and then under the layer tracer and prints the
per-layer metrics.  ``--pin`` records the round pins of a seed's leading
requests into ``perfbench/pins.json`` instead of measuring.  The last
line of standard output is one JSON object::

    {"correct": true, "attempted": N, "failed": F, "metrics": {...}}

Every answer is checked outside the timed region: each forest against
the BFS oracle (``repro.verify.forest_checker.check_forest``) and each
pinned request's round total, forest size and activation count against
``pins.json``.  A wrong answer makes the exit code 1.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--pin", action="store_true", help="record round pins for --seed and exit"
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "api.py").is_file():
        print(
            f"perfbench: no program source under {ROOT / 'src'}; "
            "run from a full checkout of the repository",
            file=sys.stderr,
        )
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.workloads import DEFAULT_SEED, WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(
            f"perfbench: unknown workload {args.workload!r}; "
            f"choose from {', '.join(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    seed = DEFAULT_SEED if args.seed is None else args.seed
    if args.pin:
        from perfbench.pinning import record_pins

        return record_pins(workload, seed)
    if workload.in_process:
        from perfbench.inprocess import run_in_process

        return run_in_process(workload, seed, args.seconds, bool(args.trace))
    from perfbench.service import run_service

    return run_service(workload, seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
