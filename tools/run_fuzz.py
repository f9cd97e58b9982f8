#!/usr/bin/env python
"""Drive a differential-fuzzing campaign from the command line.

Runs seeded random programs through every diff axis — chip versus the
reference interpreter, every simulator shortcut on versus the plain
per-cycle machine (``fast_paths``), uninterrupted versus
snapshot/restore-replayed, and (for the scenarios a two-node mesh can
host) the ``workers=2`` pipes versus the in-process engine — and exits
non-zero on any divergence.  The fixed-seed smoke run the test suite
wires in as a tier-1 check is::

    python tools/run_fuzz.py --seed 0 --cases 50

The acceptance bar, which CI runs, is the longer run::

    python tools/run_fuzz.py --seed 0 --cases 200

On a red run, every failure is written out as a self-contained artifact
directory under ``--crashes`` (default ``crashes/``): a replayable
``dump.json`` (``python -m repro replay`` takes it directly), the
program source, a paste-ready regression test, and — when the failing
axis captured one — the machine snapshot itself.  CI uploads the
directory so a divergence on a runner is debuggable locally.

See ``docs/FUZZING.md`` for the scenario space and what a divergence
report means.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
for p in (REPO_ROOT, REPO_ROOT / "src"):
    if str(p) not in sys.path:
        sys.path.insert(0, str(p))

from repro.fuzz import (SCENARIOS, run_campaign,  # noqa: E402
                        write_failure_artifacts)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--seed", type=int, default=0,
                        help="campaign seed (default 0, the smoke seed)")
    parser.add_argument("--cases", type=int, default=50)
    parser.add_argument("--scenario", default=None, choices=SCENARIOS,
                        help="pin every case to one scenario")
    parser.add_argument("--no-shrink", action="store_true",
                        help="report divergences without minimizing them")
    parser.add_argument("--quiet", action="store_true",
                        help="only print the final summary")
    parser.add_argument("--crashes", default="crashes", metavar="DIR",
                        help="directory for per-failure artifacts "
                             "(default: crashes/; only written on failure)")
    args = parser.parse_args(argv)

    report = run_campaign(seed=args.seed, cases=args.cases,
                          scenario=args.scenario,
                          shrink=not args.no_shrink,
                          log=None if args.quiet else print)
    print(report.summary())
    for failure in report.failures:
        if failure.regression_test:
            print("\n# paste into tests/machine/test_fuzz_regressions.py:")
            print(failure.regression_test)
    if report.failures and args.crashes:
        for crash_dir in write_failure_artifacts(report, args.crashes):
            print(f"crash artifacts: {crash_dir}")
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
