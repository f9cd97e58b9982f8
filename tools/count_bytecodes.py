#!/usr/bin/env python
"""Count the CPython bytecodes the simulator executes per issued bundle,
in total and per layer of ``benchmarks/e2e/layers.py``.

For each workload of the end-to-end benchmark it builds and runs one
warm-up rep, then one measured rep under ``sys.settrace`` with
``f_trace_opcodes`` set on every frame.  Each opcode event is charged
to the layer of its code object (``layers.layer_of`` on the file, first
line and name); frames no layer claims (dataclass ``__init__``s,
``enum``, ``dataclasses``, ...) are charged to ``stdlib``, and the
benchmark's own frames to ``unattributed``.  Bytecodes done in C
(builtins, dict probes inside one opcode) are not separate events, so
this is a count of interpreter work, not of time.

The counts are exact: the same checkout, workload, seed and scale give
the same numbers on every run and under any ``PYTHONHASHSEED``, so a
difference between two checkouts is a difference in work.  Counts are
comparable only on one CPython minor version (the bytecode differs
between versions), so the output names it.

Usage::

    python tools/count_bytecodes.py [--workload NAME ...] [--scale X]
        [--json FILE]

Seed 0 throughout (the seed moves only request schedules and data,
and the counts are for comparing checkouts).  The default scales (0.05 for the kernels, 0.2 for
the services) keep each workload's layer shares within a few points of
full scale; counting ``serve_mesh`` (warm-up included) then takes about
10 s on a 2-vCPU Xeon, and all four workloads about 30 s.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
E2E = REPO_ROOT / "benchmarks" / "e2e"
for p in (E2E, REPO_ROOT / "src"):
    if str(p) not in sys.path:
        sys.path.insert(0, str(p))

import layers  # noqa: E402
import workloads  # noqa: E402

#: the workloads BENCHMARK.json names (the sharded one runs its nodes in
#: worker processes, which a trace in this process cannot see)
DEFAULT_WORKLOADS = ("kernel_turbo", "kernel_mt", "serve_node", "serve_mesh")
SEED = 0
KERNEL_SCALE = 0.05
SERVICE_SCALE = 0.2
#: the bucket for frames that belong to no layer
STDLIB = "stdlib"


def _traced(fn) -> dict:
    """Run ``fn()`` with every opcode counted; returns code object ->
    opcode events."""
    counts: dict = {}

    def local(frame, event, arg):
        if event == "opcode":
            code = frame.f_code
            counts[code] = counts.get(code, 0) + 1
        return local

    def call(frame, event, arg):
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True
        return local

    previous = sys.gettrace()
    sys.settrace(call)
    try:
        fn()
    finally:
        sys.settrace(previous)
    return counts


def fold(counts: dict) -> dict[str, int]:
    """Opcode events per code object, summed by layer."""
    by_layer = dict.fromkeys(layers.LAYERS + (layers.UNATTRIBUTED, STDLIB),
                             0)
    for code, n in counts.items():
        layer = layers.layer_of(code.co_filename, code.co_firstlineno,
                                code.co_name)
        by_layer[layer or STDLIB] += n
    return by_layer


def _rep(name: str, scale: float, counted: bool):
    """Build, run and check one rep; returns its outcome and, when
    ``counted``, the opcode events of its measured phase."""
    workload = workloads.build(name, SEED, scale)
    try:
        counts = _traced(workload.run) if counted else workload.run()
        outcome = workload.finish()
    finally:
        workload.close()
    if outcome.failures:
        raise RuntimeError(f"{name}: {outcome.failures}")
    return outcome, counts


def count(name: str, scale: float | None = None) -> dict:
    """One warm-up rep, then one counted rep of workload ``name``;
    returns the counted rep's bundles, total bytecodes and bytecodes
    by layer."""
    if scale is None:
        kernel = isinstance(workloads.SPECS[name], workloads.KernelSpec)
        scale = KERNEL_SCALE if kernel else SERVICE_SCALE
    _rep(name, scale, counted=False)
    outcome, counts = _rep(name, scale, counted=True)
    by_layer = fold(counts)
    return {"workload": name, "seed": SEED, "scale": scale,
            "bundles": outcome.bundles, "total": sum(by_layer.values()),
            "layers": by_layer}


def per_bundle(record: dict) -> dict[str, float]:
    """A :func:`count` record as bytecodes per issued bundle."""
    bundles = record["bundles"]
    out = {"total": record["total"] / bundles}
    out.update((layer, n / bundles) for layer, n in record["layers"].items())
    return out


def print_table(records: list[dict]) -> None:
    names = [r["workload"] for r in records]
    print(f"bytecodes per issued bundle (CPython "
          f"{platform.python_version()})")
    print(f"{'layer':<20}" + "".join(f"{n:>14}" for n in names))
    rows = ["total", *layers.LAYERS, layers.UNATTRIBUTED, STDLIB]
    tables = [per_bundle(r) for r in records]
    for row in rows:
        print(f"{row:<20}" + "".join(f"{t[row]:>14,.1f}" for t in tables))
    print(f"{'bundles':<20}"
          + "".join(f"{r['bundles']:>14,}" for r in records))
    print(f"{'scale':<20}" + "".join(f"{r['scale']:>14g}" for r in records))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", default=None,
                        choices=workloads.WORKLOADS,
                        help="workload to count (repeatable; default: "
                             + ", ".join(DEFAULT_WORKLOADS) + ")")
    parser.add_argument("--scale", type=float, default=None,
                        help=f"workload size for every workload counted "
                             f"(default: {KERNEL_SCALE} for the kernels, "
                             f"{SERVICE_SCALE} for the services)")
    parser.add_argument("--json", default=None, metavar="FILE",
                        help="also write the counts here")
    args = parser.parse_args(argv)

    records = [count(name, scale=args.scale)
               for name in args.workload or DEFAULT_WORKLOADS]
    print_table(records)
    if args.json:
        payload = {"python": platform.python_version(),
                   "records": [{**r, "per_bundle": per_bundle(r)}
                               for r in records]}
        Path(args.json).write_text(json.dumps(payload, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
