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
this is a count of interpreter work, not of time.  The cyclic garbage
collector is paused while counting: a collection would run whatever
Python callbacks and finalizers the process holds (a test framework's
``gc.callbacks``, say) at allocation-dependent points.

The counts are exact: the same checkout, workload, seed and scale give
the same numbers on every run and under any ``PYTHONHASHSEED``, so a
difference between two checkouts is a difference in work.  Counts are
comparable only on one CPython minor version (the bytecode differs
between versions), so the output names it.

Usage::

    python tools/count_bytecodes.py [--workload NAME ...] [--scale X]
        [--json FILE]
    python tools/count_bytecodes.py --check tools/bytecodes.json

Below the layer table it lists each workload's ten costliest
functions in bytecodes per issued bundle, with their layers and
``module:qualname`` (functions of one name and layer, such as the
generated ``__init__`` of every dataclass, share a row).  ``--json``
writes the layer counts only.

Seed 0 throughout (the seed moves only request schedules and data,
and the counts are for comparing checkouts).  The default scales (0.05
for the kernels, 0.2 for the services) keep each workload's layer
shares within a few points of full scale; counting ``serve_mesh``
(warm-up included) then takes about 10 s on a 2-vCPU Xeon, and all
four workloads about 30 s.

**The work gate.**  ``--check FILE`` reads a ``--json`` output (the
committed anchor is ``tools/bytecodes.json``), counts every workload it
records at that record's scale, and compares the issued bundles and
every layer's count, ``stdlib`` and ``unattributed`` included.  Equal:
it prints the usual table and exits 0.  Any difference: it prints each
changed workload's layers (anchor, now, difference, difference per
bundle) and its costliest functions, then the command that re-records
FILE, and exits 1.  A change
that moves work re-records the anchor in the same diff, so the anchor's
diff shows which layers moved.  FILE's ``python`` must be this
interpreter's exact version, else it exits 2 without counting: the
standard library's code, and so the counts, can change between micro
releases.
"""

from __future__ import annotations

import argparse
import gc
import json
import platform
import sys
from pathlib import Path
from typing import NamedTuple

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
#: functions listed per workload below the layer table
TOP_FUNCTIONS = 10
SRC = REPO_ROOT / "src"


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

    gc.collect()  # paused while counting: see the module docstring
    collecting = gc.isenabled()
    gc.disable()
    previous = sys.gettrace()
    sys.settrace(call)
    try:
        fn()
    finally:
        sys.settrace(previous)
        if collecting:
            gc.enable()
    return counts


def layer_of_code(code) -> str:
    """The layer a code object's opcode events are charged to."""
    layer = layers.layer_of(code.co_filename, code.co_firstlineno,
                            code.co_name)
    return layer or STDLIB


def fold(counts: dict) -> dict[str, int]:
    """Opcode events per code object, summed by layer."""
    by_layer = dict.fromkeys(layers.LAYERS + (layers.UNATTRIBUTED, STDLIB),
                             0)
    for code, n in counts.items():
        by_layer[layer_of_code(code)] += n
    return by_layer


def function_name(code) -> str:
    """``module:qualname`` of a code object (the module is the file's
    stem outside ``src/``, and ``<string>`` for generated code)."""
    path = Path(code.co_filename)
    if path.suffix != ".py":
        module = code.co_filename
    elif path.is_relative_to(SRC):
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
    else:
        module = path.stem
    return f"{module}:{code.co_qualname}"


class FunctionRow(NamedTuple):
    """One row of the costliest-functions list."""

    bytecodes: int
    layer: str
    function: str
    #: one of the code objects counted in the row (several share a row
    #: when they share a name and a layer)
    code: object


def costliest(counts: dict, top: int = TOP_FUNCTIONS) -> list[FunctionRow]:
    """The ``top`` functions that ran the most opcodes, most first
    (ties by name)."""
    rows: dict[tuple[str, str], FunctionRow] = {}
    for code, n in counts.items():
        key = (layer_of_code(code), function_name(code))
        row = rows.get(key)
        rows[key] = (FunctionRow(n, *key, code) if row is None
                     else row._replace(bytecodes=row.bytecodes + n))
    return sorted(rows.values(),
                  key=lambda row: (-row.bytecodes, row.function))[:top]


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
    returns the counted rep's bundles, total bytecodes, bytecodes by
    layer and costliest functions (``functions``, which ``--json``
    leaves out)."""
    if scale is None:
        scale = default_scale(name)
    _rep(name, scale, counted=False)
    outcome, counts = _rep(name, scale, counted=True)
    by_layer = fold(counts)
    return {"workload": name, "seed": SEED, "scale": scale,
            "bundles": outcome.bundles, "total": sum(by_layer.values()),
            "layers": by_layer, "functions": costliest(counts)}


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


def print_functions(record: dict) -> None:
    """A workload's costliest functions, per issued bundle."""
    print(f"\n{record['workload']}: the {len(record['functions'])} "
          f"costliest functions (bytecodes per issued bundle)")
    for row in record["functions"]:
        print(f"{row.bytecodes / record['bundles']:>10,.1f}  "
              f"{row.layer:<20}{row.function}")


def default_scale(name: str) -> float:
    kernel = isinstance(workloads.SPECS[name], workloads.KernelSpec)
    return KERNEL_SCALE if kernel else SERVICE_SCALE


def rerecord_command(path: str, records: list[dict]) -> str:
    """The command line that writes ``records``' workloads, at their
    scales, to ``path``."""
    args = ["python", "tools/count_bytecodes.py"]
    names = tuple(r["workload"] for r in records)
    if names != DEFAULT_WORKLOADS:
        for name in names:
            args += ["--workload", name]
    if any(r["scale"] != default_scale(r["workload"]) for r in records):
        args += ["--scale", f"{records[0]['scale']:g}"]
    return " ".join(args + ["--json", path])


def differences(anchor: dict, record: dict) -> list[str]:
    """The rows of a changed workload's table (anchor, now, difference,
    difference per bundle), or none when the counts are equal."""
    def row(name, was, now, per_bundle):
        return (f"{name:<20}{was:>14,}{now:>14,}{now - was:>+12,}"
                f"{per_bundle:>+12,.2f}")

    was_bundles, now_bundles = anchor["bundles"], record["bundles"]
    rows = []
    if was_bundles != now_bundles:
        rows.append(f"{'bundles':<20}{was_bundles:>14,}{now_bundles:>14,}"
                    f"{now_bundles - was_bundles:>+12,}")
    for layer in dict.fromkeys([*record["layers"], *anchor["layers"]]):
        was = anchor["layers"].get(layer, 0)
        now = record["layers"].get(layer, 0)
        if was != now:
            rows.append(row(layer, was, now,
                            now / now_bundles - was / was_bundles))
    if rows:
        was = sum(anchor["layers"].values())
        now = record["total"]
        rows.insert(0, row("total", was, now,
                           now / now_bundles - was / was_bundles))
    return rows


def check(path: str) -> int:
    """The work gate: recount what ``path`` records and compare."""
    anchor = json.loads(Path(path).read_text())
    here = platform.python_version()
    if anchor["python"] != here:
        print(f"{path} was recorded under CPython {anchor['python']}, "
              f"this is CPython {here}: bytecode counts compare only on "
              f"the same interpreter, so nothing was counted",
              file=sys.stderr)
        return 2
    records = [count(r["workload"], r["scale"]) for r in anchor["records"]]
    print_table(records)
    changed = 0
    for was, record in zip(anchor["records"], records):
        rows = differences(was, record)
        if not rows:
            continue
        changed += 1
        print(f"\n{record['workload']} (scale {record['scale']:g}) does "
              f"different work from {path}:")
        print(f"{'':<20}{'anchor':>14}{'now':>14}{'diff':>12}"
              f"{'per bundle':>12}")
        print("\n".join(rows))
        print_functions(record)
    if not changed:
        print(f"\nevery count equals {path}")
        return 0
    print(f"\n{changed} workload(s) changed.  If the change is meant, "
          f"re-record the anchor in the same diff:\n  "
          f"{rerecord_command(path, anchor['records'])}")
    return 1


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
    parser.add_argument("--check", default=None, metavar="FILE",
                        help="count what FILE (a --json output) records "
                             "and exit 1 if any count differs from it")
    args = parser.parse_args(argv)
    if args.check:
        if args.workload or args.scale is not None or args.json:
            parser.error("--check takes its workloads and scales from FILE")
        return check(args.check)

    records = [count(name, scale=args.scale)
               for name in args.workload or DEFAULT_WORKLOADS]
    if args.json:
        # written before anything prints, so a reader that closes the
        # pipe early (``| head``) cannot leave the old file in place
        payload = {"python": platform.python_version(),
                   "records": [{**{k: v for k, v in r.items()
                                   if k != "functions"},
                                "per_bundle": per_bundle(r)}
                               for r in records]}
        Path(args.json).write_text(json.dumps(payload, indent=1) + "\n")
    print_table(records)
    for record in records:
        print_functions(record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
