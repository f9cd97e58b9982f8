"""Command-line interface: assemble, disassemble and run MAP programs.

Usage (``python -m repro <command> ...``):

* ``asm FILE.s``           — assemble; print encoded words as hex.
* ``disasm FILE.s``        — assemble then disassemble (round-trip view).
* ``run FILE.s``           — run on a fresh simulation; print the result
  and final register file.  ``--data N`` allocates an N-byte read/write
  segment into r1; ``--trace`` prints the issue stream; ``--counters``
  prints the chip-wide perf-counter file; ``--max-cycles`` bounds the
  run; ``--nodes N --workers W`` runs on a mesh sharded across OS
  processes (bit-identical to the lockstep engine).
* ``isa``                  — print the opcode table.
* ``trace FILE.s``         — run a program with structured tracing
  attached and write a Perfetto/Chrome-trace JSON file (``--out``);
  ``--text`` prints the greppable timeline instead.  Tracing never
  changes cycle counts (docs/OBSERVABILITY.md).
* ``counters``             — work with perf-counter snapshot files:
  ``--diff A.json B.json`` prints the per-counter delta between two
  snapshots (``repro run --counters-json`` writes them).
* ``snapshot FILE.s OUT``  — run a program partway (``--run-cycles``)
  and save the whole machine to a snapshot file.
* ``restore SNAP``         — rebuild the machine from a snapshot and
  resume it to completion (``--info`` prints the header and stops;
  ``--no-fast-paths`` resumes on the plain per-cycle machine, which a
  snapshot explicitly permits).
* ``replay DUMP.json``     — re-run a fuzz crash dump through every
  diff axis; exits 0 when the bug no longer reproduces.
* ``serve``                — run the multi-tenant KV service under
  open-loop traffic (tenants isolated purely by guarded pointers,
  requests entering through enter-pointer gateways) and print
  throughput with p50/p99/p999 latency; ``--json`` writes the report,
  ``--trace-out`` records a Perfetto trace, ``--migrate-hot``
  live-migrates the hottest tenant mid-run, ``--workers N`` shards the
  mesh across OS processes with bit-identical results,
  ``--export-trace`` writes the protection-level event stream for
  ``compare``, ``--explain-tail K`` decomposes the slowest K requests
  along their critical paths, ``--timeseries-out`` writes windowed
  counter deltas as JSON/CSV (docs/SERVICE.md, docs/OBSERVABILITY.md,
  docs/PERF.md).
* ``compare``              — the E17 battleground: replay one captured
  service trace through all nine protection schemes (the five §5
  rivals, guarded pointers, Capstone, Capacity, uninit caps) with a
  mid-run tenant eviction, and print the cross-domain call /
  revocation / memory-overhead trade-off tables (docs/BASELINES.md);
  ``--trace`` reuses a file from ``serve --export-trace``, otherwise
  the service runs in-process first.

The CLI is intentionally thin: everything it does is one call into the
library — ``run`` drives the :class:`repro.sim.api.Simulation` facade —
so scripts can do the same without subprocesses.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from pathlib import Path

from repro.core.pointer import GuardedPointer
from repro.machine.assembler import assemble
from repro.machine.chip import RunReason
from repro.machine.disasm import disassemble_words
from repro.machine.isa import OP_INFO, Opcode
from repro.sim.api import Simulation


class _CannotRead(Exception):
    """An input path could not be opened; :func:`main` reports it."""


@contextmanager
def _reading(path):
    """Wrap the one call that opens input ``path``: an OSError there
    ends the command with one line on stderr and exit status 2."""
    try:
        yield
    except OSError as e:
        raise _CannotRead(f"cannot read {path}: {e.strerror or e}") from None


def _read_text(path) -> str:
    with _reading(path):
        return Path(path).read_text()


def cmd_asm(args: argparse.Namespace) -> int:
    program = assemble(_read_text(args.file))
    for i, word in enumerate(program.encode()):
        print(f"{i * 8:#06x}: {word.value:#018x}")
    for label, offset in sorted(program.labels.items(), key=lambda kv: kv[1]):
        print(f"; {label} = {offset:#x}")
    return 0


def cmd_disasm(args: argparse.Namespace) -> int:
    program = assemble(_read_text(args.file))
    print(disassemble_words(program.encode()))
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    if args.workers > 1 and args.nodes < 2:
        print("; --workers > 1 needs --nodes > 1 (one node cannot shard)")
        return 2
    if args.workers > 1 and args.trace:
        print("; --trace needs the lockstep engine (drop --workers)")
        return 2
    sim = Simulation(nodes=args.nodes, memory_bytes=args.memory,
                     workers=args.workers,
                     flight_capacity=args.flight_capacity)
    regs: dict[int, object] = {}
    if args.data:
        segment = sim.allocate(args.data)
        regs[1] = segment.word
        print(f"; r1 = {args.data}-byte read/write segment at "
              f"{segment.segment_base:#x}")
    thread = sim.spawn(_read_text(args.file), regs=regs)
    tid = thread.tid
    if args.trace:
        with sim.trace() as session:
            result = sim.run(max_cycles=args.max_cycles)
        print(session.text())
        print()
    else:
        result = sim.run(max_cycles=args.max_cycles)
    # on a sharded run the live thread objects sit in the workers;
    # pull the machine state back before reading registers
    sim.sync_back()
    thread = next(t for t in sim.threads if t.tid == tid)
    if args.counters:
        print(sim.counter_table(title="; perf counters"))
        print()
    if args.counters_json:
        import json

        Path(args.counters_json).write_text(
            json.dumps(sim.snapshot(), indent=2, sort_keys=True) + "\n")
        print(f"; counter snapshot written to {args.counters_json}")
    print(f"; {result.reason} after {result.cycles} cycles, "
          f"{result.issued_bundles} bundles")
    if thread.fault is not None:
        print(f"; fault: {thread.fault}")
    for index in range(16):
        word = thread.regs.read(index)
        if word.value == 0 and not word.tag:
            continue
        if word.tag:
            pointer = GuardedPointer.from_word(word)
            print(f"r{index:<3}= {pointer}")
        else:
            print(f"r{index:<3}= {word.value} ({word.value:#x})")
    for index in range(16):
        value = thread.regs.read_f(index)
        if value:
            print(f"f{index:<3}= {value}")
    sim.close()
    return 0 if result.reason == RunReason.HALTED else 1


def cmd_trace(args: argparse.Namespace) -> int:
    """Run a program with a trace session attached and export it."""
    sim = Simulation(memory_bytes=args.memory)
    regs: dict[int, object] = {}
    if args.data:
        segment = sim.allocate(args.data)
        regs[1] = segment.word
        print(f"; r1 = {args.data}-byte read/write segment at "
              f"{segment.segment_base:#x}")
    sim.spawn(_read_text(args.file), regs=regs)
    with sim.trace() as session:
        result = sim.run(max_cycles=args.max_cycles)
    print(f"; {result.reason} after {result.cycles} cycles, "
          f"{result.issued_bundles} bundles, "
          f"{len(session.events)} trace events")
    if args.text:
        print(session.text())
    if args.out:
        path = session.save_chrome(args.out)
        print(f"; trace written to {path} "
              f"(open at https://ui.perfetto.dev)")
    return 0 if result.reason == RunReason.HALTED else 1


def cmd_counters(args: argparse.Namespace) -> int:
    """Diff two perf-counter snapshot files."""
    import json

    path_a, path_b = args.diff
    a = json.loads(_read_text(path_a))
    b = json.loads(_read_text(path_b))
    names = sorted(set(a) | set(b))
    width = max((len(n) for n in names), default=4)
    printed = 0
    for name in names:
        va, vb = a.get(name, 0), b.get(name, 0)
        delta = vb - va
        if not delta and not args.all:
            continue
        if isinstance(delta, float):
            delta_text = f"{delta:+.6f}"
            va_text, vb_text = f"{va:.6f}", f"{vb:.6f}"
        else:
            delta_text = f"{delta:+d}"
            va_text, vb_text = str(va), str(vb)
        print(f"{name:<{width}}  {va_text:>16} -> {vb_text:>16}  "
              f"{delta_text}")
        printed += 1
    if not printed:
        print("; no counter differences")
    return 0


def cmd_isa(args: argparse.Namespace) -> int:
    for op, (slot, fmt) in OP_INFO.items():
        operands = ", ".join(fmt.value) if fmt.value else ""
        print(f"{op.name.lower():<10} {slot.name.lower():<4} {operands}")
    return 0


def cmd_fuzz(args: argparse.Namespace) -> int:
    from repro.fuzz import SCENARIOS, run_campaign, write_failure_artifacts

    if args.scenario is not None and args.scenario not in SCENARIOS:
        print(f"unknown scenario {args.scenario!r}; "
              f"choose from: {', '.join(SCENARIOS)}")
        return 2
    report = run_campaign(seed=args.seed, cases=args.cases,
                          scenario=args.scenario,
                          shrink=not args.no_shrink, log=print)
    print(report.summary())
    for failure in report.failures:
        if failure.regression_test:
            print("\n# paste into tests/machine/test_fuzz_regressions.py:")
            print(failure.regression_test)
    if report.failures and args.crashes:
        for crash_dir in write_failure_artifacts(report, args.crashes):
            print(f"; crash artifacts: {crash_dir}")
    return 0 if report.ok else 1


def cmd_snapshot(args: argparse.Namespace) -> int:
    """Run a program for a bounded number of cycles, then freeze the
    whole machine to a snapshot file."""
    sim = Simulation(memory_bytes=args.memory)
    regs: dict[int, object] = {}
    if args.data:
        segment = sim.allocate(args.data)
        regs[1] = segment.word
        print(f"; r1 = {args.data}-byte read/write segment at "
              f"{segment.segment_base:#x}")
    sim.spawn(_read_text(args.file), regs=regs)
    if args.run_cycles:
        sim.step(args.run_cycles)
    path = sim.save(args.out)
    print(f"; saved machine at cycle {sim.now} to {path}")
    return 0


def cmd_restore(args: argparse.Namespace) -> int:
    """Rebuild a machine from a snapshot and run it to completion."""
    from repro.persist import read_header

    with _reading(args.snapshot):
        header = read_header(args.snapshot)
    if args.info:
        for key in sorted(header):
            print(f"{key}: {header[key]}")
        return 0
    overrides = {"fast_paths": False} if args.no_fast_paths else {}
    # single-node and mesh images both come back behind the facade
    sim = Simulation.restore(args.snapshot, **overrides)
    print(f"; restored {header['kind']} snapshot at cycle {sim.now}")
    result = sim.run(max_cycles=args.max_cycles)
    print(f"; {result.reason} after {result.cycles} further cycles, "
          f"{result.issued_bundles} bundles")
    for thread in sim.threads:
        print(f"; thread {thread.tid}: {thread.state.name}")
        if thread.fault is not None:
            print(f";   fault: {thread.fault}")
    if args.counters:
        print(sim.counter_table(title="; perf counters"))
    return 0 if result.reason == RunReason.HALTED else 1


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the multi-tenant KV service under open-loop traffic and
    print the throughput/latency report (docs/SERVICE.md)."""
    from repro.service import (ServiceLoadDriver, ServiceTraceExporter,
                               install_tenants, open_loop)

    if args.workers > 1 and args.trace_out:
        print("; --trace-out needs the lockstep engine (drop --workers)")
        return 2
    if args.workers > 1 and args.nodes < 2:
        print("; --workers > 1 needs --nodes > 1 (one node cannot shard)")
        return 2
    sim = Simulation(nodes=args.nodes, memory_bytes=args.memory,
                     page_bytes=args.page_bytes, workers=args.workers,
                     flight_capacity=args.flight_capacity)
    print(f"; {args.tenants} tenants on {args.nodes} node(s), "
          f"{args.workers} worker(s), "
          f"{args.requests} requests, {args.arrivals} arrivals at "
          f"{args.rate} req/kcycle, zipf skew {args.skew}, seed {args.seed}")
    tenants = install_tenants(sim, args.tenants, slots=args.slots)
    exporter = ServiceTraceExporter() if args.export_trace else None
    driver = ServiceLoadDriver(sim, tenants, ingress=args.ingress,
                               exporter=exporter)
    # the recorder attaches span sinks (on a sharded machine that
    # starts the workers), so it must come after all workload setup
    if args.explain_tail:
        driver.recorder = sim.record_requests()
    if args.timeseries_out:
        driver.sampler = sim.timeseries(args.timeseries_window)
    schedule = open_loop(
        requests=args.requests, tenants=args.tenants,
        mean_gap=1000.0 / args.rate, seed=args.seed,
        arrivals=args.arrivals, skew=args.skew,
        keys_per_tenant=args.keys_per_tenant, hot_keys=args.hot_keys,
        hot_fraction=args.hot_fraction, put_ratio=args.put_ratio)
    migrate_after = args.requests // 2 if args.migrate_hot else None
    session = None
    if args.trace_out:
        with sim.trace() as session:
            report = driver.run(schedule, migrate_hot_after=migrate_after)
    else:
        report = driver.run(schedule, migrate_hot_after=migrate_after)
    print(report.format())
    tail = None
    if args.explain_tail:
        from repro.obs.requests import render_tail

        tail = driver.recorder.explain_tail(args.explain_tail)
        print(render_tail(tail))
    if driver.sampler is not None:
        driver.sampler.finish()
        out = Path(args.timeseries_out)
        if out.suffix == ".csv":
            driver.sampler.write_csv(out)
        else:
            driver.sampler.write_json(out)
        print(f"; time series written to {out} "
              f"({len(driver.sampler.rows)} windows of "
              f"{args.timeseries_window} cycles)")
    if session is not None:
        import json

        from repro.obs.export import (append_counter_tracks,
                                      append_request_tracks)

        trace = session.to_chrome()
        if tail is not None:
            append_request_tracks(trace, tail)
        if driver.sampler is not None:
            append_counter_tracks(trace, driver.sampler.rows)
        Path(args.trace_out).write_text(json.dumps(trace) + "\n",
                                        encoding="utf-8")
        print(f"; trace written to {args.trace_out} "
              f"(open at https://ui.perfetto.dev)")
    if exporter is not None:
        exporter.save(args.export_trace, tenants=args.tenants,
                      nodes=args.nodes, seed=args.seed,
                      arrivals=args.arrivals, slots=args.slots)
        print(f"; protection trace written to {args.export_trace} "
              f"({len(exporter.events)} events)")
    if args.json:
        import json

        payload = report.as_dict()
        if tail is not None:
            payload["explain_tail"] = tail
        Path(args.json).write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"; report written to {args.json}")
    sim.close()
    ok = (report.completed == args.requests and not report.errors
          and not report.wrong_results)
    return 0 if ok else 1


def cmd_compare(args: argparse.Namespace) -> int:
    """Replay one service trace through all nine protection schemes
    and print the E17 trade-off tables (docs/BASELINES.md)."""
    from repro.experiments import e17_compartmentalization as e17

    if args.trace:
        from repro.service.export import load_trace

        with _reading(args.trace):
            meta, trace = load_trace(args.trace)
        tenants = meta.get("tenants", args.tenants)
        print(f"; replaying {args.trace}: {len(trace)} events, "
              f"{tenants} tenants")
    else:
        meta, trace = e17.capture_service_trace(
            requests=args.requests, tenants=args.tenants,
            nodes=args.nodes, seed=args.seed, arrivals=args.arrivals)
        tenants = args.tenants
        print(f"; captured {len(trace)} events from {meta['completed']} "
              f"requests over {tenants} tenants on {args.nodes} node(s), "
              f"seed {args.seed}")
    reports = e17.battleground(trace, tenants=tenants,
                               revoke_fraction=args.revoke_fraction)
    overhead = e17.memory_overhead_table()
    print(f"; victim: domain {e17.hottest_pid(trace)} evicted at "
          f"{args.revoke_fraction:.0%} of the trace")
    print(e17.format_battleground(reports))
    print()
    print("; protection-metadata bytes at 10/100/1000 tenants")
    print(e17.format_overhead(overhead))
    if args.json:
        import json

        payload = {"meta": meta,
                   "schemes": [r.as_dict() for r in reports],
                   "memory_overhead_bytes": overhead}
        Path(args.json).write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"; report written to {args.json}")
    return 0


def cmd_replay(args: argparse.Namespace) -> int:
    """Re-run a fuzz crash dump through every diff axis."""
    from repro.persist.replay import read_crash_dump, replay_crash

    with _reading(args.dump):
        dump = read_crash_dump(args.dump)
    divergences = replay_crash(dump, log=print)
    if not divergences:
        print("; no divergence: the recorded bug does not reproduce")
        return 0
    for divergence in divergences:
        print(f"DIVERGENCE {divergence}")
    return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="guarded-pointer MAP machine tools",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_asm = sub.add_parser("asm", help="assemble a .s file to hex words")
    p_asm.add_argument("file")
    p_asm.set_defaults(func=cmd_asm)

    p_dis = sub.add_parser("disasm", help="assemble then disassemble")
    p_dis.add_argument("file")
    p_dis.set_defaults(func=cmd_disasm)

    p_run = sub.add_parser("run", help="run a .s file on a fresh kernel")
    p_run.add_argument("file")
    p_run.add_argument("--data", type=int, default=0, metavar="BYTES",
                       help="allocate a data segment into r1")
    p_run.add_argument("--trace", action="store_true",
                       help="print the issue stream")
    p_run.add_argument("--counters", action="store_true",
                       help="print the perf-counter snapshot after the run")
    p_run.add_argument("--counters-json", default=None, metavar="PATH",
                       help="write the counter snapshot as JSON "
                            "(diff two with 'repro counters --diff')")
    p_run.add_argument("--max-cycles", type=int, default=1_000_000)
    p_run.add_argument("--nodes", type=int, default=1,
                       help="mesh nodes (default 1: a single chip)")
    p_run.add_argument("--workers", type=int, default=1,
                       help="OS worker processes for a mesh "
                            "(default 1: the lockstep engine)")
    p_run.add_argument("--memory", type=int, default=8 * 1024 * 1024,
                       help="physical memory bytes")
    p_run.add_argument("--flight-capacity", type=int, default=512,
                       help="flight-recorder ring capacity per node "
                            "(cold events kept for crash dumps)")
    p_run.set_defaults(func=cmd_run)

    p_isa = sub.add_parser("isa", help="print the opcode table")
    p_isa.set_defaults(func=cmd_isa)

    p_trace = sub.add_parser(
        "trace", help="run a .s file with structured tracing and export "
                      "a Perfetto/Chrome-trace JSON file")
    p_trace.add_argument("file")
    p_trace.add_argument("--out", default="trace.json", metavar="PATH",
                         help="trace JSON to write (default: trace.json; "
                              "'' to skip)")
    p_trace.add_argument("--text", action="store_true",
                         help="print the text timeline")
    p_trace.add_argument("--data", type=int, default=0, metavar="BYTES",
                         help="allocate a data segment into r1")
    p_trace.add_argument("--max-cycles", type=int, default=1_000_000)
    p_trace.add_argument("--memory", type=int, default=8 * 1024 * 1024,
                         help="physical memory bytes")
    p_trace.set_defaults(func=cmd_trace)

    p_ctr = sub.add_parser(
        "counters", help="diff perf-counter snapshot files")
    p_ctr.add_argument("--diff", nargs=2, required=True,
                       metavar=("A.json", "B.json"),
                       help="print the per-counter delta B - A")
    p_ctr.add_argument("--all", action="store_true",
                       help="include counters whose delta is zero")
    p_ctr.set_defaults(func=cmd_counters)

    p_fuzz = sub.add_parser(
        "fuzz", help="differential fuzzing against the reference "
                     "interpreter and the decode-cache-off chip")
    p_fuzz.add_argument("--seed", type=int, default=0,
                        help="campaign seed (case seeds derive from it)")
    p_fuzz.add_argument("--cases", type=int, default=200)
    p_fuzz.add_argument("--scenario", default=None,
                        help="pin every case to one scenario")
    p_fuzz.add_argument("--no-shrink", action="store_true",
                        help="report divergences without minimizing them")
    p_fuzz.add_argument("--crashes", default=None, metavar="DIR",
                        help="write per-failure artifact directories "
                             "(dump.json, program.s, repro.py, snapshot)")
    p_fuzz.set_defaults(func=cmd_fuzz)

    p_snap = sub.add_parser(
        "snapshot", help="run a .s file partway and save the machine")
    p_snap.add_argument("file")
    p_snap.add_argument("out", help="snapshot file to write")
    p_snap.add_argument("--run-cycles", type=int, default=0,
                        help="cycles to run before saving (0: save at spawn)")
    p_snap.add_argument("--data", type=int, default=0, metavar="BYTES",
                        help="allocate a data segment into r1")
    p_snap.add_argument("--memory", type=int, default=8 * 1024 * 1024,
                        help="physical memory bytes")
    p_snap.set_defaults(func=cmd_snapshot)

    p_rest = sub.add_parser(
        "restore", help="rebuild a machine from a snapshot and resume it")
    p_rest.add_argument("snapshot")
    p_rest.add_argument("--info", action="store_true",
                        help="print the snapshot header and exit")
    p_rest.add_argument("--counters", action="store_true",
                        help="print the perf counters after the run")
    p_rest.add_argument("--max-cycles", type=int, default=1_000_000)
    p_rest.add_argument("--no-fast-paths", action="store_true",
                        help="resume on the plain per-cycle machine "
                             "(every simulator shortcut off)")
    p_rest.set_defaults(func=cmd_restore)

    p_replay = sub.add_parser(
        "replay", help="re-run a fuzz crash dump through every diff axis")
    p_replay.add_argument("dump", help="dump.json from a fuzz failure")
    p_replay.set_defaults(func=cmd_replay)

    p_serve = sub.add_parser(
        "serve", help="run the multi-tenant KV service under open-loop "
                      "traffic and report throughput + latency")
    p_serve.add_argument("--tenants", type=int, default=1000,
                         help="tenant count (each its own protected "
                              "subsystem)")
    p_serve.add_argument("--nodes", type=int, default=4,
                         help="mesh nodes (1: a single-node machine)")
    p_serve.add_argument("--workers", type=int, default=1,
                         help="OS worker processes sharding the mesh "
                              "(default 1: the lockstep engine; results "
                              "are bit-identical either way)")
    p_serve.add_argument("--seed", type=int, default=0,
                         help="traffic seed (same seed = same schedule)")
    p_serve.add_argument("--requests", type=int, default=2000)
    p_serve.add_argument("--rate", type=float, default=100.0,
                         help="mean arrival rate, requests per kilocycle")
    p_serve.add_argument("--arrivals", default="poisson",
                         choices=("poisson", "bursty", "uniform"))
    p_serve.add_argument("--skew", type=float, default=1.1,
                         help="zipf exponent over tenants (0: uniform)")
    p_serve.add_argument("--keys-per-tenant", type=int, default=64)
    p_serve.add_argument("--hot-keys", type=int, default=4)
    p_serve.add_argument("--hot-fraction", type=float, default=0.8)
    p_serve.add_argument("--put-ratio", type=float, default=0.5)
    p_serve.add_argument("--slots", type=int, default=64,
                         help="KV table slots per tenant (power of two)")
    p_serve.add_argument("--ingress", default="home",
                         choices=("home", "scatter"),
                         help="spawn requests on the tenant's home node, "
                              "or round-robin across the mesh")
    p_serve.add_argument("--migrate-hot", action="store_true",
                         help="live-migrate the hottest tenant halfway "
                              "through the run")
    p_serve.add_argument("--trace-out", default=None, metavar="PATH",
                         help="record the run and write a Perfetto trace "
                              "(with --explain-tail/--timeseries-out it "
                              "also carries per-request tracks and "
                              "counter series)")
    p_serve.add_argument("--explain-tail", type=int, default=0,
                         metavar="K",
                         help="decompose the slowest K requests along "
                              "their critical paths (works on both "
                              "engines; byte-identical across workers)")
    p_serve.add_argument("--timeseries-window", type=int, default=20_000,
                         metavar="CYCLES",
                         help="time-series window width in cycles")
    p_serve.add_argument("--timeseries-out", default=None, metavar="PATH",
                         help="write windowed counter deltas "
                              "(.csv for CSV, anything else for JSON)")
    p_serve.add_argument("--flight-capacity", type=int, default=512,
                         help="flight-recorder ring capacity per node")
    p_serve.add_argument("--export-trace", default=None, metavar="PATH",
                         help="write the protection-level event stream "
                              "(one Switch + four MemRefs per request) "
                              "for `repro compare`")
    p_serve.add_argument("--json", default=None, metavar="PATH",
                         help="write the report as JSON")
    p_serve.add_argument("--memory", type=int, default=8 * 1024 * 1024,
                         help="physical memory bytes per node")
    p_serve.add_argument("--page-bytes", type=int, default=512,
                         help="page size (small pages keep tenant "
                              "segments migratable)")
    p_serve.set_defaults(func=cmd_serve)

    p_cmp = sub.add_parser(
        "compare", help="replay a service trace through all nine "
                        "protection schemes (the E17 battleground)")
    p_cmp.add_argument("--trace", default=None, metavar="PATH",
                       help="trace file from `repro serve "
                            "--export-trace` (default: run the service "
                            "in-process first)")
    p_cmp.add_argument("--tenants", type=int, default=100,
                       help="tenant count when capturing in-process")
    p_cmp.add_argument("--requests", type=int, default=1000)
    p_cmp.add_argument("--nodes", type=int, default=1)
    p_cmp.add_argument("--seed", type=int, default=0)
    p_cmp.add_argument("--arrivals", default="poisson",
                       choices=("poisson", "bursty", "uniform"))
    p_cmp.add_argument("--revoke-fraction", type=float, default=0.5,
                       help="evict the hottest tenant after this "
                            "fraction of the trace")
    p_cmp.add_argument("--json", default=None, metavar="PATH",
                       help="write the full report as JSON")
    p_cmp.set_defaults(func=cmd_compare)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _CannotRead as e:
        print(f"repro {args.command}: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
