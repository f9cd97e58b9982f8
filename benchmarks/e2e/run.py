#!/usr/bin/env python3
"""The repo's end-to-end benchmark: five workloads through the public
``repro`` API, timed from outside the simulator, with exact checks on
every simulated result and a cProfile fold into the simulator's layers.

One workload, one run (what ``BENCHMARK.json`` names)::

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S \\
        --trace 0|1 [--scale X] [--record FILE] [--trace-out FILE]

It sets a workload up and runs it, again and again with fresh
machines, until ``--seconds`` have passed: one untimed warm-up rep,
then at least three timed reps, or two with ``--trace 1``.  Each value
it reports is a median over the timed reps, with host rates and times
scaled to the reference host speed that ``hostspeed.py`` probes between
reps.
``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
plain and profiled reps and prints the per-layer metrics.  The last
line of output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Every workload, in its own fresh subprocess, one after another::

    python3 benchmarks/e2e/run.py [--seed N] [--runs N] [--traced]
        [--out DIR] [--trace-out FILE] [--seconds S] [--scale X]

This writes ``results.json`` to ``DIR``: each run's record, the median
and quartiles of every metric, and the host.  With ``--traced`` it also
writes ``layers.json`` and a Chrome/Perfetto trace (``--trace-out``,
default ``DIR/trace.json``).  ``compare.py PARENT_DIR CHANGE_DIR`` reads
two such directories.  Any failed check makes the exit code nonzero.
See README.md for the workloads, the metrics and the layer map.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
#: BENCHMARK.json's run_seconds
DEFAULT_SECONDS = 25.0

#: end-to-end metrics a user of the simulator sees (host time and memory)
END_TO_END = {"sim_cycles_per_s": "cycles/s", "requests_per_s": "requests/s",
              "setup_s": "s", "peak_rss_mb": "MB"}
#: simulated results: identical on every run of one seed
EXACT = {"sim_cycles": "cycles", "sim_ipc": "bundles/cycle",
         "sim_latency_p50_cycles": "cycles",
         "sim_latency_p99_cycles": "cycles", "failed_frac": "fraction"}
COUNTER_UNITS = {
    "chip.fetch.decode_hit_ratio": "ratio",
    "cluster.exec.check_memo_hit_ratio": "ratio",
    "cluster.superblock.bundle_share": "share",
    "cluster.superblock.bundles_per_block": "bundles",
    "chip.sched.idle_skip_share": "share",
    "mem.xlate_memo_hit_ratio": "ratio",
    "mem.cache_hit_rate": "ratio",
    "mem.tlb_hit_rate": "ratio",
    "obs.flight_events_per_kcycle": "events/kcycle",
    "mesh.remote_ops_per_request": "ops/request",
    "mesh.remote_latency_p50_cycles": "cycles",
    "parallel.worker_cpu_s": "s",
}
#: seed-independence check size for the kernels (a fraction of a rep)
KERNEL_CHECK_SCALE = 0.01


def per_layer_units() -> dict[str, str]:
    from layers import LAYERS

    units = {}
    for layer in LAYERS:
        units[f"{layer}.calls_per_kcycle"] = "calls/kcycle"
        units[f"{layer}.self_share"] = "share"
    units.update({"unattributed.self_share": "share",
                  "trace_overhead": "ratio",
                  "parallel.coordinator_wait_share": "share",
                  "sim.api.us_per_request": "us"})
    units.update(COUNTER_UNITS)
    return units


def use_checkout_source() -> None:
    """Import the simulator from this checkout's ``src/``, and refuse to
    run without it."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.exit(f"run.py: no simulator source under {ROOT / 'src'}; "
                 f"run from a full checkout")
    sys.path.insert(0, str(ROOT / "src"))


# -- host fingerprint ----------------------------------------------------

def git_sha() -> str:
    """The checkout's commit, read from ``.git`` directly (a checkout
    without ``.git`` reports "unknown")."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host() -> dict:
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"cpu": cpu, "nproc": os.cpu_count(),
            "python": platform.python_version(), "git_sha": git_sha()}


# -- one workload --------------------------------------------------------

@dataclass
class Rep:
    setup_s: float
    wall_s: float
    outcome: object
    worker_cpu_s: float
    fold: object = None
    #: host slowdown around the rep (``HostSpeed.slowdown``)
    slowdown: float = 1.0


def _cpu(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def run_rep(name: str, seed: int, scale: float, spans=None) -> Rep:
    """Set up one fresh machine, run the measured phase, check it.
    With ``spans`` the measured phase is profiled and span-traced."""
    import workloads
    from layers import Fold

    # start every rep from the same heap: the last machine is freed, so
    # peak memory is one machine's and collector pauses repeat
    gc.collect()
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    workload = workloads.build(name, seed, scale)
    setup_s = time.perf_counter() - t0
    profile = None
    try:
        run = workload.run
        if spans is not None:
            spans.instrument(workload.sim, getattr(workload, "driver", None))
            run = spans.wrap("rep", workload.run)
            profile = cProfile.Profile()
            profile.enable()
        t1 = time.perf_counter()
        try:
            run()
        finally:
            wall_s = time.perf_counter() - t1
            if profile is not None:
                profile.disable()
        outcome = workload.finish()
    finally:
        workload.close()
    worker_cpu_s = (_cpu(resource.getrusage(resource.RUSAGE_CHILDREN))
                    - _cpu(children))
    return Rep(setup_s, wall_s, outcome, worker_cpu_s,
               Fold(profile) if profile is not None else None)


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest finished
    child (the sharded workload's workers), in MiB."""
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (self_kb + child_kb) / 1024


def measure(name: str, seed: int, seconds: float, scale: float,
            trace: bool, spans=None) -> dict:
    """Run workload ``name`` for ``seconds`` and return its record."""
    import workloads
    from hostspeed import HostSpeed
    from layers import Spans, layer_metrics

    if trace and spans is None:
        spans = Spans()
    start = time.perf_counter()
    speed = HostSpeed()
    # the first rep of a process pays lazy imports, first calls and heap
    # growth (the sharded one ran ~25% slower); it is checked, not timed
    warmup = run_rep(name, seed, scale)
    probes = speed.sample()
    reps: list[Rep] = []
    while (len(reps) < (2 if trace else 3)
           or time.perf_counter() - start < seconds):
        traced = trace and len(reps) % 2 == 1
        rep = run_rep(name, seed, scale, spans if traced else None)
        before, probes = probes, speed.sample()
        rep.slowdown = speed.slowdown(before, probes)
        if traced:
            spans.recording = False    # keep one rep's spans: file size
            spans.counter(rep.fold.self_s)
        reps.append(rep)

    checked = [warmup, *reps]
    first = warmup.outcome
    failures = [f"rep {i}: {message}" for i, rep in enumerate(checked)
                for message in rep.outcome.failures]
    failed = sum(rep.outcome.failed for rep in checked)
    for i, rep in enumerate(reps, 1):
        if rep.outcome.report != first.report:
            failures.append(f"rep {i}: simulated report differs from rep 0")
            failed += 1
    if isinstance(workloads.SPECS[name], workloads.KernelSpec):
        cycles = {s: workloads.kernel_cycles(name, s, KERNEL_CHECK_SCALE)
                  for s in (seed, seed ^ 1)}
        if len(set(cycles.values())) != 1:
            failures.append(f"kernel cycles depend on the seed: {cycles}")
            failed += 1
    attempted = sum(rep.outcome.units for rep in checked)

    plain = [rep for rep in reps if rep.fold is None]
    # host rates and times at the reference host speed (hostspeed.py)
    metrics = {
        "sim_cycles_per_s": statistics.median(
            rep.outcome.cycles / rep.wall_s * rep.slowdown for rep in plain),
        "requests_per_s": statistics.median(
            rep.outcome.completed / rep.wall_s * rep.slowdown
            for rep in plain),
        "setup_s": statistics.median(rep.setup_s / rep.slowdown
                                     for rep in reps),
        "peak_rss_mb": peak_rss_mb(),
        "sim_cycles": first.cycles,
        "sim_ipc": first.bundles / first.cycles,
        "sim_latency_p50_cycles": first.latency.get("p50", 0),
        "sim_latency_p99_cycles": first.latency.get("p99", 0),
        "failed_frac": failed / attempted,
    }
    record = {"workload": name, "seed": seed, "seconds": seconds,
              "scale": scale, "trace": int(trace), "host": host(),
              "correct": not failures, "attempted": attempted,
              "failed": failed, "failures": failures, "reps": len(reps),
              "metrics": metrics, "report": first.report,
              "wall_s": [rep.wall_s for rep in reps],
              "setup_wall_s": [rep.setup_s for rep in reps],
              "slowdown": [rep.slowdown for rep in reps]}
    if trace:
        traced = [rep for rep in reps if rep.fold is not None]
        overhead = (statistics.median(rep.wall_s / rep.slowdown
                                      for rep in traced)
                    / statistics.median(rep.wall_s / rep.slowdown
                                        for rep in plain) - 1)
        per_layer = layer_metrics([rep.fold for rep in traced],
                                  traced[0].outcome.cycles,
                                  traced[0].outcome.units, overhead)
        per_layer.update(first.counters)
        per_layer["parallel.worker_cpu_s"] = statistics.median(
            rep.worker_cpu_s for rep in plain)
        record["per_layer"] = per_layer
    return record


def result_line(record: dict) -> str:
    """The contract's last line: the BENCHMARK.json metrics only."""
    if record["trace"]:
        units, values = per_layer_units(), record["per_layer"]
    else:
        units, values = END_TO_END, record["metrics"]
    return json.dumps({
        "correct": record["correct"], "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()}})


def print_record(record: dict) -> None:
    print(f"# {record['workload']} seed {record['seed']}: {record['reps']} "
          f"reps in {record['seconds']:g} s at scale {record['scale']:g}")
    units = {**END_TO_END, **EXACT, **per_layer_units()}
    for name, value in {**record["metrics"],
                        **record.get("per_layer", {})}.items():
        print(f"{name:<40} {value:>18.6g} {units[name]}")
    for failure in record["failures"]:
        print(f"FAILED: {failure}")


def single(args) -> int:
    from layers import Spans, write_trace

    spans = Spans() if args.trace else None
    record = measure(args.workload, args.seed, args.seconds, args.scale,
                     bool(args.trace), spans)
    if args.record:
        Path(args.record).write_text(json.dumps(record, indent=1) + "\n")
    if args.trace_out and spans is not None:
        write_trace(Path(args.trace_out),
                    spans.chrome_events(1, args.workload))
    print_record(record)
    print(result_line(record))
    return 0 if record["correct"] else 1


# -- every workload ------------------------------------------------------

def quartiles(values: list[float]) -> dict:
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"n": len(values), "median": median, "q1": q1, "q3": q3}


def child(args, name: str, trace: int, record: Path,
          trace_out: Path | None = None) -> dict:
    """Run one workload in a fresh interpreter; returns its record."""
    command = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--scale", str(args.scale), "--trace", str(trace),
               "--record", str(record)]
    if trace_out is not None:
        command += ["--trace-out", str(trace_out)]
    proc = subprocess.run(command, capture_output=True, text=True,
                          timeout=600)
    if not record.is_file():
        raise RuntimeError(f"{name} produced no record (exit "
                           f"{proc.returncode}):\n{proc.stdout}{proc.stderr}")
    result = json.loads(record.read_text())
    record.unlink()
    return result


def suite(args) -> int:
    import workloads
    from layers import write_trace

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    names = workloads.WORKLOADS
    records: list[dict] = []
    for run in range(args.runs):
        for name in names:
            record = child(args, name, 0, out / f"{name}.record.json")
            record["run"] = run
            records.append(record)
            m = record["metrics"]
            print(f"run {run} {name:<19} {m['sim_cycles_per_s']:>10,.0f} "
                  f"cycles/s {m['requests_per_s']:>9,.1f} req/s "
                  f"setup {m['setup_s']:.3f} s "
                  f"{'ok' if record['correct'] else 'FAILED'}", flush=True)

    failures = [f"{r['workload']} run {r['run']}: {f}"
                for r in records for f in r["failures"]]
    by_run: dict[tuple, dict] = {(r["run"], r["workload"]): r
                                 for r in records}
    for run in range(args.runs):
        mesh = by_run.get((run, "serve_mesh"))
        sharded = by_run.get((run, "serve_mesh_sharded"))
        if mesh and sharded and mesh["report"] != sharded["report"]:
            failures.append(f"run {run}: serve_mesh_sharded report differs "
                            f"from serve_mesh")

    summary = {name: {metric: quartiles([r["metrics"][metric]
                                         for r in records
                                         if r["workload"] == name])
                      for metric in {**END_TO_END, **EXACT}}
               for name in names}
    payload = {"host": host(), "seed": args.seed, "seconds": args.seconds,
               "scale": args.scale, "runs": args.runs, "summary": summary,
               "failures": failures, "records": records}

    if args.traced:
        events: list[dict] = []
        layers = {}
        for pid, name in enumerate(names, 1):
            part = out / f"{name}.trace.json"
            record = child(args, name, 1, out / f"{name}.record.json", part)
            layers[name] = record["per_layer"]
            failures.extend(f"{name} traced: {f}"
                            for f in record["failures"])
            for event in json.loads(part.read_text())["traceEvents"]:
                event["pid"] = pid
                events.append(event)
            part.unlink()
            print(f"traced {name:<19} unattributed "
                  f"{layers[name]['unattributed.self_share']:.1%}, trace "
                  f"overhead {layers[name]['trace_overhead']:+.0%}",
                  flush=True)
        (out / "layers.json").write_text(json.dumps(
            {"host": payload["host"], "seed": args.seed,
             "layers": layers}, indent=1) + "\n")
        write_trace(Path(args.trace_out or out / "trace.json"), events)

    (out / "results.json").write_text(json.dumps(payload, indent=1) + "\n")
    print()
    print(f"{'workload':<19} {'metric':<24} {'median':>14} {'q1':>14} "
          f"{'q3':>14}  n")
    units = {**END_TO_END, **EXACT}
    for name in names:
        for metric, stats in summary[name].items():
            print(f"{name:<19} {metric:<24} {stats['median']:>14.6g} "
                  f"{stats['q1']:>14.6g} {stats['q3']:>14.6g}  "
                  f"{stats['n']} {units[metric]}")
    for failure in failures:
        print(f"FAILED: {failure}")
    print(f"wrote {out / 'results.json'}")
    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", default=None,
                        help="run one workload (omit to run every one)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="workload size per rep (tests use 0.01)")
    parser.add_argument("--record", default=None,
                        help="write the full record of one workload here")
    parser.add_argument("--trace-out", default=None,
                        help="Chrome/Perfetto trace file of the traced run")
    parser.add_argument("--runs", type=int, default=1)
    parser.add_argument("--traced", action="store_true",
                        help="also make one traced run of each workload")
    parser.add_argument("--out", default=str(HERE / "results"))
    args = parser.parse_args(argv)
    use_checkout_source()
    import workloads

    if args.workload is not None:
        if args.workload not in workloads.WORKLOADS:
            parser.error(f"unknown workload {args.workload!r}; choose from "
                         f"{', '.join(workloads.WORKLOADS)}")
        return single(args)
    return suite(args)


if __name__ == "__main__":
    sys.exit(main())
