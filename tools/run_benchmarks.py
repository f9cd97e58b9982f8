#!/usr/bin/env python
"""Run the repo's benchmark suite and record a machine-readable baseline.

Times the E2 (LEA checks), E5 (multithreading) and E9 (context switch)
experiment kernels, the cycle-loop, data-stream, superblock and
tracing-overhead microbenchmarks, the E5 counter snapshot, the
multi-tenant service-traffic run
(``benchmarks/bench_service_traffic.py``), and the E17 nine-scheme
battleground (``benchmarks/bench_e17_compartmentalization.py``), and
writes everything to ``BENCH_pr12.json`` at the repo root.

Every benchmark runs ``--warmup`` unrecorded passes followed by
``--trials`` recorded passes; numeric results are reported as
``{"median": ..., "iqr": ..., "q1": ..., "q3": ..., "n": ...}`` so a
baseline captures run-to-run spread instead of a single noisy sample
(simulated cycle counts are deterministic — their IQR is 0 by
construction, which is itself a useful invariant).  Non-numeric values
(booleans, nested tables) are taken from the last trial.

Usage::

    python tools/run_benchmarks.py [--out BENCH_pr12.json] [--quick]
                                   [--trials N] [--warmup M]
                                   [--baseline BENCH_pr12.json]

``--quick`` shrinks every workload for CI smoke runs; the cross-checks
and the cycles-equal assertions still apply, only the sizes change.

``--baseline`` compares the freshly recorded run against a previous
baseline file and exits nonzero on a statistically significant
regression: a gated metric's new median falling more than
``max(3 x IQR, 25%)`` below the baseline's median.  Speedup ratios
(same-run on/off pairs) are gated unconditionally — they are machine-
and workload-size-independent; absolute throughputs are only gated when
both runs used the same workload sizes (the ``--quick`` flag matches),
since a quick CI run and a full baseline are not comparable.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
for p in (REPO_ROOT, REPO_ROOT / "src"):
    if str(p) not in sys.path:
        sys.path.insert(0, str(p))

from repro import __version__  # noqa: E402
from repro.experiments import e2_lea_checks as e2  # noqa: E402
from repro.experiments import e5_multithreading as e5  # noqa: E402
from repro.experiments import e9_context_switch as e9  # noqa: E402
from repro.machine.chip import ChipConfig, RunReason  # noqa: E402
from repro.sim.api import Simulation  # noqa: E402

from benchmarks.bench_cycle_loop import measure as cycle_loop_measure  # noqa: E402
from benchmarks.bench_data_stream import measure as data_stream_measure  # noqa: E402
from benchmarks.bench_e17_compartmentalization import measure as e17_measure  # noqa: E402
from benchmarks.bench_parallel_mesh import measure as parallel_mesh_measure  # noqa: E402
from benchmarks.bench_service_traffic import measure as service_traffic_measure  # noqa: E402
from benchmarks.bench_superblock import measure as superblock_measure  # noqa: E402
from benchmarks.bench_trace_overhead import measure as trace_overhead_measure  # noqa: E402


def timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - t0


# -- repeated trials -------------------------------------------------------

def aggregate(trials: list[dict]) -> dict:
    """Fold per-trial dicts into one: numeric keys become median + IQR
    (quartile spread), everything else is the last trial's value."""
    out: dict = {}
    for key in trials[-1]:
        values = [t[key] for t in trials if key in t]
        if len(values) == len(trials) and all(
                isinstance(v, (int, float)) and not isinstance(v, bool)
                for v in values):
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = float(values[0])
            out[key] = {
                "median": statistics.median(values),
                "iqr": q3 - q1,
                "q1": q1,
                "q3": q3,
                "n": len(values),
            }
        else:
            out[key] = values[-1]
    return out


def run_trials(fn, trials: int, warmup: int, check=None) -> dict:
    """``warmup`` unrecorded passes, then ``trials`` recorded ones;
    ``check`` (if given) asserts each trial's invariants."""
    for _ in range(warmup):
        result = fn()
        if check is not None:
            check(result)
    results = []
    for _ in range(max(trials, 1)):
        result = fn()
        if check is not None:
            check(result)
        results.append(result)
    return aggregate(results)


def median_of(aggregated: dict, key: str):
    value = aggregated[key]
    return value["median"] if isinstance(value, dict) and "median" in value \
        else value


# -- the benchmarks --------------------------------------------------------

def bench_e2(samples: int = 512) -> dict:
    results, wall = timed(e2.sweep_all_lengths, samples)
    return {"wall_s": wall, "segment_lengths": len(results),
            "all_exact": all(r.exact for r in results)}


def bench_e5(iterations: int = 150) -> dict:
    points, wall = timed(e5.sweep, (1, 2, 4), iterations)
    total_cycles = sum(p.cycles for p in points)
    return {"wall_s": wall, "points": len(points),
            "total_cycles": total_cycles,
            "cycles_per_s": total_cycles / wall}


def bench_e9() -> dict:
    table, wall = timed(e9.switch_cost_table)
    return {"wall_s": wall, "schemes": table}


def counter_snapshot_e5(iterations: int = 500) -> dict:
    """One representative E5 run through the facade: the counter
    snapshot, cross-checked against the chip's raw statistics."""
    sim = Simulation(ChipConfig(memory_bytes=4 * 1024 * 1024,
                                threads_per_cluster=4))
    source = e5.WORKER.format(iterations=iterations)
    for t in range(4):
        data = sim.allocate(4096, eager=True)
        sim.spawn(source, domain=t + 1, cluster=0,
                  regs={1: data.word}, stack_bytes=0)
    result, wall = timed(sim.run, 5_000_000)
    assert result.reason == RunReason.HALTED, result.reason
    snap = sim.snapshot()

    chip = sim.chip
    per_cluster_issued = sum(
        snap[f"cluster{i}.issued"] for i in range(len(chip.clusters)))
    checks = {
        "issued_bundles_match_clusters":
            snap["chip.issued_bundles"] == per_cluster_issued,
        "stats_match_snapshot":
            snap["chip.issued_bundles"] == chip.stats.issued_bundles
            and snap["chip.cycles"] == chip.stats.cycles,
        "fetches_match_issues":
            snap["fetch.hits"] + snap["fetch.misses"]
            == chip.stats.issued_bundles,
    }
    assert all(checks.values()), checks
    return {"wall_s": wall, "cycles": result.cycles,
            "cycles_per_s": result.cycles / wall,
            "cross_checks": checks, "counters": snap}


# -- baseline regression gate ----------------------------------------------

#: (benchmark, key, workload_dependent).  Speedup ratios pair an on- and
#: an off-run from the *same* trial on the same machine, so they stay
#: comparable across hosts and workload sizes and are always gated.
#: Absolute throughputs (cycles/s, requests/s) and the simulated
#: req/kcycle figure depend on the workload size, so they are gated only
#: when both runs used the same sizes (``quick`` flags match).
GATED_METRICS = (
    ("cycle_loop", "speedup", False),
    ("data_stream", "speedup", False),
    ("superblock", "alu_speedup", False),
    ("superblock", "worker_speedup", False),
    ("e5_multithreading", "cycles_per_s", True),
    ("data_stream", "fast_cycles_per_s", True),
    ("service_traffic", "throughput_rpk", True),
    ("service_traffic", "requests_per_s", True),
    # wall-clock speedup of the sharded engine depends on host cores as
    # well as workload size, so it is gated like-for-like only
    ("parallel_mesh", "strong_speedup_2", True),
    ("parallel_mesh", "strong_speedup_4", True),
    ("parallel_mesh", "weak_efficiency_2", True),
    # E17 scheme ratios are deterministic cycle counts, but their
    # magnitudes depend on the captured trace's size and mix, so they
    # are gated like-for-like only
    ("e17_compartmentalization", "rel_paged", True),
    ("e17_compartmentalization", "rel_asid", True),
)

#: a metric regresses when its new median drops below the baseline's
#: median by more than max(3 x IQR, 25%): three quartile spreads of
#: run-to-run noise, with a relative floor for metrics whose IQR
#: happens to be tiny.  The floor is wide enough that a quick CI run's
#: slightly-lower ratios pass against a full-run baseline, while a
#: genuine collapse of a shortcut (speedup falling toward 1x) fails.
REL_TOL = 0.25


def _stat(table: dict, bench: str, key: str) -> tuple[float, float] | None:
    """(median, iqr) of one recorded metric, or None if absent."""
    value = table.get("benchmarks", {}).get(bench, {}).get(key)
    if isinstance(value, dict) and "median" in value:
        return float(value["median"]), float(value.get("iqr", 0.0))
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value), 0.0
    return None


def compare_to_baseline(payload: dict,
                        baseline: dict) -> tuple[list[str], list[str]]:
    """Compare the fresh ``payload`` against a ``baseline`` file's
    contents; returns (regressions, skipped) message lists."""
    regressions, skipped = [], []
    same_workload = payload.get("quick") == baseline.get("quick")
    for bench, key, workload_dependent in GATED_METRICS:
        if workload_dependent and not same_workload:
            skipped.append(f"{bench}.{key}: workload sizes differ "
                           f"(quick vs full run)")
            continue
        base = _stat(baseline, bench, key)
        new = _stat(payload, bench, key)
        if base is None or new is None:
            which = "baseline" if base is None else "current run"
            skipped.append(f"{bench}.{key}: not recorded in the {which}")
            continue
        base_median, base_iqr = base
        new_median, new_iqr = new
        allowance = max(3.0 * max(base_iqr, new_iqr),
                        REL_TOL * base_median)
        if new_median < base_median - allowance:
            regressions.append(
                f"{bench}.{key}: {new_median:,.4g} vs baseline "
                f"{base_median:,.4g} (allowed drop {allowance:,.4g} = "
                f"max(3xIQR, {REL_TOL:.0%}))")
    return regressions, skipped


def check_baseline(payload: dict, baseline_path: Path) -> int:
    baseline = json.loads(baseline_path.read_text())
    regressions, skipped = compare_to_baseline(payload, baseline)
    print(f"comparing against baseline {baseline_path} "
          f"(version {baseline.get('version', '?')}) ...")
    for message in skipped:
        print(f"  skipped  {message}")
    if regressions:
        for message in regressions:
            print(f"  REGRESSED {message}")
        print(f"{len(regressions)} significant regression(s) vs baseline")
        return 1
    print("  no significant regressions")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default=str(REPO_ROOT / "BENCH_pr12.json"))
    parser.add_argument("--quick", action="store_true",
                        help="shrink every workload for CI smoke runs")
    parser.add_argument("--trials", type=int, default=3,
                        help="recorded passes per benchmark (median + "
                             "IQR reported)")
    parser.add_argument("--warmup", type=int, default=1,
                        help="unrecorded warmup passes per benchmark")
    parser.add_argument("--baseline", type=Path, default=None,
                        help="previous baseline JSON to gate against; "
                             "exit nonzero on a significant regression")
    args = parser.parse_args(argv)
    q = args.quick
    trials, warmup = args.trials, args.warmup

    print(f"({trials} trials after {warmup} warmup pass(es) each)")

    print("running e2 (LEA checks) ...")
    r_e2 = run_trials(lambda: bench_e2(64 if q else 512), trials, warmup)
    print(f"  {median_of(r_e2, 'wall_s'):.3f}s median")

    print("running e5 (multithreading sweep) ...")
    r_e5 = run_trials(lambda: bench_e5(30 if q else 150), trials, warmup)
    print(f"  {median_of(r_e5, 'wall_s'):.3f}s median, "
          f"{median_of(r_e5, 'cycles_per_s'):,.0f} cycles/s")

    print("running e9 (context switch) ...")
    r_e9 = run_trials(bench_e9, trials, warmup)
    print(f"  {median_of(r_e9, 'wall_s'):.3f}s median")

    print("running cycle-loop microbenchmark ...")
    r_loop = run_trials(
        lambda: cycle_loop_measure(iterations=300 if q else 2000),
        trials, warmup,
        check=requires(cycles_equal="cycle-loop timing models diverged",
                       decode_hits_engaged="decode cache stopped engaging",
                       e5_solo="solo runs stopped engaging on E5's four "
                               "threads"))
    print(f"  {median_of(r_loop, 'speedup'):.2f}x over the pre-rework loop "
          f"({median_of(r_loop, 'new_cycles_per_s'):,.0f} vs "
          f"{median_of(r_loop, 'legacy_cycles_per_s'):,.0f} cycles/s), "
          f"{median_of(r_loop, 'decode_hit_share'):.2%} decode-cache hits, "
          f"solo runs issue {median_of(r_loop, 'solo_share'):.2%} "
          f"of bundles")

    print("running data-stream microbenchmark ...")
    r_stream = run_trials(
        lambda: data_stream_measure(1000 if q else 6000), trials, warmup,
        check=requires(cycles_equal="fast paths changed the timing model",
                       cross_checks_pass="data-path memo cross-checks"))
    print(f"  {median_of(r_stream, 'speedup'):.2f}x with the fast paths "
          f"on ({median_of(r_stream, 'fast_cycles_per_s'):,.0f} vs "
          f"{median_of(r_stream, 'slow_cycles_per_s'):,.0f} cycles/s)")

    print("running superblock microbenchmark ...")
    r_sb = run_trials(
        lambda: superblock_measure(800 if q else 4000), trials, warmup,
        check=requires(cycles_equal="fast paths changed the timing model",
                       counters_equal="fast paths changed the counters",
                       alu_traced="traces stopped engaging on the alu loop"))
    print(f"  alu {median_of(r_sb, 'alu_speedup'):.2f}x, "
          f"worker {median_of(r_sb, 'worker_speedup'):.2f}x, "
          f"stream {median_of(r_sb, 'stream_speedup'):.2f}x with the "
          f"fast paths on (cycles and counters identical; traces issue "
          f"{median_of(r_sb, 'alu_superblock_share'):.2%} of the alu loop)")

    print("running tracing-overhead microbenchmark ...")
    r_trace = run_trials(
        lambda: trace_overhead_measure(500 if q else 3000), trials, warmup,
        check=requires(cycles_equal="tracing changed the timing model"))
    print(f"  default {median_of(r_trace, 'default_overhead'):+.1%}, "
          f"requests {median_of(r_trace, 'requests_overhead'):+.1%}, "
          f"timeseries {median_of(r_trace, 'timeseries_overhead'):+.1%} "
          f"(vs chunked), "
          f"traced {median_of(r_trace, 'traced_overhead'):+.1%} vs disabled")

    print("running service-traffic benchmark ...")
    r_serve = run_trials(
        lambda: service_traffic_measure(
            requests=300 if q else 2000, tenants=50 if q else 200,
            nodes=2 if q else 4),
        trials, warmup,
        check=requires(all_completed="open-loop run did not drain",
                       clean="service errors or wrong results",
                       enter_exact="enter_roundtrip diverged from gateway "
                                   "calls"))
    print(f"  {median_of(r_serve, 'throughput_rpk'):.1f} req/kcycle, "
          f"p50 {median_of(r_serve, 'latency_p50')} / "
          f"p99 {median_of(r_serve, 'latency_p99')} cycles latency, "
          f"{median_of(r_serve, 'requests_per_s'):,.0f} requests/s wall")

    print("running parallel-mesh scaling sweep ...")
    r_par = run_trials(
        lambda: parallel_mesh_measure(
            requests=120 if q else 400, tenants=24 if q else 48,
            side=2 if q else 4,
            workers_list=(1, 2) if q else (1, 2, 4)),
        trials, warmup,
        check=requires(cycles_equal="worker count changed the simulated run",
                       reports_equal="worker count changed the report",
                       clean="service errors or wrong results"))
    top = 4 if not q else 2
    print(f"  {median_of(r_par, 'cycles')} simulated cycles at every "
          f"worker count; strong "
          f"{median_of(r_par, f'strong_speedup_{top}'):.2f}x, weak "
          f"efficiency {median_of(r_par, f'weak_efficiency_{top}'):.2f} "
          f"at {top} workers on {median_of(r_par, 'cores'):.0f} core(s)")

    print("running e17 (nine-scheme battleground) ...")
    r_e17 = run_trials(
        lambda: {k: v for k, v in e17_measure(
            requests=200 if q else 1000, tenants=20 if q else 100
        ).items() if k != "result"},
        trials, warmup,
        check=lambda r: (
            _require(r["schemes"] == 9, "battleground must field nine"),
            requires(same_trace="schemes diverged on the trace",
                     capstone_revoke_cheapest="Capstone revocation not "
                                              "cheapest",
                     capacity_smallest="Capacity footprint not smallest")(r)))
    print(f"  paged {median_of(r_e17, 'rel_paged'):.2f}x, asid "
          f"{median_of(r_e17, 'rel_asid'):.2f}x, capstone "
          f"{median_of(r_e17, 'rel_capstone'):.2f}x, capacity "
          f"{median_of(r_e17, 'rel_capacity'):.2f}x guarded cycles; "
          f"capstone revoke {median_of(r_e17, 'capstone_revoke'):.0f} vs "
          f"paged {median_of(r_e17, 'paged_revoke'):.0f} cycles")

    print("taking the E5 counter snapshot ...")
    r_snap = run_trials(
        lambda: counter_snapshot_e5(100 if q else 500), trials, warmup)
    print("  counter cross-checks passed")

    payload = {
        "version": __version__,
        "quick": q,
        "trials": trials,
        "warmup": warmup,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "benchmarks": {
            "e2_lea_checks": r_e2,
            "e5_multithreading": r_e5,
            "e9_context_switch": r_e9,
            "cycle_loop": r_loop,
            "data_stream": r_stream,
            "superblock": r_sb,
            "trace_overhead": r_trace,
            "service_traffic": r_serve,
            "parallel_mesh": r_par,
            "e17_compartmentalization": r_e17,
            "e5_counter_snapshot": r_snap,
        },
    }
    out = Path(args.out)
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out}")
    if args.baseline is not None:
        return check_baseline(payload, args.baseline)
    return 0


def _require(condition, message) -> None:
    assert condition, message


def requires(**messages):
    """A per-trial check: each keyword names a result key that must be
    true, with the failure message as its value."""
    def check(result: dict) -> None:
        for key, message in messages.items():
            _require(result[key], f"{message} ({key})")
    return check


if __name__ == "__main__":
    sys.exit(main())
