"""The hot-path acceptance benchmark: simulated cycles per second.

Compares the reworked run loop with every shortcut on (decoded-bundle
cache, memos, incremental scheduler counts, idle fast-forward, solo
runs) against a faithful replica of the pre-rework loop — which rebuilt
``all_threads()`` lists every cycle — driving a ``fast_paths=False``
chip, which re-walks and re-decodes every fetch, on the E5
multithreading workload: four threads in four domains on one cluster.
Both runs must agree on the simulated cycle count exactly (the
optimizations are timing-model-transparent); the optimized loop must be
at least twice as fast in wall-clock terms, the decode cache must
answer at least 99% of its fetches, and solo runs (the cluster stepped
alone) must issue at least 99% of the bundles.

``tools/run_benchmarks.py`` imports :func:`measure` to record the
numbers into ``BENCH_pr1.json``.
"""

from __future__ import annotations

import time

from repro.experiments.e5_multithreading import WORKER
from repro.machine.chip import ChipConfig, MAPChip
from repro.machine.thread import ThreadState
from repro.runtime.kernel import Kernel

from benchmarks.conftest import emit

THREADS = 4
ITERATIONS = 2000
MAX_CYCLES = 5_000_000


def build_chip(optimized: bool, threads: int = THREADS,
               iterations: int = ITERATIONS) -> MAPChip:
    """The E5 workload: ``threads`` memory-heavy workers on one cluster,
    each in its own protection domain."""
    chip = MAPChip(ChipConfig(
        memory_bytes=4 * 1024 * 1024,
        threads_per_cluster=max(threads, 1),
        fast_paths=optimized,
    ))
    kernel = Kernel(chip)
    source = WORKER.format(iterations=iterations)
    for t in range(threads):
        data = kernel.allocate_segment(4096, eager=True)
        entry = kernel.load_program(source)
        kernel.spawn(entry, domain=t + 1, cluster=0,
                     regs={1: data.word}, stack_bytes=0)
    return chip


def run_legacy(chip: MAPChip, max_cycles: int = MAX_CYCLES) -> int:
    """The pre-rework run loop, verbatim: list comprehensions over every
    resident thread, every cycle, to learn liveness and idleness."""
    start_cycle = chip.now
    idle = 0
    while chip.now - start_cycle < max_cycles:
        live = [t for t in chip.all_threads()
                if t.state not in (ThreadState.HALTED, ThreadState.FAULTED)]
        if not live:
            return chip.now - start_cycle
        issued = 0
        for cluster in chip.clusters:
            if cluster.step(chip.now):
                issued += 1
        chip.now += 1
        chip.stats.cycles += 1
        chip.stats.issued_bundles += issued
        if issued == 0 and all(t.state is not ThreadState.READY
                               for t in chip.all_threads()):
            idle += 1
            if idle > chip.IDLE_LIMIT:
                return chip.now - start_cycle
        else:
            idle = 0
    return max_cycles


def measure(threads: int = THREADS, iterations: int = ITERATIONS) -> dict:
    """Time both loops on identical workloads; returns the comparison."""
    chip = build_chip(False, threads, iterations)
    t0 = time.perf_counter()
    legacy_cycles = run_legacy(chip)
    legacy_wall = time.perf_counter() - t0

    chip = build_chip(True, threads, iterations)
    t0 = time.perf_counter()
    result = chip.run(MAX_CYCLES)
    new_wall = time.perf_counter() - t0

    legacy_rate = legacy_cycles / legacy_wall
    new_rate = result.cycles / new_wall
    hit_share = chip.fetch_hits / (chip.fetch_hits + chip.fetch_misses)
    solo_share = chip.solo_bundles / result.issued_bundles
    return {
        "workload": f"e5 ({threads} threads x {iterations} iterations)",
        "legacy_cycles": legacy_cycles,
        "legacy_wall_s": legacy_wall,
        "legacy_cycles_per_s": legacy_rate,
        "new_cycles": result.cycles,
        "new_wall_s": new_wall,
        "new_cycles_per_s": new_rate,
        "speedup": new_rate / legacy_rate,
        "cycles_equal": legacy_cycles == result.cycles,
        "fetch_hits": chip.fetch_hits,
        "fetch_misses": chip.fetch_misses,
        "decode_hit_share": hit_share,
        "decode_hits_engaged": hit_share >= 0.99,
        "solo_share": solo_share,
        "e5_solo": solo_share >= 0.99,
    }


def test_cycle_loop_speedup(benchmark):
    r = benchmark.pedantic(measure, rounds=1, iterations=1)
    emit("cycle loop — reworked run loop vs pre-rework replica", "\n".join([
        f"{'loop':<10} {'cycles':>9} {'wall (s)':>9} {'cycles/s':>12}",
        "-" * 43,
        f"{'legacy':<10} {r['legacy_cycles']:>9} {r['legacy_wall_s']:>9.3f} "
        f"{r['legacy_cycles_per_s']:>12,.0f}",
        f"{'reworked':<10} {r['new_cycles']:>9} {r['new_wall_s']:>9.3f} "
        f"{r['new_cycles_per_s']:>12,.0f}",
        "",
        f"speedup {r['speedup']:.2f}x; cycle counts "
        f"{'identical' if r['cycles_equal'] else 'DIFFER'}; decode cache "
        f"answered {r['decode_hit_share']:.2%} of fetches; solo runs "
        f"issued {r['solo_share']:.2%} of bundles",
    ]))
    assert r["cycles_equal"], "optimizations changed the timing model"
    assert r["decode_hits_engaged"], "the decode cache stopped engaging"
    assert r["e5_solo"], "solo runs stopped engaging on E5"
    assert r["speedup"] >= 2.0, f"only {r['speedup']:.2f}x over the pre-rework loop"
