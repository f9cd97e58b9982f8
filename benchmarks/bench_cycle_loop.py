"""The hot-path acceptance benchmark: simulated cycles per second.

Runs the E5 multithreading workload (four threads in four domains on
one cluster) on the plain machine (``fast_paths=False``: every fetch
re-walks and re-decodes, every cycle visits every cluster) and with
every shortcut on (decoded-bundle cache, memos, incremental scheduler
counts, idle fast-forward, solo runs).  Both runs must agree on the
simulated cycle count exactly (the shortcuts are timing-model
transparent); the shortcuts must be at least twice as fast in
wall-clock terms, the decode cache must answer at least 99% of its
fetches, and solo runs (the cluster stepped alone) must issue at least
99% of the bundles.
"""

from __future__ import annotations

import time

from repro.experiments.e5_multithreading import WORKER
from repro.machine.chip import ChipConfig, MAPChip
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


def measure(threads: int = THREADS, iterations: int = ITERATIONS) -> dict:
    """Time the plain and the fast machine on identical workloads;
    returns the comparison."""
    runs = {}
    for name, optimized in (("plain", False), ("fast", True)):
        chip = build_chip(optimized, threads, iterations)
        t0 = time.perf_counter()
        result = chip.run(MAX_CYCLES)
        runs[name] = (chip, result, time.perf_counter() - t0)

    _, plain, plain_wall = runs["plain"]
    chip, fast, fast_wall = runs["fast"]
    plain_rate = plain.cycles / plain_wall
    fast_rate = fast.cycles / fast_wall
    hit_share = chip.fetch_hits / (chip.fetch_hits + chip.fetch_misses)
    solo_share = chip.solo_bundles / fast.issued_bundles
    return {
        "workload": f"e5 ({threads} threads x {iterations} iterations)",
        "plain_cycles": plain.cycles,
        "plain_wall_s": plain_wall,
        "plain_cycles_per_s": plain_rate,
        "fast_cycles": fast.cycles,
        "fast_wall_s": fast_wall,
        "fast_cycles_per_s": fast_rate,
        "speedup": fast_rate / plain_rate,
        "cycles_equal": plain.cycles == fast.cycles,
        "fetch_hits": chip.fetch_hits,
        "fetch_misses": chip.fetch_misses,
        "decode_hit_share": hit_share,
        "decode_hits_engaged": hit_share >= 0.99,
        "solo_share": solo_share,
        "e5_solo": solo_share >= 0.99,
    }


def test_cycle_loop_speedup(benchmark):
    r = benchmark.pedantic(measure, rounds=1, iterations=1)
    emit("cycle loop — every shortcut on vs the plain machine", "\n".join([
        f"{'machine':<10} {'cycles':>9} {'wall (s)':>9} {'cycles/s':>12}",
        "-" * 43,
        *(f"{name:<10} {r[name + '_cycles']:>9} "
          f"{r[name + '_wall_s']:>9.3f} {r[name + '_cycles_per_s']:>12,.0f}"
          for name in ("plain", "fast")),
        "",
        f"speedup {r['speedup']:.2f}x; cycle counts "
        f"{'identical' if r['cycles_equal'] else 'DIFFER'}; decode cache "
        f"answered {r['decode_hit_share']:.2%} of fetches; solo runs "
        f"issued {r['solo_share']:.2%} of bundles",
    ]))
    assert r["cycles_equal"], "optimizations changed the timing model"
    assert r["decode_hits_engaged"], "the decode cache stopped engaging"
    assert r["e5_solo"], "solo runs stopped engaging on E5"
    assert r["speedup"] >= 2.0, \
        f"only {r['speedup']:.2f}x over the plain machine"
