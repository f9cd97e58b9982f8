"""The superblock turbo benchmark: bulk straight-line dispatch must pay
for itself without touching the timing model.

Three single-thread workloads run with every shortcut on
(``fast_paths=True``: superblock traces over the decode cache and
memos) and on the plain per-cycle machine (``fast_paths=False``):

* ``alu`` — a pure integer loop (every bundle compiled: the ceiling);
* ``worker`` — the E5 multithreading worker at one thread (two loads
  per iteration through the compiled issue functions; the acceptance
  workload);
* ``stream`` — a load/store/ALU mix like the data-stream benchmark.

Each pair must agree exactly on the simulated cycle count *and* on the
performance-counter snapshot outside the shortcut tallies — the
shortcuts batch the accounting but never change it (the same contract
the fuzzer's fast-vs-plain axis and ``tests/machine/test_superblock.py``
police).  Traces must issue at least 99% of the alu loop's bundles.
The reported metric is the wall-clock speedup.  CI runs this file
with ``--benchmark-disable``, so every assertion holds on every push.
"""

from __future__ import annotations

import time

from repro.experiments.e5_multithreading import WORKER
from repro.machine.chip import RunReason, without_shortcut_tallies
from repro.sim.api import Simulation

from benchmarks.conftest import emit

ITERATIONS = 4000
MAX_CYCLES = 5_000_000

ALU = """
    movi r2, {iterations}
loop:
    addi r3, r3, 7
    xor  r4, r3, r2
    add  r5, r4, r3
    subi r2, r2, 1
    bne  r2, loop
    halt
"""

STREAM = """
    movi r2, {iterations}
loop:
    ld   r3, r1, 0
    addi r3, r3, 1
    st   r3, r1, 8
    ld   r4, r1, 16
    st   r4, r1, 24
    subi r2, r2, 1
    bne  r2, loop
    halt
"""

WORKLOADS = ("alu", "worker", "stream")
_SOURCES = {"alu": ALU, "worker": WORKER, "stream": STREAM}


def _run(workload: str, fast_paths: bool,
         iterations: int) -> tuple[int, float, Simulation]:
    sim = Simulation(memory_bytes=4 * 1024 * 1024, fast_paths=fast_paths)
    source = _SOURCES[workload].format(iterations=iterations)
    regs = {}
    if workload != "alu":
        regs[1] = sim.allocate(4096, eager=True).word
    sim.spawn(source, regs=regs, stack_bytes=0)
    t0 = time.perf_counter()
    result = sim.run(MAX_CYCLES)
    wall = time.perf_counter() - t0
    assert result.reason == RunReason.HALTED, result.reason
    return result.cycles, wall, sim


def measure(iterations: int = ITERATIONS) -> dict:
    """Time every workload fast and plain; cycles, and counters outside
    the shortcut tallies, must be bit-identical across each pair."""
    out: dict = {"workload": f"3 single-thread loops x {iterations} "
                             f"iterations, fast paths vs plain"}
    cycles_equal = counters_equal = True
    for workload in WORKLOADS:
        on_cycles, on_wall, on = _run(workload, True, iterations)
        off_cycles, off_wall, off = _run(workload, False, iterations)
        cycles_equal &= on_cycles == off_cycles
        counters_equal &= (without_shortcut_tallies(on.snapshot())
                           == without_shortcut_tallies(off.snapshot()))
        out[f"{workload}_superblock_share"] = (
            on.chip.superblock_bundles / on.chip.stats.issued_bundles)
        out[f"{workload}_cycles"] = on_cycles
        out[f"{workload}_on_cycles_per_s"] = on_cycles / on_wall
        out[f"{workload}_off_cycles_per_s"] = off_cycles / off_wall
        out[f"{workload}_speedup"] = off_wall / on_wall
    out["cycles_equal"] = cycles_equal
    out["counters_equal"] = counters_equal
    out["alu_traced"] = out["alu_superblock_share"] >= 0.99
    return out


def test_superblock_speedup(benchmark):
    r = benchmark.pedantic(measure, rounds=1, iterations=1)
    emit("superblock turbo — fast paths vs the plain machine", "\n".join([
        f"{'workload':<9} {'cycles':>9} {'on cyc/s':>12} {'off cyc/s':>12} "
        f"{'speedup':>8}",
        "-" * 55,
        *(f"{w:<9} {r[f'{w}_cycles']:>9} "
          f"{r[f'{w}_on_cycles_per_s']:>12,.0f} "
          f"{r[f'{w}_off_cycles_per_s']:>12,.0f} "
          f"{r[f'{w}_speedup']:>7.2f}x" for w in WORKLOADS),
        "",
        f"cycle counts {'identical' if r['cycles_equal'] else 'DIFFER'}, "
        f"counter snapshots "
        f"{'identical' if r['counters_equal'] else 'DIFFER'}; traces "
        f"issued {r['alu_superblock_share']:.2%} of the alu loop",
    ]))
    assert r["cycles_equal"], "the shortcuts changed the timing model"
    assert r["counters_equal"], "the shortcuts changed the counters"
    assert r["alu_traced"], "superblock traces stopped engaging"
    # the plain machine is far slower (worker ~20x, alu ~30x: PERF.md
    # §4); the floor leaves headroom for slow shared CI machines
    assert r["worker_speedup"] > 1.5, \
        f"superblock speedup collapsed: {r['worker_speedup']:.2f}x"
