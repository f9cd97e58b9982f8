"""The data-path fast-path acceptance benchmark: simulated cycles/s.

Streams loads and stores through one guarded pointer — a memory
operation in nearly every bundle — and compares ``fast_paths=True``
(access-check memo + translation line memo, with the decode cache and
superblock traces) against ``fast_paths=False`` (full LEA/permission
re-derivation and a page-table walk on every access, every bundle
decoded per fetch).  Both runs must agree on the simulated cycle count
exactly (the shortcuts are timing-model-transparent); the fast side
must be at least twice as fast in wall-clock terms, and the memo
counters must tile the cache's access count exactly.  CI runs this
file with ``--benchmark-disable``, so every assertion holds on every
push.
"""

from __future__ import annotations

import time

from repro.fuzz.differ import setup_chip
from repro.machine.chip import MAPChip, RunReason

from benchmarks.conftest import emit

ITERATIONS = 6000
MAX_CYCLES = 5_000_000

#: 16 bundles per iteration, every one carrying a load or a store
#: through the same pointer word in r8; the loop bookkeeping rides in
#: the integer slots of the last bundles so the memory unit never idles.
STREAM = """
    movi r1, {iterations}
loop:
    ld r2, r8, 0    | subi r1, r1, 1
    st r2, r8, 8
    ld r3, r8, 16
    st r3, r8, 24
    ld r2, r8, 32
    st r2, r8, 40
    ld r3, r8, 48
    st r3, r8, 56
    ld r2, r8, 64
    st r2, r8, 72
    ld r3, r8, 80
    st r3, r8, 88
    ld r2, r8, 96
    st r2, r8, 104
    ld r3, r8, 112  | beq r1, done
    st r3, r8, 120  | br loop
done:
    halt
"""


def build_chip(fast_path: bool, iterations: int = ITERATIONS) -> MAPChip:
    """A bare chip with the stream program loaded and its data segment
    in r8 (the fuzzer's ``setup_chip``: no kernel, so nothing but the
    stream touches the cache)."""
    chip, _, _, _ = setup_chip(STREAM.format(iterations=iterations),
                               fast_paths=fast_path)
    return chip


def _run(fast_path: bool, iterations: int) -> tuple[MAPChip, int, float]:
    chip = build_chip(fast_path, iterations)
    t0 = time.perf_counter()
    result = chip.run(MAX_CYCLES)
    wall = time.perf_counter() - t0
    assert result.reason == RunReason.HALTED, result.reason
    return chip, result.cycles, wall


def measure(iterations: int = ITERATIONS) -> dict:
    """Time the stream with the fast path off and on; returns the
    comparison plus the memo-counter cross-checks."""
    slow_chip, slow_cycles, slow_wall = _run(False, iterations)
    fast_chip, fast_cycles, fast_wall = _run(True, iterations)

    cache = fast_chip.cache.stats
    accesses = cache.hits + cache.misses
    slow_cache = slow_chip.cache.stats
    checks = {
        # every cache access went through the access-check memo ...
        "check_memo_tiles_accesses":
            fast_chip.check_memo_hits + fast_chip.check_memo_misses
            == accesses,
        # ... and through the translation line memo, exactly once each
        "xlate_memo_tiles_accesses":
            cache.xlate_memo_hits + cache.xlate_memo_misses == accesses,
        # the memos actually answered the traffic (not just missing)
        "memos_mostly_hit":
            fast_chip.check_memo_hits > accesses * 0.99
            and cache.xlate_memo_hits > accesses * 0.99,
        # with the fast path off, no memo is consulted at all
        "off_counters_zero":
            slow_chip.check_memo_hits == slow_chip.check_memo_misses == 0
            and slow_cache.xlate_memo_hits == slow_cache.xlate_memo_misses
            == 0,
    }

    slow_rate = slow_cycles / slow_wall
    fast_rate = fast_cycles / fast_wall
    return {
        "workload": f"data stream ({iterations} iterations x 16 mem ops)",
        "slow_cycles": slow_cycles,
        "slow_wall_s": slow_wall,
        "slow_cycles_per_s": slow_rate,
        "fast_cycles": fast_cycles,
        "fast_wall_s": fast_wall,
        "fast_cycles_per_s": fast_rate,
        "speedup": fast_rate / slow_rate,
        "cycles_equal": slow_cycles == fast_cycles,
        "cache_accesses": accesses,
        "check_memo_hits": fast_chip.check_memo_hits,
        "check_memo_misses": fast_chip.check_memo_misses,
        "xlate_memo_hits": cache.xlate_memo_hits,
        "xlate_memo_misses": cache.xlate_memo_misses,
        "cross_checks": checks,
        "cross_checks_pass": all(checks.values()),
    }


def test_data_stream_speedup(benchmark):
    r = benchmark.pedantic(measure, rounds=1, iterations=1)
    emit("data stream — fast path on vs off", "\n".join([
        f"{'path':<10} {'cycles':>9} {'wall (s)':>9} {'cycles/s':>12}",
        "-" * 43,
        f"{'off':<10} {r['slow_cycles']:>9} {r['slow_wall_s']:>9.3f} "
        f"{r['slow_cycles_per_s']:>12,.0f}",
        f"{'on':<10} {r['fast_cycles']:>9} {r['fast_wall_s']:>9.3f} "
        f"{r['fast_cycles_per_s']:>12,.0f}",
        "",
        f"speedup {r['speedup']:.2f}x; cycle counts "
        f"{'identical' if r['cycles_equal'] else 'DIFFER'}; "
        f"memo cross-checks "
        f"{'pass' if r['cross_checks_pass'] else 'FAIL'}",
    ]))
    assert r["cycles_equal"], "the fast path changed the timing model"
    assert r["cross_checks_pass"], r["cross_checks"]
    assert r["speedup"] >= 2.0, f"only {r['speedup']:.2f}x over the slow path"
