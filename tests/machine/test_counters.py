"""The perf-counter subsystem: the counter file itself, and its
consistency with the chip's raw statistics on real workloads."""

from repro.experiments.e5_multithreading import WORKER
from repro.machine.chip import ChipConfig, RunReason
from repro.machine.counters import PerfCounters, merge_snapshots
from repro.runtime.subsystem import ProtectedSubsystem
from repro.sim.api import Simulation


class TestPerfCounters:
    def test_incr_accumulates(self):
        c = PerfCounters()
        c.incr("unit.event")
        c.incr("unit.event", 4)
        assert c.get("unit.event") == 5

    def test_sources_are_pulled_lazily(self):
        state = {"n": 0}
        c = PerfCounters()
        c.add_source("src", lambda: {"n": state["n"]})
        state["n"] = 7
        assert c.snapshot()["src.n"] == 7

    def test_snapshot_is_sorted_and_merged(self):
        c = PerfCounters()
        c.incr("b.two")
        c.add_source("a", lambda: {"one": 1})
        snap = c.snapshot()
        assert list(snap) == sorted(snap)
        assert snap == {"a.one": 1, "b.two": 1}

    def test_reset_events_keeps_sources(self):
        c = PerfCounters()
        c.incr("ev.x", 3)
        c.add_source("s", lambda: {"y": 2})
        c.reset_events()
        snap = c.snapshot()
        assert "ev.x" not in snap and snap["s.y"] == 2

    def test_merge_snapshots(self):
        merged = merge_snapshots({0: {"a": 1, "b": 2}, 1: {"a": 10}})
        assert merged["node0.a"] == 1
        assert merged["node1.a"] == 10
        assert merged["a"] == 11
        assert merged["b"] == 2

    def test_merge_recomputes_hit_rates(self):
        # two very unequal nodes: summing the per-node rates would give
        # 1.0 (or a nonsense 0.9 + 0.1 when unequal); the machine-wide
        # rate must be the access-weighted mean from the summed counts
        merged = merge_snapshots({
            0: {"cache.hits": 90, "cache.misses": 10,
                "cache.hit_rate": 0.9},
            1: {"cache.hits": 10, "cache.misses": 90,
                "cache.hit_rate": 0.1},
        })
        assert merged["cache.hits"] == 100
        assert merged["cache.misses"] == 100
        assert merged["cache.hit_rate"] == 0.5
        # per-node views stay untouched
        assert merged["node0.cache.hit_rate"] == 0.9
        assert merged["node1.cache.hit_rate"] == 0.1

    def test_merge_hit_rate_with_zero_accesses(self):
        merged = merge_snapshots({
            0: {"tlb.hits": 0, "tlb.misses": 0, "tlb.hit_rate": 0.0},
            1: {"tlb.hits": 0, "tlb.misses": 0, "tlb.hit_rate": 0.0},
        })
        assert merged["tlb.hit_rate"] == 0.0


def _check_consistency(sim):
    """The counter identities the design keeps on one node: every issued
    bundle was fetched exactly once (a hit or a miss, whether the
    per-cycle path or a superblock trace issued it), and the chip's
    issue total is the sum of its clusters'."""
    chip = sim.chip
    snap = sim.snapshot()
    per_cluster = sum(cl.issued_cycles for cl in chip.clusters)
    assert chip.stats.issued_bundles == per_cluster
    assert snap["chip.issued_bundles"] == sum(
        snap[f"cluster{i}.issued"] for i in range(len(chip.clusters)))
    assert chip.fetch_hits + chip.fetch_misses == chip.stats.issued_bundles
    assert snap["fetch.hits"] + snap["fetch.misses"] == \
        snap["chip.issued_bundles"]
    assert snap["chip.cycles"] == chip.stats.cycles


class TestCounterConsistency:
    def test_e5_workload(self):
        sim = Simulation(ChipConfig(memory_bytes=4 * 1024 * 1024,
                                    threads_per_cluster=4))
        source = WORKER.format(iterations=100)
        for t in range(4):
            data = sim.allocate(4096, eager=True)
            sim.spawn(source, domain=t + 1, cluster=0,
                      regs={1: data.word}, stack_bytes=0)
        result = sim.run(5_000_000)
        assert result.reason == RunReason.HALTED
        assert result.issued_bundles > 0
        _check_consistency(sim)

    def test_e3_workload(self):
        # the Figure 3 enter-pointer subsystem call, spread over clusters
        sim = Simulation(ChipConfig(memory_bytes=4 * 1024 * 1024))
        subsystem = ProtectedSubsystem.install(sim.kernel, """
        entry:
            movi r11, 99
            jmp r15
        """)
        caller = sim.load("""
            getip r15, ret
            jmp r1
        ret:
            mov r5, r11
            halt
        """)
        threads = [sim.spawn(caller, regs={1: subsystem.enter.word},
                             stack_bytes=0) for _ in range(3)]
        result = sim.run(5_000_000)
        assert result.reason == RunReason.HALTED
        assert all(t.regs.read(5).value == 99 for t in threads)
        _check_consistency(sim)

    def test_e5_consistency_survives_cache_off(self):
        sim = Simulation(ChipConfig(memory_bytes=4 * 1024 * 1024,
                                    threads_per_cluster=2,
                                    fast_paths=False))
        source = WORKER.format(iterations=50)
        for t in range(2):
            data = sim.allocate(4096, eager=True)
            sim.spawn(source, domain=t + 1, cluster=0,
                      regs={1: data.word}, stack_bytes=0)
        assert sim.run(5_000_000).reason == RunReason.HALTED
        assert sim.chip.fetch_hits == 0
        _check_consistency(sim)
