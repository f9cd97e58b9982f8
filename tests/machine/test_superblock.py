"""Superblock turbo execution and solo runs (PERF.md §6): bulk
straight-line dispatch, and stepping one cluster alone while several
threads are ready there, must be invisible — identical cycles,
identical counter snapshots, identical flight-recorder contents, the
same per-thread stats — between ``run()`` and stepping the same machine
one cycle at a time, for every functional unit, at every way a solo
run can end, across mid-superblock invalidation (self-modifying stores,
unmap, swap-out, remote writes) and across a snapshot taken while a
superblock or solo run is hot.  The concurrent and mesh sweeps compare
against the plain machine (``fast_paths=False``) outside the shortcut
tallies."""

import pytest

from repro.machine.assembler import assemble
from repro.machine.chip import (ChipConfig, MAPChip, RunReason, RunResult,
                                without_shortcut_tallies)
from repro.machine.cluster import NODE_MEM_FN
from repro.machine.multicomputer import Multicomputer
from repro.machine.network import MeshShape
from repro.machine.reference import ReferenceInterpreter
from repro.machine.thread import ThreadState
from repro.mem.tagged_memory import AlignmentFault
from repro.runtime.swap import SwapManager
from repro.sim.api import Simulation

from tests.machine.conftest import data_segment, load

MEMORY = 2 * 1024 * 1024


def finish(sim, turbo, max_cycles=100_000):
    """Run ``sim`` to the end through ``run()`` when ``turbo`` (superblock
    traces and idle fast-forward engage), else one ``step()`` at a time
    (neither does); returns the :class:`RunResult` either way."""
    if turbo:
        return sim.run(max_cycles)
    chip = sim.chip
    start, bundles = sim.now, chip.stats.issued_bundles
    while chip.runnable_threads() and sim.now - start < max_cycles:
        sim.step()
    reason = (RunReason.MAX_CYCLES if chip.runnable_threads()
              else chip._stop_reason())
    return RunResult(sim.now - start, chip.stats.issued_bundles - bundles,
                     reason)


def run_pair(source, *, data_bytes=0, eager=True):
    """The same program on two fresh machines, finished with and without
    turbo; returns ``(sim_run, res_run, sim_step, res_step)``.  When
    ``data_bytes`` is set a segment lands in r8."""
    out = []
    for turbo in (True, False):
        sim = Simulation(memory_bytes=MEMORY)
        regs = {}
        if data_bytes:
            regs[8] = sim.allocate(data_bytes, eager=eager).word
        sim.spawn(sim.load(source), regs=regs)
        out += [sim, finish(sim, turbo)]
    return tuple(out)


def stepped_view(snapshot):
    """A counter file minus idle fast-forward's own tally, the one
    counter ``run()`` adds over per-cycle stepping."""
    return {k: v for k, v in snapshot.items()
            if k != "chip.idle_skipped_cycles"}


def assert_parity(sim_run, res_run, sim_step, res_step):
    """The timing-model-identical contract, in full."""
    assert res_run.cycles == res_step.cycles
    assert res_run.reason == res_step.reason
    assert res_run.issued_bundles == res_step.issued_bundles
    assert stepped_view(sim_run.snapshot()) == \
        stepped_view(sim_step.snapshot())
    assert sim_run.chip.obs.flight.dump() == sim_step.chip.obs.flight.dump()
    assert ([type(r.cause).__name__ for r in sim_run.chip.fault_log] ==
            [type(r.cause).__name__ for r in sim_step.chip.fault_log])
    assert thread_view(sim_run) == thread_view(sim_step)


def thread_view(sim):
    """Every thread's end state and per-thread stats, by tid."""
    return [(t.tid, t.state, t.stats, t.regs.snapshot())
            for t in sim.threads]


# -- per-functional-unit parity (one workload per unit/op class) ----------

UNIT_WORKLOADS = {
    # integer unit, compiled closures
    "int-alu-imm": """
        movi r2, 200
    loop:
        addi r3, r3, 7
        subi r2, r2, 1
        bne  r2, loop
        halt
    """,
    "int-alu-reg": """
        movi r2, 200
        movi r4, 3
    loop:
        add  r3, r3, r4
        xor  r5, r3, r2
        subi r2, r2, 1
        bne  r2, loop
        halt
    """,
    "int-movi": """
        movi r2, 150
    loop:
        movi r3, 42
        movi r4, -7
        subi r2, r2, 1
        bne  r2, loop
        halt
    """,
    "int-branches": """
        movi r2, 120
    loop:
        beq  r2, done
        subi r2, r2, 1
        br   loop
    done:
        halt
    """,
    # integer unit, rare ops (ISPTR/GETIP call the integer unit through
    # their node's generic closure; MOV is compiled)
    "int-fallback": """
        movi r2, 100
    loop:
        mov  r3, r2
        isptr r4, r3
        getip r5, 0
        subi r2, r2, 1
        bne  r2, loop
        halt
    """,
    # floating-point unit
    "fp-arith": """
        movi r2, 120
        itof f1, r2
    loop:
        fadd f2, f2, f1
        fmul f3, f2, f1
        fsub f4, f3, f2
        subi r2, r2, 1
        bne  r2, loop
        halt
    """,
    "fp-div-casts": """
        movi r2, 80
        movi r3, 3
        itof f1, r3
    loop:
        fdiv f2, f1, f1
        ftoi r4, f2
        fmov f5, f2
        subi r2, r2, 1
        bne  r2, loop
        halt
    """,
    # memory unit: compiled load/store closures
    "mem-loads": """
        movi r2, 150
    loop:
        ld   r3, r8, 0
        ld   r4, r8, 64
        subi r2, r2, 1
        bne  r2, loop
        halt
    """,
    "mem-stores": """
        movi r2, 150
    loop:
        st   r2, r8, 0
        st   r2, r8, 128
        subi r2, r2, 1
        bne  r2, loop
        halt
    """,
    "mem-float": """
        movi r2, 100
        itof f1, r2
    loop:
        stf  f1, r8, 0
        ldf  f2, r8, 0
        subi r2, r2, 1
        bne  r2, loop
        halt
    """,
    # memory unit, interpreter fallback (LEA-class derivation ops)
    "mem-lea-fallback": """
        movi r2, 100
    loop:
        lea  r3, r8, 8
        ld   r4, r3, 0
        subi r2, r2, 1
        bne  r2, loop
        halt
    """,
    # all three units live in the same bundle stream
    "mixed-units": """
        movi r2, 150
        itof f1, r2
    loop:
        ld   r3, r8, 0  | fadd f2, f2, f1
        addi r3, r3, 1
        st   r3, r8, 0  | fmul f3, f2, f1
        subi r2, r2, 1
        bne  r2, loop
        halt
    """,
}

NEEDS_DATA = {"mem-loads", "mem-stores", "mem-float", "mem-lea-fallback",
              "mixed-units"}


class TestUnitParity:
    """coreblocks-style per-unit sweep: each functional unit (and each
    compiled-vs-fallback op class within it) proves the contract."""

    @pytest.mark.parametrize("unit", sorted(UNIT_WORKLOADS))
    def test_unit_is_timing_identical(self, unit):
        data = 4096 if unit in NEEDS_DATA else 0
        sim_on, res_on, sim_off, res_off = run_pair(
            UNIT_WORKLOADS[unit], data_bytes=data)
        assert res_on.reason == "halted"
        assert_parity(sim_on, res_on, sim_off, res_off)

    def test_superblocks_actually_engage(self):
        sim_on, res_on, sim_off, res_off = run_pair(
            UNIT_WORKLOADS["int-alu-imm"])
        assert sim_on.chip.superblock_blocks > 0
        assert sim_on.chip.superblock_bundles > res_on.issued_bundles // 2
        assert sim_off.chip.superblock_blocks == 0

    def test_fault_mid_superblock(self):
        # the loop walks a pointer off the end of its segment: the
        # bounds fault lands mid-trace and must hit at the same cycle,
        # with the faulting bundle committing nothing, on and off
        source = """
            movi r2, 100
        loop:
            ld   r3, r8, 0
            addi r8, r8, 8
            subi r2, r2, 1
            bne  r2, loop
            halt
        """
        sim_on, res_on, sim_off, res_off = run_pair(source, data_bytes=64)
        thread_on = sim_on.threads[0]
        assert thread_on.state is ThreadState.FAULTED
        assert_parity(sim_on, res_on, sim_off, res_off)

    def test_blocking_load_exits_the_superblock(self):
        # a cold miss blocks the thread; the superblock must account
        # the stall exactly as per-cycle stepping does (lazy segment:
        # first touches take misses + demand paging)
        source = """
            movi r2, 60
        loop:
            ld   r3, r8, 0
            ld   r4, r8, 2048
            subi r2, r2, 1
            bne  r2, loop
            halt
        """
        # lazy segment: faults + misses
        assert_parity(*run_pair(source, data_bytes=4096, eager=False))


# -- solo runs: several ready threads on one cluster --------------------

def spawn_all(sim, entries, regs_list):
    """One thread per (entry, registers) on cluster 0, domains 1, 2, …"""
    return [sim.spawn(entry, cluster=0, domain=k + 1, regs=regs)
            for k, (entry, regs) in enumerate(zip(entries, regs_list))]


def assert_three_way(build):
    """``build(fast_paths)`` sets up a fresh :class:`Simulation`.  Its
    ``run()`` must match per-cycle stepping with the shortcuts on
    (everything but idle fast-forward's tally) and the plain machine
    (outside the shortcut tallies); returns the ``run()`` machine."""
    sim_run = build(True)
    res_run = finish(sim_run, True)
    sim_step = build(True)
    assert_parity(sim_run, res_run, sim_step, finish(sim_step, False))
    assert sim_step.chip.solo_runs == 0
    plain = build(False)
    res_plain = finish(plain, True)
    assert (res_plain.cycles, res_plain.reason, res_plain.issued_bundles) \
        == (res_run.cycles, res_run.reason, res_run.issued_bundles)
    assert without_shortcut_tallies(plain.snapshot()) == \
        without_shortcut_tallies(sim_run.snapshot())
    assert plain.chip.obs.flight.dump() == sim_run.chip.obs.flight.dump()
    assert thread_view(plain) == thread_view(sim_run)
    assert plain.chip.superblock_blocks == plain.chip.solo_runs == 0
    return sim_run


@pytest.fixture
def solo_runs(monkeypatch):
    """Records ``(ready threads at entry, cycles)`` for every solo run."""
    run_solo = MAPChip._run_solo
    runs = []

    def recording(self, horizon):
        ready = self._ready_count
        cycles = run_solo(self, horizon)
        if cycles:
            runs.append((ready, cycles))
        return cycles

    monkeypatch.setattr(MAPChip, "_run_solo", recording)
    return runs


class TestSoloRuns:
    """Each way a solo run can end, pinned against stepping and against
    the plain machine."""

    WALK = """
        movi r2, 100
    loop:
        ld   r3, r8, 0
        lea  r8, r8, 8
        subi r2, r2, 1
        bne  r2, loop
        halt
    """

    def test_fault_ends_the_run(self, solo_runs):
        # four threads walk r8 off data segments of different sizes, so
        # they fault one at a time, each fault ending a solo run
        sizes = (512, 64, 256, 128)

        def build(fast_paths):
            sim = Simulation(memory_bytes=MEMORY, fast_paths=fast_paths)
            data = [sim.allocate(n, eager=True).word for n in sizes]
            entry = sim.load(self.WALK)
            spawn_all(sim, [entry] * 4, [{8: d} for d in data])
            return sim

        sim = assert_three_way(build)
        assert [t.state for t in sim.threads] == [ThreadState.FAULTED] * 4
        assert {4, 3, 2} <= {ready for ready, _ in solo_runs}
        # the last thread, alone, runs superblock traces
        assert sim.chip.superblock_blocks > 0

    def test_block_on_a_cache_miss(self):
        # lazy segments: first touches demand-page and miss, blocking
        # one thread while the others run on
        source = """
            movi r2, 40
        loop:
            ld   r3, r8, 0
            ld   r4, r8, 2048
            addi r5, r5, 3
            subi r2, r2, 1
            bne  r2, loop
            halt
        """

        def build(fast_paths):
            sim = Simulation(memory_bytes=MEMORY, fast_paths=fast_paths)
            data = [sim.allocate(4096, eager=False).word for _ in range(3)]
            entry = sim.load(source)
            spawn_all(sim, [entry] * 3, [{8: d} for d in data])
            return sim

        sim = assert_three_way(build)
        assert all(t.stats.stall_cycles > 0 for t in sim.threads)
        assert sim.chip.solo_runs > 0

    def test_halt_while_the_others_run_on(self, solo_runs):
        source = """
        loop:
            addi r3, r3, 1
            subi r2, r2, 1
            bne  r2, loop
            halt
        """
        counts = (50, 300, 120, 200)

        def build(fast_paths):
            sim = Simulation(memory_bytes=MEMORY, fast_paths=fast_paths)
            entry = sim.load(source)
            spawn_all(sim, [entry] * 4, [{2: n} for n in counts])
            return sim

        sim = assert_three_way(build)
        assert [t.regs.read(3).value for t in sim.threads] == list(counts)
        # solo runs with 4, then 3, then 2 threads; then a lone one traces
        assert [ready for ready, _ in solo_runs] == [4, 3, 2]
        assert sim.chip.superblock_blocks > 0

    def test_store_over_the_bundle_another_is_about_to_issue(self):
        # thread A's loop stores over the first bundle of thread B's
        # loop; the loops have the same length and start together, so
        # B issues that bundle the cycle after A's store
        writer = """
            movi r2, 40
        loop:
            st   r10, r9, 0
            addi r4, r4, 1
            subi r2, r2, 1
            bne  r2, loop
            halt
        """
        patched = """
        loop:
            movi r3, 1
            addi r4, r4, 1
            subi r2, r2, 1
            bne  r2, loop
            halt
        """
        from repro.core.permissions import Permission
        from repro.core.pointer import GuardedPointer

        def build(fast_paths):
            sim = Simulation(memory_bytes=MEMORY, fast_paths=fast_paths)
            entry_a = sim.load(writer)
            entry_b = sim.load(patched)
            alias = GuardedPointer.make(Permission.READ_WRITE,
                                        entry_b.seglen, entry_b.address)
            donor = sim.load("movi r3, 2\nhalt")
            word = sim.chip.memory.load_word(
                sim.chip.page_table.walk(donor.address))
            spawn_all(sim, [entry_a, entry_b],
                      [{9: alias.word, 10: word}, {2: 41}])
            return sim

        sim = assert_three_way(build)
        assert sim.threads[1].regs.read(3).value == 2
        assert sim.chip.decode_invalidations >= 40
        assert sim.chip.solo_runs > 0

    def test_blocked_thread_on_another_cluster_bounds_the_run(self):
        # cluster 1 strides through cold lines, blocking on every miss;
        # each of its wake-ups must end cluster 0's solo run on time
        striding = """
            movi r2, 30
        loop:
            ld   r3, r8, 0
            lea  r8, r8, 64
            subi r2, r2, 1
            bne  r2, loop
            halt
        """
        spinning = """
            movi r2, 400
        loop:
            addi r3, r3, 1
            subi r2, r2, 1
            bne  r2, loop
            halt
        """

        def build(fast_paths):
            sim = Simulation(memory_bytes=MEMORY, fast_paths=fast_paths)
            data = sim.allocate(4096, eager=True)
            spin = sim.load(spinning)
            spawn_all(sim, [spin, spin], [{}, {}])
            sim.spawn(sim.load(striding), cluster=1, domain=3,
                      regs={8: data.word})
            return sim

        sim = assert_three_way(build)
        assert sim.threads[2].stats.stall_cycles > 0
        assert sim.chip.solo_runs > 10

    @pytest.mark.parametrize("domains,stalls", [((1, 2), True),
                                                ((5, 5), False)])
    def test_domain_switch_penalty(self, domains, stalls):
        # a conventional machine pays to switch domains: a solo run
        # keeps every stall of mixed domains, and one domain has none
        source = UNIT_WORKLOADS["int-alu-imm"]

        def build(fast_paths):
            sim = Simulation(ChipConfig(memory_bytes=MEMORY,
                                        domain_switch_penalty=3,
                                        fast_paths=fast_paths))
            entry = sim.load(source)
            for domain in domains:
                sim.spawn(entry, cluster=0, domain=domain)
            return sim

        sim = assert_three_way(build)
        assert (sim.chip.clusters[0].switch_stall_cycles > 0) is stalls
        assert sim.chip.solo_runs > 0

    def test_traced_events_match_stepping(self):
        # a hot trace keeps solo runs on (only superblock traces opt
        # out); events raised mid-cycle, like a TLB walk on a
        # demand-paging fault, read the chip clock, which a solo run
        # keeps current every cycle
        source = """
            movi r2, 30
        loop:
            ld   r3, r8, 0
            ld   r4, r8, 2048
            lea  r8, r8, 64
            subi r2, r2, 1
            bne  r2, loop
            halt
        """

        def traced(turbo):
            sim = Simulation(memory_bytes=MEMORY)
            data = [sim.allocate(8192, eager=False).word for _ in range(3)]
            entry = sim.load(source)
            spawn_all(sim, [entry] * 3, [{8: d} for d in data])
            with sim.trace() as session:
                finish(sim, turbo)
            return sim, session.events

        sim, events = traced(True)
        _, stepped = traced(False)
        assert sim.chip.solo_runs > 0
        assert {"tlb.miss_walk", "fault.raise"} <= {e.name for e in events}
        assert events == stepped

    STORE_LOOP = """
        movi r2, 300
    loop:
        addi r3, r3, 1
        st   r3, r8, 0
        subi r2, r2, 1
        bne  r2, loop
        halt
    """

    def build_store_loop(self, fast_paths=True):
        sim = Simulation(memory_bytes=MEMORY, fast_paths=fast_paths)
        data = [sim.allocate(256, eager=True).word for _ in range(3)]
        entry = sim.load(self.STORE_LOOP)
        spawn_all(sim, [entry] * 3, [{8: d} for d in data])
        return sim

    def test_cut_at_any_horizon(self):
        # a horizon ends the run at every round-robin position in turn:
        # the machine state there (cursor, last domain, per-thread
        # stats, counters) is the state stepping leaves
        for horizon in range(60, 130, 7):
            solo, stepped = self.build_store_loop(), self.build_store_loop()
            solo.run(horizon)
            stepped.step(horizon)
            assert solo.chip.solo_runs > 0
            assert solo.capture_state() == stepped.capture_state(), horizon

    def test_snapshot_mid_run(self, tmp_path):
        build = self.build_store_loop
        sim = build(True)
        sim.run(101)  # the horizon lands mid-run
        assert sim.now == 101
        assert sim.chip.solo_runs > 0
        restored = Simulation.restore(sim.save(tmp_path / "hot.snap"))
        assert restored.capture_state() == sim.capture_state()
        assert restored.chip._ready_clusters == sim.chip._ready_clusters == 1
        runs = restored.chip.solo_runs

        live, back = sim.run(100_000), restored.run(100_000)
        assert live.reason == back.reason == "halted"
        assert live.cycles == back.cycles
        assert restored.chip.solo_runs > runs
        assert {k: v for k, v in sim.snapshot().items()
                if not k.startswith("flight.")} == \
            {k: v for k, v in restored.snapshot().items()
             if not k.startswith("flight.")}
        assert sim.capture_state() == restored.capture_state()
        clean = build(False)
        clean.run(100_000)
        assert clean.now == sim.now
        assert thread_view(clean) == thread_view(sim)


# -- concurrent threads against the plain machine, and a mesh -------------
#
# The sweeps below run each unit's workload as several threads in
# separate protection domains sharing one cluster — which run() steps
# through solo runs (the cluster stepped alone, one bundle per cycle
# through select, fetch and issue) — and on a two-node mesh, where
# turbo stays off and every load and store is remote.  Every run is
# checked against the reference interpreter and against the plain
# machine, fast_paths=False, the per-cycle reference (walk, decode and
# compile on every fetch, no memos, no solo runs or traces), outside
# the shortcut tallies.

CODE_BASE = 0x10000
DATA_BASE = 0x40000
DATA_BYTES = 4096


def _initial_regs(k, data):
    return {8: data.word, 3: 11 * k + 1, 4: 5 * k}


def run_concurrent(source, threads, *, fast_paths=True):
    """``threads`` copies of ``source`` on cluster 0 of a bare chip, each
    in its own domain with its own data segment in r8; returns the chip,
    the run result and ``(thread, initial registers, segment base)``."""
    chip = MAPChip(ChipConfig(memory_bytes=MEMORY, fast_paths=fast_paths))
    entry = load(chip, source, base=CODE_BASE)
    spawned = []
    for k in range(threads):
        base = DATA_BASE + k * DATA_BYTES
        data = data_segment(chip, base, DATA_BYTES)
        thread = chip.spawn(entry, domain=k + 1, cluster=0,
                            regs=_initial_regs(k, data))
        spawned.append((thread, thread.regs.snapshot(), base))
    return chip, chip.run(100_000), spawned


def run_mesh(source, *, fast_paths=True):
    """Two threads on node 0 of a 2-node mesh, in separate domains, each
    with a data segment homed on node 1; returns the machine, the run
    result, the entry pointer and ``(thread, initial registers, segment
    base)``."""
    mc = Multicomputer(shape=MeshShape(2, 1, 1),
                       chip_config=ChipConfig(memory_bytes=MEMORY,
                                              fast_paths=fast_paths),
                       arena_order=24)
    entry = mc.load_on(0, source)
    spawned = []
    for k in range(2):
        data = mc.allocate_on(1, DATA_BYTES, eager=True)
        thread = mc.spawn_on(0, entry, domain=k + 1, cluster=0,
                             regs=_initial_regs(k, data), stack_bytes=0)
        spawned.append((thread, thread.regs.snapshot(), data.segment_base))
    return mc, mc.run(100_000), entry, spawned


def reference_run(source, entry, initial):
    ref = ReferenceInterpreter()
    ref.load_program(assemble(source), entry.address)
    ref.ip = entry
    regs, fregs = initial
    for index in range(16):
        ref.regs.write(index, regs[index])
        ref.regs.write_f(index, fregs[index])
    return ref, ref.run()


def assert_matches_reference(source, entry, spawned, chip_for_data):
    """Each thread's registers, halt or fault, and data segment equal a
    reference run of the same program from the same registers."""
    for thread, initial, base in spawned:
        ref, result = reference_run(source, entry, initial)
        if result.reason == "faulted":
            assert thread.state is ThreadState.FAULTED
            assert type(thread.fault.cause) is type(result.fault)
        else:
            assert result.reason == "halted"
            assert thread.state is ThreadState.HALTED
        assert thread.regs.snapshot() == ref.regs.snapshot()
        chip = chip_for_data
        for offset in range(0, DATA_BYTES, 8):
            word = chip.memory.load_word(chip.page_table.walk(base + offset))
            assert word == ref.load_word(base + offset), hex(base + offset)


@pytest.mark.parametrize("unit", sorted(UNIT_WORKLOADS))
class TestPerCycleUnitParity:
    """Each unit's compiled closures with 2–4 threads interleaved cycle
    by cycle on one cluster: solo runs against the plain per-cycle
    machine."""

    @pytest.mark.parametrize("threads", (2, 3, 4))
    def test_concurrent_threads(self, unit, threads):
        source = UNIT_WORKLOADS[unit]
        chip, result, spawned = run_concurrent(source, threads)
        assert result.reason == "halted"
        entry = load(MAPChip(ChipConfig(memory_bytes=MEMORY)), source,
                     base=CODE_BASE)
        assert_matches_reference(source, entry, spawned, chip)

        off, off_result, off_spawned = run_concurrent(source, threads,
                                                      fast_paths=False)
        assert off_result.cycles == result.cycles
        assert off_result.issued_bundles == result.issued_bundles
        assert [t.regs.snapshot() for t, _, _ in off_spawned] == \
            [t.regs.snapshot() for t, _, _ in spawned]
        assert [t.stats for t, _, _ in off_spawned] == \
            [t.stats for t, _, _ in spawned]
        assert without_shortcut_tallies(off.counters.snapshot()) == \
            without_shortcut_tallies(chip.counters.snapshot())
        assert off.obs.flight.dump() == chip.obs.flight.dump()
        assert chip.solo_bundles >= 0.9 * result.issued_bundles


@pytest.mark.parametrize("unit", sorted(NEEDS_DATA))
class TestMeshUnitParity:
    """The memory workloads on node 0 of a mesh, every load and store
    remote: the compiled closures go through the chip's mesh port, so
    loads wait for the window barrier (REMOTE_WAIT) and stores travel
    as messages."""

    def test_remote_data(self, unit):
        source = UNIT_WORKLOADS[unit]
        mc, result, entry, spawned = run_mesh(source)
        assert result.reason == "halted"
        counters = mc.counters_snapshot()
        reads = counters.get("router.remote_reads", 0)
        assert reads + counters.get("router.remote_writes", 0) > 0
        if reads:
            # remote loads blocked until their barrier reply
            assert all(t.stats.stall_cycles > 0 for t, _, _ in spawned)
        names = {node[NODE_MEM_FN].__name__
                 for nodes in mc.chips[0]._decode_cache.values()
                 for node in nodes.values()
                 if node[NODE_MEM_FN] is not None}
        assert names & {"load", "store"}
        assert_matches_reference(source, entry, spawned, mc.chips[1])

        off, off_result, _, off_spawned = run_mesh(source, fast_paths=False)
        assert off_result.cycles == result.cycles
        assert [t.regs.snapshot() for t, _, _ in off_spawned] == \
            [t.regs.snapshot() for t, _, _ in spawned]
        assert without_shortcut_tallies(off.counters_snapshot()) == \
            without_shortcut_tallies(counters)


class TestMeshUnalignedAccess:
    @pytest.mark.parametrize("op", ["ld r3, r9, 0", "st r3, r9, 0"])
    def test_unaligned_remote_access_faults(self, op):
        # alignment is a property of the virtual address: the compiled
        # closure faults at issue, before any message leaves the node
        source = f"lea r9, r8, 4\n{op}\nhalt"
        outcomes = []
        for fast_paths in (True, False):
            mc, _, entry, spawned = run_mesh(source, fast_paths=fast_paths)
            for thread, _, _ in spawned:
                assert thread.state is ThreadState.FAULTED
                assert isinstance(thread.fault.cause, AlignmentFault)
            counters = mc.counters_snapshot()
            assert counters.get("router.remote_reads", 0) == 0
            assert counters.get("router.remote_writes", 0) == 0
            assert_matches_reference(source, entry, spawned, mc.chips[1])
            outcomes.append((mc.chips[0].now,
                             without_shortcut_tallies(counters)))
        assert outcomes[0] == outcomes[1]


class TestMidSuperblockInvalidation:
    def test_store_into_the_cached_trace(self):
        # the loop patches its own body (movi imm) every iteration —
        # stale superblock nodes would keep executing the old immediate
        source = """
            movi r2, 40
            lea  r9, r15, 48
        loop:
            movi r3, 1
            st   r10, r9, 0
            subi r2, r2, 1
            bne  r2, loop
            halt
        """
        # r15 is fuzz-style rw alias; build by hand for the alias
        from repro.core.permissions import Permission
        from repro.core.pointer import GuardedPointer
        out = []
        for turbo in (True, False):
            sim = Simulation(memory_bytes=MEMORY)
            entry = sim.load(source)
            alias = GuardedPointer.make(Permission.READ_WRITE,
                                        entry.seglen, entry.address)
            patch = sim.load("movi r3, 2\nhalt")  # donor word
            word = sim.chip.memory.load_word(
                sim.chip.page_table.walk(patch.address))
            sim.spawn(entry, regs={15: alias.word, 10: word})
            out += [sim, finish(sim, turbo)]
        assert_parity(*out)
        assert out[0].threads[0].regs.read(3).value == \
            out[2].threads[0].regs.read(3).value

    def test_unmap_mid_run(self):
        source = """
            movi r2, 4000
        loop:
            addi r3, r3, 1
            subi r2, r2, 1
            bne  r2, loop
            halt
        """
        out = []
        for turbo in (True, False):
            sim = Simulation(memory_bytes=MEMORY)
            entry = sim.load(source)
            sim.spawn(entry)
            sim.run(50)  # superblock is hot across this boundary
            table = sim.chip.page_table
            table.unmap(table.page_of(entry.address))
            assert not sim.chip._decode_cache  # traces run its nodes
            out += [sim, finish(sim, turbo)]
        # the kernel demand-pages the code back in: one recorded page
        # fault, then the (invalidated, re-decoded) loop runs to halt
        assert out[0].threads[0].stats.faults == 1
        assert out[0].threads[0].state is ThreadState.HALTED
        assert_parity(*out)

    def test_swap_out_mid_run(self):
        source = """
            movi r2, 3000
        loop:
            ld   r3, r8, 0
            subi r2, r2, 1
            bne  r2, loop
            halt
        """
        out = []
        for turbo in (True, False):
            sim = Simulation(memory_bytes=MEMORY)
            data = sim.allocate(4096, eager=True)
            entry = sim.load(source)
            sim.spawn(entry, regs={8: data.word})
            swap = SwapManager(sim.kernel, swap_cycles=50)
            sim.run(40)
            table = sim.chip.page_table
            swap.swap_out(table.page_of(entry.address))
            swap.swap_out(table.page_of(data.segment_base))
            assert not sim.chip._decode_cache
            out += [sim, finish(sim, turbo)]
        assert out[1].reason == "halted"
        assert_parity(*out)

    def test_remote_write_and_mesh_inertness(self):
        # superblocks self-disable with a router attached: on a mesh the
        # shortcuts change nothing outside their tallies and never fire
        from repro.core.word import TaggedWord
        from repro.machine.assembler import assemble
        source = """
            movi r2, 2000
        loop:
            movi r3, 7
            subi r2, r2, 1
            bne  r2, loop
            halt
        """
        digests = []
        for fast_paths in (True, False):
            sim = Simulation(nodes=2, memory_bytes=MEMORY,
                             fast_paths=fast_paths)
            entry = sim.load(source, node=0)
            thread = sim.spawn(entry)
            sim.step(30)
            patch = assemble("movi r3, 9").encode()[0]
            # node 1 patches node 0's loop body through the mesh
            sim.chips[1].access_memory(entry.address + 24, write=True,
                                       now=sim.chips[1].now, value=patch)
            sim.run(100_000)
            assert all(chip.superblock_blocks == 0 for chip in sim.chips)
            digests.append((sim.now, without_shortcut_tallies(sim.snapshot()),
                            thread.regs.read(3).value,
                            thread.state.name))
        assert digests[0] == digests[1]
        assert digests[0][2] == 9  # the remote patch took effect


class TestSnapshotMidSuperblock:
    def test_restore_inside_a_hot_loop(self, tmp_path):
        source = """
            movi r2, 2500
        loop:
            addi r3, r3, 1
            st   r3, r8, 0
            subi r2, r2, 1
            bne  r2, loop
            halt
        """
        sim = Simulation(memory_bytes=MEMORY)
        sim.spawn(sim.load(source),
                  regs={8: sim.allocate(256, eager=True).word})
        sim.run(101)  # the horizon lands mid-superblock, mid-loop
        assert sim.now == 101
        assert sim.chip.superblock_blocks > 0
        path = sim.save(tmp_path / "hot.snap")

        restored = Simulation.restore(path)
        assert restored.capture_state() == sim.capture_state()

        live = sim.run(100_000)
        back = restored.run(100_000)
        assert live.reason == back.reason == "halted"
        assert live.cycles == back.cycles
        # captured machine state — counters included — is exactly equal;
        # the flight ring is an uncaptured diagnostic (it restarts empty
        # on restore), so its flight.* pull keys are excluded from the
        # live-vs-restored snapshot comparison
        assert {k: v for k, v in sim.snapshot().items()
                if not k.startswith("flight.")} == \
            {k: v for k, v in restored.snapshot().items()
             if not k.startswith("flight.")}
        assert sim.capture_state() == restored.capture_state()

        # and the whole interrupted run matches one that never paused
        clean = Simulation(memory_bytes=MEMORY, fast_paths=False)
        clean.spawn(clean.load(source),
                    regs={8: clean.allocate(256, eager=True).word})
        clean.run(100_000)
        assert clean.now == sim.now
