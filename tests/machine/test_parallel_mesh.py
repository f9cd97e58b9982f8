"""The sharded mesh engine: ``workers=N`` must be unobservable.

Every test here runs the same workload under the lockstep engine and
under :class:`~repro.machine.parallel.ParallelMulticomputer` and
compares bit-for-bit — cycle counts, counters, memory images, full
snapshot digests.  One asymmetry needs care: ``capture_state`` resets
the functional memos on the live machine (the documented carve-out in
``repro.persist.state``), and the sharded engine captures once at
worker warm-start, so every lockstep arm takes an explicit capture at
the matching point before comparing gauge counters.
"""

import hashlib
import os
import signal
import time
from multiprocessing import Pipe

import pytest

from repro.machine import parallel
from repro.machine.chip import RunReason
from repro.machine.parallel import ParallelError, partition_nodes
from repro.persist.snapshot import encode_snapshot
from repro.sim.api import Simulation, SimulationError

CROSS_LOOP = """
    movi r2, 20
loop:
    ld r3, r1, 0
    addi r3, r3, 1
    st r3, r1, 0
    subi r2, r2, 1
    bne r2, loop
    halt
"""


def build_cross(workers, nodes=2):
    """One thread per node, its data homed on the *next* node, so every
    iteration crosses the network both ways."""
    sim = Simulation(nodes=nodes, memory_bytes=2 * 1024 * 1024,
                     arena_order=24, workers=workers)
    for node in range(nodes):
        data = sim.allocate(4096, node=(node + 1) % nodes, eager=True)
        sim.spawn(CROSS_LOOP, node=node, regs={1: data.word})
    if workers == 1:
        sim.capture_state()  # parity with the sharded warm-start capture
    return sim


def digest(sim):
    return hashlib.sha256(
        encode_snapshot(sim.capture_state())).hexdigest()


def read_word(sim, pointer, offset=0):
    """A word straight out of physical memory on its home node."""
    chip = sim.chips[sim.machine.home_of(pointer.address)]
    paddr = chip.page_table.walk(pointer.segment_base + offset)
    return chip.memory.load_word(paddr).value


class TestPartitionMap:
    def test_contiguous_near_equal_slices(self):
        assert partition_nodes(5, 2) == [[0, 1, 2], [3, 4]]
        assert partition_nodes(4, 4) == [[0], [1], [2], [3]]

    def test_workers_clamp_to_nodes(self):
        assert partition_nodes(2, 8) == [[0], [1]]


class TestBitEquality:
    def test_final_state_matches_lockstep(self):
        serial = build_cross(workers=1)
        sharded = build_cross(workers=2)
        try:
            a = serial.run()
            b = sharded.run()
            assert (b.cycles, b.reason) == (a.cycles, a.reason)
            assert sharded.snapshot() == serial.snapshot()
            assert digest(sharded) == digest(serial)
        finally:
            sharded.close()

    def test_step_parity_with_odd_increments(self):
        serial = build_cross(workers=1)
        sharded = build_cross(workers=2)
        try:
            for _ in range(12):
                serial.step(137)
                sharded.step(137)
                assert sharded.now == serial.now
            serial.run()
            sharded.run()
            assert sharded.snapshot() == serial.snapshot()
            assert digest(sharded) == digest(serial)
        finally:
            sharded.close()

    def test_mid_run_snapshot_digests_match(self):
        serial = build_cross(workers=1)
        sharded = build_cross(workers=2)
        try:
            split = 7 * serial.machine.window
            serial.run(max_cycles=split)
            sharded.run(max_cycles=split)
            assert digest(sharded) == digest(serial)
            serial.run()
            sharded.run()
            assert digest(sharded) == digest(serial)
        finally:
            sharded.close()


class TestWindowEdgeRace:
    def test_same_cycle_stores_resolve_by_source_node(self):
        """Nodes 1 and 2 store different values to the same word homed
        on node 0 at the same cycle; the barrier's deterministic
        (cycle, src, seq) sort applies the higher source last — under
        either engine."""
        finals = []
        for workers in (1, 2):
            sim = Simulation(nodes=4, memory_bytes=2 * 1024 * 1024,
                             arena_order=24, workers=workers)
            target = sim.allocate(4096, node=0, eager=True)
            for node, value in ((1, 111), (2, 222)):
                sim.spawn("st r2, r1, 0\nhalt", node=node,
                          regs={1: target.word, 2: value})
            if workers == 1:
                sim.capture_state()
            try:
                sim.run()
                sim.sync_back()
                finals.append((read_word(sim, target), digest(sim)))
            finally:
                sim.close()
        assert finals[0][0] == 222
        assert finals[1] == finals[0]


class TestDeterminism:
    def test_three_repeats_produce_identical_flight_streams(self):
        dumps = []
        for _ in range(3):
            sim = build_cross(workers=2)
            try:
                sim.run()
                dumps.append(sim.engine.flight_dumps())
            finally:
                sim.close()
        assert dumps[0] == dumps[1] == dumps[2]
        assert any(dumps[0].values())  # the streams are not vacuously equal

    def test_one_vs_two_workers_same_counters_and_image(self):
        serial = build_cross(workers=1, nodes=4)
        sharded = build_cross(workers=2, nodes=4)
        try:
            serial.run()
            sharded.run()
            assert sharded.snapshot() == serial.snapshot()
            assert digest(sharded) == digest(serial)
        finally:
            sharded.close()


class TestRebalance:
    def test_mid_run_rebalance_stays_bit_exact(self):
        serial = build_cross(workers=1, nodes=4)
        sharded = build_cross(workers=2, nodes=4)
        try:
            split = 5 * serial.machine.window
            serial.run(max_cycles=split)
            sharded.run(max_cycles=split)
            sharded.rebalance([[0, 2], [1, 3]])  # interleave ownership
            serial.capture_state()  # parity with the rebalance reship
            serial.run()
            sharded.run()
            assert sharded.snapshot() == serial.snapshot()
            assert digest(sharded) == digest(serial)
        finally:
            sharded.close()

    def test_rebalance_map_must_cover_every_node_once(self):
        sim = build_cross(workers=2, nodes=4)
        try:
            sim.step(1)
            with pytest.raises(ValueError):
                sim.rebalance([[0, 1], [1, 2, 3]])
            with pytest.raises(ValueError):
                sim.rebalance([[0, 1], [2]])
        finally:
            sim.close()


class TestGuards:
    def test_workers_need_a_mesh(self):
        with pytest.raises(SimulationError):
            Simulation(workers=2)

    def test_workers_must_be_positive(self):
        with pytest.raises(ValueError):
            Simulation(nodes=2, memory_bytes=2 * 1024 * 1024,
                       arena_order=24, workers=0)

    def test_tracing_needs_the_lockstep_engine(self):
        sim = build_cross(workers=2)
        try:
            with pytest.raises(SimulationError):
                sim.trace()
        finally:
            sim.close()

    def test_direct_machine_access_refused_once_sharded(self):
        sim = build_cross(workers=2)
        try:
            sim.step(1)  # starts the workers; the mirror is now stale
            with pytest.raises(SimulationError):
                sim.spawn("halt", node=0)
            with pytest.raises(SimulationError):
                sim.load("halt", node=0)
            with pytest.raises(SimulationError):
                sim.restore_state({})
        finally:
            sim.close()

    def test_sync_back_reopens_direct_access(self):
        sim = build_cross(workers=2)
        try:
            sim.step(1)
            sim.sync_back()
            assert sim.threads  # readable again without raising
        finally:
            sim.close()


def run_r5_thread(sim):
    """Spawn a two-cycle thread on node 1 directly, run, and return
    (cycles, reason, r5) read back through the in-process machine."""
    tid = sim.spawn("movi r5, 42\nhalt", node=1).tid
    result = sim.run()
    sim.sync_back()
    thread = next(t for t in sim.threads if t.tid == tid)
    return result.cycles, result.reason, thread.regs.read(5).value


class TestDirectEdits:
    """The in-process machine is authoritative before the workers start
    and after sync_back(); direct edits made then reach the workers,
    and direct edits at any other time fail loudly."""

    def test_spawn_after_sync_back_reaches_the_workers(self):
        outcomes = []
        for workers in (1, 2):
            sim = Simulation(nodes=2, memory_bytes=2 * 1024 * 1024,
                             arena_order=24, workers=workers)
            try:
                sim.run()
                sim.sync_back()
                outcomes.append(run_r5_thread(sim))
            finally:
                sim.close()
        assert outcomes[0] == (2, RunReason.HALTED, 42)
        assert outcomes[1] == outcomes[0]

    def test_spawn_after_start_raises_until_sync_back(self):
        sim = Simulation(nodes=2, memory_bytes=2 * 1024 * 1024,
                         arena_order=24, workers=2)
        try:
            sim.engine.start()
            with pytest.raises(SimulationError):
                sim.spawn("movi r5, 42\nhalt", node=1)
            sim.sync_back()
            assert run_r5_thread(sim) == (2, RunReason.HALTED, 42)
        finally:
            sim.close()


class TestHostFailures:
    """A dead or failing worker surfaces as ParallelError at once, and
    the engine stays closed afterwards."""

    def test_killed_worker_fails_fast_and_closes_the_engine(self):
        sim = build_cross(workers=2)
        try:
            sim.step(1)  # the workers are up
            procs = list(sim.engine._procs)
            os.kill(procs[1].pid, signal.SIGKILL)
            began = time.monotonic()
            with pytest.raises(ParallelError):
                sim.run()
            assert time.monotonic() - began < 3
            assert not any(proc.is_alive() for proc in procs)
            for call in (sim.run, lambda: sim.step(1), sim.snapshot,
                         sim.sync_back):
                with pytest.raises(ParallelError,
                                   match="the parallel engine is closed"):
                    call()
        finally:
            sim.close()

    def test_wedged_worker_fails_after_the_reply_deadline(
            self, monkeypatch):
        monkeypatch.setattr(parallel, "REPLY_TIMEOUT_S", 1.0)
        monkeypatch.setattr(parallel, "JOIN_GRACE_S", 1.0)
        sim = build_cross(workers=2)
        procs = []
        try:
            sim.step(1)  # the workers are up
            procs = list(sim.engine._procs)
            # a stopped process neither replies nor dies, and does not
            # act on SIGTERM until it is continued
            os.kill(procs[1].pid, signal.SIGSTOP)
            began = time.monotonic()
            with pytest.raises(ParallelError,
                               match="worker 1 sent no reply within 1 s"):
                sim.run()
            assert time.monotonic() - began < 1.0 + 1.0 + 1
            assert not any(proc.is_alive() for proc in procs)
            for call in (sim.run, lambda: sim.step(1), sim.snapshot,
                         sim.sync_back):
                with pytest.raises(ParallelError,
                                   match="the parallel engine is closed"):
                    call()
        finally:
            for proc in procs:
                if proc.is_alive():
                    os.kill(proc.pid, signal.SIGKILL)
            sim.close()

    def test_close_with_a_wedged_worker_ends_in_bounded_time(
            self, monkeypatch):
        monkeypatch.setattr(parallel, "REPLY_TIMEOUT_S", 1.0)
        monkeypatch.setattr(parallel, "JOIN_GRACE_S", 1.0)
        sim = build_cross(workers=2)
        procs = []
        try:
            sim.step(1)
            procs = list(sim.engine._procs)
            os.kill(procs[0].pid, signal.SIGSTOP)
            began = time.monotonic()
            sim.close()
            assert time.monotonic() - began < 1.0 + 1.0 + 1
            assert not any(proc.is_alive() for proc in procs)
        finally:
            for proc in procs:
                if proc.is_alive():
                    os.kill(proc.pid, signal.SIGKILL)

    def test_worker_exception_fails_fast_with_crash_artifacts(
            self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CRASH_DIR", str(tmp_path))
        sim = build_cross(workers=2)
        data = sim.allocate(4096, node=1)  # not an execute pointer
        try:
            sim.engine.start()
            procs = list(sim.engine._procs)
            began = time.monotonic()
            with pytest.raises(ParallelError):
                sim.spawn_request(1, data)
            assert time.monotonic() - began < 3
            assert not any(proc.is_alive() for proc in procs)
        finally:
            sim.close()
        crash = tmp_path / "parallel-worker-1"
        assert "ValueError" in (crash / "traceback.txt").read_text()
        assert (crash / "flight-node1.json").exists()

    def test_garbled_frame_fails_fast_and_closes_the_engine(self):
        sim = build_cross(workers=2)
        # worker 0's reply channel now carries a frame that does not
        # unpickle; its real pipe end is closed, so it exits on EOF
        ours, theirs = Pipe()
        try:
            engine = sim.engine
            engine.start()
            procs = list(engine._procs)
            engine._conns[0].close()
            engine._conns[0] = ours
            theirs.send_bytes(b"\x80\x04garbage")
            began = time.monotonic()
            with pytest.raises(ParallelError,
                               match="worker 0 sent a garbled reply"):
                sim.run()
            assert time.monotonic() - began < 3
            with pytest.raises(ParallelError,
                               match="the parallel engine is closed"):
                sim.run()
            assert not any(proc.is_alive() for proc in procs)
        finally:
            theirs.close()
            sim.engine.close(force=True)  # never read a desynced pipe
            sim.close()
