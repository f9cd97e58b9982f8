"""Whole-machine round trips: save → load → bit-identical machine.

The paper's pitch makes snapshots easy — protection lives inside the
pointers, so an image is words + registers and a restored pointer is a
working pointer (§2).  These tests hold the implementation to that:

* a restored machine's captured state digests identically to the
  original's (:class:`TestDigestIdentity`);
* resuming a restored machine is indistinguishable from never stopping
  (:class:`TestResume`);
* the swap manager's backing store crosses the boundary: pages swapped
  out before a snapshot fault back in after a restore
  (:class:`TestSwapAcrossSnapshot` — tags included);
* ``fast_paths`` can be switched at load time without changing a single
  architectural bit or a counter outside the shortcut tallies
  (:class:`TestDeterminism` runs one image to identical digests under
  both settings);
* perf-counter snapshots round-trip through JSON verbatim
  (:class:`TestCounterJson`).
"""

import json

import pytest

from repro.core.word import TaggedWord
from repro.machine.chip import ChipConfig, RunReason, without_shortcut_tallies
from repro.machine.counters import PerfCounters
from repro.machine.multicomputer import Multicomputer
from repro.machine.network import MeshShape
from repro.machine.thread import ThreadState
from repro.persist import (SnapshotError, capture_multicomputer,
                           capture_simulation, load_multicomputer,
                           load_simulation, save_multicomputer,
                           save_simulation, state_digest)
from repro.runtime.swap import SwapManager
from repro.sim.api import Simulation

#: A workload with enough texture to catch a lazy capture: pointer
#: arithmetic, stores, a loop, and FP traffic.
PROGRAM = """
entry:
    movi r2, 0
    movi r3, 40
    itof f1, r3
loop:
    addi r2, r2, 7
    st r2, r1, 0
    ld r4, r1, 0
    fmul f1, f1, f1
    subi r3, r3, 1
    bne r3, loop
    halt
"""


def running_sim(**config) -> Simulation:
    sim = Simulation(**config)
    data = sim.allocate(4096, eager=True)
    sim.spawn(PROGRAM, regs={1: data.word})
    return sim


def arch_digest(sim: Simulation) -> str:
    """Architectural outcome only — registers, thread states, memory,
    the clock — with the performance *counters* excluded: switching
    ``fast_paths`` legitimately changes the shortcut tallies while
    changing zero architectural bits."""
    chip = sim.chip
    payload = {
        "now": chip.now,
        "memory": chip.memory.dump_words(),
        "threads": [{
            "tid": t.tid,
            "state": t._state.value,
            "ip": t.ip.word.value,
            "regs": [[w.value, w.tag] for w in t.regs.snapshot()[0]],
        } for t in chip.all_threads()],
    }
    return state_digest(payload)


class TestDigestIdentity:
    def test_mid_run_roundtrip_digests_identically(self, tmp_path):
        sim = running_sim()
        sim.step(57)
        path = sim.save(tmp_path / "mid.snap")
        restored = Simulation.restore(path)
        assert state_digest(capture_simulation(restored)) == \
            state_digest(capture_simulation(sim))

    def test_save_twice_identical_bytes(self, tmp_path):
        sim = running_sim()
        sim.step(30)
        a = sim.save(tmp_path / "a.snap").read_bytes()
        b = sim.save(tmp_path / "b.snap").read_bytes()
        assert a == b

    def test_double_roundtrip_is_stable(self, tmp_path):
        sim = running_sim()
        sim.step(30)
        once = Simulation.restore(sim.save(tmp_path / "one.snap"))
        twice = Simulation.restore(once.save(tmp_path / "two.snap"))
        assert state_digest(capture_simulation(twice)) == \
            state_digest(capture_simulation(sim))

    def test_multicomputer_roundtrip(self, tmp_path):
        mc = Multicomputer(MeshShape(2, 1, 1), arena_order=24)
        data = mc.allocate_on(1, 4096, eager=True)
        entry = mc.load_on(0, PROGRAM)
        mc.spawn_on(0, entry, regs={1: data.word})  # stores cross the mesh
        for _ in range(80):  # lockstep partial run
            for chip in mc.chips:
                chip.step()
        path = save_multicomputer(mc, tmp_path / "mesh.snap")
        restored = load_multicomputer(path)
        assert state_digest(capture_multicomputer(restored)) == \
            state_digest(capture_multicomputer(mc))
        # and the restored machine finishes
        result = restored.run()
        assert result.reason is RunReason.HALTED

    def test_architectural_override_is_rejected(self, tmp_path):
        sim = running_sim()
        path = sim.save(tmp_path / "sim.snap")
        with pytest.raises(SnapshotError):
            load_simulation(path, memory_bytes=16 * 1024 * 1024)


class TestResume:
    def test_resumed_run_matches_uninterrupted(self, tmp_path):
        straight = running_sim()
        result_a = straight.run()

        stopped = running_sim()
        stopped.step(63)
        restored = Simulation.restore(stopped.save(tmp_path / "s.snap"))
        result_b = restored.run()

        assert result_a.reason is RunReason.HALTED
        assert result_b.reason is RunReason.HALTED
        assert arch_digest(restored) == arch_digest(straight)

    def test_thread_results_survive(self, tmp_path):
        sim = running_sim()
        sim.step(40)
        restored = Simulation.restore(sim.save(tmp_path / "s.snap"))
        restored.run()
        (thread,) = restored.threads
        assert thread.state is ThreadState.HALTED
        assert thread.regs.read(2).value == 40 * 7
        assert thread.regs.read(1).tag  # the data pointer is still a pointer


class TestSwapAcrossSnapshot:
    PAGE = 4096

    def _swapping_sim(self):
        sim = Simulation(memory_bytes=16 * self.PAGE)
        swap = SwapManager(sim.kernel)
        data = sim.allocate(4 * self.PAGE, eager=True)
        table = sim.chip.page_table
        # plant a recognisable integer and a tagged pointer in page 0
        base = data.segment_base
        sim.chip.memory.store_word(table.walk(base), TaggedWord.integer(4242))
        sim.chip.memory.store_word(table.walk(base + 8), data.word)
        return sim, swap, data

    def test_swapped_page_faults_in_after_restore(self, tmp_path):
        sim, swap, data = self._swapping_sim()
        page = data.segment_base // self.PAGE
        assert swap.swap_out(page)
        assert swap.swapped_pages == 1

        restored = Simulation.restore(sim.save(tmp_path / "s.snap"))
        assert restored.kernel.swap is not None
        assert restored.kernel.swap.swapped_pages == 1

        # touching the page on the *restored* machine demand-faults it
        # back in from the snapshotted backing store
        thread = restored.spawn("ld r2, r1, 0\nld r3, r1, 8\nhalt",
                                regs={1: data.word})
        result = restored.run()
        assert result.reason is RunReason.HALTED, thread.fault
        assert thread.regs.read(2).value == 4242
        assert thread.regs.read(3).tag  # the swapped pointer kept its tag
        assert restored.kernel.swap.stats.swap_ins == 1

    def test_swap_out_works_after_restore(self, tmp_path):
        sim, swap, data = self._swapping_sim()
        restored = Simulation.restore(sim.save(tmp_path / "s.snap"))
        page = data.segment_base // self.PAGE
        assert restored.kernel.swap.swap_out(page)
        thread = restored.spawn("ld r2, r1, 0\nhalt", regs={1: data.word})
        result = restored.run()
        assert result.reason is RunReason.HALTED, thread.fault
        assert thread.regs.read(2).value == 4242

    def test_store_words_digest_identically(self, tmp_path):
        sim, swap, data = self._swapping_sim()
        swap.swap_out(data.segment_base // self.PAGE)
        restored = Simulation.restore(sim.save(tmp_path / "s.snap"))
        assert state_digest(capture_simulation(restored)) == \
            state_digest(capture_simulation(sim))


class TestDeterminism:
    """Satellite guarantee: one image, both ``fast_paths`` settings, one
    outcome."""

    def test_knob_matrix_runs_to_identical_digests(self, tmp_path):
        sim = running_sim()
        sim.step(45)
        path = sim.save(tmp_path / "image.snap")
        digests = set()
        for fast_paths in (True, False):
            run = load_simulation(path, fast_paths=fast_paths)
            assert run.config.fast_paths == fast_paths
            result = run.run()
            assert result.reason is RunReason.HALTED
            counters = without_shortcut_tallies(run.snapshot())
            digests.add((arch_digest(run),
                         json.dumps(counters, sort_keys=True)))
        assert len(digests) == 1

    def test_same_image_loads_to_identical_digests(self, tmp_path):
        sim = running_sim()
        sim.step(45)
        path = sim.save(tmp_path / "image.snap")
        assert state_digest(capture_simulation(load_simulation(path))) == \
            state_digest(capture_simulation(load_simulation(path)))


class TestCounterJson:
    """Satellite guarantee: ``PerfCounters.snapshot()`` embeds in JSON
    verbatim — sorted keys, finite values — so machine snapshots and
    bench files can carry it without sanitising."""

    def test_live_chip_counters_round_trip(self):
        sim = running_sim()
        sim.run()
        snap = sim.snapshot()
        encoded = json.dumps(snap, allow_nan=False)  # must not raise
        assert json.loads(encoded) == snap
        assert list(snap) == sorted(snap)

    def test_non_finite_sources_are_clamped(self):
        counters = PerfCounters()
        counters.add_source("bad", lambda: {
            "nan": float("nan"), "inf": float("inf"), "ok": 1.5})
        snap = counters.snapshot()
        assert snap == {"bad.nan": 0.0, "bad.inf": 0.0, "bad.ok": 1.5}
        json.dumps(snap, allow_nan=False)

    def test_counters_survive_snapshot_roundtrip(self, tmp_path):
        sim = running_sim()
        sim.step(50)
        before = sim.snapshot()
        restored = Simulation.restore(sim.save(tmp_path / "s.snap"))
        after = restored.snapshot()
        # event counters transfer exactly; pull sources re-read the
        # restored components, which match except for dropped memo
        # warmth (not architectural state)
        assert after["chip.issued_bundles"] == before["chip.issued_bundles"]
        assert after["chip.cycles"] == before["chip.cycles"]
