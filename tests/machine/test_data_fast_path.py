"""The data-path fast path: the access-check memo in the execution
units, the translation line memo behind it, timing transparency of
both, and the fast-vs-plain fuzz axis that polices them."""

from repro.machine.chip import ChipConfig, MAPChip, RunReason
from repro.runtime.swap import SwapManager
from repro.sim.api import Simulation

from tests.machine.conftest import data_segment, load

#: four distinct (pointer word, offset) pairs, five times each
STREAM = """
    movi r1, 5
loop:
    beq r1, done
    ld r2, r8, 0
    st r2, r8, 8
    ld r3, r8, 16
    st r3, r8, 24
    subi r1, r1, 1
    br loop
done:
    halt
"""


def run_stream(fast_path: bool, source: str = STREAM):
    chip = MAPChip(ChipConfig(memory_bytes=1024 * 1024,
                              fast_paths=fast_path))
    entry = load(chip, source)
    data = data_segment(chip, 0x40000, 4096)
    thread = chip.spawn(entry, regs={8: data.word})
    result = chip.run()
    assert result.reason == RunReason.HALTED
    return chip, thread, result


class TestTimingTransparency:
    def test_cycles_and_registers_identical(self):
        chip_on, thread_on, r_on = run_stream(True)
        chip_off, thread_off, r_off = run_stream(False)
        assert r_on.cycles == r_off.cycles
        assert chip_on.now == chip_off.now
        for i in range(16):
            assert thread_on.regs.read(i) == thread_off.regs.read(i)


class TestCheckMemo:
    def test_memo_tiles_the_access_stream(self):
        chip, _, _ = run_stream(True)
        accesses = chip.cache.stats.hits + chip.cache.stats.misses
        assert accesses == 20  # 4 memory ops x 5 iterations
        assert chip.check_memo_hits + chip.check_memo_misses == accesses
        # one miss per distinct (pointer word, offset, kind) triple
        assert chip.check_memo_misses == 4
        assert chip.check_memo_hits == 16

    def test_load_and_store_memos_are_separate(self):
        # same (word, offset) pair, but a load needs READ and a store
        # needs WRITE: each kind derives and caches independently
        chip, _, _ = run_stream(True, "ld r2, r8, 0\nst r2, r8, 0\nhalt")
        assert chip.check_memo_misses == 2
        assert chip.check_memo_hits == 0

    def test_disabled_fast_path_never_consults_memos(self):
        chip, _, _ = run_stream(False)
        assert chip.check_memo_hits == chip.check_memo_misses == 0
        stats = chip.cache.stats
        assert stats.xlate_memo_hits == stats.xlate_memo_misses == 0

    def test_counters_surface_in_the_snapshot(self):
        chip, _, _ = run_stream(True)
        snap = chip.counters.snapshot()
        assert snap["mem.check_memo_hits"] == chip.check_memo_hits
        assert snap["mem.check_memo_misses"] == chip.check_memo_misses
        assert snap["cache.xlate_memo_hits"] == chip.cache.stats.xlate_memo_hits
        assert snap["cache.xlate_memo_misses"] == chip.cache.stats.xlate_memo_misses


class TestTranslationMemoInvalidation:
    def test_memo_cold_after_every_unmap(self):
        """The satellite regression: no unmap may ever leave a line in
        the translation memo.  An observer hook runs after the cache's
        own (registration order), so it sees the post-invalidation
        state at every single unmap the scenario performs."""
        sim = Simulation(memory_bytes=2 * 1024 * 1024)
        leftovers: list[dict] = []
        sim.chip.page_table.add_invalidation_hook(
            lambda _page: leftovers.append(dict(sim.chip.cache._xlate)))
        data = sim.allocate(4096, eager=True)
        entry = sim.load(STREAM)
        sim.spawn(entry, regs={8: data.word})
        sim.step(30)
        swap = SwapManager(sim.kernel, swap_cycles=50)
        table = sim.chip.page_table
        swap.swap_out(table.page_of(data.segment_base))
        swap.swap_out(table.page_of(entry.segment_base))
        assert sim.run().reason == RunReason.HALTED
        # the demand pager unmapped and remapped both pages at least
        # once; the memo was empty at every one of those moments
        assert len(leftovers) >= 2
        assert all(not snapshot for snapshot in leftovers)

    def test_remap_retranslates_through_the_page_table(self):
        chip = MAPChip(ChipConfig(memory_bytes=1024 * 1024))
        table = chip.page_table
        table.ensure_mapped(0x40000, 4096)
        chip.access_memory(0x40000, write=False, now=0)
        assert chip.cache.stats.xlate_memo_misses == 1
        before = len(chip.cache._xlate)
        assert before >= 1
        table.unmap(table.page_of(0x40000))
        assert chip.cache._xlate == {}
        assert chip.cache.stats.xlate_memo_invalidations == before
        table.ensure_mapped(0x40000, 4096)
        # the next translation walks again and agrees with the table
        assert (chip.cache.translate_functional(0x40008)
                == table.walk(0x40008))
        assert chip.cache.stats.xlate_memo_misses == 2


class TestFastPathAxisParity:
    """fast_paths=True and =False must be architecturally *and*
    temporally identical — on exactly the workloads where a stale
    memoised translation could differ."""

    def _assert_parity(self, case):
        from repro.fuzz.scenarios import diff_fast_paths_axis
        divergence = diff_fast_paths_axis(case)
        assert divergence is None, str(divergence)

    def test_unmap_remap_parity(self):
        from repro.fuzz import FuzzCase
        source = ("movi r12, 12\n"
                  "top:\nbeq r12, out\n"
                  "addi r3, r3, 1\n"
                  "st r3, r8, 64\n"
                  "subi r12, r12, 1\n"
                  "br top\nout:\nhalt")
        case = FuzzCase(seed=0, scenario="unmap_remap", source=source,
                        meta={"mutate_after": 20})
        self._assert_parity(case)

    def test_swap_round_trip_parity(self):
        from repro.fuzz import FuzzCase
        source = ("movi r12, 10\n"
                  "top:\nbeq r12, out\n"
                  "ld r4, r8, 0\naddi r4, r4, 1\nst r4, r8, 0\n"
                  "subi r12, r12, 1\n"
                  "br top\nout:\nhalt")
        case = FuzzCase(seed=0, scenario="swap", source=source,
                        meta={"mutate_after": 25})
        self._assert_parity(case)

    def test_loader_reuse_parity(self):
        from repro.fuzz import FuzzCase
        case = FuzzCase(
            seed=0, scenario="loader_reuse",
            source="movi r2, 11\nst r2, r8, 0\nhalt",
            meta={"source_b": "movi r2, 22\nst r2, r8, 8\nhalt"})
        self._assert_parity(case)

    def test_generated_cases_parity(self):
        # a deterministic slice of the fuzzer's own case stream, so the
        # axis is exercised across every scenario kind in-tree
        from repro.fuzz.generator import generate_case
        for index in range(12):
            self._assert_parity(generate_case(index))
