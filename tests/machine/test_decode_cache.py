"""The decoded-bundle cache: steady-state hits, and every invalidation
path — unmap, local stores, loader range reuse, and remote writes."""

import gc
import weakref

import pytest

from repro.core.exceptions import PermissionFault
from repro.core.permissions import Permission
from repro.core.pointer import GuardedPointer
from repro.machine.assembler import assemble
from repro.machine.chip import ChipConfig, MAPChip, RunReason
from repro.machine.cluster import NODE_BUNDLE, NODE_MEM_FN
from repro.machine.isa import Bundle, DecodeError, Opcode
from repro.machine.multicomputer import Multicomputer
from repro.machine.network import MeshShape
from repro.runtime.kernel import Kernel

from tests.machine.conftest import load

COUNTER_LOOP = """
    movi r2, 10
loop:
    beq r2, done
    subi r2, r2, 1
    br loop
done:
    halt
"""


class TestSteadyState:
    def test_refetch_is_a_cache_hit(self, chip):
        entry = load(chip, "movi r1, 1\nhalt")
        first = chip.fetch(entry)
        assert chip.fetch_misses == 1
        assert chip.fetch(entry) is first
        assert chip.fetch_hits == 1

    def test_loop_mostly_hits(self, chip):
        entry = load(chip, COUNTER_LOOP)
        chip.spawn(entry)
        assert chip.run().reason == RunReason.HALTED
        # 5 distinct bundles; every other fetch of the 10-iteration
        # loop is answered by the cache
        assert chip.fetch_misses == 5
        assert chip.fetch_hits > 4 * chip.fetch_misses

    def test_disabled_cache_never_hits(self):
        chip = MAPChip(ChipConfig(memory_bytes=1024 * 1024,
                                  fast_paths=False))
        entry = load(chip, COUNTER_LOOP)
        chip.spawn(entry)
        assert chip.run().reason == RunReason.HALTED
        assert chip.fetch_hits == 0
        assert chip.fetch_misses > 5


class TestPointerRevalidation:
    """The cache is keyed by address but validated per pointer word."""

    def test_different_word_same_address_still_checked(self, chip):
        entry = load(chip, "movi r1, 1\nhalt")
        bundle = chip.fetch(entry)[NODE_BUNDLE]
        # a pointer with different bits (privileged) to the same
        # address reuses the decode but re-runs the checks
        priv = GuardedPointer.make(Permission.EXECUTE_PRIV,
                                   entry.seglen, entry.address)
        assert chip.fetch(priv)[NODE_BUNDLE] is bundle

    def test_cached_address_is_no_execute_loophole(self, chip):
        entry = load(chip, "movi r1, 1\nhalt")
        chip.fetch(entry)
        chip.fetch(entry)  # hot in the cache
        rw = GuardedPointer.make(Permission.READ_WRITE,
                                 entry.seglen, entry.address)
        with pytest.raises(PermissionFault):
            chip.fetch(rw)


class TestPointerAlternation:
    """Two pointer words to one decoded address — say, two pointers with
    different bounds into one gateway — each pass the fetch checks
    once; alternating between them afterwards never re-decodes or
    re-checks, and superblock traces keep running through both."""

    # each iteration jumps back to ``top`` through the other of two
    # execute pointers (r6, r7) that differ only in their bounds
    LOOP = """
        movi r2, 30
    top:
        addi r3, r3, 1
        addi r4, r4, 2
        subi r2, r2, 1
        beq  r2, done
        mov  r8, r6
        mov  r6, r7
        mov  r7, r8
        jmp  r8
    done:
        halt
    """

    def test_alternating_fetches_stay_hits(self, chip):
        entry = load(chip, COUNTER_LOOP)
        wide = GuardedPointer.make(entry.permission, entry.seglen + 1,
                                   entry.address)
        for ip in (entry, wide) * 4:
            chip.fetch(ip)
        assert chip.fetch_misses == 1
        assert chip.fetch_hits == 7
        assert len(chip._decode_cache) == 1

    def test_pointer_failing_the_checks_still_faults(self, chip):
        entry = load(chip, COUNTER_LOOP)
        wide = GuardedPointer.make(entry.permission, entry.seglen + 1,
                                   entry.address)
        for ip in (entry, wide, entry):
            chip.fetch(ip)
        not_execute = GuardedPointer.make(Permission.READ_WRITE,
                                          entry.seglen, entry.address)
        # an 8-byte segment cannot hold a 24-byte bundle
        too_small = GuardedPointer.make(entry.permission, 3, entry.address)
        for bad in (not_execute, too_small):
            with pytest.raises(PermissionFault):
                chip.fetch(bad)
        assert chip.fetch_misses == 1
        # the failed words were not adopted: they fault again
        with pytest.raises(PermissionFault):
            chip.fetch(too_small)

    def _machine(self):
        chip = MAPChip(ChipConfig(memory_bytes=1024 * 1024))
        entry = load(chip, self.LOOP)
        top = entry.address + assemble(self.LOOP).labels["top"]
        narrow = GuardedPointer.make(entry.permission, entry.seglen, top)
        wide = GuardedPointer.make(entry.permission, entry.seglen + 1, top)
        thread = chip.spawn(entry, regs={6: wide.word, 7: narrow.word})
        return chip, thread

    def test_traces_run_through_both_words(self):
        chip, thread = self._machine()
        grown = []
        while chip.run(max_cycles=40).reason == RunReason.MAX_CYCLES:
            grown.append(chip.superblock_bundles)
        assert thread.state.name == "HALTED"
        assert thread.regs.read(3).value == 30
        # superblock traces keep issuing after the alternation starts
        assert len(grown) >= 4
        assert all(b > a for a, b in zip(grown, grown[1:]))
        # every bundle was decoded once; each later pointer word at a
        # decoded address is a hit
        bundles = len(assemble(self.LOOP).bundles)
        assert chip.fetch_misses == bundles
        # the same machine stepped cycle by cycle never runs a trace,
        # and ends with the same counters, fetch tallies included
        stepped, stepped_thread = self._machine()
        while stepped.runnable_threads():
            stepped.step()
        assert stepped.superblock_bundles == 0
        assert stepped.now == chip.now
        assert stepped_thread.regs.snapshot() == thread.regs.snapshot()
        counters = chip.counters.snapshot()
        counters.pop("chip.idle_skipped_cycles", None)
        assert stepped.counters.snapshot() == counters


class TestInvalidation:
    def test_unmap_flushes_everything(self, chip):
        entry = load(chip, COUNTER_LOOP)
        chip.fetch(entry)
        assert chip._decode_cache
        chip.page_table.unmap(chip.page_table.page_of(entry.address))
        assert not chip._decode_cache
        assert chip.decode_invalidations == 1

    def test_store_drops_overlapping_bundle(self, chip):
        entry = load(chip, "movi r1, 1\nhalt")
        before = chip.fetch(entry)
        assert before[NODE_BUNDLE].int_op.opcode is Opcode.MOVI
        # overwrite the bundle's integer-slot word in place
        patch = assemble("addi r1, r1, 5").encode()[0]
        chip.access_memory(entry.address, write=True, now=0, value=patch)
        after = chip.fetch(entry)
        assert after is not before
        assert after[NODE_BUNDLE].int_op.opcode is Opcode.ADDI

    def test_store_without_value_keeps_decoded_bundles(self, chip):
        # the port checks the value before it drops anything
        entry = load(chip, "movi r1, 1\nhalt")
        node = chip.fetch(entry)
        with pytest.raises(ValueError, match="store requires a value"):
            chip.access_memory(entry.address, write=True, now=0)
        assert chip.fetch(entry) is node
        assert chip.decode_invalidations == 0

    def test_store_probes_unaligned_bundle_starts(self, chip):
        # bundles start every 24 bytes but segments align to powers of
        # two, so a store must invalidate bundles starting up to two
        # words before the written address
        entry = load(chip, COUNTER_LOOP)
        second = chip.fetch(GuardedPointer.make(
            entry.permission, entry.seglen, entry.address + 24))
        assert second is not None and len(chip._decode_cache) == 1
        # hit the *last* word of that second bundle
        patch = assemble("fnop").encode()[0]
        chip.access_memory(entry.address + 24 + 16, write=True, now=0,
                           value=patch)
        assert not chip._decode_cache

    def test_loader_invalidates_reused_range(self):
        kernel = Kernel(MAPChip(ChipConfig(memory_bytes=1024 * 1024)))
        chip = kernel.chip
        first = kernel.load_program("movi r5, 1\nhalt")
        assert chip.fetch(first)[NODE_BUNDLE].int_op.imm == 1
        kernel.free_segment(first)
        second = kernel.load_program("movi r5, 2\nhalt")
        # whether or not the allocator reused the address, the fetch
        # must see the newly loaded words
        assert chip.fetch(second)[NODE_BUNDLE].int_op.imm == 2
        chip.invalidate_decoded_range(second.segment_base, 48)
        assert second.address not in chip._decode_cache

    def test_dropped_node_is_freed_without_the_collector(self, chip):
        # a node holds nothing that refers back to it, so invalidation
        # frees it by reference counting alone
        entry = load(chip, "ld r1, r2, 0\nhalt")
        gc.disable()
        try:
            load_fn = weakref.ref(chip.fetch(entry)[NODE_MEM_FN])
            chip.fetch(GuardedPointer.make(entry.permission,
                                           entry.seglen + 1, entry.address))
            assert load_fn() is not None
            chip.invalidate_decoded_word(entry.address)
            assert load_fn() is None
        finally:
            gc.enable()

    def test_attaching_a_router_drops_compiled_bundles(self, chip):
        # compiled loads and stores bind the local cache port off a
        # mesh; none of them may survive onto a mesh node
        entry = load(chip, "ld r1, r2, 0\nhalt")
        chip.fetch(entry)
        assert chip._decode_cache
        chip.attach_router(object())
        assert not chip._decode_cache

    def test_remote_write_invalidates_every_node(self):
        mc = Multicomputer(shape=MeshShape(2, 1, 1),
                           chip_config=ChipConfig(memory_bytes=2 * 1024 * 1024),
                           arena_order=24)
        entry = mc.load_on(0, "movi r1, 1\nhalt")
        chip0 = mc.chips[0]
        assert chip0.fetch(entry)[NODE_BUNDLE].int_op.opcode is Opcode.MOVI
        assert entry.address in chip0._decode_cache
        # node 1 writes the code word through the mesh; node 0's
        # decoded copy must be gone once the window's traffic lands
        patch = assemble("addi r1, r1, 5").encode()[0]
        mc.chips[1].access_memory(entry.address, write=True, now=0,
                                  value=patch)
        mc.advance_idle(mc.window)
        assert entry.address not in chip0._decode_cache
        assert chip0.fetch(entry)[NODE_BUNDLE].int_op.opcode is Opcode.ADDI

    def test_unmap_on_any_node_flushes_all_nodes(self):
        mc = Multicomputer(shape=MeshShape(2, 1, 1),
                           chip_config=ChipConfig(memory_bytes=2 * 1024 * 1024),
                           arena_order=24)
        entry = mc.load_on(0, "movi r1, 1\nhalt")
        mc.chips[0].fetch(entry)
        assert mc.chips[0]._decode_cache
        page = mc.chips[1].page_table.map(0x7000 // mc.chips[1].page_table.page_bytes)
        mc.chips[1].page_table.unmap(page.virtual_page)
        # node 1's own cache flushed at the unmap; node 0's copy goes
        # when the broadcast lands at the window barrier
        assert not mc.chips[1]._decode_cache
        mc.advance_idle(mc.window)
        assert not mc.chips[0]._decode_cache


class TestContentMemo:
    """A fetch miss decodes through a per-chip memo keyed by the three
    word values; the decoded-bundle cache above it is still per address
    and per pointer word."""

    @pytest.fixture
    def decodes(self, monkeypatch):
        """Count every ``Bundle.decode`` call."""
        calls = []
        decode = Bundle.decode

        def counting(words):
            calls.append(tuple(w.value for w in words))
            return decode(words)
        monkeypatch.setattr(Bundle, "decode", staticmethod(counting))
        return calls

    def test_rewritten_word_decodes_the_new_content(self, chip, decodes):
        entry = load(chip, "movi r1, 1\nhalt")
        assert chip.fetch(entry)[NODE_BUNDLE].int_op.imm == 1
        patch = assemble("movi r1, 7").encode()[0]
        chip.access_memory(entry.address, write=True, now=0, value=patch)
        assert chip.fetch(entry)[NODE_BUNDLE].int_op.imm == 7
        assert len(decodes) == 2
        # writing the old word back reuses its first decode
        old = assemble("movi r1, 1").encode()[0]
        chip.access_memory(entry.address, write=True, now=0, value=old)
        assert chip.fetch(entry)[NODE_BUNDLE].int_op.imm == 1
        assert len(decodes) == 2

    def test_tagged_code_word_still_faults(self, chip, decodes):
        entry = load(chip, "movi r1, 1\nhalt")
        pointer = GuardedPointer.make(Permission.READ_WRITE, 12, 0x4000)
        # the same bits untagged are an AND: decoded, and in the memo
        chip.access_memory(entry.address, write=True, now=0,
                           value=pointer.as_integer())
        assert chip.fetch(entry)[NODE_BUNDLE].int_op.opcode is Opcode.AND
        for _ in range(2):
            chip.access_memory(entry.address, write=True, now=0,
                               value=pointer.word)
            with pytest.raises(DecodeError):
                chip.fetch(entry)
        assert len(decodes) == 3          # never answered by the memo

    def test_plain_machine_never_consults_the_memo(self, decodes):
        chip = MAPChip(ChipConfig(memory_bytes=1024 * 1024,
                                  fast_paths=False))
        assert chip._decoded_words is None
        entry = load(chip, COUNTER_LOOP)
        chip.spawn(entry)
        assert chip.run().reason == RunReason.HALTED
        assert len(decodes) == chip.fetch_misses > 5

    def test_identical_tenants_decode_once_per_chip(self, decodes):
        # every tenant's copy of one gateway sits at its own address;
        # each bundle content decodes once on the chip
        kernel = Kernel(MAPChip(ChipConfig(memory_bytes=1024 * 1024)))
        program = assemble(COUNTER_LOOP)
        for _ in range(6):
            kernel.spawn(kernel.load_program(program), stack_bytes=0)
        assert kernel.run().reason == RunReason.HALTED
        assert kernel.chip.fetch_misses == 6 * len(program.items)
        assert len(decodes) == len(set(decodes)) == len(program.items)


class TestSelfModifyingProgram:
    def test_store_to_own_code_takes_effect(self, chip):
        # the program overwrites the integer op of its *next* bundle
        # (movi r5, 1 -> stored word makes it movi-with-new-imm), then
        # executes it; the fetch must see the stored word
        entry = load(chip, """
            st r2, r1, 24
            movi r5, 1
            halt
        """)
        # r1: a writable alias of the code segment; r2: the new word
        rw = GuardedPointer.make(Permission.READ_WRITE,
                                 entry.seglen, entry.address)
        new_word = assemble("movi r5, 42").encode()[0]
        thread = chip.spawn(entry, regs={1: rw.word, 2: new_word})
        # warm the cache for the victim bundle so the test exercises
        # invalidation rather than a cold miss
        chip.fetch(GuardedPointer.make(entry.permission, entry.seglen,
                                       entry.address + 24))
        assert chip.run().reason == RunReason.HALTED
        assert thread.regs.read(5).value == 42


class TestCacheAxisParity:
    """fast_paths=True and =False must be architecturally identical:
    same registers, same fault sequence, same final memory — on exactly
    the workloads where a stale decoded bundle could differ."""

    @staticmethod
    def _movi_r5_hi():
        return assemble("movi r5, 0").encode()[0].value >> 54

    def _assert_parity(self, case):
        from repro.fuzz import diff_fast_paths_axis
        divergence = diff_fast_paths_axis(case)
        assert divergence is None, str(divergence)

    def test_self_modifying_loop_parity(self):
        from repro.fuzz import FuzzCase
        from repro.fuzz.scenarios import run_scenario
        source = (f"movi r1, {self._movi_r5_hi()}\n"
                  "shli r1, r1, 54\n"
                  "ori r1, r1, 77\n"
                  "movi r12, 3\n"
                  "top:\n"
                  "beq r12, out\n"
                  "target:\n"
                  "movi r5, 1\n"           # byte offset 120
                  "st r1, r15, 120\n"      # patches the line above
                  "subi r12, r12, 1\n"
                  "br top\n"
                  "out:\n"
                  "halt")
        assert assemble(source).labels["target"] == 120
        case = FuzzCase(seed=0, scenario="self_modify", source=source,
                        meta={"patch_offset": 120, "old": 1, "new": 77})
        self._assert_parity(case)
        # and the patch really lands: iterations 2+ run the new movi
        digest = run_scenario(case)
        assert digest["threads"][0]["regs"][5] == (77, False)

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

    def test_loader_reuse_parity(self):
        from repro.fuzz import FuzzCase
        case = FuzzCase(
            seed=0, scenario="loader_reuse",
            source="movi r2, 11\nst r2, r8, 0\nhalt",
            meta={"source_b": "movi r2, 22\nst r2, r8, 8\nhalt"})
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
