"""The paper's claims, quote by quote, checked against the library.

Each test cites a sentence from Carter/Keckler/Dally (ASPLOS '94) and
asserts the corresponding behaviour of this reproduction.  This file is
the audit trail connecting prose to code.
"""

import pytest

from repro.core import constants as c
from repro.core.exceptions import BoundsFault, PermissionFault, PrivilegeFault, TagFault
from repro.core.operations import (
    check_jump,
    check_load,
    check_store,
    lea,
    restrict,
    setptr,
)
from repro.core.permissions import Permission
from repro.core.pointer import GuardedPointer
from repro.core.word import TaggedWord
from repro.machine.chip import ChipConfig, MAPChip
from repro.runtime.kernel import Kernel


def make(perm=Permission.READ_WRITE, seglen=12, address=0x40000123):
    return GuardedPointer.make(perm, seglen, address)


class TestSection1And2Format:
    def test_claim_54_bit_space_ten_bit_overhead(self):
        """'Fifty-four bits contain an address, while the remaining ten
        bits specify the set of operations ... (4 bits) and the length
        of the segment containing the pointer (6 bits).'"""
        assert c.ADDRESS_BITS == 54
        assert c.PERM_BITS == 4
        assert c.LENGTH_BITS == 6
        assert c.PERM_BITS + c.LENGTH_BITS == 10

    def test_claim_single_pointer_bit(self):
        """'A single pointer bit is added to each 64-bit data word.'"""
        word = TaggedWord(0xABC, tag=True)
        assert word.is_pointer
        assert TaggedWord(0xABC, tag=False) != word

    def test_claim_segments_power_of_two_aligned(self):
        """'Segments are required to be a power of two bytes long, and
        to be aligned on their length.'"""
        p = make(seglen=10)
        assert p.segment_size == 1024
        assert p.segment_base % p.segment_size == 0

    def test_claim_base_by_zeroing_offset(self):
        """'This allows the base of a segment to be determined by
        setting all of the offset bits to zero.'"""
        p = make(seglen=8, address=0x40000123)
        assert p.segment_base == p.address & ~0xFF

    def test_claim_range_byte_to_whole_space(self):
        """'segments to range from a single byte to the entire 2^54 byte
        address space in power of two increments.'"""
        assert make(seglen=0).segment_size == 1
        assert make(seglen=54, address=0).segment_size == 1 << 54

    def test_claim_users_cannot_forge(self):
        """'User level programs may not forge a guarded pointer by
        setting the pointer bit on a word.'"""
        with pytest.raises(PrivilegeFault):
            setptr(make().as_integer(), privileged=False)

    def test_claim_privileged_may_create_any_pointer(self):
        """'Privileged programs may set the pointer bit of a word and
        thus create any pointer.'"""
        forged = setptr(TaggedWord.integer(make().word.value), privileged=True)
        assert forged == make()


class TestSection21Permissions:
    def test_claim_read_only_loads_only(self):
        """'A Read-Only pointer may only be used to load data.'"""
        ro = make(Permission.READ_ONLY)
        check_load(ro.word)
        with pytest.raises(PermissionFault):
            check_store(ro.word)

    def test_claim_execute_pointers_are_readable_jump_targets(self):
        """'Execute pointers are read-only pointers that may be used as
        targets for jump instructions.'"""
        ex = make(Permission.EXECUTE_USER)
        check_load(ex.word)
        check_jump(ex.word)
        with pytest.raises(PermissionFault):
            check_store(ex.word)

    def test_claim_enter_converts_on_jump(self):
        """'Jumping to an enter pointer converts it to an execute
        pointer which is then loaded into the instruction pointer.'"""
        enter = make(Permission.ENTER_USER)
        ip = check_jump(enter.word)
        assert ip.permission is Permission.EXECUTE_USER
        assert ip.address == enter.address

    def test_claim_enter_not_loadable_or_modifiable(self):
        """'Enter pointers may not be modified or used to load or store
        to memory.'"""
        enter = make(Permission.ENTER_USER)
        with pytest.raises(PermissionFault):
            check_load(enter.word)
        with pytest.raises(PermissionFault):
            lea(enter.word, 0)

    def test_claim_key_unalterable_unreferencable(self):
        """'A Key pointer may not be modified or referenced in any
        way.'"""
        key = make(Permission.KEY)
        with pytest.raises(PermissionFault):
            check_load(key.word)
        with pytest.raises(PermissionFault):
            lea(key.word, 0)


class TestSection22Operations:
    def test_claim_lea_exception_outside_segment(self):
        """'An exception is raised if the new pointer would lie outside
        the segment defined by the original pointer.'"""
        p = make(seglen=8, address=0x40000100)
        with pytest.raises(BoundsFault):
            lea(p.word, 256)

    def test_claim_nonpointer_op_clears_tag(self):
        """'If a guarded pointer is used as an input to a non-pointer
        operation, the pointer bit ... is cleared.'"""
        p = make()
        as_int = p.word.untagged()
        assert not as_int.tag
        assert as_int.value == p.word.value

    def test_claim_restrict_strict_subset_only(self):
        """'The substitution is performed only if T represents a strict
        subset of the permissions of P.'"""
        assert restrict(make(Permission.READ_WRITE).word,
                        Permission.READ_ONLY).permission is Permission.READ_ONLY
        from repro.core.exceptions import RestrictFault
        with pytest.raises(RestrictFault):
            restrict(make(Permission.READ_ONLY).word, Permission.READ_WRITE)

    def test_claim_user_can_only_restrict(self):
        """'a privileged process may amplify pointer permissions ...
        while a user process can only restrict access.'"""
        ro = make(Permission.READ_ONLY)
        amplified = ro.with_fields(perm=Permission.READ_WRITE)  # kernel power
        assert amplified.permission is Permission.READ_WRITE
        # the only user path to different rights is RESTRICT, which
        # refuses amplification (previous test) — and SETPTR is
        # privileged (TestSection1And2Format)


class TestSection3MachineClaims:
    def test_claim_zero_cost_context_switch(self):
        """'This enables zero cost context switching, as no work is
        required to switch between protection domains.'"""
        from repro.baselines.guarded import GuardedPointerScheme
        scheme = GuardedPointerScheme()
        assert scheme.switch(1) == 0

    def test_claim_translation_only_on_miss(self):
        """'the cache [is] virtually addressed and tagged so that
        translations need only to be performed on cache misses.'"""
        kernel = Kernel(MAPChip(ChipConfig(memory_bytes=1024 * 1024)))
        data = kernel.allocate_segment(4096, eager=True)
        entry = kernel.load_program("""
            ld r2, r1, 0
            ld r3, r1, 0
            ld r4, r1, 0
            halt
        """)
        kernel.spawn(entry, regs={1: data.word}, stack_bytes=0)
        kernel.run()
        stats = kernel.chip.tlb.stats
        # three loads, one line miss → exactly one translation episode
        assert stats.accesses == 1

    def test_claim_128KB_cache_8MB_memory(self):
        """'Each M-Machine node contains 16KWords (128KBytes) of on-chip
        cache, which is divided into 4 banks, and 1MWord (8MBytes) of
        off-chip memory.'"""
        chip = MAPChip()
        assert chip.config.cache_bytes == 128 * 1024
        assert chip.config.cache_banks == 4
        assert chip.config.memory_bytes == 8 * 1024 * 1024

    def test_claim_four_clusters_four_threads(self):
        """'Four user threads share the processing resources of each
        cluster, for a total of sixteen user threads.'"""
        chip = MAPChip()
        assert len(chip.clusters) == 4
        assert all(len(cl.slots) == 4 for cl in chip.clusters)


class TestSection4Costs:
    def test_claim_1_5_percent_memory(self):
        """'a single tag bit is required on all memory words, which
        results in a 1.5% increase in the amount of memory.'"""
        from repro.mem.tagged_memory import TaggedMemory
        overhead = TaggedMemory(8 * 1024 * 1024).tag_overhead
        assert overhead == 1 / 64
        assert abs(overhead - 0.015) < 0.001

    def test_claim_1_8e16_bytes(self):
        """'A 54-bit address space allows 1.8e16 bytes to be
        addressed.'"""
        assert (1 << 54) == pytest.approx(1.8e16, rel=0.01)

    def test_claim_sparse_shrink_factor_1000(self):
        """'a strategy which becomes less attractive if the virtual
        address space shrinks by a factor of 1000.'"""
        from repro.analysis.overhead import address_space_shrink_factor
        assert 1000 <= address_space_shrink_factor() <= 1024

    def test_claim_unmap_invalidates_all_pointers(self):
        """'All guarded pointers to a segment can be simultaneously
        invalidated by unmapping the segment's address space.'"""
        from repro.core.exceptions import PageFault
        kernel = Kernel(MAPChip(ChipConfig(memory_bytes=1024 * 1024)))
        seg = kernel.allocate_segment(4096, eager=True)
        copy = lea(seg.word, 8)  # a second pointer into the segment
        kernel.free_segment(seg)
        with pytest.raises(PageFault):
            kernel.chip.page_table.walk(copy.address)

    def test_claim_pointers_self_identifying_for_gc(self):
        """'the live segments can be found by recursively scanning the
        reachable segments' (pointers self-identify via the tag)."""
        from repro.runtime.gc import AddressSpaceGC
        kernel = Kernel(MAPChip(ChipConfig(memory_bytes=1024 * 1024)))
        a = kernel.allocate_segment(4096, eager=True)
        b = kernel.allocate_segment(4096, eager=True)
        paddr = kernel.chip.page_table.walk(a.segment_base)
        kernel.chip.memory.store_word(paddr, b.word)
        stats = AddressSpaceGC(kernel).collect(extra_roots=[a])
        assert stats.segments_live == 2


class TestSection5Comparisons:
    def test_claim_n_by_m_page_table_entries(self):
        """'resulting in n x m page table entries for n physical pages
        shared among m processes.'"""
        from repro.analysis.overhead import sharing_entries_paged
        assert sharing_entries_paged(10, 3) == 30

    def test_claim_two_level_capability_translation(self):
        """'[System/38 and i432] have required two levels of
        translation ... The additional latency ... has prevented
        traditional capabilities from becoming ... widely-used.'"""
        from repro.baselines.captable import CapTableScheme
        from repro.baselines.guarded import GuardedPointerScheme
        from repro.sim.trace import MemRef
        cap = CapTableScheme()
        guarded = GuardedPointerScheme()
        # cold object: the captable pays its table lookup, guarded does not
        c1 = cap.access(MemRef(0, 0, segment=5))
        g1 = guarded.access(MemRef(0, 0, segment=5))
        assert c1 > g1

    def test_claim_multics_segment_limit(self):
        """'in Multics, a segment is limited to 2^18 words and in the
        8086, a segment is limited to 2^16 bytes.'"""
        from repro.experiments.e10_segmentation import rigidity_table
        rows = {r.system: r for r in rigidity_table()}
        assert "2^18" in rows["Multics"].max_segment_bytes
        assert "2^16" in rows["Intel 8086"].max_segment_bytes

    def test_claim_sandboxing_checks_writes_and_jumps(self):
        """'[sandboxing] prevents writes or jumps to locations outside
        the fault domain' — reads are free in basic sandboxing."""
        from repro.baselines.sfi import SFIScheme
        from repro.sim.trace import MemRef
        sfi = SFIScheme()
        sfi.access(MemRef(0, 0, write=False))
        assert sfi.metrics.check_instructions == 0
        sfi.access(MemRef(0, 8, write=True))
        assert sfi.metrics.check_instructions > 0
