"""Tests for the 4-bank interleaved virtually-addressed cache."""

import pytest

from repro.core.exceptions import PageFault
from repro.core.permissions import Permission
from repro.core.pointer import GuardedPointer
from repro.core.word import TaggedWord
from repro.mem.cache import BankedCache
from repro.mem.page_table import PageTable
from repro.mem.physical import FrameAllocator
from repro.mem.tagged_memory import TaggedMemory
from repro.mem.tlb import TLB

PAGE = 4096


def make_system(**cache_kwargs):
    mem = TaggedMemory(64 * PAGE)
    frames = FrameAllocator(64 * PAGE, PAGE)
    table = PageTable(PAGE, frames)
    table.ensure_mapped(0, 32 * PAGE)
    tlb = TLB(table, entries=16, walk_cycles=20)
    cache = BankedCache(mem, tlb, total_bytes=4096, banks=4, line_bytes=64,
                        ways=2, hit_cycles=1, external_cycles=10, **cache_kwargs)
    return mem, table, tlb, cache


class TestFunctional:
    def test_store_then_load(self):
        _, _, _, cache = make_system()
        w = TaggedWord.integer(0x1234)
        cache.access(0x100, write=True, now=0, value=w)
        r = cache.access(0x100, write=False, now=50)
        assert r.word == w

    def test_pointer_tag_survives_cache(self):
        _, _, _, cache = make_system()
        p = GuardedPointer.make(Permission.READ_WRITE, 8, 0x200)
        cache.access(0x208, write=True, now=0, value=p.word)
        r = cache.access(0x208, write=False, now=50)
        assert r.word.tag
        assert GuardedPointer.from_word(r.word) == p

    def test_store_requires_value(self):
        _, _, _, cache = make_system()
        with pytest.raises(ValueError):
            cache.access(0, write=True, now=0)

    @pytest.mark.parametrize("vaddr", [0x100, 0x1100], ids=["hit", "miss"])
    def test_store_without_value_changes_nothing(self, vaddr):
        # the value is checked before the access counts, reorders the
        # set, fills or dirties a line, or busies a port
        mem, _, tlb, cache = make_system()
        cache.access(0x100, write=False, now=0)
        cache.access(0x900, write=False, now=20)   # same set: 0x100 is LRU

        def state():
            return (vars(cache.stats).copy(), vars(tlb.stats).copy(),
                    [[list(entry) for entry in bank._lines]
                     for bank in cache._banks],
                    [bank.busy_until for bank in cache._banks],
                    cache._external_busy_until, mem.dump_words())

        before = state()
        with pytest.raises(ValueError, match="store requires a value"):
            cache.access(vaddr, write=True, now=21)
        assert state() == before

    def test_unmapped_page_faults_even_on_would_be_hit(self):
        _, table, _, cache = make_system()
        cache.access(0x100, write=False, now=0)  # line now resident
        table.unmap(0)
        with pytest.raises(PageFault):
            cache.access(0x100, write=False, now=100)


class TestTiming:
    def test_miss_then_hit_latency(self):
        _, _, _, cache = make_system()
        r1 = cache.access(0x100, write=False, now=0)
        assert not r1.hit
        # miss: 1 (lookup) + 20 (TLB walk, cold) + 10 (line fill)
        assert r1.ready_cycle == 31
        r2 = cache.access(0x108, write=False, now=r1.ready_cycle)
        assert r2.hit
        assert r2.ready_cycle == r1.ready_cycle + 1

    def test_tlb_hit_makes_misses_cheaper(self):
        _, _, _, cache = make_system()
        cache.access(0x0, write=False, now=0)      # cold: TLB walk
        r = cache.access(0x40, write=False, now=100)  # same page, new line
        assert not r.hit
        assert r.ready_cycle == 100 + 1 + 10

    def test_bank_interleaving(self):
        _, _, _, cache = make_system()
        # consecutive lines land in consecutive banks
        assert [cache.bank_of(i * 64) for i in range(5)] == [0, 1, 2, 3, 0]

    def test_parallel_banks_no_conflict(self):
        _, _, _, cache = make_system()
        # warm up four lines in four distinct banks
        for i in range(4):
            cache.access(i * 64, write=False, now=0)
        start = 1000
        results = [cache.access(i * 64, write=False, now=start) for i in range(4)]
        assert all(r.hit for r in results)
        assert all(r.ready_cycle == start + 1 for r in results)
        assert cache.stats.bank_conflicts == 0

    def test_same_bank_conflict_serialises(self):
        _, _, _, cache = make_system()
        cache.access(0, write=False, now=0)
        cache.access(256, write=False, now=500)  # 4 lines later: same bank 0
        start = 1000
        r1 = cache.access(0, write=False, now=start)
        r2 = cache.access(256, write=False, now=start)
        assert r1.hit and r2.hit
        assert r1.ready_cycle == start + 1
        assert r2.ready_cycle == start + 2  # waited for the bank port
        assert cache.stats.bank_conflicts == 1

    def test_single_external_port_serialises_misses(self):
        _, _, _, cache = make_system()
        # two cold misses to different banks at the same cycle: the
        # second line fill waits for the external interface.
        r1 = cache.access(0, write=False, now=0)
        r2 = cache.access(64, write=False, now=0)
        assert r2.ready_cycle >= r1.ready_cycle + 10

    def test_dirty_writeback_costs_extra(self):
        _, _, _, cache = make_system()
        # fill both ways of bank 0 / set 0 with dirty lines, then evict.
        sets = 4096 // 64 // (4 * 2)  # 8 sets
        stride = 4 * sets * 64  # same bank, same set
        cache.access(0, write=True, now=0, value=TaggedWord.integer(1))
        cache.access(stride, write=True, now=100, value=TaggedWord.integer(2))
        before = cache.stats.writebacks
        cache.access(2 * stride, write=False, now=200)  # evicts dirty LRU
        assert cache.stats.writebacks == before + 1


class TestFlush:
    def test_flush_invalidate_counts(self):
        _, _, _, cache = make_system()
        for i in range(8):
            cache.access(i * 64, write=False, now=0)
        assert cache.flush() == 8
        assert cache.stats.flushes == 1

    def test_post_flush_accesses_miss(self):
        _, _, _, cache = make_system()
        cache.access(0, write=False, now=0)
        cache.flush()
        r = cache.access(0, write=False, now=100)
        assert not r.hit

    def test_flush_preserves_data(self):
        _, _, _, cache = make_system()
        w = TaggedWord.integer(77)
        cache.access(0x80, write=True, now=0, value=w)
        cache.flush()
        assert cache.access(0x80, write=False, now=100).word == w


class TestTranslationLineMemo:
    def test_same_line_hits_new_line_misses(self):
        _, _, _, cache = make_system()
        cache.access(0x100, write=False, now=0)     # line cold
        cache.access(0x108, write=False, now=50)    # same 64-byte line
        cache.access(0x140, write=False, now=100)   # next line
        assert cache.stats.xlate_memo_misses == 2
        assert cache.stats.xlate_memo_hits == 1

    def test_memo_agrees_with_the_page_table(self):
        _, table, _, cache = make_system()
        cold = cache.translate_functional(0x1238)
        warm = cache.translate_functional(0x1230)  # same line, memoised
        assert cold == table.walk(0x1238)
        assert warm == table.walk(0x1230)

    def test_unmap_empties_the_memo(self):
        _, table, _, cache = make_system()
        cache.access(0x100, write=False, now=0)
        cache.access(0x2100, write=False, now=50)
        entries = len(cache._xlate)
        assert entries == 2
        table.unmap(table.page_of(0x2100))
        assert cache._xlate == {}
        assert cache.stats.xlate_memo_invalidations == entries

    def test_unmapped_line_faults_and_caches_nothing(self):
        _, table, _, cache = make_system()
        vaddr = 33 * PAGE  # beyond the mapped 32 pages
        with pytest.raises(PageFault):
            cache.translate_functional(vaddr)
        assert cache._xlate == {}
        # a later mapping is picked up — nothing negative was cached
        table.ensure_mapped(vaddr, PAGE)
        assert cache.translate_functional(vaddr) == table.walk(vaddr)

    def test_disabled_memo_still_translates(self):
        _, table, _, cache = make_system(xlate_memo=False)
        w = TaggedWord.integer(9)
        cache.access(0x300, write=True, now=0, value=w)
        assert cache.access(0x300, write=False, now=50).word == w
        assert cache.stats.xlate_memo_hits == 0
        assert cache.stats.xlate_memo_misses == 0
        assert cache.translate_functional(0x300) == table.walk(0x300)


class TestGeometryValidation:
    def test_bad_bank_count(self):
        mem, _, tlb, _ = make_system()
        with pytest.raises(ValueError):
            BankedCache(mem, tlb, banks=3)

    def test_bad_line_size(self):
        mem, _, tlb, _ = make_system()
        with pytest.raises(ValueError):
            BankedCache(mem, tlb, line_bytes=48)

    def test_too_small_cache(self):
        mem, _, tlb, _ = make_system()
        with pytest.raises(ValueError):
            BankedCache(mem, tlb, total_bytes=64, banks=4, line_bytes=64, ways=2)

    def test_default_geometry_is_map_chip(self):
        mem = TaggedMemory(64 * PAGE)
        table = PageTable(PAGE, FrameAllocator(64 * PAGE, PAGE))
        cache = BankedCache(mem, TLB(table))
        assert cache.banks == 4
        assert cache.line_bytes == 64
