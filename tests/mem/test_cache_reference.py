"""The banked cache's memory port against the port it replaced.

:func:`reference_access` is ``BankedCache.access`` as it stood before
the port returned a tuple and took hits without the LRU scan: it scans
the set's LRU list on every access, arbitrates the bank port with
``max``, translates through ``translate_functional``, checks the
physical address by the memory's old word-index rule, and returns a
frozen dataclass.  Hypothesis drives one op sequence through two
identical systems, one per port, and requires the same result or the
same exception after every op and the same state at the end.
"""

import sys
from dataclasses import dataclass, is_dataclass

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import Simulation
from repro.core.constants import WORD_BYTES
from repro.core.exceptions import PageFault
from repro.core.word import TaggedWord
from repro.mem.cache import AccessResult, BankedCache
from repro.mem.page_table import PageTable
from repro.mem.physical import FrameAllocator
from repro.mem.tagged_memory import AlignmentFault, TaggedMemory
from repro.mem.tlb import TLB

PAGE = 256            # four 64-byte lines per page
MEMORY_PAGES = 8      # physical memory; frames 8 and up lie past it
FRAMES = 12
MAPPED_PAGES = 10     # virtual pages 8 and 9 translate past memory
VIRTUAL_PAGES = 12    # 10 and 11 are never mapped
DEVICE = (5 * PAGE, 128)   # half of frame 5 is a device


@dataclass(frozen=True, slots=True)
class ReferenceResult:
    word: TaggedWord
    ready_cycle: int
    hit: bool
    bank: int


def _lookup(bank, line: int, index: int) -> bool:
    entry = bank._lines[index]
    for i, (tag, _dirty) in enumerate(entry):
        if tag == line:
            entry.append(entry.pop(i))  # LRU update
            return True
    return False


def _mark_dirty(bank, line: int, index: int) -> None:
    entry = bank._lines[index]
    for i, (tag, _) in enumerate(entry):
        if tag == line:
            entry[i] = (tag, True)
            return


def _word_index(memory: TaggedMemory, byte_address: int) -> int:
    if byte_address % WORD_BYTES:
        raise AlignmentFault(f"unaligned word access at {byte_address:#x}")
    if not 0 <= byte_address < memory.size_bytes:
        raise IndexError(f"physical address out of range: {byte_address:#x}")
    return byte_address // WORD_BYTES


def reference_access(cache: BankedCache, vaddr: int, *, write: bool,
                     now: int, value: TaggedWord | None = None
                     ) -> ReferenceResult:
    line = vaddr >> cache._line_shift
    bank_index = line & cache._bank_mask
    bank = cache._banks[bank_index]
    set_index = (line >> cache._bank_shift) % bank.sets
    start = max(now, bank.busy_until)
    if start > now:
        cache.stats.bank_conflicts += 1
    was_hit = _lookup(bank, line, set_index)
    if was_hit:
        cache.stats.hits += 1
        ready = start + cache.hit_cycles
        bank.busy_until = ready
        if write:
            _mark_dirty(bank, line, set_index)
    else:
        cache.stats.misses += 1
        _, walk = cache.tlb.translate(vaddr)
        request_at = start + cache.hit_cycles + walk
        begin = max(request_at, cache._external_busy_until)
        done = begin + cache.external_cycles
        cache.stats.external_accesses += 1
        victim = bank.fill(line, dirty=write, index=set_index)
        if victim is not None and victim[1]:
            cache.stats.writebacks += 1
            cache.stats.external_accesses += 1
            done += cache.external_cycles
        cache._external_busy_until = done
        ready = done
        bank.busy_until = ready
    physical = cache.translate_functional(vaddr)
    _word_index(cache.memory, physical)
    if write:
        if value is None:
            raise ValueError("store requires a value")
        cache.memory.store_word(physical, value)
        word = TaggedWord.zero()
    else:
        word = cache.memory.load_word(physical)
    return ReferenceResult(word=word, ready_cycle=ready, hit=was_hit,
                           bank=bank_index)


class _Device:
    """A memory-mapped range that logs every access."""

    def __init__(self):
        self.cells: dict[int, TaggedWord] = {}
        self.log: list[tuple] = []

    def load(self, offset: int) -> TaggedWord:
        self.log.append(("load", offset))
        return self.cells.get(offset, TaggedWord.integer(0xD0 + offset))

    def store(self, offset: int, word: TaggedWord) -> None:
        self.log.append(("store", offset, word))
        self.cells[offset] = word


def build(xlate_memo: bool):
    memory = TaggedMemory(MEMORY_PAGES * PAGE)
    device = _Device()
    memory.attach_device(*DEVICE, device)
    table = PageTable(PAGE, FrameAllocator(FRAMES * PAGE, PAGE))
    table.ensure_mapped(0, MAPPED_PAGES * PAGE)
    tlb = TLB(table, entries=4, walk_cycles=20)
    # 16 lines: 4 banks of 2 sets of 2 ways, over 48 virtual lines
    cache = BankedCache(memory, tlb, total_bytes=1024, banks=4,
                        line_bytes=64, ways=2, hit_cycles=1,
                        external_cycles=10, xlate_memo=xlate_memo)
    return cache, table, device


def state(cache: BankedCache, table: PageTable, device: _Device) -> dict:
    return {
        "stats": vars(cache.stats).copy(),
        "tlb": vars(cache.tlb.stats).copy(),
        "sets": [[list(entry) for entry in bank._lines]
                 for bank in cache._banks],
        "busy_until": [bank.busy_until for bank in cache._banks],
        "external_busy_until": cache._external_busy_until,
        "memo": None if cache._xlate is None else dict(cache._xlate),
        "words": cache.memory.dump_words(),
        "device": (dict(device.cells), list(device.log)),
        "pages": sorted(page for page in range(VIRTUAL_PAGES)
                        if table.is_mapped(page)),
    }


def outcome(call):
    """What one op did: its result (a port's as its four fields), or
    the type and message of what it raised."""
    try:
        result = call()
    except Exception as exc:
        return "raised", type(exc), str(exc)
    if isinstance(result, (AccessResult, ReferenceResult)):
        return "returned", (result.word, result.ready_cycle, result.hit,
                            result.bank)
    return "returned", result


_words = st.integers(0, VIRTUAL_PAGES * PAGE // WORD_BYTES - 1)
#: mostly aligned; sometimes off by a few bytes
_misalign = st.one_of(st.just(0), st.just(0), st.just(0),
                      st.integers(1, WORD_BYTES - 1))
#: small steps keep banks busy (conflicts); large ones let them drain
_step = st.sampled_from([0, 0, 1, 2, 5, 13])
_values = st.builds(TaggedWord, st.integers(0, (1 << 64) - 1), st.booleans())
_ops = st.lists(st.one_of(
    st.tuples(st.just("load"), _words, _misalign, _step),
    st.tuples(st.just("load"), _words, _misalign, _step),
    st.tuples(st.just("store"), _words, _misalign, _step, _values),
    st.tuples(st.just("store"), _words, _misalign, _step, _values),
    st.tuples(st.just("flush")),
    st.tuples(st.just("unmap"), st.integers(0, VIRTUAL_PAGES - 1)),
    st.tuples(st.just("map"), st.integers(0, VIRTUAL_PAGES - 1)),
), max_size=120)


def apply(op, cache: BankedCache, table: PageTable, port, now: int):
    kind = op[0]
    if kind == "load":
        vaddr = op[1] * WORD_BYTES + op[2]
        return lambda: port(cache, vaddr, write=False, now=now)
    if kind == "store":
        vaddr = op[1] * WORD_BYTES + op[2]
        return lambda: port(cache, vaddr, write=True, now=now, value=op[4])
    if kind == "flush":
        return cache.flush
    if kind == "unmap":
        return lambda: table.unmap(op[1])
    return lambda: table.map(op[1])


#: a sequence that reaches every path the strategy aims at (checked by
#: ``test_covering_sequence_reaches_every_path``); words 0, 64 and 128
#: are lines 0, 8 and 16, all three in set 0 of bank 0
W = PAGE // WORD_BYTES
COVERING_OPS = [
    ("store", 0, 0, 0, TaggedWord(1, False)),
    ("store", 64, 0, 13, TaggedWord(2, True)),
    ("load", 128, 0, 13),          # evicts dirty line 0: a writeback
    ("load", 128, 0, 0),           # bank still busy: a conflict; MRU hit
    ("load", 64, 0, 0),            # LRU hit
    ("store", 64, 0, 1, TaggedWord(3, False)),   # MRU store hit
    ("flush",),
    ("load", 1, 3, 13),            # unaligned
    ("load", 8 * W, 0, 13),        # past physical memory
    ("load", 5 * W, 0, 13),        # the device
    ("store", 5 * W + 1, 0, 13, TaggedWord(4, False)),
    ("load", 0, 0, 13),
    ("unmap", 0),
    ("load", 0, 0, 13),            # resident line, unmapped page
    ("load", 10 * W, 0, 13),       # never mapped: faults on the miss
    ("unmap", 11),                 # not mapped: ValueError
    ("map", 1),                    # already mapped: ValueError
    ("map", 0),                    # frame 0 again
    ("store", 0, 0, 13, TaggedWord(5, False)),
]


class TestAgainstTheReferencePort:
    @pytest.mark.parametrize("xlate_memo", [True, False],
                             ids=["memo", "no-memo"])
    @settings(max_examples=120, deadline=None)
    @given(operations=_ops)
    @example(operations=COVERING_OPS)
    def test_same_results_and_state(self, xlate_memo, operations):
        fast = build(xlate_memo)
        ref = build(xlate_memo)
        now = 0
        for op in operations:
            if op[0] in ("load", "store"):
                now += op[3]
            got = outcome(apply(op, fast[0], fast[1],
                                BankedCache.access, now))
            want = outcome(apply(op, ref[0], ref[1], reference_access, now))
            assert got == want, op
        assert state(*fast) == state(*ref)

    def test_covering_sequence_reaches_every_path(self):
        cache, table, device = build(True)
        now = 0
        raised = set()
        for op in COVERING_OPS:
            if op[0] in ("load", "store"):
                now += op[3]
            result = outcome(apply(op, cache, table, BankedCache.access, now))
            if result[0] == "raised":
                raised.add(result[1])
        stats = cache.stats
        assert stats.writebacks and stats.bank_conflicts and stats.flushes
        assert stats.xlate_memo_hits and stats.xlate_memo_invalidations
        assert raised == {AlignmentFault, IndexError, PageFault, ValueError}
        assert [entry[0] for entry in device.log] == ["load", "store"]


class TestNoDataclassOnTheHotPath:
    """A warm load/store loop builds its results without a Python
    frame: no dataclass-generated ``__init__`` runs in it."""

    @staticmethod
    def _dataclass_inits(loop) -> list[str]:
        seen = []

        def profile(frame, event, arg):
            code = frame.f_code
            if (event == "call" and code.co_name == "__init__"
                    and code.co_varnames):
                owner = frame.f_locals.get(code.co_varnames[0])
                if is_dataclass(type(owner)):
                    seen.append(type(owner).__name__)

        sys.setprofile(profile)
        try:
            loop()
        finally:
            sys.setprofile(None)
        return seen

    def test_cache_port(self):
        cache, _, _ = build(True)
        word = TaggedWord.integer(7)

        def loop():
            for now in range(0, 200, 4):
                cache.access(0x100, write=True, now=now, value=word)
                cache.access(0x100, write=False, now=now + 2)

        loop()  # the line is resident and its translation memoized
        assert self._dataclass_inits(loop) == []

    def test_chip_port(self):
        sim = Simulation(memory_bytes=1 << 20)
        data = sim.allocate(64, eager=True)
        port = sim.chip.access_memory
        word = TaggedWord.integer(7)

        def loop():
            for now in range(0, 200, 4):
                port(data.address, write=True, now=now, value=word)
                port(data.address, write=False, now=now + 2)

        loop()
        assert self._dataclass_inits(loop) == []
