"""The MAP chip's interleaved, virtually-addressed cache (§3, Figure 5).

Four banks, interleaved on low-order line-address bits, so the memory
system accepts up to four requests per cycle — one per bank — matching
the peak issue rate of the four clusters.  The cache is virtually
addressed *and* virtually tagged; translation happens only on a miss,
through the shared TLB.  Requests that miss arbitrate for the single
external memory interface, which handles one request at a time.

The cache here is a *timing* model: data moves functionally through
:class:`~repro.mem.tagged_memory.TaggedMemory` via the page table, while
this module decides how many cycles each access costs.  That split keeps
functional correctness independent of timing parameters, which the
benchmarks vary.

Because guarded pointers carry all protection state, nothing in this
module checks permissions — exactly the paper's point: "encoding all
protection information in a guarded pointer eliminates any need for
table lookup prior to or during cache access."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from repro.core.word import TaggedWord
from repro.mem.tagged_memory import TaggedMemory
from repro.mem.tlb import TLB

#: the (immutable) word every store returns — shared, not re-allocated
_ZERO_WORD = TaggedWord.zero()


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    bank_conflicts: int = 0
    writebacks: int = 0
    external_accesses: int = 0
    flushes: int = 0
    #: translation-line-memo traffic (the data-path fast path; zero
    #: when the memo is disabled)
    xlate_memo_hits: int = 0
    xlate_memo_misses: int = 0
    xlate_memo_invalidations: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    def as_counters(self) -> dict[str, int | float]:
        """This bank-file's view for :class:`~repro.machine.counters.PerfCounters`."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "bank_conflicts": self.bank_conflicts,
            "writebacks": self.writebacks,
            "external_accesses": self.external_accesses,
            "flushes": self.flushes,
            "hit_rate": round(self.hit_rate, 6),
            "xlate_memo_hits": self.xlate_memo_hits,
            "xlate_memo_misses": self.xlate_memo_misses,
            "xlate_memo_invalidations": self.xlate_memo_invalidations,
        }


class AccessResult(NamedTuple):
    """Outcome of one cache access: ``(word, ready_cycle, hit, bank)``.

    A tuple, because every simulated load and store builds one: the
    ports construct it with ``tuple.__new__``, which runs no Python
    frame, while a frozen dataclass ran a generated ``__init__`` of four
    ``object.__setattr__`` calls (0.94 µs against 0.21 µs on a 2-vCPU
    Xeon, PERF.md §4)."""

    word: TaggedWord        #: data (untagged zero for stores)
    ready_cycle: int        #: cycle at which the result is available
    hit: bool
    bank: int


#: builds an :class:`AccessResult` from a 4-tuple without the generated
#: ``__new__`` frame: ``_new_result(AccessResult, (word, ready, hit, bank))``
_new_result = tuple.__new__


class _Bank:
    """One set-associative bank holding virtual line tags."""

    def __init__(self, sets: int, ways: int):
        self.sets = sets
        self.ways = ways
        # per-set LRU list of (virtual line number, dirty)
        self._lines: list[list[tuple[int, bool]]] = [[] for _ in range(sets)]
        #: cycle until which this bank's port is busy
        self.busy_until = 0

    def lookup(self, line: int, index: int) -> bool:
        """True on a hit, which becomes the set's MRU entry (its last)."""
        entry = self._lines[index]
        for i, (tag, dirty) in enumerate(entry):
            if tag == line:
                entry.append(entry.pop(i))  # LRU update
                return True
        return False

    def fill(self, line: int, dirty: bool, index: int) -> tuple[int, bool] | None:
        """Insert a line; returns the evicted (line, dirty) if any."""
        entry = self._lines[index]
        victim = None
        if len(entry) >= self.ways:
            victim = entry.pop(0)
        entry.append((line, dirty))
        return victim

    def invalidate_all(self) -> int:
        count = sum(len(s) for s in self._lines)
        for s in self._lines:
            s.clear()
        return count


class BankedCache:
    """4-bank interleaved virtually-addressed cache over tagged memory.

    Default geometry mirrors the MAP chip: 128 KB total, 4 banks,
    64-byte lines, 2-way associative.  Timing parameters:

    * ``hit_cycles`` — latency of a bank hit.
    * ``external_cycles`` — latency of one external-memory transfer
      (line fill or writeback), serialised through the single port.
    * TLB walk cycles are charged on misses only (virtual tags).
    """

    def __init__(
        self,
        memory: TaggedMemory,
        tlb: TLB,
        total_bytes: int = 128 * 1024,
        banks: int = 4,
        line_bytes: int = 64,
        ways: int = 2,
        hit_cycles: int = 1,
        external_cycles: int = 10,
        xlate_memo: bool = True,
    ):
        if banks <= 0 or banks & (banks - 1):
            raise ValueError("bank count must be a power of two")
        if line_bytes <= 0 or line_bytes & (line_bytes - 1):
            raise ValueError("line size must be a power of two")
        lines_total = total_bytes // line_bytes
        sets = lines_total // (banks * ways)
        if sets <= 0:
            raise ValueError("cache too small for its geometry")
        self.memory = memory
        self.tlb = tlb
        self.banks = banks
        self.line_bytes = line_bytes
        self.hit_cycles = hit_cycles
        self.external_cycles = external_cycles
        self._banks = [_Bank(sets, ways) for _ in range(banks)]
        #: cycle until which the single external interface is busy
        self._external_busy_until = 0
        self.stats = CacheStats()
        #: trace hub handle (set by the chip); miss fills emit
        #: ``cache.miss_fill`` spans when a sink is attached
        self.obs = None
        self._line_mask = line_bytes - 1
        # shift/mask forms of the geometry for the per-access hot path
        self._line_shift = line_bytes.bit_length() - 1
        self._bank_mask = banks - 1
        self._bank_shift = banks.bit_length() - 1
        # -- the translation line memo (the data-path fast path) ------
        # virtual line base → physical line base, valid because a line
        # never spans a page (lines divide pages) and any translation
        # change must pass through PageTable.unmap, which clears the
        # memo via the same push-invalidation hook the decoded-bundle
        # cache uses.  Purely functional: timing still comes from the
        # TLB model, so cycle counts are identical with it on or off.
        page_bytes = tlb.page_table.page_bytes
        if xlate_memo and page_bytes % line_bytes == 0:
            self._xlate: dict[int, int] | None = {}
        else:
            self._xlate = None
        tlb.page_table.add_invalidation_hook(self._on_unmap)

    # -- geometry ------------------------------------------------------

    def line_of(self, vaddr: int) -> int:
        return vaddr // self.line_bytes

    def bank_of(self, vaddr: int) -> int:
        """Addresses are interleaved across banks on low-order line bits."""
        return self.line_of(vaddr) % self.banks

    # -- functional translation (the translation line memo) ------------

    def translate_functional(self, vaddr: int) -> int:
        """Translate ``vaddr`` for the functional data path.

        With the memo enabled, a line already translated is one
        dictionary probe; a miss walks the page table (so an unmapped
        page faults exactly as before) and primes the line.  The memo
        is cleared on every :meth:`~repro.mem.page_table.PageTable.unmap`
        — revocation, relocation, swap and loader reuse all pass through
        unmap before any remap, so a stale physical line can never be
        served.
        """
        memo = self._xlate
        if memo is None:
            return self.tlb.page_table.walk(vaddr)
        offset = vaddr & self._line_mask
        line_base = vaddr - offset
        physical_base = memo.get(line_base)
        if physical_base is not None:
            self.stats.xlate_memo_hits += 1
            return physical_base + offset
        self.stats.xlate_memo_misses += 1
        physical = self.tlb.page_table.walk(vaddr)
        memo[line_base] = physical - offset
        return physical

    def _on_unmap(self, _virtual_page: int) -> None:
        """Page-table hook: any unmap conservatively clears the memo
        (mirrors the TLB's and decode cache's flush-on-unmap policy —
        unmaps are rare, a stale translation is never acceptable)."""
        memo = self._xlate
        if memo:
            self.stats.xlate_memo_invalidations += len(memo)
            memo.clear()

    # -- the access path ------------------------------------------------

    def access(self, vaddr: int, write: bool, now: int,
               value: TaggedWord | None = None) -> AccessResult:
        """Perform one word access at cycle ``now``; returns
        ``(word, ready_cycle, hit, bank)`` as an :class:`AccessResult`.

        Every memory port in the simulator
        (:meth:`repro.machine.chip.MAPChip.access_memory`, this method,
        and :meth:`repro.machine.multicomputer.Multicomputer.remote_access`)
        shares the signature ``(vaddr, write, now, value=None)`` and the
        result, so the ports stay swappable.  The compiled loads and
        stores pass the arguments positionally (CPython 3.11 does not
        specialize a keyword call into a Python function); other
        callers may name them.

        Loads return the word; stores require ``value``, checked before
        anything is counted or moved.  Functional data always reaches
        physical memory through the page table, so
        :class:`~repro.core.exceptions.PageFault` propagates from here
        when the page is unmapped — translation is attempted even on
        cache hits for stores-through, keeping revocation-by-unmap
        (§4.3) airtight in the model.

        The hit path is exact but short (PERF.md §5): a hit on the
        set's most-recently-used line needs no LRU move, so only other
        lines go through :meth:`_Bank.lookup`; the bank port is
        arbitrated by one comparison; and the translation line memo is
        probed inline, with every miss and fault left to
        :meth:`translate_functional` and the memory's word access.
        """
        if write and value is None:
            raise ValueError("store requires a value")
        line = vaddr >> self._line_shift
        bank_index = line & self._bank_mask
        bank = self._banks[bank_index]
        # standard interleaved indexing: the bank bits do not feed the
        # set index, so consecutive same-bank lines use consecutive sets
        set_index = (line >> self._bank_shift) % bank.sets
        stats = self.stats

        # Bank port arbitration: a busy bank delays the request.
        start = bank.busy_until
        if start > now:
            stats.bank_conflicts += 1
        else:
            start = now

        entry = bank._lines[set_index]
        if entry and entry[-1][0] == line:
            hit = True      # already the MRU line: no LRU move
        else:
            hit = bank.lookup(line, set_index)
        if hit:
            # the line is now the set's MRU entry
            stats.hits += 1
            ready = bank.busy_until = start + self.hit_cycles
            if write:
                entry[-1] = (line, True)
        else:
            stats.misses += 1
            # Miss: translate (TLB), then fetch the line through the
            # single external port.
            _, walk = self.tlb.translate(vaddr)
            request_at = start + self.hit_cycles + walk
            begin = max(request_at, self._external_busy_until)
            done = begin + self.external_cycles
            stats.external_accesses += 1
            victim = bank.fill(line, dirty=write, index=set_index)
            if victim is not None and victim[1]:
                # dirty writeback occupies the external port too
                stats.writebacks += 1
                stats.external_accesses += 1
                done += self.external_cycles
            self._external_busy_until = done
            ready = bank.busy_until = done
            obs = self.obs
            if obs is not None and obs.spans:
                obs.emit("cache.miss_fill", start, dur=ready - start,
                         vaddr=vaddr, bank=bank_index, write=write)

        # Functional path: move the data now (timing handled above).
        # Translation is attempted even on cache hits for stores-through
        # — via the line memo when enabled — keeping revocation-by-unmap
        # (§4.3) airtight in the model.
        memo = self._xlate
        if memo is None:
            physical = self.translate_functional(vaddr)
        else:
            offset = vaddr & self._line_mask
            physical = memo.get(vaddr - offset)
            if physical is None:
                physical = self.translate_functional(vaddr)
            else:
                stats.xlate_memo_hits += 1
                physical += offset
        if write:
            self.memory.store_word(physical, value)
            return _new_result(AccessResult,
                               (_ZERO_WORD, ready, hit, bank_index))
        return _new_result(AccessResult, (self.memory.load_word(physical),
                                          ready, hit, bank_index))

    def flush(self) -> int:
        """Invalidate every line (no functional effect in this model,
        since data is written through).  Returns lines invalidated.
        Guarded pointers never require this; separate-address-space
        baselines flush on every protection-domain switch."""
        self.stats.flushes += 1
        return sum(bank.invalidate_all() for bank in self._banks)

    # -- persistence (repro.persist) -----------------------------------

    def capture_state(self) -> dict:
        """Exact timing state: every bank's per-set LRU line lists (with
        dirty bits, oldest first), the port busy cycles, and statistics.
        The translation line memo is *not* captured — it is a pure
        function of the page table and re-warms after restore without
        changing a single cycle."""
        return {
            "banks": [{"busy_until": bank.busy_until,
                       "sets": [[[line, dirty] for line, dirty in entry]
                                for entry in bank._lines]}
                      for bank in self._banks],
            "external_busy_until": self._external_busy_until,
            "stats": vars(self.stats).copy(),
        }

    def restore_state(self, state: dict) -> None:
        if len(state["banks"]) != len(self._banks):
            raise ValueError("snapshot bank count differs from cache geometry")
        for bank, bank_state in zip(self._banks, state["banks"]):
            if len(bank_state["sets"]) != bank.sets:
                raise ValueError("snapshot set count differs from cache geometry")
            bank.busy_until = int(bank_state["busy_until"])
            bank._lines = [[(int(line), bool(dirty)) for line, dirty in entry]
                           for entry in bank_state["sets"]]
        self._external_busy_until = int(state["external_busy_until"])
        for name, value in state["stats"].items():
            setattr(self.stats, name, value)
        if self._xlate is not None:
            self._xlate.clear()
