"""The MAP chip: four clusters over a 4-bank cache and one external
memory interface (§3, Figure 5).

The chip wires together every substrate — tagged memory, the single
global page table, the shared TLB, the interleaved virtually-addressed
cache and the clusters — and drives them cycle by cycle.  Because all
threads share one virtual address space and protection travels inside
pointers, the chip has *no* per-process state: spawning a thread is
writing registers, and interleaving threads from different protection
domains costs nothing.

Instruction fetch is functional (no timing charge): the paper's claims
concern data-side protection checks, and modelling an I-cache would add
noise without changing any experiment's shape.  Fetches still translate
through the page table, so unmapping a code page faults execution
exactly as §4.3 requires.

Fetch is the simulator's hottest path, so it mirrors the paper's thesis
— resolve checks once, never re-walk tables downstream — with a
**decoded-bundle cache**: the first fetch of a bundle walks the page
table, decodes the three words and compiles them into the node that
issue executes (:func:`~repro.machine.cluster.compile_bundle`); every
later fetch of the same address is a dictionary hit returning that
node, for the per-cycle path and superblock traces alike.  The cache
is invalidated exactly where the architecture invalidates translations
and code:

* any :meth:`~repro.mem.page_table.PageTable.unmap` (revocation,
  relocation, swap-out, segment free) flushes it through the page
  table's invalidation hook;
* any store — local, or remote through the router — drops the cached
  bundles overlapping the written word (self-modifying and
  cross-node-modified code stay correct);
* loading a program over a reused virtual range invalidates the range
  (:meth:`MAPChip.invalidate_decoded_range`, called by the kernel
  loader).

Under the cache, a miss decodes through a *content memo* keyed by the
three words' values.  Decoding is a pure function of those values, so
the memo needs no invalidation at all, and code loaded at many
addresses (every tenant's copy of a gateway) decodes once per chip.

``ChipConfig(fast_paths=False)`` turns it off together with every
other simulator shortcut (see :class:`ChipConfig`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

from repro.core.constants import ADDRESS_MASK as _ADDRESS_MASK
from repro.core.constants import WORD_BYTES
from repro.core.exceptions import FetchPending, PageFault, PermissionFault
from repro.core.pointer import GuardedPointer
from repro.core.word import TaggedWord
from repro.machine.cluster import NODE_BUNDLE, Cluster, compile_bundle
from repro.machine.counters import PerfCounters
from repro.machine.faults import FaultRecord
from repro.machine.isa import BUNDLE_BYTES, OP_BYTES, SLOTS, Bundle
from repro.machine.thread import Thread, ThreadState
from repro.mem.cache import BankedCache
from repro.mem.page_table import PageTable
from repro.mem.physical import FrameAllocator
from repro.mem.tagged_memory import AlignmentFault, TaggedMemory
from repro.mem.tlb import TLB
from repro.obs.hub import TraceHub


@dataclass(frozen=True, slots=True)
class ChipConfig:
    """Architectural and timing parameters of one MAP node.

    Defaults follow §3: 4 clusters × 4 user threads, 128 KB of on-chip
    cache in 4 banks, 8 MB of external memory.  The two ``domain_*``
    knobs exist only to model *conventional* machines for experiment
    E5; guarded-pointer operation leaves them at 0/False.
    """

    clusters: int = 4
    threads_per_cluster: int = 4
    memory_bytes: int = 8 * 1024 * 1024
    page_bytes: int = 4096
    cache_bytes: int = 128 * 1024
    cache_banks: int = 4
    cache_line_bytes: int = 64
    cache_ways: int = 2
    cache_hit_cycles: int = 1
    external_cycles: int = 10
    tlb_entries: int = 64
    tlb_walk_cycles: int = 20
    domain_switch_penalty: int = 0
    flush_on_domain_switch: bool = False
    #: the simulator's shortcuts, all on or all off.  Some memoize pure
    #: functions of pointer or code bits — the decoded-bundle cache and
    #: the content memo under it, and the LEA, access-check and
    #: translation-line memos (PERF.md §3, §5, §8); the rest batch
    #: cycles in which nothing else can act — idle fast-forward,
    #: superblock traces (§6) and a mesh window's skip of quiet nodes
    #: (§8).  None changes a cycle
    #: or a counter outside :data:`SHORTCUT_TALLIES`; ``False`` gives
    #: the plain per-cycle machine the parity tests and the fuzzer's
    #: fast-vs-plain axis compare against.
    fast_paths: bool = True
    #: flight-recorder ring depth (events kept for crash dumps); purely
    #: observational — no architectural or timing effect
    flight_capacity: int = 512


#: Counter-name prefixes of the *shortcut tallies*: the counters that
#: measure the shortcuts themselves (decode-cache ``fetch.*``, the
#: access-check memo, the translation-line memo, idle fast-forward).
#: They are the only counters ``fast_paths`` may change, so every
#: comparison of counter files across the two settings drops them.
SHORTCUT_TALLIES = ("fetch.", "mem.check_memo_", "cache.xlate_memo_",
                    "chip.idle_skipped_cycles")


def without_shortcut_tallies(snapshot: Mapping[str, int | float]) -> dict:
    """``snapshot`` minus the :data:`SHORTCUT_TALLIES` — on a mesh file
    too, whose per-node copies are named ``node<N>.<counter>``."""
    kept = {}
    for name, value in snapshot.items():
        bare = name.partition(".")[2] if name.startswith("node") else name
        if not bare.startswith(SHORTCUT_TALLIES):
            kept[name] = value
    return kept


class RunReason:
    """The complete set of :attr:`RunResult.reason` values.

    ``reason`` stays a plain string for compatibility, but call sites
    should compare against these constants instead of re-typing string
    literals (the historical way "faulted" went undocumented).
    """

    HALTED = "halted"          #: every thread executed HALT
    FAULTED = "faulted"        #: no runnable thread; at least one died faulted
    DEADLOCK = "deadlock"      #: nothing can ever issue again
    MAX_CYCLES = "max_cycles"  #: the cycle budget expired first

    ALL = frozenset({HALTED, FAULTED, DEADLOCK, MAX_CYCLES})


@dataclass
class RunResult:
    """Outcome of :meth:`MAPChip.run`."""

    cycles: int
    issued_bundles: int
    #: one of the :class:`RunReason` constants: "halted" | "faulted" |
    #: "deadlock" | "max_cycles"
    reason: str

    @property
    def utilization(self) -> float:
        return self.issued_bundles / self.cycles if self.cycles else 0.0


@dataclass
class ChipStats:
    cycles: int = 0
    issued_bundles: int = 0
    faults: int = 0

    def as_counters(self) -> dict[str, int]:
        return {"cycles": self.cycles, "issued_bundles": self.issued_bundles,
                "faults": self.faults}


class MAPChip:
    """A single M-Machine node."""

    def __init__(self, config: ChipConfig | None = None):
        self.config = config or ChipConfig()
        c = self.config
        # -- the trace hub (repro.obs): event spine + flight recorder.
        # Observability only — nothing below ever reads it to make a
        # decision, so cycle counts are identical with it on or off.
        self.obs = TraceHub(flight_capacity=c.flight_capacity)
        self.obs.clock = lambda: self.now
        self.memory = TaggedMemory(c.memory_bytes)
        self.frames = FrameAllocator(c.memory_bytes, c.page_bytes)
        self.page_table = PageTable(c.page_bytes, self.frames)
        self.tlb = TLB(self.page_table, entries=c.tlb_entries,
                       walk_cycles=c.tlb_walk_cycles)
        self.cache = BankedCache(
            self.memory,
            self.tlb,
            total_bytes=c.cache_bytes,
            banks=c.cache_banks,
            line_bytes=c.cache_line_bytes,
            ways=c.cache_ways,
            hit_cycles=c.cache_hit_cycles,
            external_cycles=c.external_cycles,
            xlate_memo=c.fast_paths,
        )
        self.cache.obs = self.obs
        self.tlb.obs = self.obs
        #: chip-wide ready/runnable thread totals, mirrored from the
        #: clusters' per-state counts on every transition — the run loop
        #: reads two ints per cycle instead of summing over clusters
        self._ready_count = 0
        self._runnable_count = 0
        #: clusters holding at least one ready thread (solo runs and
        #: superblock traces need exactly one)
        self._ready_clusters = 0
        self.clusters = [
            Cluster(i, self, slots=c.threads_per_cluster) for i in range(c.clusters)
        ]
        self.stats = ChipStats()
        self.fault_log: list[FaultRecord] = []
        #: kernel hook: called with (record, thread) when a thread
        #: faults; may repair and resume the thread.
        self.fault_handler: Callable[[FaultRecord, Thread], None] | None = None
        #: audit hook: called with (thread, target_pointer, new_ip,
        #: cycle) on every JMP (see repro.machine.verifier)
        self.jump_auditor: Callable | None = None
        #: multicomputer wiring (repro.machine.multicomputer): this
        #: node's id and the router that services non-local addresses
        self.node_id = 0
        self.router = None  # set through attach_router
        # -- windowed-mesh state (unused off a mesh) -------------------
        #: remote-code mirror: vaddr -> (value, tag) for code words
        #: fetched from their home node, or None as a one-shot negative
        #: (the home had no mapping; the retry faults precisely).
        #: Invalidated with the decode cache — homes broadcast when an
        #: exported word is overwritten.
        self._remote_mirror: dict[int, tuple | None] = {}
        #: code words this node has served to remote fetchers (drives
        #: the invalidation broadcast when one is overwritten)
        self._exported_code: set[int] = set()
        #: in-flight remote loads: seq -> (tid, bank, rd), resolved at
        #: the next window barrier
        self._remote_pending: dict[int, tuple[int, str, int]] = {}
        self._next_tid = 0
        self.now = 0
        # -- the decoded-bundle cache (see module docstring) ----------
        #: fetch address -> {pointer word: compiled node} for the bundle
        #: there, one node per word that passed the fetch checks;
        #: flushed on any unmap
        self._decode_cache: dict[int, dict[int, tuple]] = {}
        #: the content memo under it (see the module docstring): three
        #: untagged word values -> their decoded bundle; never flushed
        self._decoded_words: dict[tuple[int, int, int], Bundle] | None = (
            {} if c.fast_paths else None
        )
        #: superblock telemetry (plain attributes, deliberately *not*
        #: PerfCounters: counter snapshots must be bit-identical whether
        #: traces ran or not, so engine-utilization introspection lives
        #: outside the counter file)
        self.superblock_blocks = 0
        self.superblock_bundles = 0
        #: solo-run telemetry (same reasoning): dispatches of
        #: :meth:`_run_solo` and the bundles they issued
        self.solo_runs = 0
        self.solo_bundles = 0
        #: (pointer word, offset) -> derived pointer, shared by every
        #: cluster's LEA paths (IP advance, branches, address
        #: arithmetic).  LEA is a pure function of pointer bits, so
        #: entries never go stale and no invalidation exists.
        self._lea_cache: dict[tuple[int, int], GuardedPointer] | None = (
            {} if c.fast_paths else None
        )
        self.fetch_hits = 0
        self.fetch_misses = 0
        self.decode_invalidations = 0
        # -- the data-side access-check memos (see cluster._mem_address)
        #: (pointer word value, offset) -> checked virtual address, one
        #: memo per access kind (loads need READ, stores need WRITE).
        #: Like the LEA memo, entries are pure functions of the
        #: pointer's bits — permission, bounds and the derived address
        #: never depend on page-table or memory state — so nothing here
        #: can go stale and no invalidation path exists.  Faulting
        #: derivations are never cached; untagged words bypass the memo.
        self._load_check_memo: dict[tuple[int, int], int] | None = (
            {} if c.fast_paths else None
        )
        self._store_check_memo: dict[tuple[int, int], int] | None = (
            {} if c.fast_paths else None
        )
        self.check_memo_hits = 0
        self.check_memo_misses = 0
        self.page_table.add_invalidation_hook(self._on_unmap)
        # -- the performance-counter file -----------------------------
        self.counters = PerfCounters()
        self.counters.add_source("chip", self.stats.as_counters)
        self.counters.add_source("fetch", self._fetch_counters)
        self.counters.add_source("mem", self._mem_counters)
        self.counters.add_source("cache", self.cache.stats.as_counters)
        self.counters.add_source("tlb", self.tlb.stats.as_counters)
        for cluster in self.clusters:
            self.counters.add_source(f"cluster{cluster.cluster_id}",
                                     cluster.as_counters)
        self.counters.add_source("thread", self._thread_counters)
        for prefix, source in self.obs.counter_sources():
            self.counters.add_source(prefix, source)

    # -- counter sources --------------------------------------------------

    def _fetch_counters(self) -> dict[str, int]:
        return {"hits": self.fetch_hits, "misses": self.fetch_misses,
                "invalidations": self.decode_invalidations,
                "cached_bundles": len(self._decode_cache)}

    def _mem_counters(self) -> dict[str, int]:
        """The data-side access-check memo (``mem.check_memo_*``)."""
        entries = 0
        for memo in (self._load_check_memo, self._store_check_memo):
            if memo is not None:
                entries += len(memo)
        return {"check_memo_hits": self.check_memo_hits,
                "check_memo_misses": self.check_memo_misses,
                "check_memo_entries": entries}

    def _thread_counters(self) -> dict[str, int]:
        """Per-resident-thread issue counts (``thread.<tid>.bundles``)."""
        return {f"{t.tid}.bundles": t.stats.bundles
                for cl in self.clusters for t in cl.slots if t is not None}

    # -- thread management ------------------------------------------------

    def spawn(
        self,
        ip: GuardedPointer,
        domain: int = 0,
        cluster: int | None = None,
        regs: dict[int, object] | None = None,
    ) -> Thread:
        """Create a thread and place it on a cluster.

        ``regs`` pre-loads integer registers: values may be
        :class:`~repro.core.word.TaggedWord` (including pointer words)
        or plain ints.
        """
        thread = Thread(tid=self._next_tid, ip=ip, domain=domain)
        self._next_tid += 1
        if regs:
            for index, value in regs.items():
                word = value if isinstance(value, TaggedWord) else TaggedWord.integer(value)
                thread.regs.write(index, word)
        if cluster is None:
            cluster = min(range(len(self.clusters)),
                          key=lambda i: self.clusters[i].active_count)
        self.clusters[cluster].add_thread(thread)
        if self.obs.enabled:
            self.obs.emit("thread.spawn", self.now, cluster=cluster,
                          tid=thread.tid, domain=domain)
        return thread

    def all_threads(self) -> list[Thread]:
        return [t for cl in self.clusters for t in cl.live_threads()]

    def attach_router(self, router) -> None:
        """Make this chip a mesh node serviced by ``router``.  Compiled
        loads and stores bind their memory port by whether a router is
        attached, so every decoded bundle is dropped here."""
        self.router = router
        self._flush_decoded_local()

    # -- the memory port used by the clusters ----------------------------

    def access_memory(self, vaddr: int, *, write: bool, now: int, value=None):
        """One data access: the local banked cache for home addresses,
        the mesh for remote ones (multicomputer operation, §3).

        ``write``/``now``/``value`` are keyword-only — the one memory-port
        signature, and ``(word, ready_cycle, hit, bank)`` result, shared
        with :meth:`BankedCache.access` and
        :meth:`Multicomputer.remote_access`.  A store without ``value``
        raises before any decoded bundle is dropped.
        """
        router = self.router
        if write:
            if value is None:
                raise ValueError("store requires a value")
            # keep the decoded-bundle cache coherent with stores
            # (self-modifying code).  This node drops its copy now; on
            # a mesh every other node drops its copy at the window
            # barrier — before any remote observer can fetch, since no
            # cross-node traffic moves inside a window.
            self.invalidate_decoded_word(vaddr)
        if router is not None and not router.is_local(self, vaddr):
            if vaddr % WORD_BYTES:
                # alignment is a pure property of the virtual address:
                # fault at the issue site like a local access would,
                # instead of shipping a doomed message across the mesh
                raise AlignmentFault(
                    f"unaligned word access at {vaddr:#x}")
            if write:
                self._remote_mirror.pop(vaddr - (vaddr % OP_BYTES), None)
            return router.remote_access(self, vaddr, write=write,
                                        now=now, value=value)
        if write and router is not None:
            router.note_local_store(self, vaddr, now)
        return self.cache.access(vaddr, write=write, now=now, value=value)

    # -- instruction fetch ---------------------------------------------------

    def fetch(self, ip: GuardedPointer) -> tuple:
        """Fetch, decode and compile the bundle at ``ip`` (functional
        path); returns its node (:func:`~repro.machine.cluster.compile_bundle`).

        Steady state is a probe by address, then by word: compiled
        bundles are cached by fetch address, then by each pointer word
        that passed the fetch checks there.  Permission and bounds are
        pure functions of the pointer's bits, so a fetch through such a
        word can skip them; a new pointer to the same address (other
        bounds, other permission) runs the checks before reusing the
        decoded words.  Translation is re-walked whenever the cache
        cannot answer — so an unmapped code page faults exactly as
        before.

        A miss reads the three words and decodes them through the
        content memo, keyed by their values: the same code at another
        address, or rewritten back to what it was, reuses one decode.
        Tagged words bypass the memo and fail to decode as always.  The
        memo and the address cache are both ``fast_paths`` shortcuts;
        the plain machine reads and decodes on every fetch.
        """
        word = ip.word.value
        address = word & _ADDRESS_MASK
        nodes = self._decode_cache.get(address)
        if nodes is not None:
            node = nodes.get(word)
            if node is not None:
                self.fetch_hits += 1
                return node
        if not ip.permission.is_execute:
            raise PermissionFault("instruction pointer is not an execute pointer")
        if not (ip.contains(address)
                and ip.contains(address + BUNDLE_BYTES - OP_BYTES)):
            raise PermissionFault("bundle extends past the code segment")
        if nodes is not None:
            # a new pointer to an already-decoded address: checks
            # passed, so reuse the decoded bundle (no re-walk) and
            # compile it for this word, whose branch targets and
            # fall-through differ
            self.fetch_hits += 1
            bundle = next(iter(nodes.values()))[NODE_BUNDLE]
            node = nodes[word] = compile_bundle(self, bundle, ip)
            return node
        self.fetch_misses += 1
        router = self.router
        if router is not None:
            # words homed elsewhere come out of the remote-code mirror;
            # anything missing is requested at the next window barrier
            # and the fetch retries (FetchPending blocks the thread)
            mirror = self._remote_mirror
            missing = []
            for slot in range(SLOTS):
                vaddr = address + slot * OP_BYTES
                if router.is_local(self, vaddr):
                    continue
                if vaddr not in mirror:
                    missing.append(vaddr)
                elif mirror[vaddr] is None:
                    # one-shot negative: the home answered "no mapping";
                    # fault precisely on this retry
                    del mirror[vaddr]
                    raise PageFault(vaddr,
                                    f"code word at {vaddr:#x} is unmapped "
                                    f"on its home node")
            if missing:
                raise FetchPending(
                    router.fetch_remote(self, missing, self.now), address)
        words = []
        for slot in range(SLOTS):
            vaddr = address + slot * OP_BYTES
            if router is not None and not router.is_local(self, vaddr):
                value, tag = self._remote_mirror[vaddr]
                words.append(TaggedWord(value, tag))
            else:
                physical = self.page_table.walk(vaddr)
                words.append(self.memory.load_word(physical))
        memo = self._decoded_words
        w0, w1, w2 = words
        if memo is None or w0.tag or w1.tag or w2.tag:
            bundle = Bundle.decode(words)
        else:
            key = (w0.value, w1.value, w2.value)
            bundle = memo.get(key)
            if bundle is None:
                bundle = memo[key] = Bundle.decode(words)
        node = compile_bundle(self, bundle, ip)
        if self.config.fast_paths:
            self._decode_cache[address] = {word: node}
        return node

    # -- decoded-bundle invalidation ----------------------------------------

    def _on_unmap(self, virtual_page: int) -> None:
        """Page-table hook: any unmap conservatively flushes the decode
        cache (mirrors the TLB's full-flush-on-unmap policy — unmaps
        are rare, staleness is never acceptable)."""
        self._flush_decoded_local()

    def _flush_decoded_local(self) -> None:
        """Drop every decoded bundle on *this* node."""
        if self._decode_cache:
            self.decode_invalidations += len(self._decode_cache)
            self._decode_cache.clear()

    def flush_decoded(self) -> None:
        """Drop every decoded bundle — on every node, when meshed (this
        node immediately, the rest at the next window barrier)."""
        if self.router is not None:
            self.router.flush_decoded(self)
        else:
            self._flush_decoded_local()

    def store_runtime_word(self, physical: int, word: TaggedWord) -> None:
        """System-software write to **physical** memory (GC sweeps, swap
        page moves, loaders working below translation): performs the
        store and conservatively flushes the decoded-bundle cache —
        machine-wide on a multicomputer.

        Physical frames have no unique reverse translation, so a
        targeted invalidation is impossible here; the hook mirrors the
        unmap policy instead (runtime writes are rare, staleness is
        never acceptable).  Runtime code that knows the *virtual* range
        it rewrote should additionally prefer
        :meth:`invalidate_decoded_range`.
        """
        self.memory.store_word(physical, word)
        self.flush_decoded()

    def invalidate_decoded_word(self, vaddr: int) -> None:
        """Drop any cached bundle overlapping the word at ``vaddr``.

        Bundle fetch addresses are word-aligned but not bundle-size
        aligned (segments align to powers of two, bundles are 24
        bytes), so the bundles that can contain this word start at the
        word itself or one or two words earlier.
        """
        cache = self._decode_cache
        if not cache:
            return
        word = vaddr - (vaddr % OP_BYTES)
        for start in (word, word - OP_BYTES, word - 2 * OP_BYTES):
            if cache.pop(start, None) is not None:
                self.decode_invalidations += 1

    def invalidate_decoded_range(self, base: int, nbytes: int) -> None:
        """Drop every cached bundle overlapping ``[base, base+nbytes)``
        (program loaders and the swap manager rewriting a virtual range
        call this).  On a mesh the range is dropped on *every* node —
        any node may have the rewritten code decoded (this node
        immediately, the rest at the next window barrier)."""
        if self.router is not None:
            self.router.invalidate_decoded_range(self, base, nbytes)
        else:
            self._invalidate_decoded_range_local(base, nbytes)

    def _invalidate_decoded_range_local(self, base: int, nbytes: int) -> None:
        cache = self._decode_cache
        if not cache:
            return
        lo = base - (BUNDLE_BYTES - OP_BYTES)
        hi = base + nbytes
        stale = [a for a in cache if lo <= a < hi]
        for address in stale:
            del cache[address]
        self.decode_invalidations += len(stale)

    # -- fault plumbing ------------------------------------------------------

    def report_fault(self, record: FaultRecord, thread: Thread) -> None:
        self.fault_log.append(record)
        self.stats.faults += 1
        self.counters.incr(f"fault.{type(record.cause).__name__}")
        obs = self.obs
        cluster = (thread.scheduler.cluster_id
                   if obs.enabled and thread.scheduler is not None else None)
        if obs.enabled:
            obs.emit("fault.raise", record.cycle, cluster=cluster,
                     tid=thread.tid, cause=type(record.cause).__name__,
                     site=record.opcode_name, ip=record.ip_address)
        if self.fault_handler is not None:
            self.fault_handler(record, thread)
        if obs.enabled:
            # dispatch outcome + handler residency: how long the fault
            # keeps the thread out of the run (0 for an instant resume)
            state = thread._state
            if state is ThreadState.BLOCKED:
                outcome = "blocked"
                residency = max(thread.wake_at - record.cycle, 0)
            elif state is ThreadState.READY:
                outcome = "resumed"
                residency = 0
            else:
                outcome = "killed" if state is ThreadState.FAULTED else "halted"
                residency = 0
            obs.emit("fault.dispatch", record.cycle, cluster=cluster,
                     tid=thread.tid, dur=residency, outcome=outcome)
            if outcome in ("blocked", "resumed"):
                obs.fault_residency.add(residency)

    # -- the clock -------------------------------------------------------------

    #: consecutive cycles with nothing ready before run() declares a
    #: deadlock (matches the historical idle-streak bound)
    IDLE_LIMIT = 10_000

    def step(self) -> int:
        """Advance one cycle; returns bundles issued this cycle."""
        issued = 0
        now = self.now
        for cluster in self.clusters:
            if cluster._n_ready or cluster._n_blocked:
                if cluster.step(now):
                    issued += 1
            else:
                cluster.idle_cycles += 1
        self.now = now + 1
        self.stats.cycles += 1
        self.stats.issued_bundles += issued
        return issued

    # -- scheduler-count aggregation (kept incrementally by clusters) -----

    def ready_threads(self) -> int:
        return self._ready_count

    def runnable_threads(self) -> int:
        return self._runnable_count

    def next_wake(self) -> int | None:
        """Earliest wake cycle over every blocked thread, or None.  Only
        the clusters holding a blocked thread are asked."""
        wake = None
        for cluster in self.clusters:
            if cluster._n_blocked:
                w = cluster.next_wake()
                if wake is None or w < wake:
                    wake = w
        return wake

    def _stop_reason(self) -> str:
        """Why a machine with no runnable threads stopped."""
        if any(cl.faulted_count for cl in self.clusters):
            return RunReason.FAULTED
        return RunReason.HALTED

    def _run_superblock(self, horizon: int) -> int:
        """Issue straight-line bundles for the chip's single ready
        thread in one dispatch (the busy-cycle twin of idle
        fast-forward; see :meth:`Cluster.run_superblock`).

        Eligibility is a property of the whole chip, checked here once
        per dispatch: exactly one thread is ready, no cluster is
        mid-drain (pending thread or active stall), the ready thread
        would not trigger a domain-switch stall, and the run is bounded
        by the earliest blocked-thread wake-up — so until then nothing
        anywhere on the chip can act, every wake scan is a no-op, and
        the only cluster with work is the ready thread's.  Returns the
        cycles advanced (0 when the machine is not in an eligible
        state; the caller then falls back to a normal :meth:`step`).
        """
        now = self.now
        cluster = None
        for cl in self.clusters:
            if cl._n_ready:
                cluster = cl
                break
        if cluster is None:
            return 0
        thread = None
        for t in cluster.slots:
            if t is not None and t._state is ThreadState.READY:
                thread = t
                break
        if thread is None:
            return 0
        for cl in self.clusters:
            if cl._pending is not None or now < cl._stall_until:
                return 0
        penalty = self.config.domain_switch_penalty
        if (penalty and cluster.last_domain is not None
                and thread.domain != cluster.last_domain):
            return 0
        wake = self.next_wake()
        end = horizon if wake is None else min(wake, horizon)
        if end <= now:
            return 0
        return cluster.run_superblock(thread, now, end)

    def _run_solo(self, horizon: int) -> int:
        """Step the one cluster holding ready threads alone, cycle by
        cycle, for as long as nothing else on the chip can act.

        This is the per-cycle twin of a superblock trace, for several
        ready threads: every cycle still goes through
        :meth:`Cluster.step` (wake scan, round-robin select,
        domain-switch stall, fetch, issue), so threads in any mix of
        protection domains interleave exactly as stepping interleaves
        them.  What is hoisted is the chip's own per-cycle work: the
        run loop's checks, and :meth:`step`'s visit to every cluster.

        Eligibility is checked once per dispatch: no other cluster is
        mid-drain (pending thread or active stall), and the run is
        bounded by the earliest blocked-thread wake-up, so until then
        every other cluster only idles, and that is settled in bulk at
        exit.  The run also ends after any cycle that changes the
        chip's ready count (a block, halt or fault) or raises a fault
        (whose handler may act on any thread), so the caller decides
        again with fresh counts.  Returns the cycles advanced (0 when
        ineligible; the caller then steps).
        """
        start = now = self.now
        cluster = None
        for cl in self.clusters:
            if cl._n_ready:
                cluster = cl
            elif cl._pending is not None or now < cl._stall_until:
                return 0
        wake = self.next_wake()
        end = horizon if wake is None else min(wake, horizon)
        if end <= now:
            return 0
        stats = self.stats
        ready = self._ready_count
        faults = stats.faults
        step = cluster.step
        issued = 0
        while True:
            self.now = now
            if step(now):
                issued += 1
            now += 1
            if (now == end or self._ready_count != ready
                    or stats.faults != faults):
                break
        cycles = now - start
        stats.cycles += cycles
        stats.issued_bundles += issued + self._settle_others(
            cluster, start, now, stats.faults != faults)
        self.solo_runs += 1
        self.solo_bundles += issued
        return cycles

    def _settle_others(self, cluster, start: int, end: int,
                       faulted: bool) -> int:
        """Settle every cluster but ``cluster`` for cycles ``[start,
        end)`` of a solo run or trace on ``cluster``, and set the clock
        to ``end``; returns the bundles they issued.

        Until the last cycle none of them could act, so they idle.  So
        does the last cycle unless it raised a fault (``faulted``): the
        run ends before the chip's earliest wake, and eligibility kept
        every drain off.  A fault's handler may have readied a thread
        anywhere, and :meth:`step` visits clusters in index order: so
        after a fault the clusters after ``cluster`` finish that cycle
        by :meth:`step`'s rule, with the clock on it."""
        cycles = end - start
        if not faulted:
            for cl in self.clusters:
                if cl is not cluster:
                    cl.idle_cycles += cycles
            self.now = end
            return 0
        last = end - 1
        issued = 0
        self.now = last
        for cl in self.clusters:
            if cl.cluster_id < cluster.cluster_id:
                cl.idle_cycles += cycles
            elif cl is not cluster:
                cl.idle_cycles += cycles - 1
                if cl._n_ready or cl._n_blocked:
                    if cl.step(last):
                        issued += 1
                else:
                    cl.idle_cycles += 1
        self.now = end
        return issued

    def run(self, max_cycles: int = 1_000_000) -> RunResult:
        """Run until every thread is halted (or faulted with no handler
        to resume it), the machine deadlocks, or ``max_cycles`` pass.

        The loop never rebuilds thread lists: liveness comes from the
        clusters' incremental state counts, and stretches where every
        thread is blocked on memory are fast-forwarded to the earliest
        wake-up instead of being stepped one empty cycle at a time
        (cycle totals, utilization and per-cluster idle accounting are
        identical to stepping).  While every ready thread sits on one
        cluster, a lone one runs superblock traces and several run solo
        (that cluster stepped alone).  A ``fast_paths=False`` machine
        does none of this.
        """
        start_cycle = self.now
        start_bundles = self.stats.issued_bundles
        idle_streak = 0
        fast = self.config.fast_paths
        # no superblock traces on a mesh node: the trace loop has no
        # REMOTE_WAIT exit, so a remote load inside a trace would be
        # charged as a stall of ~2**60 cycles.  (Adding that exit does
        # not pay: the windows cut traces to ~4 bundles, and serve_mesh
        # measured no faster; PERF.md §6.)  Solo runs share the gate,
        # so a mesh node still steps every cycle (ROADMAP).
        turbo = fast and self.router is None
        while self.now - start_cycle < max_cycles:
            if self._runnable_count == 0:
                return RunResult(self.now - start_cycle,
                                 self.stats.issued_bundles - start_bundles,
                                 self._stop_reason())
            if fast and self._ready_count == 0:
                # Everyone is blocked on the memory system: jump the
                # clock to the first wake-up (bounded by the cycle
                # budget and the deadlock limit).
                wake = self.next_wake()
                horizon = start_cycle + max_cycles
                target = min(wake, horizon)
                if idle_streak + (target - self.now) > self.IDLE_LIMIT:
                    skip = self.IDLE_LIMIT - idle_streak + 1
                    self._skip_idle(min(skip, horizon - self.now))
                    return RunResult(self.now - start_cycle,
                                     self.stats.issued_bundles - start_bundles,
                                     RunReason.DEADLOCK)
                if target > self.now:
                    idle_streak += target - self.now
                    self._skip_idle(target - self.now)
                    continue
            if turbo and self._ready_clusters == 1:
                # one cluster can issue: step it alone while several
                # threads are ready there; a lone one tries to run its
                # whole straight-line superblock in one dispatch (hot
                # tracing wants a per-bundle event stream, so traces
                # opt out)
                horizon = start_cycle + max_cycles
                if self._ready_count > 1:
                    advanced = self._run_solo(horizon)
                elif self.obs.hot:
                    advanced = 0
                else:
                    advanced = self._run_superblock(horizon)
                if advanced:
                    idle_streak = 0
                    continue
            issued = self.step()
            if issued == 0 and self._ready_count == 0:
                idle_streak += 1
                # every runnable thread is blocked; fast-forward sanity
                if idle_streak > self.IDLE_LIMIT:
                    return RunResult(self.now - start_cycle,
                                     self.stats.issued_bundles - start_bundles,
                                     RunReason.DEADLOCK)
            else:
                idle_streak = 0
        return RunResult(max_cycles, self.stats.issued_bundles - start_bundles,
                         RunReason.MAX_CYCLES)

    def advance_idle(self, cycles: int) -> None:
        """Publicly advance the clock over guaranteed-idle cycles.

        Only legal while nothing is runnable (every thread halted or
        faulted): the load driver uses this to move the machine to the
        next request arrival after :meth:`run` drained early.  Timing
        is identical to stepping the idle machine cycle by cycle."""
        if self._runnable_count:
            raise ValueError("cannot skip cycles while threads are runnable")
        if cycles > 0:
            self._skip_idle(cycles)

    def _skip_idle(self, cycles: int) -> None:
        """Advance the clock over ``cycles`` guaranteed-idle cycles,
        charging each cluster the idle time stepping would have."""
        self.now += cycles
        self.stats.cycles += cycles
        self.counters.incr("chip.idle_skipped_cycles", cycles)
        for cluster in self.clusters:
            cluster.idle_cycles += cycles

    # -- persistence (repro.persist) -----------------------------------

    def capture_state(self) -> dict:
        """This node's complete machine state as a JSON-safe dict (see
        :func:`repro.persist.state.capture_chip`).  Pair with
        :meth:`restore_state`; :class:`repro.sim.api.Simulation` wraps
        both behind ``save``/``load``."""
        from repro.persist.state import capture_chip

        return capture_chip(self)

    def restore_state(self, state: dict) -> None:
        """Overwrite this node's state with a captured image.  The chip
        must have the snapshot's architectural shape; ``fast_paths``
        may differ (it changes zero cycles)."""
        from repro.persist.state import restore_chip_state

        restore_chip_state(self, state)
