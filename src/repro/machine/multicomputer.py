"""The M-Machine as a multicomputer (§3) — windowed mesh engine.

Multiple MAP nodes share the single 54-bit global address space: the
high-order address bits name the *home node* of every byte.  A guarded
pointer therefore works unchanged across the machine — permission and
bounds checks still happen in the issuing node's execution units, and
no node needs any table describing another node's protection state.
That is the multicomputer half of the paper's story: capability
protection with zero distributed bookkeeping.

Remote accesses travel the 3-D mesh (request and reply through
:class:`~repro.machine.network.MeshNetwork`), are serviced by the home
node's memory, and are not cached locally (the real M-Machine cached
remote blocks under an LTLB protocol; bypassing keeps the model simple
and conservative — remote stays slower than local, which is the only
property the experiments rely on).

**The window protocol.**  The mesh has a hard minimum one-way latency:
two interface crossings plus at least one hop
(``2*interface_cycles + hop_cycles``).  That bound is exactly the
*lookahead* a conservative parallel-discrete-event engine needs — a
message injected at cycle ``T`` cannot affect its destination before
``T + W`` — so the machine advances in windows of ``W`` cycles:

* within a window every node runs **independently**; all cross-node
  traffic (remote loads/stores, remote code-word fetches, decode-cache
  invalidations, flushes) is queued in per-node outboxes instead of
  touching another node's state directly;
* at each window barrier the queued messages are sorted by the
  deterministic key ``(cycle, src_node, seq)``, network timing is
  computed in that order (reproducing the injection-port serialisation
  a cycle-interleaved engine would see), home nodes service the
  requests in that order, and replies/invalidations are applied back
  at the sources in that order.

Because nodes never interact inside a window, the window loop
(:meth:`Multicomputer.run`, :meth:`~Multicomputer.step`,
:meth:`~Multicomputer.advance_idle`, the barrier exchange and
:meth:`~Multicomputer.drain_to_barrier`) is written once, over a *shard
transport* — the verbs that advance, idle, drain and service a set of
nodes.  :class:`LocalShards` calls them directly on this process's
nodes (``workers=1``);
:class:`~repro.machine.parallel.ParallelMulticomputer` sends them down
pipes to worker processes, each hosting a :class:`LocalShards` over its
slice of the nodes.  Any ownership map produces **bit-identical**
machines — the partitioned-vs-lockstep fuzz axis checks the pipes
against the in-process transport continuously.

Semantics under the protocol (visible differences from a
cycle-interleaved engine, all bounded by one window):

* remote stores are *posted*: the issuing thread proceeds immediately
  (it never blocked on stores before either) and the word lands in the
  home memory at the barrier, timestamped with its true network
  arrival;
* a remote load blocks its thread on the :data:`REMOTE_WAIT` sentinel;
  the barrier computes the true reply cycle ``R`` (always ≥ the next
  barrier, by the lookahead bound) and rewrites the wake-up;
* remote *code* words are mirrored: a fetch touching words homed
  elsewhere requests them at the barrier and retries out of the
  per-chip mirror.  Homes remember which code words they exported and
  broadcast invalidations when those words are overwritten, so the
  mirror obeys the same coherence contract as the decoded-bundle
  cache;
* demand paging for remote accesses happens home-side at the barrier
  (the home kernel maps the page and the access retries in place), so
  machine-wide lazy allocation works exactly as before — without a
  fault/resume round trip through the issuing thread;
* revocation (unmap/flush) propagates at window granularity: the local
  node drops its own state immediately, every other node at the next
  barrier.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter

from repro.core.constants import ADDRESS_BITS
from repro.core.exceptions import PageFault
from repro.core.pointer import GuardedPointer
from repro.core.word import TaggedWord
from repro.machine.chip import ChipConfig, MAPChip, RunReason, RunResult
from repro.machine.counters import merge_snapshots
from repro.machine.faults import FaultRecord
from repro.machine.isa import OP_BYTES
from repro.machine.network import MeshNetwork, MeshShape
from repro.machine.registers import word_to_float
from repro.machine.thread import REMOTE_WAIT, Thread, ThreadState
from repro.mem.cache import AccessResult
from repro.runtime.kernel import Kernel


def node_bits_for(nodes: int) -> int:
    """Address bits reserved to name the home node."""
    if nodes <= 0:
        raise ValueError("need at least one node")
    return max(nodes - 1, 0).bit_length()


@dataclass(frozen=True, slots=True)
class Partition:
    """The global-address-space carve-up across nodes."""

    node_bits: int

    @property
    def shift(self) -> int:
        return ADDRESS_BITS - self.node_bits

    def home_of(self, vaddr: int) -> int:
        return vaddr >> self.shift if self.node_bits else 0

    def base_of(self, node: int) -> int:
        return node << self.shift

    def span(self) -> int:
        """Bytes of address space per node."""
        return 1 << self.shift


#: the barrier's batch order: (cycle, src_node, seq)
_MESSAGE_ORDER = itemgetter(1, 2, 3)

_ZERO_WORD = TaggedWord.zero()
#: every remote load's port result: the barrier supplies the word and
#: rewrites the wake-up with the true reply cycle
_REMOTE_LOAD = AccessResult(_ZERO_WORD, REMOTE_WAIT, False, -1)


def window_cycles(hop_cycles: int, interface_cycles: int) -> int:
    """The conservative lookahead: the minimum one-way latency of any
    cross-node message (source interface + one hop + destination
    interface), floored at 1 cycle."""
    return max(1, 2 * interface_cycles + hop_cycles)


class Multicomputer:
    """A mesh of MAP nodes over one global address space, advanced in
    conservative lookahead windows (see the module docstring).

    Each node gets its own :class:`~repro.runtime.kernel.Kernel` whose
    arena lives inside the node's partition; page faults on remote
    addresses are serviced by the home node's kernel at the window
    barrier, so demand paging works machine-wide.
    """

    def __init__(self, shape: MeshShape | None = None,
                 chip_config: ChipConfig | None = None,
                 hop_cycles: int = 5, interface_cycles: int = 10,
                 arena_order: int = 30):
        self.shape = shape or MeshShape()
        self.network = MeshNetwork(self.shape, hop_cycles=hop_cycles,
                                   interface_cycles=interface_cycles)
        self.partition = Partition(node_bits_for(self.shape.nodes))
        if arena_order > self.partition.shift:
            raise ValueError("arena larger than a node's partition")
        config = chip_config or ChipConfig()
        self.chips: list[MAPChip] = []
        self.kernels: list[Kernel] = []
        for node in range(self.shape.nodes):
            chip = MAPChip(config)
            chip.node_id = node
            chip.obs.node = node
            chip.attach_router(self)
            arena_base = self.partition.base_of(node) + (1 << arena_order)
            kernel = Kernel(chip, arena_base=arena_base,
                            arena_order=arena_order)
            # remote page faults never reach a thread anymore — the
            # home kernel demand-pages at the barrier — so the local
            # kernel's own handler is the whole fault story
            chip.fault_handler = kernel._handle_fault
            self.chips.append(chip)
            self.kernels.append(kernel)
        # Any unmap anywhere must reach every node's decoded-bundle
        # cache and remote-code mirror: a thread may be executing code
        # homed on another node, and revocation-by-unmap (§4.3) is
        # machine-wide.  The unmapping chip's own hook already flushed
        # locally; the machine hook broadcasts to everyone else at the
        # next window barrier.
        for chip in self.chips:
            chip.page_table.add_invalidation_hook(self._make_unmap_hook(chip))
        self.network.obs_lookup = lambda node: self.chips[node].obs
        self.arena_order = arena_order
        #: migration forwarding map: virtual page → current home node,
        #: for pages moved off their partition-defined home node by
        #: repro.persist.migrate.  Pointers are never rewritten when a
        #: process migrates — the bits in every register and memory
        #: word stay put — so this page-granular map (a translation
        #: artifact, like the page table) is the *only* state that
        #: changes when pages change nodes.
        self._page_homes: dict[int, int] = {}
        self._page_bytes = config.page_bytes
        #: home_of's shift (the partition's, or past any address on one
        #: node, whose every address is home) and the node count it
        #: checks the result against
        self._home_shift = (self.partition.shift if self.partition.node_bits
                            else 64)
        self._node_count = len(self.chips)
        # -- window-engine state ---------------------------------------
        #: conservative lookahead: barrier spacing in cycles
        self.window = window_cycles(hop_cycles, interface_cycles)
        #: absolute cycle of the next window barrier
        self._next_barrier = self.window
        #: per-node outbox of cross-node messages queued this window
        self._outbox: list[list[list]] = [[] for _ in self.chips]
        #: per-node message sequence counters (the third component of
        #: the deterministic barrier sort key)
        self._seq: list[int] = [0] * len(self.chips)
        #: (src, seq) of the most recently queued remote load, so the
        #: cluster can attach its destination register immediately
        self._last_load: tuple[int, int] = (0, -1)
        self._external_cycles = config.external_cycles
        #: the transport the window loop drives: every node in this
        #: process, until the sharded engine installs its pipes
        self.shards = LocalShards(self)

    def home_of(self, vaddr: int) -> int:
        """The node currently holding ``vaddr``: the partition's static
        assignment unless migration moved the page.

        Node counts that are not a power of two leave the tail of the
        partition space unpopulated (6 nodes span 8 three-bit homes):
        an address whose high bits name a missing node has *no* home,
        so it raises :class:`PageFault` — the same fault an unmapped
        page takes — instead of letting a forged pointer index past the
        chip list."""
        if self._page_homes:
            home = self._page_homes.get(vaddr // self._page_bytes)
            if home is not None:
                return home
        home = vaddr >> self._home_shift
        if home >= self._node_count:
            raise PageFault(vaddr,
                            f"address {vaddr:#x} names node {home} of a "
                            f"{len(self.chips)}-node machine")
        return home

    def rehome_page(self, page: int, node: int) -> None:
        """Point a virtual page's home at ``node`` (migration's half of
        the translation update; the page's words move separately)."""
        if not 0 <= node < len(self.chips):
            raise ValueError(f"node id out of range: {node}")
        if self.partition.home_of(page * self._page_bytes) == node:
            self._page_homes.pop(page, None)  # back on its static home
        else:
            self._page_homes[page] = node

    # -- the per-node outbox -----------------------------------------------

    def _enqueue(self, src: int, message: list) -> int:
        """Queue a cross-node message; returns its sequence number (the
        message's third field, already filled in by the caller via
        :meth:`_next_seq`)."""
        self._outbox[src].append(message)
        return message[3]

    def _next_seq(self, src: int) -> int:
        seq = self._seq[src]
        self._seq[src] = seq + 1
        return seq

    def _make_unmap_hook(self, chip: MAPChip):
        def hook(_virtual_page: int) -> None:
            src = chip.node_id
            self._enqueue(src, ["flush", chip.now, src,
                                self._next_seq(src)])
        return hook

    # -- decode-cache coherence (router half) ------------------------------

    def note_local_store(self, chip: MAPChip, vaddr: int, now: int) -> None:
        """A store on ``chip`` to an address it homes: if that code
        word was ever exported to a remote fetcher, broadcast an
        invalidation so every mirror and decode cache drops it at the
        next barrier (the local caches were already dropped at issue)."""
        aligned = vaddr - (vaddr % OP_BYTES)
        if aligned in chip._exported_code:
            chip._exported_code.discard(aligned)
            src = chip.node_id
            self._enqueue(src, ["inv", now, src, self._next_seq(src),
                                aligned])

    def invalidate_decoded_range(self, chip: MAPChip, base: int,
                                 nbytes: int) -> None:
        """Machine-wide half of :meth:`MAPChip.invalidate_decoded_range`:
        drop the range locally now, everywhere else at the barrier."""
        chip._invalidate_decoded_range_local(base, nbytes)
        src = chip.node_id
        self._enqueue(src, ["invr", chip.now, src, self._next_seq(src),
                            base, nbytes])

    def flush_decoded(self, chip: MAPChip) -> None:
        """Machine-wide half of :meth:`MAPChip.flush_decoded` (runtime
        physical stores cannot be reverse-translated on any node)."""
        chip._flush_decoded_local()
        src = chip.node_id
        self._enqueue(src, ["flush", chip.now, src, self._next_seq(src)])

    # -- the router contract used by MAPChip.access_memory ---------------

    def is_local(self, chip: MAPChip, vaddr: int) -> bool:
        return self.home_of(vaddr) == chip.node_id

    def remote_access(self, chip: MAPChip, vaddr: int, *, write: bool,
                      now: int, value: TaggedWord | None = None) -> AccessResult:
        """Queue an access whose home is another node (keyword-only
        port signature and tuple result, shared with
        ``MAPChip.access_memory`` and ``BankedCache.access``).

        Stores are posted (the thread proceeds; the word lands at the
        barrier).  Loads return the :data:`REMOTE_WAIT` sentinel as
        their ready cycle — the cluster blocks the thread on it and the
        barrier rewrites the wake-up with the true reply cycle.  A store
        without ``value`` raises before it takes a sequence number."""
        if write and value is None:
            raise ValueError("store requires a value")
        src = chip.node_id
        seq = self._next_seq(src)
        if write:
            chip.counters.incr("router.remote_writes")
            self._enqueue(src, ["st", now, src, seq, vaddr,
                                value.value, value.tag])
            return tuple.__new__(AccessResult, (_ZERO_WORD, now, False, -1))
        chip.counters.incr("router.remote_reads")
        self._enqueue(src, ["ld", now, src, seq, vaddr])
        self._last_load = (src, seq)
        return _REMOTE_LOAD

    def bind_remote_load(self, chip: MAPChip, tid: int, bank: str,
                         rd: int) -> None:
        """Attach the destination register of the remote load this chip
        just issued (the cluster calls this immediately after seeing
        the :data:`REMOTE_WAIT` sentinel)."""
        src, seq = self._last_load
        chip._remote_pending[seq] = (tid, bank, rd)

    def fetch_remote(self, chip: MAPChip, vaddrs: list[int],
                     now: int) -> int:
        """Request remote code words for an instruction fetch; returns
        the barrier cycle at which the mirror will hold them (the
        cluster blocks the thread until then and retries).

        A bundle straddling a partition edge can name words with two
        different homes, so the request is split per home node — each
        home services exactly its own words."""
        src = chip.node_id
        by_home: dict[int, list[int]] = {}
        for vaddr in vaddrs:
            by_home.setdefault(self.home_of(vaddr), []).append(vaddr)
        for home in sorted(by_home):
            self._enqueue(src, ["fetch", now, src, self._next_seq(src),
                                by_home[home]])
        return self._next_barrier

    # -- the window barrier ------------------------------------------------

    def _home_translate(self, home_node: int, vaddr: int) -> int | None:
        """Functional translation at the home node, demand-paging
        through the home kernel on a miss (the barrier-time equivalent
        of the old fault-forwarding path).  Returns the physical
        address, or None when the address is genuinely unmapped."""
        home = self.chips[home_node]
        try:
            return home.cache.translate_functional(vaddr)
        except PageFault:
            if not self.kernels[home_node]._demand_page(vaddr):
                return None
            try:
                return home.cache.translate_functional(vaddr)
            except PageFault:
                return None

    def _apply_home_op(self, msg: list, home_node: int) -> list:
        """Service one request at its home node; returns the reply
        payload (delivered back to the source in phase B).  Runs at the
        home — in the sharded engine this executes inside the worker
        process that owns ``home_node``."""
        kind = msg[0]
        home = self.chips[home_node]
        if kind == "st":
            _, _t, _src, _seq, vaddr, value, tag = msg
            physical = self._home_translate(home_node, vaddr)
            if physical is None:
                return ["sterr", vaddr]
            home.memory.store_word(physical, TaggedWord(value, tag))
            # the remote writer's invalidation fan-out (phase B) covers
            # every mirror; the home's exported record is now stale
            home._exported_code.discard(vaddr - (vaddr % OP_BYTES))
            return ["stdone"]
        if kind == "ld":
            _, _t, _src, _seq, vaddr = msg
            physical = self._home_translate(home_node, vaddr)
            if physical is None:
                return ["lderr", vaddr]
            word = home.memory.load_word(physical)
            return ["lddone", value_pair(word)]
        if kind == "fetch":
            fills = []
            for vaddr in msg[4]:
                physical = self._home_translate(home_node, vaddr)
                if physical is None:
                    fills.append([vaddr, None])
                    continue
                word = home.memory.load_word(physical)
                home._exported_code.add(vaddr - (vaddr % OP_BYTES))
                fills.append([vaddr, value_pair(word)])
            return ["fetched", fills]
        raise AssertionError(f"not a home-serviced message: {kind!r}")

    def _plan_barrier(self, messages: list[list]):
        """Phase A, network half: charge the mesh for every request +
        reply in deterministic order and split the batch into per-home
        service lists and per-node invalidation fan-outs.

        Returns ``(home_ops, timing)`` where ``home_ops`` maps home
        node → ordered ``(index, msg)`` pairs and ``timing`` maps
        message index → ``(arrive, reply)`` cycles for the timed kinds.
        Pure function of the batch plus network state — the sharded
        engine runs it on the coordinator, which owns the mesh."""
        home_ops: dict[int, list] = {}
        timing: dict[int, tuple[int, int]] = {}
        for index, msg in enumerate(messages):
            kind = msg[0]
            if kind in ("st", "ld"):
                t, src, vaddr = msg[1], msg[2], msg[4]
                home = self.home_of(vaddr)
                arrive = self.network.deliver(src, home, t)
                serviced = arrive + self._external_cycles
                reply = self.network.deliver(home, src, serviced)
                timing[index] = (arrive, reply)
                home_ops.setdefault(home, []).append((index, msg))
            elif kind == "fetch":
                # code-word fetch is functional (no timing charge), as
                # instruction fetch always was
                home = self.home_of(msg[4][0])
                home_ops.setdefault(home, []).append((index, msg))
            # inv / invr / flush broadcasts carry no home-side work:
            # they become per-destination effects in _route_effects
        return home_ops, timing

    def _apply_effects(self, chip: MAPChip, effects: list) -> None:
        """Phase B at one node: apply replies and invalidation fan-outs
        in global batch order.  ``effects`` is a list of
        ``(index, payload)`` pairs already sorted by ``index``; runs at
        the owning node — in the sharded engine, inside its worker."""
        for _index, effect in effects:
            kind = effect[0]
            if kind == "fill":
                for vaddr, pair in effect[1]:
                    chip._remote_mirror[vaddr] = (None if pair is None
                                                  else tuple(pair))
            elif kind == "inv":
                vaddr = effect[1]
                chip.invalidate_decoded_word(vaddr)
                chip._remote_mirror.pop(vaddr - (vaddr % OP_BYTES), None)
            elif kind == "invr":
                base, nbytes = effect[1], effect[2]
                chip._invalidate_decoded_range_local(base, nbytes)
                mirror = chip._remote_mirror
                if mirror:
                    lo = base - (base % OP_BYTES)
                    hi = base + nbytes
                    for vaddr in [a for a in mirror if lo <= a < hi]:
                        del mirror[vaddr]
            elif kind == "flush":
                chip._flush_decoded_local()
                chip._remote_mirror.clear()
            elif kind == "lddone":
                t, seq, reply, pair = effect[1], effect[2], effect[3], effect[4]
                self._finish_remote_load(chip, t, seq, reply, pair)
            elif kind == "lderr":
                t, seq, vaddr = effect[1], effect[2], effect[3]
                self._fail_remote_load(chip, seq, vaddr)
            elif kind == "stdone":
                t, reply = effect[1], effect[2]
                chip.counters.incr("router.remote_cycles", reply - t)
                if chip.obs.enabled:
                    chip.obs.remote_latency.add(reply - t)
            elif kind == "sterr":
                t, vaddr = effect[1], effect[2]
                self._fail_remote_store(chip, vaddr, t)
            else:
                raise AssertionError(f"unknown barrier effect {kind!r}")

    def _finish_remote_load(self, chip: MAPChip, t: int, seq: int,
                            reply: int, pair) -> None:
        binding = chip._remote_pending.pop(seq, None)
        chip.counters.incr("router.remote_cycles", reply - t)
        if chip.obs.enabled:
            chip.obs.remote_latency.add(reply - t)
            chip.obs.load_to_use.add(reply - t)
        if binding is None:
            return  # thread was reaped mid-flight; the value is dropped
        tid, bank, rd = binding
        thread = _thread_by_tid(chip, tid)
        if thread is None:
            return
        word = TaggedWord(pair[0], pair[1])
        value = word if bank == "r" else word_to_float(word)
        if (thread._state is ThreadState.BLOCKED
                and thread.wake_at == REMOTE_WAIT):
            thread.pending_writes.append((bank, rd, value))
            thread.stats.stall_cycles += reply - (t + 1)
            thread.wake_at = reply
        else:
            # the thread was resumed some other way (kernel repair);
            # land the value directly, as a completed load would have
            if bank == "r":
                thread.regs.write(rd, value)
            else:
                thread.regs.write_f(rd, value)

    def _fail_remote_load(self, chip: MAPChip, seq: int, vaddr: int) -> None:
        binding = chip._remote_pending.pop(seq, None)
        if binding is None:
            return
        tid, _bank, _rd = binding
        thread = _thread_by_tid(chip, tid)
        if thread is None:
            return
        if thread.wake_at == REMOTE_WAIT and thread._state is ThreadState.BLOCKED:
            thread.wake_at = chip.now
            thread.pending_writes.clear()
        record = FaultRecord(
            thread_id=tid, cycle=chip.now,
            cause=PageFault(vaddr, f"remote load from unmapped {vaddr:#x}"),
            opcode_name="remote-load", ip_address=thread.ip.address)
        thread.record_fault(record)
        chip.report_fault(record, thread)

    def _fail_remote_store(self, chip: MAPChip, vaddr: int, t: int) -> None:
        # posted-store semantics: the fault is asynchronous and
        # imprecise (the storing thread has moved on; it may even have
        # halted).  The record lands in the chip's fault log either way.
        record = FaultRecord(
            thread_id=-1, cycle=chip.now,
            cause=PageFault(vaddr, f"remote store to unmapped {vaddr:#x}"),
            opcode_name="remote-store", ip_address=0)
        chip.fault_log.append(record)
        chip.stats.faults += 1
        chip.counters.incr(f"fault.{type(record.cause).__name__}")
        if chip.obs.enabled:
            chip.obs.emit("fault.raise", record.cycle, tid=-1,
                          cause="PageFault", site="remote-store", ip=0)

    def _route_effects(self, messages, timing, replies) -> dict[int, list]:
        """Turn home-service replies + broadcast invalidations into
        per-destination effect lists, each sorted by global batch
        index.  ``replies`` maps message index → reply payload.  Only
        the nodes that receive an effect get a list."""
        per_node: dict[int, list] = {}
        nodes = range(len(self.chips))
        for index, msg in enumerate(messages):
            kind = msg[0]
            t, src = msg[1], msg[2]
            to_src = to_others = None
            if kind == "st":
                reply = replies[index]
                if reply[0] == "stdone":
                    to_src = ["stdone", t, timing[index][1]]
                else:
                    to_src = ["sterr", t, reply[1]]
                # unconditional invalidation fan-out: any node may have
                # the written word decoded or mirrored
                to_others = ["inv", msg[4]]
            elif kind == "ld":
                reply = replies[index]
                if reply[0] == "lddone":
                    to_src = ["lddone", t, msg[3], timing[index][1], reply[1]]
                else:
                    to_src = ["lderr", t, msg[3], reply[1]]
            elif kind == "fetch":
                to_src = ["fill", replies[index][1]]
            elif kind in ("inv", "invr", "flush"):
                to_others = [kind, *msg[4:]]
            if to_src is not None:
                if src in per_node:
                    per_node[src].append((index, to_src))
                else:
                    per_node[src] = [(index, to_src)]
            if to_others is not None:
                for node in nodes:
                    if node == src:
                        continue
                    if node in per_node:
                        per_node[node].append((index, to_others))
                    else:
                        per_node[node] = [(index, to_others)]
        return per_node

    def _barrier(self) -> None:
        """Exchange one window's traffic: the messages the shards have
        drained, in the deterministic (cycle, src_node, seq) order a
        cycle-interleaved engine would have presented them to the
        network and the home memories.  Phase A plans on this machine,
        which owns the mesh and the migration forwarding map; the
        shards owning the home nodes service the requests and the
        shards owning the destinations apply the effects."""
        shards = self.shards
        messages = shards.messages
        if not messages:
            return
        shards.messages = []
        messages.sort(key=_MESSAGE_ORDER)
        home_ops, timing = self._plan_barrier(messages)
        replies = shards.home_ops(home_ops)
        shards.effects(self._route_effects(messages, timing, replies))

    # -- global-kernel conveniences ----------------------------------------

    def allocate_on(self, node: int, nbytes: int, perm=None,
                    eager: bool = False) -> GuardedPointer:
        kwargs = {} if perm is None else {"perm": perm}
        return self.kernels[node].allocate_segment(nbytes, eager=eager, **kwargs)

    def load_on(self, node: int, source, **kwargs) -> GuardedPointer:
        return self.kernels[node].load_program(source, **kwargs)

    def spawn_on(self, node: int, entry: GuardedPointer, **kwargs) -> Thread:
        return self.kernels[node].spawn(entry, **kwargs)

    # -- machine-wide performance counters ---------------------------------

    def counters_snapshot(self) -> dict[str, int | float]:
        """Every node's counter file merged into one view: bare names
        are machine-wide sums, ``node<N>.*`` names stay per-node."""
        return merge_snapshots(self.shards.counters())

    # -- the machine-wide clock (the window loop) ----------------------------

    def all_threads(self) -> list[Thread]:
        return [t for chip in self.chips for t in chip.all_threads()]

    def _window(self, end: int) -> int:
        """Advance every node independently to cycle ``end`` (the
        barrier or the run deadline) and, at the barrier, exchange the
        window's traffic; returns bundles issued.  Nodes that went
        quiet mid-window idle along to ``end`` while the machine is
        still alive, as lockstep stepping would have charged them."""
        shards = self.shards
        barrier = self._next_barrier
        at_barrier = end == barrier
        issued = shards.advance(end, barrier, at_barrier)
        if shards.runnable():
            shards.skip_to(end)
        if at_barrier:
            self._barrier()
            self._next_barrier = barrier + self.window
        return issued

    def step(self, cycles: int = 1) -> int:
        """Advance every node ``cycles`` cycles; returns bundles issued
        machine-wide.  Barriers fire exactly when the clock reaches
        them, identically to :meth:`run`: nodes are independent inside
        a window, so stepping each node up to the next barrier is the
        same as interleaving them cycle by cycle."""
        shards = self.shards
        issued = 0
        while cycles > 0:
            barrier = self._next_barrier
            now = shards.now()
            k = min(cycles, max(1, barrier - now))
            at_barrier = now + k >= barrier
            issued += shards.step(k, barrier, at_barrier)
            if at_barrier:
                self._barrier()
                self._next_barrier = barrier + self.window
            cycles -= k
        return issued

    def advance_idle(self, cycles: int) -> None:
        """Machine-wide half of :meth:`MAPChip.advance_idle`: skip
        guaranteed-idle cycles on every node.  Any in-flight window
        traffic drains first (nothing runnable can observe the early
        exchange), and the barrier grid re-anchors past the skip."""
        shards = self.shards
        if shards.runnable():
            raise ValueError("cannot skip cycles while threads are runnable")
        if cycles <= 0:
            return
        shards.collect()
        self._barrier()
        shards.skip_all(cycles)
        now = shards.now()
        if self._next_barrier <= now:
            self._next_barrier = now + self.window

    def run(self, max_cycles: int = 1_000_000) -> RunResult:
        """Advance the machine in lookahead windows until every thread
        stops (see the module docstring).  Within a window each node
        runs independently; barriers exchange the queued traffic.

        The loop keeps the clock itself: a window that leaves the
        machine runnable leaves every node at its end (the quiet ones
        idled there), so only a stop re-reads the nodes' clocks."""
        shards = self.shards
        start = now = shards.now()
        deadline = start + max_cycles
        issued = 0
        while True:
            if not shards.runnable():
                # Threads may be done while posted stores / broadcasts
                # are still queued: drain them early (nothing runnable
                # can observe the exchange), re-align every node to the
                # last cycle any node actually reached — the cycle
                # lockstep would have stopped at — and report why.
                shards.collect()
                self._barrier()
                now = shards.now()
                shards.skip_to(now)
                if shards.runnable():
                    continue  # defensive; barrier effects cannot wake
                reason = (RunReason.FAULTED if shards.faulted()
                          else RunReason.HALTED)
                return RunResult(now - start, issued, reason)
            if now >= deadline:
                return RunResult(now - start, issued, RunReason.MAX_CYCLES)
            end = self._next_barrier
            if end > deadline:
                end = deadline
            issued += self._window(end)
            now = end

    def drain_to_barrier(self) -> None:
        """Bring the machine to a message-quiet point: if any window
        traffic is pending, advance to the next barrier and exchange it
        (so the clock may move forward by up to one window).  At a
        quiet point — right after any barrier — this moves nothing.
        The sharded engine drains before every sync back."""
        shards = self.shards
        shards.collect()
        if not shards.messages:
            return
        if shards.runnable() and shards.now() < self._next_barrier:
            self._window(self._next_barrier)
        else:
            self._barrier()

    # -- persistence (repro.persist) -----------------------------------

    def windows_state(self) -> dict:
        """The window engine's machine-level state (per-chip mirror /
        exported / pending state rides in each chip's image)."""
        return {
            "next_barrier": self._next_barrier,
            "seq": list(self._seq),
            "outbox": [list(box) for box in self._outbox],
        }

    def restore_windows_state(self, state: dict) -> None:
        self._next_barrier = int(state["next_barrier"])
        self._seq = [int(s) for s in state["seq"]]
        self._outbox = [[list(m) for m in box] for box in state["outbox"]]

    def capture_state(self) -> dict:
        """The whole machine — every node, the mesh timing state and
        the migration forwarding map — as one JSON-safe payload (see
        :func:`repro.persist.image.capture_multicomputer`)."""
        from repro.persist.image import capture_multicomputer

        return capture_multicomputer(self)

    def restore_state(self, state: dict) -> None:
        from repro.persist.image import restore_multicomputer_state

        restore_multicomputer_state(self, state)


class LocalShards:
    """The in-process shard transport: the window loop's verbs, called
    directly on the ``owned`` nodes of an in-process machine.

    A :class:`Multicomputer` drives one over every node; each worker
    process of the sharded engine (:mod:`repro.machine.parallel`) hosts
    one over its slice of a restored copy, so both engines run these
    very verbs.  ``machine`` supplies ``chips`` and ``kernels`` (a
    single-node :class:`~repro.sim.api.Simulation` passes itself and
    uses only the workload verbs); the loop verbs also use its window
    state."""

    workers = 1
    #: the nodes live here, so the machine is always the current one
    #: and direct edits are always legal
    authoritative = True

    def __init__(self, machine, owned=None):
        self.machine = machine
        self.owned = (list(range(len(machine.chips))) if owned is None
                      else list(owned))
        #: window traffic drained from the owned outboxes, awaiting the
        #: barrier
        self.messages: list[list] = []
        #: per-node span-level sinks attached by :meth:`trace_on`
        self._sinks: dict[int, list] = {}

    # -- what the loop reads ---------------------------------------------

    def now(self) -> int:
        """The furthest node's clock (all nodes share it between
        loop calls)."""
        chips = self.machine.chips
        now = 0
        for n in self.owned:
            if chips[n].now > now:
                now = chips[n].now
        return now

    def runnable(self) -> bool:
        chips = self.machine.chips
        for n in self.owned:
            if chips[n]._runnable_count:
                return True
        return False

    def faulted(self) -> bool:
        chips = self.machine.chips
        for n in self.owned:
            for cluster in chips[n].clusters:
                if cluster.faulted_count:
                    return True
        return False

    # -- the loop's verbs --------------------------------------------------

    def advance(self, end: int, next_barrier: int, drain: bool) -> int:
        """Run each node on its own up to cycle ``end``; returns bundles
        issued.  Within a window no cross-node interaction exists, so
        this is exactly the single-chip engine.  A node that goes quiet
        stops at its last live cycle; the loop re-aligns clocks once it
        knows whether the whole machine stopped.  ``drain`` collects
        the window's traffic for the barrier.

        With ``fast_paths``, a quiet node — no ready thread and no wake
        before ``end`` — is not run: all ``chip.run`` would do is
        idle-skip it to ``end``, so the skip is made directly (here,
        not by the loop's ``skip_to``, so a sharded worker whose nodes
        are all quiet still reports them at ``end`` and gets no extra
        round trip).  The plain machine runs it, stepping every
        cycle."""
        machine = self.machine
        machine._next_barrier = next_barrier  # fetch_remote reads it
        chips = machine.chips
        issued = 0
        for n in self.owned:
            chip = chips[n]
            if (not chip._ready_count and chip._runnable_count
                    and chip.config.fast_paths and chip.now < end
                    and chip.next_wake() >= end):
                chip._skip_idle(end - chip.now)
                continue
            while chip.now < end and chip._runnable_count:
                issued += chip.run(max_cycles=end - chip.now).issued_bundles
        if drain:
            self.collect()
        return issued

    def step(self, cycles: int, next_barrier: int, drain: bool) -> int:
        """Step each node ``cycles`` single cycles (the window loop
        never crosses a barrier inside one call)."""
        machine = self.machine
        machine._next_barrier = next_barrier
        chips = machine.chips
        issued = 0
        for n in self.owned:
            chip = chips[n]
            for _ in range(cycles):
                issued += chip.step()
        if drain:
            self.collect()
        return issued

    def collect(self) -> None:
        """Move the owned outboxes' queued traffic into
        :attr:`messages`."""
        outbox = self.machine._outbox
        for n in self.owned:
            box = outbox[n]
            if box:
                self.messages.extend(box)
                box.clear()

    def skip_to(self, target: int) -> None:
        """Idle every node that is behind ``target`` up to it."""
        chips = self.machine.chips
        for n in self.owned:
            chip = chips[n]
            if chip.now < target:
                chip._skip_idle(target - chip.now)

    def skip_all(self, cycles: int) -> None:
        chips = self.machine.chips
        for n in self.owned:
            chips[n]._skip_idle(cycles)

    def home_ops(self, home_ops: dict[int, list]) -> dict[int, list]:
        """Service each home node's ``(index, msg)`` requests in batch
        order; returns message index -> reply payload."""
        apply = self.machine._apply_home_op
        replies: dict[int, list] = {}
        for home in sorted(home_ops):
            for index, msg in home_ops[home]:
                replies[index] = apply(msg, home)
        return replies

    def effects(self, per_node: dict[int, list]) -> None:
        machine = self.machine
        for node in sorted(per_node):
            if per_node[node]:
                machine._apply_effects(machine.chips[node], per_node[node])

    # -- workload and observation verbs ------------------------------------

    def spawn(self, node: int, entry, kwargs: dict) -> int:
        return self.machine.kernels[node].spawn(entry, **kwargs).tid

    def retire(self, pending, result_reg: int) -> dict:
        """Retire the finished threads among ``pending`` ``(node, tid)``
        handles, in order.  Each stopped thread leaves its cluster and
        reports under its handle as ``node``, ``tid``, ``state``,
        ``halted_at`` and ``result`` (``result_reg`` at HALT); running
        threads are skipped, and a tid with no resident thread (reaped
        by the kernel after a kill) reports as FAULTED."""
        chips = self.machine.chips
        finished: dict[tuple[int, int], dict] = {}
        node = None
        for key in pending:
            if key[0] != node:
                node = key[0]
                chip = chips[node]
                by_tid = {t.tid: t for cluster in chip.clusters
                          for t in cluster.slots if t is not None}
            tid = key[1]
            thread = by_tid.get(tid)
            if thread is None:
                state, halted_at, result = "FAULTED", chip.now, 0
            elif thread.state is ThreadState.HALTED:
                state, halted_at = "HALTED", thread.halted_at
                result = thread.regs.read(result_reg).value
            elif thread.state is ThreadState.FAULTED:
                state, halted_at, result = "FAULTED", chip.now, 0
            else:
                continue
            if thread is not None:
                thread.scheduler.remove_thread(thread)
            finished[key] = {"node": node, "tid": tid, "state": state,
                             "halted_at": halted_at, "result": result}
        return finished

    def hist(self, node: int, name: str, value: int) -> None:
        self.machine.chips[node].obs.add_histogram(name).add(value)

    def emit(self, node: int, name: str, cycle: int, tid, dur,
             args: dict) -> None:
        self.machine.chips[node].obs.emit(name, cycle, tid=tid, dur=dur,
                                          **args)

    def counters(self) -> dict[int, dict]:
        """Each node's counter snapshot, by node id."""
        chips = self.machine.chips
        return {n: chips[n].counters.snapshot() for n in self.owned}

    def flight_dumps(self) -> dict[int, dict]:
        chips = self.machine.chips
        return {n: chips[n].obs.flight.dump() for n in self.owned}

    def trace_on(self) -> None:
        """Attach a span-level (``hot=False``) sink to every node's
        hub: per-miss and cold events accumulate, the per-bundle path
        stays dark and turbo stays engaged."""
        chips = self.machine.chips
        for n in self.owned:
            if n not in self._sinks:
                sink: list = []
                chips[n].obs.attach(sink, hot=False)
                self._sinks[n] = sink

    def trace_drain(self) -> list:
        """Detach the span sinks and return their events."""
        events: list = []
        for n, sink in self._sinks.items():
            self.machine.chips[n].obs.detach(sink)
            events.extend(sink)
        self._sinks = {}
        return events

    def capture(self) -> dict[int, list]:
        """Each node's image, sequence counter and queued traffic — what
        the sharded engine's sync back restores on the coordinator."""
        from repro.persist.image import capture_node

        machine = self.machine
        return {n: [capture_node(machine.kernels[n]), machine._seq[n],
                    list(machine._outbox[n])] for n in self.owned}

    def sync_back(self) -> None:
        """Nothing to pull: the nodes are in this process."""

    def close(self) -> None:
        """Nothing to stop."""


def value_pair(word: TaggedWord) -> list:
    """A tagged word as the JSON-safe ``[value, tag]`` pair the window
    messages carry."""
    return [word.value, word.tag]


def _thread_by_tid(chip: MAPChip, tid: int) -> Thread | None:
    for cluster in chip.clusters:
        for thread in cluster.slots:
            if thread is not None and thread.tid == tid:
                return thread
    return None
