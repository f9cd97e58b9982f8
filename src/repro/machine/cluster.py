"""One MAP cluster: an integer, a memory and a floating-point unit fed
by up to four resident threads (§3, Figure 5).

Every cycle the cluster wakes any threads whose memory operations have
completed, selects one ready thread round-robin, and issues its current
bundle to the three units.  All guarded-pointer checks (§2.2) happen
here, *before* an operation reaches the memory system:

* the integer unit checks jump targets (enter→execute conversion);
* the memory unit checks tag, permission and segment bounds on every
  load, store and pointer-manipulation op;
* nothing downstream re-checks anything.

Fault atomicity: a bundle commits no architectural state unless every
operation in it passes its checks, so a faulted bundle can simply be
re-executed after the kernel repairs the cause.  Operations are
evaluated int → fp → mem, with the memory access — the only operation
with a side effect beyond registers — performed last.

Each opcode's semantics are written once, as one template fragment
(``_FRAGMENTS``).  A decoded bundle runs as one generated function,
built from its three ops' fragments (:func:`share_bundle`), which the
per-cycle path and superblock traces both call once per issue.
"""

from __future__ import annotations

import ast
import math
import sys
from types import MappingProxyType
from typing import TYPE_CHECKING

from repro.core import operations as ops
from repro.core.constants import ADDRESS_MASK as _ADDRESS_MASK
from repro.core.constants import WORD_MASK as _WORD_MASK
from repro.core.exceptions import (
    FetchPending,
    GuardedPointerFault,
    PermissionFault,
    RestrictFault,
)
from repro.core.permissions import Permission
from repro.core.pointer import GuardedPointer
from repro.core.word import TaggedWord, to_s64
from repro.machine.disasm import disassemble_bundle
from repro.machine.faults import FaultRecord, TrapFault
from repro.machine.isa import BUNDLE_BYTES, Bundle, Opcode
from repro.machine.registers import float_to_word, saturating_ftoi, word_to_float
from repro.machine.thread import REMOTE_WAIT, Thread, ThreadState

if TYPE_CHECKING:  # pragma: no cover
    from repro.machine.chip import MAPChip


class _Halt(Exception):
    """Internal: bundle executed a HALT."""


class Cluster:
    """Thread slots plus the three execution units."""

    def __init__(self, cluster_id: int, chip: "MAPChip", slots: int = 4):
        self.cluster_id = cluster_id
        self.chip = chip
        self.slots: list[Thread | None] = [None] * slots
        self._next_slot = 0  # round-robin cursor
        self.last_domain: int | None = None
        self._stall_until = 0
        #: thread waiting out a domain-switch drain; it issues first
        #: when the drain ends
        self._pending: Thread | None = None
        self.issued_cycles = 0
        self.idle_cycles = 0
        self.switch_stall_cycles = 0
        #: incremental per-state occupancy of this cluster's slots; kept
        #: exact by add/remove_thread and by Thread.state's setter, so
        #: the chip's run loop never rescans threads to learn liveness
        #: (plain ints, not an enum-keyed dict — these are read every
        #: cycle and the chip mirrors ready/runnable totals chip-wide)
        self._n_ready = 0
        self._n_blocked = 0
        self._n_faulted = 0
        self._n_halted = 0
        #: bit ``i`` is set while slot ``i`` holds a READY thread; kept
        #: with the counts by _install, _evict and on_state_change, and
        #: read by _select
        self._ready_mask = 0
        #: tid of the last thread this cluster issued from (trace-only:
        #: feeds the ``thread.switch`` event, never read by the model)
        self._last_tid: int | None = None

    # -- thread management ------------------------------------------------

    def add_thread(self, thread: Thread) -> int:
        for i, slot in enumerate(self.slots):
            if slot is None:
                return self._install(i, thread)
        # a halted thread's slot can be reused: its architectural state
        # is dead and system software would have reaped it
        for i, slot in enumerate(self.slots):
            if slot is not None and slot.state is ThreadState.HALTED:
                self._evict(slot)
                return self._install(i, thread)
        raise RuntimeError(f"cluster {self.cluster_id} has no free thread slot")

    def _install(self, index: int, thread: Thread) -> int:
        self.slots[index] = thread
        self._count(thread._state, +1)
        thread.scheduler = self
        thread.slot = index
        if thread._state is ThreadState.READY:
            self._ready_mask |= 1 << index
        return index

    def _evict(self, thread: Thread) -> None:
        self._count(thread._state, -1)
        self._ready_mask &= ~(1 << thread.slot)
        if self._pending is thread:
            # it no longer issues here when the drain ends; the drain's
            # stall has begun and stays
            self._pending = None
        thread.scheduler = None

    def remove_thread(self, thread: Thread) -> None:
        for i, slot in enumerate(self.slots):
            if slot is thread:
                self._evict(slot)
                self.slots[i] = None
                return
        raise ValueError("thread is not resident on this cluster")

    def live_threads(self) -> list[Thread]:
        return [t for t in self.slots if t is not None]

    # -- scheduler bookkeeping ---------------------------------------------

    def _count(self, state: ThreadState, delta: int) -> None:
        """Adjust this cluster's (and the chip's) occupancy counts."""
        if state is ThreadState.READY:
            ready = self._n_ready
            self._n_ready = ready + delta
            chip = self.chip
            chip._ready_count += delta
            chip._runnable_count += delta
            if not ready or ready + delta == 0:
                # this cluster starts or stops holding ready threads
                chip._ready_clusters += delta
        elif state is ThreadState.BLOCKED:
            self._n_blocked += delta
            self.chip._runnable_count += delta
        elif state is ThreadState.FAULTED:
            self._n_faulted += delta
        else:
            self._n_halted += delta

    def on_state_change(self, thread: Thread, old: ThreadState,
                        new: ThreadState) -> None:
        """Thread.state's setter reports every transition here."""
        self._count(old, -1)
        self._count(new, +1)
        if new is ThreadState.READY:
            self._ready_mask |= 1 << thread.slot
        elif old is ThreadState.READY:
            self._ready_mask &= ~(1 << thread.slot)

    @property
    def ready_count(self) -> int:
        return self._n_ready

    @property
    def runnable_count(self) -> int:
        """Threads that can still make progress (ready or blocked)."""
        return self._n_ready + self._n_blocked

    @property
    def faulted_count(self) -> int:
        return self._n_faulted

    @property
    def active_count(self) -> int:
        """Occupied slots whose thread has not halted (spawn placement)."""
        return self._n_ready + self._n_blocked + self._n_faulted

    def next_wake(self) -> int | None:
        """Earliest wake cycle among blocked threads, or None."""
        wake = None
        for thread in self.slots:
            if thread is not None and thread._state is ThreadState.BLOCKED:
                if wake is None or thread.wake_at < wake:
                    wake = thread.wake_at
        return wake

    def as_counters(self) -> dict[str, int]:
        """This cluster's view for :class:`~repro.machine.counters.PerfCounters`."""
        return {
            "issued": self.issued_cycles,
            "idle": self.idle_cycles,
            "switch_stalls": self.switch_stall_cycles,
            "occupied_slots": sum(1 for t in self.slots if t is not None),
        }

    # -- per-cycle issue ----------------------------------------------------

    def step(self, now: int) -> bool:
        """Run one cycle; returns True when a bundle issued."""
        if self._n_blocked:
            for thread in self.slots:
                if (thread is not None
                        and thread._state is ThreadState.BLOCKED
                        and now >= thread.wake_at):
                    thread.maybe_wake(now)

        if now < self._stall_until:
            self.switch_stall_cycles += 1
            return False

        if self._pending is not None and self._pending._state is ThreadState.READY:
            thread = self._pending
            self._pending = None
        else:
            self._pending = None
            thread = self._select(now)
        if thread is None:
            self.idle_cycles += 1
            return False

        # E5 contrast knob: a conventional machine pays to interleave
        # threads from different protection domains.  Guarded pointers
        # leave this at zero.
        penalty = self.chip.config.domain_switch_penalty
        if penalty and self.last_domain is not None and thread.domain != self.last_domain:
            self._stall_until = now + penalty
            self._pending = thread  # issues as soon as the drain ends
            self.last_domain = thread.domain
            if self.chip.config.flush_on_domain_switch:
                self.chip.tlb.flush()
                self.chip.cache.flush()
            self.switch_stall_cycles += 1
            return False
        self.last_domain = thread.domain

        obs = self.chip.obs
        if obs.hot and thread.tid != self._last_tid:
            obs.emit("thread.switch", now, cluster=self.cluster_id,
                     tid=thread.tid, from_tid=self._last_tid)
        self._last_tid = thread.tid

        if self._execute_bundle(thread, now):
            self.issued_cycles += 1
            return True
        # the fetch is waiting on remote code words (FetchPending):
        # nothing issued; the cycle is idle like any other stall
        self.idle_cycles += 1
        return False

    def _select(self, now: int) -> Thread | None:
        """Round-robin: the first READY slot at or after the cursor
        ``_next_slot``, wrapping around, and the cursor moves past it;
        None, with the cursor left alone, when nothing is ready.  The
        scan is a bit scan of the ready mask: the lowest set bit at or
        above the cursor, else the lowest set bit."""
        mask = self._ready_mask
        if not mask:
            return None
        start = self._next_slot
        later = mask >> start
        if later:
            index = start + (later & -later).bit_length() - 1
        else:
            index = (mask & -mask).bit_length() - 1
        self._next_slot = index + 1 if index + 1 < len(self.slots) else 0
        return self.slots[index]

    # -- bundle execution ----------------------------------------------------

    def _execute_bundle(self, thread: Thread, now: int) -> bool:
        """Execute one bundle; returns True when the bundle issued (a
        faulting bundle issues too), False when the fetch is stalled on
        remote code words and nothing happened this cycle.

        The fetch returns the bundle's compiled node (see
        :func:`share_bundle`), so issue is one call of the node's
        function, which checks, acts and writes every register itself
        (a blocking load blocks the thread there too); what is left
        here is the IP."""
        chip = self.chip
        try:
            node = chip.fetch(thread.ip)
        except FetchPending as pend:
            # remote code words were requested at the window barrier;
            # the thread blocks until they land and the fetch retries
            thread.block_until(pend.resume_at)
            return False
        except Exception as cause:  # decode/translation failure at fetch
            self._fault(thread, cause, "fetch", now)
            return True
        bundle, issue, next_ip, live_ops, _ = node

        obs = chip.obs
        if obs.hot:
            obs.emit("bundle", now, cluster=self.cluster_id, tid=thread.tid,
                     address=thread.ip.address, priv=thread.privileged,
                     text=disassemble_bundle(bundle))

        regs = thread.regs
        try:
            target = issue(thread, regs._regs, regs._fregs, now)
        except GuardedPointerFault as cause:
            self._fault(thread, cause, self._fault_site(bundle, cause), now)
            return True

        stats = thread.stats
        stats.bundles += 1
        stats.operations += live_ops
        if target is None:
            if next_ip is not None:
                thread.ip = next_ip
                return True
            try:
                thread.ip = _lea(chip, thread.ip.word, BUNDLE_BYTES)
            except GuardedPointerFault as cause:
                # running off the end of the code segment
                self._fault(thread, cause, "ip-advance", now)
        elif target is _Halt:
            thread.state = ThreadState.HALTED
            thread.halted_at = now
            if obs.enabled:
                obs.emit("thread.halt", now, cluster=self.cluster_id,
                         tid=thread.tid, bundles=stats.bundles)
        else:
            thread.ip = target
        return True

    # -- superblock execution ------------------------------------------------

    def run_superblock(self, thread: Thread, start: int, end: int) -> int:
        """Execute ``thread``'s straight-line bundles for cycles
        ``[start, end)`` in one dispatch; returns the cycles consumed,
        each of which issued one bundle.

        The chip has proven (in :meth:`MAPChip._run_alone`) that
        nothing else can act before ``end``, so this loop is exactly
        the per-cycle path with the invariant parts hoisted: scheduling
        collapses to "this thread again", fetch collapses to a probe of
        the decoded-bundle cache, and cycle/issue/idle accounting is
        settled in bulk at exit: this cluster's and the thread's here,
        the chip's totals and the other clusters' by the chip.  Each
        bundle runs the same issue function :meth:`_execute_bundle`
        runs — execution units, guarded-pointer checks, cache timing,
        the check memos, histograms, a blocking load's stall — so cycle
        counts, counters and trace events are bit-identical to stepping
        the same cycles one by one.  Any bundle the cache cannot answer
        (not decoded yet, self-modified, reached through a pointer word
        that has not passed the fetch checks, HALT/TRAP) exits the
        superblock and the normal path handles it, and so does a
        blocking load, which leaves the thread blocked.
        """
        chip = self.chip
        cache = chip._decode_cache
        regs = thread.regs
        r, f = regs._regs, regs._fregs
        bundles = 0   # committed bundles (a faulting one commits nothing)
        operations = 0
        now = start
        ip = thread.ip
        while True:
            word = ip.word.value
            nodes = cache.get(word & _ADDRESS_MASK)
            if nodes is None:
                break
            node = nodes.get(word)
            if node is None:
                # decoded through other pointer words only: this one
                # has not passed the fetch checks
                break
            bundle, issue, next_ip, live, ends = node
            if ends:
                break
            try:
                target = issue(thread, r, f, now)
            except GuardedPointerFault as cause:
                # the faulting cycle still elapses and the bundle still
                # issues (fetch hit, then the unit faulted) — but it
                # commits nothing, exactly like the per-cycle path
                chip.now = now
                self._fault(thread, cause,
                            self._fault_site(bundle, cause), now)
                now += 1
                break
            bundles += 1
            operations += live
            if target is not None:
                thread.ip = ip = target
            elif next_ip is not None:
                thread.ip = ip = next_ip
            else:
                # the fall-through leaves the code segment; re-derive
                # live (pure, so it faults again identically)
                chip.now = now
                try:
                    _lea(chip, ip.word, BUNDLE_BYTES)
                except GuardedPointerFault as cause:
                    self._fault(thread, cause, "ip-advance", now)
                now += 1
                break
            now += 1
            # a blocking load has left the cluster no ready thread
            if now >= end or not self._n_ready:
                break
        cycles = now - start
        if cycles:
            # the scheduling bookkeeping a per-cycle run would have
            # left behind
            self.issued_cycles += cycles
            self._next_slot = (thread.slot + 1) % len(self.slots)
            self.last_domain = thread.domain
            self._last_tid = thread.tid
            thread.stats.bundles += bundles
            thread.stats.operations += operations
        return cycles

    # -- fault plumbing ------------------------------------------------------

    @staticmethod
    def _fault_site(bundle: Bundle, cause: Exception) -> str:
        if isinstance(cause, TrapFault):
            return "trap"
        for op in bundle.operations:
            if op.opcode not in (Opcode.NOP, Opcode.FNOP):
                return op.opcode.name.lower()
        return "bundle"

    def _fault(self, thread: Thread, cause: Exception, site: str, now: int) -> None:
        if not isinstance(cause, GuardedPointerFault):
            cause = PermissionFault(f"{type(cause).__name__}: {cause}")
        record = FaultRecord(
            thread_id=thread.tid,
            cycle=now,
            cause=cause,
            opcode_name=site,
            ip_address=thread.ip.address,
        )
        thread.record_fault(record)
        self.chip.report_fault(record, thread)


# -- compiled bundles: one template fragment per opcode ---------------------


#: A bundle node: one decoded bundle compiled for issue through one
#: pointer word.  The decoded-bundle cache maps each fetch address to
#: its nodes by pointer word (:meth:`MAPChip.fetch`), and the per-cycle
#: path and superblock traces both execute them (PERF.md §6, §10).
#: Nodes are plain tuples because both executors unpack one every
#: cycle, and CPython unpacks an exact tuple fastest (a NamedTuple
#: subclass measured ~7% slower on an ALU trace).  The fields, in
#: order:
#:
#: * ``bundle`` — the decoded :class:`~repro.machine.isa.Bundle`;
#: * ``issue`` — the bundle's issue function, ``issue(thread, r, f,
#:   now)`` over the thread's integer and FP register lists, generated
#:   from its three ops' fragments (``_FRAGMENTS``).  It returns the
#:   branch target, the ``_Halt`` sentinel, or None for the
#:   fall-through;
#: * ``next_ip`` — the memoized fall-through IP, or None when it leaves
#:   the code segment (the executors then re-derive it live, which
#:   faults);
#: * ``live_ops`` — the bundle's non-filler operations;
#: * ``ends_trace`` — HALT or TRAP: final thread state and trap dispatch
#:   belong to the per-cycle path, so superblock traces stop in front.
#:
#: Only ``next_ip`` and the issue function of a branch, or of a load
#: whose fall-through leaves the code segment, depend on the fetch
#: pointer.  Every other issue function captures op fields and objects
#: that live as long as the chip, so one serves every node of the same
#: bundle content: :func:`share_bundle` builds it once (the chip keeps
#: it in its content memo) and :func:`bind_bundle` completes a node per
#: pointer word.  A node refers to nothing that refers back to it, so
#: one dropped from the cache is freed at once, its pointer-bound parts
#: with it.
NODE_BUNDLE = 0
NODE_ISSUE = 1
NODE_NEXT_IP = 2

#: the integer ops whose issue functions capture a target derived from
#: the fetch pointer
_BRANCHES = frozenset({Opcode.BR, Opcode.BEQ, Opcode.BNE})
#: the integer ops that can leave a bundle by a target, not the
#: fall-through (the fragment sets ``target``)
_LEAVES = _BRANCHES | {Opcode.JMP, Opcode.HALT}
#: the memory ops whose register write waits for the access
_LOADS = frozenset({Opcode.LD, Opcode.LDF})


def share_bundle(chip: "MAPChip", bundle: Bundle) -> tuple:
    """The part of ``bundle``'s node (the layout above) that no fetch
    pointer changes: a node without ``next_ip`` and, for a branch,
    without ``issue``.  :func:`bind_bundle` completes it for one
    pointer word.

    The trace-cache idiom: everything that is a pure function of the
    encoding and the fetch pointer — which fragments run, ALU
    immediates, MOVI's word, branch targets, the fall-through IP —
    resolves once, here and in :func:`bind_bundle`, so issuing the
    bundle spends no cycles re-deciding what each op *is*."""
    code = bundle.int_op.opcode
    return (bundle, None if code in _BRANCHES else _issue(chip, bundle),
            None, bundle.live_ops, code is Opcode.HALT or code is Opcode.TRAP)


def bind_bundle(chip: "MAPChip", shared: tuple, ip: GuardedPointer) -> tuple:
    """The node of the bundle fetched through ``ip``, reusing the issue
    function of ``shared``: a :func:`share_bundle` result, or the node
    of the same content bound to another pointer word whose
    fall-through stays in the segment.  Only the fall-through IP and
    the issue function of a branch, or of a load whose fall-through
    leaves the segment, are made here.

    Pre-deriving pointers is invisible: LEA is pure (the same
    derivation the executors would make, through the same memo), and a
    derivation that faults is re-made live, so the fault raises only
    where stepping would raise it."""
    bundle, issue, _, live_ops, ends_trace = shared
    try:
        next_ip = _lea(chip, ip.word, BUNDLE_BYTES)
    except GuardedPointerFault:
        next_ip = None
    op = bundle.int_op
    if op.opcode in _BRANCHES:
        try:
            target = _lea(chip, ip.word, op.imm)
        except GuardedPointerFault:
            # the target leaves the segment: derive it live, so the
            # fault raises only when the branch is taken
            target = None
        issue = _issue(chip, bundle, target, next_ip is None)
    elif next_ip is None and bundle.mem_op.opcode in _LOADS:
        issue = _issue(chip, bundle, None, True)
    return (bundle, issue, next_ip, live_ops, ends_trace)


#: (int, mem, fp opcode, tail) -> the factory of that triple's issue
#: functions.  The generated code depends on the key alone, so each
#: factory is compiled once per process, on first use
_FACTORIES: dict[tuple[Opcode, Opcode, Opcode, bool], object] = {}

#: a factory's parameters: the chip's objects, then the ops' fields
#: (``i_k``: an ALU immediate's 64-bit operand, MOVI's word, or a
#: branch's target, None when it is derived live)
_PARAMS = ("chip, access, load_get, store_get, invalidate, obs, "
           "load_to_use, i_rd, i_ra, i_rb, i_imm, i_k, "
           "m_rd, m_ra, m_rb, m_imm, p_rd, p_ra, p_rb")

#: no access-check memo (``fast_paths=False``): every probe misses, and
#: :func:`_mem_address` checks unmemoized
_NO_MEMO = MappingProxyType({})


def _issue(chip: "MAPChip", bundle: Bundle, target: GuardedPointer | None
           = None, tail: bool = False):
    """``bundle``'s issue function on ``chip``: its triple's factory
    called with the ops' fields and the chip's objects.  ``target`` is
    a branch's target; ``tail``, that the fetch pointer's fall-through
    leaves the code segment.

    Off a mesh, loads and stores bind the local cache port directly,
    which is everything :meth:`MAPChip.access_memory` does without a
    router; on a mesh they go through ``access_memory`` for routing,
    remote waits and the remote-code mirror, and that port drops the
    decoded bundles a store overlaps.  A function built off a mesh
    never runs on one: attaching a router drops every decoded bundle
    and empties the content memo.  The port is called positionally:
    CPython 3.11 does not specialize a keyword call into a Python
    function."""
    i, m, p = bundle.int_op, bundle.mem_op, bundle.fp_op
    code = i.opcode
    key = (code, m.opcode, p.opcode,
           tail and m.opcode in _LOADS and code is not Opcode.HALT)
    factory = _FACTORIES.get(key)
    if factory is None:
        factory = _FACTORIES[key] = _compile_factory(*key)
    if code in _BRANCHES:
        k = target
    elif code is Opcode.MOVI:
        k = TaggedWord.integer(i.imm)
    else:
        k = i.imm & _WORD_MASK
    meshed = chip.router is not None
    load_memo = chip._load_check_memo
    store_memo = chip._store_check_memo
    obs = chip.obs
    return factory(
        chip, chip.access_memory if meshed else chip.cache.access,
        (_NO_MEMO if load_memo is None else load_memo).get,
        (_NO_MEMO if store_memo is None else store_memo).get,
        None if meshed else chip.invalidate_decoded_word,
        obs, obs.load_to_use.add,
        i.rd, i.ra, i.rb, i.imm, k, m.rd, m.ra, m.rb, m.imm,
        p.rd, p.ra, p.rb)


def _compile_factory(int_code: Opcode, mem_code: Opcode, fp_code: Opcode,
                     tail: bool):
    """Generate and compile the factory of one opcode triple.

    The issue function runs the three fragments' "read, check and act"
    parts in the order int, fp, mem — so the memory access, the only
    side effect beyond registers, comes last — and only then, with
    nothing left that can fault, their "write" parts.  A faulting
    bundle therefore writes no register, and every op reads the
    registers as the bundle found them (LIW read-before-write).

    The code is compiled under this file's name, so profiles and the
    per-layer counts charge it to this module, and its line numbers
    point at the fragment each line came from.  Every triple's factory
    and function has its own name (``make_issue_add_ld_fnop``,
    ``issue_add_ld_fnop``): profilers key functions by file, line and
    name."""
    codes = (int_code, mem_code, fp_code)
    name = ("issue_" + "_".join(code.name.lower() for code in codes)
            + ("_tail" if tail else ""))
    lines = [(_TABLE_LINE, f"def make_{name}({_PARAMS}):"),
             (_TABLE_LINE, f"    def {name}(thread, r, f, now):")]
    slots = (("i", int_code), ("p", fp_code), ("m", mem_code))
    for slot, code in slots:
        line, act, _, _ = _FRAGMENTS[code]
        lines += [(line, "        " + text)
                  for text in act.format_map(_NAMES[slot]).splitlines()]
    leaves = int_code in _LEAVES
    for slot, code in slots:
        line, _, write, at_halt = _FRAGMENTS[code]
        if int_code is Opcode.HALT:
            write = at_halt
        elif tail and slot == "m":
            # the fall-through faults after the other writes, and the
            # load's write is dropped with it: it lands only when the
            # bundle leaves by a target
            write = ("if target is not None:\n" + "\n".join(
                "    " + text for text in write.splitlines())
                if leaves else "")
        lines += [(line, "        " + text)
                  for text in write.format_map(_NAMES[slot]).splitlines()]
    lines += [(_TABLE_LINE, "        return target" if leaves
               else "        return None"),
              (_TABLE_LINE, f"    return {name}")]
    tree = ast.parse("\n".join(text for _, text in lines))
    for node in ast.walk(tree):
        if hasattr(node, "lineno"):
            node.lineno = lines[node.lineno - 1][0]
            node.end_lineno = lines[node.end_lineno - 1][0]
    namespace: dict = {}
    exec(compile(tree, __file__, "exec"), globals(), namespace)
    return namespace[f"make_{name}"]


#: each slot's names for a fragment's ``{rd}``, ``{ra}``, ``{rb}``,
#: ``{imm}``, ``{k}`` (the factory's parameters) and ``{v}`` (the op's
#: result, a local of the issue function)
_NAMES = {slot: {field: f"{slot}_{field}"
                 for field in ("rd", "ra", "rb", "imm", "k", "v")}
          for slot in "imp"}

# what the generated code calls by these names: an untagged word is
# built as the frozen dataclass's ``__init__`` would build it, without
# its Python frames, through the slots' own descriptors
_new = object.__new__
_set_value = TaggedWord.value.__set__
_set_tag = TaggedWord.tag.__set__
_SIGN = 1 << 63


def _fragment(act: str = "", write: str = "",
              at_halt: str | None = None) -> tuple[int, str, str, str]:
    """One opcode's fragment: the line of this file it is written on,
    its "read, check and act" source, its "write" source, and its write
    in a bundle that halts (``at_halt``, a load's; otherwise the same
    write)."""
    return (sys._getframe(1).f_lineno, act, write,
            write if at_halt is None else at_halt)


def _alu(value: str) -> tuple[str, str]:
    """An integer ALU op's act and write: ``value``, over the operand
    words' bits (the tag is ignored) and already within 64 bits, as an
    untagged word."""
    return ("{v} = _new(TaggedWord)\n"
            "_set_value({v}, " + value + ")\n"
            "_set_tag({v}, False)", "r[{rd}] = {v}")


def _checked_address(write: bool) -> str:
    """A load's or store's checked address, in ``vaddr``: a tagged
    word's probe of the access-check memo, else :func:`_mem_address`."""
    memo, flag = ("store_get", "True") if write else ("load_get", "False")
    return ("{v} = r[{ra}]\n"
            "vaddr = " + memo + "(({v}.value, {imm})) if {v}.tag else None\n"
            "if vaddr is None:\n"
            "    vaddr = _mem_address(chip, {v}, {imm}, " + flag + ")\n"
            "else:\n"
            "    chip.check_memo_hits += 1\n")


def _load(bank: str) -> tuple[str, str, str]:
    """LD's (``bank`` "r") or LDF's ("f") act, write and write in a
    halting bundle.  The port returns ``(word, ready_cycle, hit,
    bank)``, read by index.  A remote load binds its register at the
    next window barrier, which resolves the value and the latency, and
    the histogram is charged then; a load that is not ready next cycle
    defers its write and blocks the thread for the stall; in a halting
    bundle a load's write lands at once."""
    value = "loaded[0]" if bank == "r" else "word_to_float(loaded[0])"
    act = (_checked_address(False)
           + "loaded = access(vaddr, False, now)\n"
           "ready = loaded[1]\n"
           "if ready == REMOTE_WAIT:\n"
           "    chip.router.bind_remote_load(chip, thread.tid, '" + bank
           + "', {rd})\n"
           "elif obs.enabled:\n"
           "    load_to_use(ready - now)")
    write = ("if ready > now + 1:\n"
             "    if ready != REMOTE_WAIT:\n"
             "        thread.pending_writes.append(('" + bank + "', {rd}, "
             + value + "))\n"
             "        thread.stats.stall_cycles += ready - now - 1\n"
             "    thread.block_until(ready)\n"
             "else:\n"
             "    " + bank + "[{rd}] = " + value)
    at_halt = ("if ready != REMOTE_WAIT:\n"
               "    " + bank + "[{rd}] = " + value)
    return act, write, at_halt


def _store(value: str) -> tuple[str, str]:
    """ST's or STF's act (a store writes no register): the checked
    address, the decoded-bundle invalidation off a mesh, then the
    buffered store of ``value``; the thread proceeds."""
    return (_checked_address(True)
            + "if invalidate is not None:\n"
            "    invalidate(vaddr)\n"
            "access(vaddr, True, now, " + value + ")", "")


#: One fragment per opcode.  In the source, ``r`` and ``f`` are the
#: thread's integer and FP register lists, ``target`` the integer op's
#: way out of the bundle, the braced names the slot's own (see
#: ``_NAMES``), and every other name a global of this module (some
#: imports above are used only here).  A fragment's act may read
#: registers, check, fault and act on the machine; its write cannot
#: fault: it stores results, or a load defers its write and blocks the
#: thread.
_FRAGMENTS = {
    Opcode.NOP: _fragment(),
    Opcode.ADD: _fragment(*_alu(
        "(r[{ra}].value + r[{rb}].value) & _WORD_MASK")),
    Opcode.SUB: _fragment(*_alu(
        "(r[{ra}].value - r[{rb}].value) & _WORD_MASK")),
    Opcode.MUL: _fragment(*_alu(
        "(r[{ra}].value * r[{rb}].value) & _WORD_MASK")),
    Opcode.AND: _fragment(*_alu("r[{ra}].value & r[{rb}].value")),
    Opcode.OR: _fragment(*_alu("r[{ra}].value | r[{rb}].value")),
    Opcode.XOR: _fragment(*_alu("r[{ra}].value ^ r[{rb}].value")),
    Opcode.SHL: _fragment(*_alu(
        "(r[{ra}].value << (r[{rb}].value & 63)) & _WORD_MASK")),
    Opcode.SHR: _fragment(*_alu("r[{ra}].value >> (r[{rb}].value & 63)")),
    Opcode.SLT: _fragment(*_alu(
        "1 if (r[{ra}].value ^ _SIGN) < (r[{rb}].value ^ _SIGN) else 0")),
    Opcode.SEQ: _fragment(*_alu("1 if r[{ra}].value == r[{rb}].value else 0")),
    Opcode.ADDI: _fragment(*_alu("(r[{ra}].value + {k}) & _WORD_MASK")),
    Opcode.SUBI: _fragment(*_alu("(r[{ra}].value - {k}) & _WORD_MASK")),
    Opcode.ANDI: _fragment(*_alu("r[{ra}].value & {k}")),
    Opcode.ORI: _fragment(*_alu("r[{ra}].value | {k}")),
    Opcode.XORI: _fragment(*_alu("r[{ra}].value ^ {k}")),
    Opcode.SHLI: _fragment(*_alu(
        "(r[{ra}].value << ({k} & 63)) & _WORD_MASK")),
    Opcode.SHRI: _fragment(*_alu("r[{ra}].value >> ({k} & 63)")),
    Opcode.SLTI: _fragment(*_alu(
        "1 if (r[{ra}].value ^ _SIGN) < ({k} ^ _SIGN) else 0")),
    Opcode.SEQI: _fragment(*_alu("1 if r[{ra}].value == {k} else 0")),
    Opcode.MOVI: _fragment("", "r[{rd}] = {k}"),
    # MOV preserves the tag: copying a pointer yields the pointer
    Opcode.MOV: _fragment("{v} = r[{ra}]", "r[{rd}] = {v}"),
    Opcode.ISPTR: _fragment("{v} = ops.ispointer(r[{ra}])", "r[{rd}] = {v}"),
    Opcode.BR: _fragment(
        "target = _lea(chip, thread.ip.word, {imm}) if {k} is None else {k}"),
    Opcode.BEQ: _fragment(
        "target = None\n"
        "if r[{rd}].value == 0:\n"
        "    target = (_lea(chip, thread.ip.word, {imm}) if {k} is None\n"
        "              else {k})"),
    Opcode.BNE: _fragment(
        "target = None\n"
        "if r[{rd}].value != 0:\n"
        "    target = (_lea(chip, thread.ip.word, {imm}) if {k} is None\n"
        "              else {k})"),
    Opcode.JMP: _fragment(
        "{v} = r[{ra}]\n"
        "target = ops.check_jump({v})\n"
        "if chip.jump_auditor is not None:\n"
        "    chip.jump_auditor(thread, GuardedPointer.from_word({v}),\n"
        "                      target, now)\n"
        "if obs.enabled:\n"
        "    obs.note_jump(thread, {v}, target, now,\n"
        "                  thread.scheduler.cluster_id)"),
    Opcode.GETIP: _fragment("{v} = _lea(chip, thread.ip.word, {imm}).word",
                            "r[{rd}] = {v}"),
    Opcode.HALT: _fragment("target = _Halt"),
    Opcode.TRAP: _fragment("raise TrapFault({imm})"),
    Opcode.LD: _fragment(*_load("r")),
    Opcode.ST: _fragment(*_store("r[{rd}]")),
    Opcode.LDF: _fragment(*_load("f")),
    Opcode.STF: _fragment(*_store("float_to_word(f[{rd}])")),
    Opcode.LEA: _fragment("{v} = _lea(chip, r[{ra}], {imm}).word",
                          "r[{rd}] = {v}"),
    Opcode.LEAR: _fragment(
        "{v} = _lea(chip, r[{ra}], to_s64(r[{rb}].value)).word",
        "r[{rd}] = {v}"),
    Opcode.LEAB: _fragment("{v} = ops.leab(r[{ra}], {imm}).word",
                           "r[{rd}] = {v}"),
    Opcode.LEABR: _fragment(
        "{v} = ops.leab(r[{ra}], to_s64(r[{rb}].value)).word",
        "r[{rd}] = {v}"),
    Opcode.SETPTR: _fragment(
        "{v} = ops.setptr(r[{ra}], privileged=thread.privileged).word",
        "r[{rd}] = {v}"),
    Opcode.RESTRICT: _fragment(
        "{v} = r[{rb}].value\n"
        "try:\n"
        "    {v} = Permission({v})\n"
        "except ValueError:\n"
        "    raise RestrictFault('not a permission code: %d' % {v}) \\\n"
        "        from None\n"
        "{v} = ops.restrict(r[{ra}], {v}).word",
        "r[{rd}] = {v}"),
    Opcode.SUBSEG: _fragment(
        "{v} = ops.subseg(r[{ra}], r[{rb}].value).word", "r[{rd}] = {v}"),
    Opcode.FNOP: _fragment(),
    Opcode.FADD: _fragment("{v} = f[{ra}] + f[{rb}]", "f[{rd}] = {v}"),
    Opcode.FSUB: _fragment("{v} = f[{ra}] - f[{rb}]", "f[{rd}] = {v}"),
    Opcode.FMUL: _fragment("{v} = f[{ra}] * f[{rb}]", "f[{rd}] = {v}"),
    # the FPU's division by ±0.0, which Python raises on: ±inf by the
    # dividend's sign, NaN for a zero or NaN dividend
    Opcode.FDIV: _fragment(
        "{v} = f[{rb}]\n"
        "if {v}:\n"
        "    {v} = f[{ra}] / {v}\n"
        "elif f[{ra}] > 0:\n"
        "    {v} = math.inf\n"
        "elif f[{ra}] < 0:\n"
        "    {v} = -math.inf\n"
        "else:\n"
        "    {v} = math.nan", "f[{rd}] = {v}"),
    Opcode.FMOV: _fragment("{v} = f[{ra}]", "f[{rd}] = {v}"),
    Opcode.ITOF: _fragment("{v} = float(to_s64(r[{ra}].value))",
                           "f[{rd}] = {v}"),
    Opcode.FTOI: _fragment(
        "{v} = TaggedWord.integer(saturating_ftoi(f[{ra}]))",
        "r[{rd}] = {v}"),
}

#: where the generated factories and functions begin: the table's
#: first fragment
_TABLE_LINE = min(line for line, *_ in _FRAGMENTS.values())


# -- the derivation memos --------------------------------------------------


def _lea(chip: "MAPChip", word: TaggedWord, offset: int) -> GuardedPointer:
    """LEA through the chip's derivation memo.

    ``ops.lea`` is a pure function of the pointer's bits and the
    offset — the same (word, offset) pair always yields the same
    (immutable) pointer, independent of any page-table or memory
    state — so successful derivations are memoized chip-wide.  IP
    advance, branch targets and load/store address arithmetic all come
    through here.  Faulting derivations are never cached, and untagged
    words bypass the memo (a pointer and an integer can share a bit
    pattern).
    """
    cache = chip._lea_cache
    if cache is None or not word.tag:
        return ops.lea(word, offset)
    key = (word.value, offset)
    ptr = cache.get(key)
    if ptr is None:
        ptr = ops.lea(word, offset)
        cache[key] = ptr
    return ptr


def _mem_address(chip: "MAPChip", word: TaggedWord, offset: int,
                 write: bool) -> int:
    """The checked virtual address of a load/store, through the chip's
    access-check memo.

    The whole derivation — LEA bounds, tag check, READ/WRITE
    permission — is a pure function of (pointer bits, offset): none of
    it consults the page table or memory.  So once a (word, offset)
    pair has passed, a later access through the *same* pointer word is
    a single dictionary probe; that is the paper's thesis applied to
    the data path (checks resolve once, nothing downstream re-walks).
    A different pointer word — even to the same address — takes the
    full check path.  Faulting derivations are never cached, and
    untagged words bypass the memo (a pointer and an integer can share
    a bit pattern).
    """
    memo = chip._store_check_memo if write else chip._load_check_memo
    if memo is None or not word.tag:
        ptr = _lea(chip, word, offset)
        (ops.check_store if write else ops.check_load)(ptr.word)
        return ptr.address
    key = (word.value, offset)
    vaddr = memo.get(key)
    if vaddr is not None:
        chip.check_memo_hits += 1
        return vaddr
    ptr = _lea(chip, word, offset)
    (ops.check_store if write else ops.check_load)(ptr.word)
    chip.check_memo_misses += 1
    memo[key] = ptr.address
    return ptr.address
