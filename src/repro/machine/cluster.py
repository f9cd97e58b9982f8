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
per-cycle path calls once per issue.  Superblock traces run a lone
thread's straight-line code a basic block at a time: one function per
block, generated from the same fragments (:func:`block_at`).
"""

from __future__ import annotations

import ast
import math
import re
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
        #: how the last block that left early left: ``(cycles,
        #: committed bundles, operations, IP to go on at or None)``,
        #: written by the block's exit and read by :meth:`run_superblock`
        self._block_exit: tuple | None = None

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

    def run_superblock(self, thread: Thread, start: int, end: int,
                       entry: tuple) -> int:
        """Execute ``thread``'s straight-line bundles for cycles
        ``[start, end)`` in one dispatch, starting with the block entry
        ``entry`` (:func:`block_at`) at its IP; returns the cycles
        consumed, each of which issued one bundle.

        The chip has proven (in :meth:`MAPChip._run_alone`) that
        nothing else can act before ``end``, so this loop is exactly
        the per-cycle path with the invariant parts hoisted: scheduling
        collapses to "this thread again", fetch collapses to a probe of
        the chip's block table, once per basic block, and
        cycle/issue/idle accounting is settled in bulk at exit: this
        cluster's and the thread's here, the chip's totals and the
        other clusters' by the chip.  A block function runs its
        bundles' fragments — execution units, guarded-pointer checks,
        cache timing, the check memos, histograms, a blocking load's
        stall — as their issue functions do, so cycle counts, counters
        and trace events are bit-identical to stepping the same cycles
        one by one.

        A block returns the IP after it, or leaves early (returning
        None, with ``_block_exit`` set): at a fault, which commits
        nothing of its bundle and ends the trace; after a load that
        blocked the thread; between bundles at the horizon; after a
        store that dropped a decoded bundle, when the trace goes on
        from the next bundle's block; or at a fall-through off the code
        segment, which faults.  Any bundle the decode cache cannot
        answer (not decoded yet, self-modified, reached through a
        pointer word that has not passed the fetch checks, HALT/TRAP)
        ends the trace in front of it, and the normal path handles it.
        """
        blocks = self.chip._blocks
        regs = thread.regs
        r, f = regs._regs, regs._fregs
        lost = 0   # cycles whose bundle committed nothing: a fault's
        operations = 0
        now = start
        while True:
            block, ips, count, live = entry
            ip = block(thread, r, f, now, end - now, ips)
            if ip is not None:
                now += count
                operations += live
            else:
                count, committed, live, ip = self._block_exit
                now += count
                operations += live
                if ip is None:
                    # the block ended the trace and set the thread's IP
                    lost = count - committed
                    break
            if now >= end:
                thread.ip = ip
                break
            entry = blocks.get(ip.word.value)
            if not entry:
                if entry is None:
                    entry = block_at(self.chip, ip)
                if not entry:
                    thread.ip = ip
                    break
        cycles = now - start
        if cycles:
            # the scheduling bookkeeping a per-cycle run would have
            # left behind
            self.issued_cycles += cycles
            self._next_slot = (thread.slot + 1) % len(self.slots)
            self.last_domain = thread.domain
            self._last_tid = thread.tid
            thread.stats.bundles += cycles - lost
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
#: its nodes by pointer word (:meth:`MAPChip.fetch`); the per-cycle
#: path executes them, and superblock traces run blocks built from them
#: (PERF.md §6, §10, §11).  Nodes are plain tuples because the
#: per-cycle path unpacks one every cycle, and CPython unpacks an exact
#: tuple fastest (a NamedTuple subclass measured ~7% slower on an ALU
#: trace).  The fields, in order:
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
#:   belong to the per-cycle path, so superblock traces stop in front,
#:   and no block holds one.
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

#: a bundle's fields, as factory parameters (``i_k``: an ALU
#: immediate's 64-bit operand, MOVI's word, or a branch's target, None
#: when it is derived live)
_FIELDS = ("i_rd", "i_ra", "i_rb", "i_imm", "i_k",
           "m_rd", "m_ra", "m_rb", "m_imm", "p_rd", "p_ra", "p_rb")
#: the chip's objects, the first parameters of every factory
_PORTS = ("chip, access, load_get, store_get, invalidate, obs, "
          "load_to_use")
#: an issue function factory's parameters
_PARAMS = _PORTS + ", " + ", ".join(_FIELDS)

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
    acts, writes = _emit(codes, _NAMES, tail)
    return _compile(name, _PARAMS, "thread, r, f, now", acts + writes + [
        (_TABLE_LINE, "return target" if int_code in _LEAVES
         else "return None")])


def _emit(codes: tuple[Opcode, Opcode, Opcode], names: dict,
          tail: bool) -> tuple[list, list]:
    """One bundle's generated code, as ``(line, text)`` pairs: the
    three fragments' acts, then their writes, each in the order int,
    fp, mem, with the braced names ``names[slot]`` gives.  ``tail``:
    the fetch pointer's fall-through leaves the code segment."""
    int_code, mem_code, fp_code = codes
    slots = (("i", int_code), ("p", fp_code), ("m", mem_code))
    acts, writes = [], []
    for slot, code in slots:
        line, act, _, _ = _FRAGMENTS[code]
        acts += [(line, text)
                 for text in act.format_map(names[slot]).splitlines()]
    for slot, code in slots:
        line, _, write, at_halt = _FRAGMENTS[code]
        if int_code is Opcode.HALT:
            write = at_halt
        elif tail and slot == "m" and code in _LOADS:
            # the fall-through faults after the other writes, and the
            # load's write is dropped with it: it lands only when the
            # bundle leaves by a target
            write = ("if target is not None:\n" + "\n".join(
                "    " + text for text in write.splitlines())
                if int_code in _LEAVES else "")
        writes += [(line, text)
                   for text in write.format_map(names[slot]).splitlines()
                   if not text.isspace()]
    return acts, writes


def _compile(name: str, params: str, args: str, body: list):
    """Compile the factory ``make_<name>(<params>)`` of the function
    ``<name>(<args>)`` whose body is ``body`` (``(line, text)`` pairs,
    unindented), and return the factory.

    The code is compiled under this file's name, so profiles and the
    per-layer counts charge it to this module, and its line numbers
    point at the fragment each line came from."""
    lines = [(_TABLE_LINE, f"def make_{name}({params}):"),
             (_TABLE_LINE, f"    def {name}({args}):")]
    lines += [(line, "        " + text) for line, text in body]
    lines.append((_TABLE_LINE, f"    return {name}"))
    tree = ast.parse("\n".join(text for _, text in lines))
    for node in ast.walk(tree):
        if hasattr(node, "lineno"):
            # a statement can end on an earlier line than it starts
            node.lineno = lines[node.lineno - 1][0]
            node.end_lineno = max(node.lineno,
                                  lines[node.end_lineno - 1][0])
    namespace: dict = {}
    exec(compile(tree, __file__, "exec"), globals(), namespace)
    return namespace[f"make_{name}"]


#: each slot's names for a fragment's ``{rd}``, ``{ra}``, ``{rb}``,
#: ``{imm}``, ``{k}`` (the factory's parameters), ``{v}`` (the op's
#: result, a local of the issue function), ``{ip}`` (the bundle's own
#: IP) and ``{blocked}`` (a block's exit after a load that blocked the
#: thread; none here)
_NAMES = {slot: {field: f"{slot}_{field}"
                 for field in ("rd", "ra", "rb", "imm", "k", "v")}
          | {"ip": "thread.ip", "blocked": ""}
          for slot in "imp"}


# -- basic blocks: a lone thread's straight-line code, one function each


#: the integer ops that end a block: they can leave it by a target
_ENDS_BLOCK = _BRANCHES | {Opcode.JMP}
#: the ops whose fragments hand the thread to code that reads its IP
#: (JMP's auditor and ``note_jump``, SETPTR's ``thread.privileged``):
#: a block sets the IP before running one
_SEES_IP = frozenset({Opcode.JMP, Opcode.SETPTR})
#: the memory ops that can drop a decoded bundle
_STORES = frozenset({Opcode.ST, Opcode.STF})
#: the filler ops, which a thread's ``operations`` do not count
_FILLERS = frozenset({Opcode.NOP, Opcode.FNOP})
#: the most bundles one block runs
BLOCK_CAP = 16

#: (the bundles' opcode triples, tail) -> the factory of that sequence's
#: block functions, compiled once per process on first use
_BLOCK_FACTORIES: dict[tuple, object] = {}


def block_at(chip: "MAPChip", ip: GuardedPointer):
    """The block entry for a trace at ``ip``, built from the decode
    cache's nodes and added to the chip's block table (PERF.md §11);
    False, also added, when the node there ends traces (HALT, TRAP);
    None when the decode cache cannot answer ``ip``.

    A block starts at ``ip`` and follows the fall-through from node to
    node, through each node's memoized ``next_ip``.  It ends after a
    bundle that can leave by a target (BR, BEQ, BNE, JMP) or whose
    fall-through leaves the code segment (a *tail*), before a bundle
    the decode cache cannot answer or a HALT or TRAP, or after
    :data:`BLOCK_CAP` bundles.  Its function depends on the bundles'
    contents and the tail alone, so the chip keeps one per contents;
    the entry adds what depends on the fetch pointer: ``(function,
    ips, bundles, operations)``, where ``ips`` holds each bundle's IP,
    then the fall-through (None for a tail), then a final branch's
    target (None when it leaves the segment: the fragment derives it
    live)."""
    cache = chip._decode_cache
    start = ip.word.value
    bundles = []
    ips = []
    live = 0
    while True:
        word = ip.word.value
        nodes = cache.get(word & _ADDRESS_MASK)
        node = None if nodes is None else nodes.get(word)
        if node is None or node[4]:
            if bundles:
                break
            if node is not None:
                chip._blocks[start] = False
                return False
            return None
        bundle, _, next_ip, live_ops, _ = node
        bundles.append(bundle)
        ips.append(ip)
        live += live_ops
        ip = next_ip
        if (ip is None or bundle.int_op.opcode in _ENDS_BLOCK
                or len(bundles) == BLOCK_CAP):
            break
    # ``ip`` is the last bundle's fall-through
    op = bundles[-1].int_op
    target = None
    if op.opcode in _BRANCHES:
        try:
            target = _lea(chip, ips[-1].word, op.imm)
        except GuardedPointerFault:
            pass
    # the content memo keeps one Bundle per decoded content until
    # attach_router, which empties this dict too: equal identities are
    # equal contents (a dataclass hash would run Python frames per
    # bundle)
    key = (*map(id, bundles), ip is None)
    block = chip._block_functions.get(key)
    if block is None:
        block = chip._block_functions[key] = _block(chip, bundles,
                                                    ip is None)
    entry = chip._blocks[start] = (block, (*ips, ip, target),
                                   len(bundles), live)
    return entry


def _block(chip: "MAPChip", bundles: list[Bundle], tail: bool):
    """The block function of ``bundles`` on ``chip``: its sequence's
    factory called with the chip's objects and every bundle's fields.
    Blocks run only in traces, which never run on a mesh node
    (:meth:`MAPChip.run`), so loads and stores bind the local cache
    port and the decoded-bundle invalidation, as an issue function off
    a mesh does."""
    key = (tuple((b.int_op.opcode, b.mem_op.opcode, b.fp_op.opcode)
                 for b in bundles), tail)
    factory = _BLOCK_FACTORIES.get(key)
    if factory is None:
        factory = _BLOCK_FACTORIES[key] = _compile_block_factory(*key)
    fields = []
    for bundle in bundles:
        i, m, p = bundle.int_op, bundle.mem_op, bundle.fp_op
        k = i.imm & _WORD_MASK
        if i.opcode is Opcode.MOVI:
            # MOVI's word, built as the fragments build words
            word = _new(TaggedWord)
            _set_value(word, k)
            _set_tag(word, False)
            k = word
        fields += (i.rd, i.ra, i.rb, i.imm, k, m.rd, m.ra, m.rb, m.imm,
                   p.rd, p.ra, p.rb)
    load_memo = chip._load_check_memo
    store_memo = chip._store_check_memo
    obs = chip.obs
    return factory(
        chip, chip.cache.access,
        (_NO_MEMO if load_memo is None else load_memo).get,
        (_NO_MEMO if store_memo is None else store_memo).get,
        chip.invalidate_decoded_word, obs, obs.load_to_use.add,
        chip._blocks, tuple(bundles), *fields)


def _compile_block_factory(codes: tuple, tail: bool):
    """Generate and compile the factory of one sequence of opcode
    triples' block functions, ``block(thread, r, f, now, left, ips)``:
    ``left`` is the cycles the trace may still run, ``ips`` the entry's
    pointers (:func:`block_at`).

    Each bundle is its issue function's code (:func:`_emit`): its acts,
    inside a ``try`` whose handler is the fault exit unless no op in it
    can fault, then its writes; between bundles, only the exits a
    bundle can take.  ``now`` is advanced only where a fragment or an
    exit reads it, and the thread's IP is set only before a bundle that
    hands the thread to code that reads it.  The last bundle returns
    the IP after the block: its target, else the fall-through.  Every
    sequence's factory and function has its own name, with the block's
    length, first op and last int op in it: profilers key functions by
    file, line and name."""
    name = _block_name(codes, tail)
    n = len(codes)
    params = (_PORTS + ", blocks, bundles, "
              + ", ".join(f"b{j}_{field}" for j in range(n)
                          for field in _FIELDS))
    body = []
    done = 0      # operations committed before the bundle at hand
    at = 0        # the bundle whose cycle ``now`` holds
    for j, triple in enumerate(codes):
        last = j == n - 1
        int_code, mem_code, _ = triple
        if j:
            body += [(_TABLE_LINE, f"if left <= {j}:"),
                     (_TABLE_LINE, f"    return _exit_block(thread, {j}, "
                      f"{done}, ips[{j}])")]
        if at != j and any(_NOW.search(_FRAGMENTS[code][1]
                                       + _FRAGMENTS[code][2])
                           for code in triple):
            body.append((_TABLE_LINE, f"now += {j - at}"))
            at = j
        now = "now" if at == j else f"now + {j - at}"
        if _SEES_IP & set(triple):
            body.append((_TABLE_LINE, f"thread.ip = ips[{j}]"))
        committed = done + sum(code not in _FILLERS for code in triple)
        # where the thread goes on after this bundle
        leaves = last and int_code in _ENDS_BLOCK
        after = (f"ips[{j + 1}]" if not leaves
                 else "target" if tail or int_code in (Opcode.BR, Opcode.JMP)
                 else f"ips[{n}] if target is None else target")
        names = {slot: {field: f"b{j}_{slot}_{field}"
                        for field in ("rd", "ra", "rb", "imm", "k", "v")}
                 | {"ip": f"ips[{j}]",
                    "blocked": f"thread.ip = {after}; return _exit_block("
                               f"thread, {j + 1}, {committed}, None)"}
                 for slot in "imp"}
        if leaves and int_code in _BRANCHES:
            names["i"]["k"] = f"ips[{n + 1}]"
        acts, writes = _emit(triple, names, last and tail)
        if _CANNOT_FAULT.issuperset(triple):
            body += acts
        elif acts:
            # the ``try`` takes its first line's number, so it costs no
            # instruction of its own
            body.append((acts[0][0], "try:"))
            body += [(line, "    " + text) for line, text in acts]
            body += [(_TABLE_LINE, "except GuardedPointerFault as cause:"),
                     (_TABLE_LINE, f"    return _exit_on_fault(thread, "
                      f"cause, bundles[{j}], ips[{j}], {now}, {j}, "
                      f"{done})")]
        body += writes
        done = committed
        if not last:
            if mem_code in _STORES:
                body += _dropped_exit(j + 1, done)
        elif not tail:
            body.append((_TABLE_LINE, f"return {after}"))
        else:
            # the fall-through faults; the block leaves only by a target
            if leaves:
                body += [(_TABLE_LINE, "if target is not None:"),
                         (_TABLE_LINE, "    return target")]
            body.append((_TABLE_LINE, f"return _exit_off_segment(thread, "
                         f"ips[{j}], {now}, {n}, {done})"))
    return _compile(name, params, "thread, r, f, now, left, ips", body)


#: a fragment reads the cycle
_NOW = re.compile(r"\bnow\b")
#: the ops whose acts raise no guarded-pointer fault: the ALU, moves,
#: the FPU and the casts
_CANNOT_FAULT = frozenset({
    Opcode.NOP, Opcode.FNOP, Opcode.MOVI, Opcode.MOV, Opcode.ADD,
    Opcode.SUB, Opcode.MUL, Opcode.AND, Opcode.OR, Opcode.XOR, Opcode.SHL,
    Opcode.SHR, Opcode.SLT, Opcode.SEQ, Opcode.ADDI, Opcode.SUBI,
    Opcode.ANDI, Opcode.ORI, Opcode.XORI, Opcode.SHLI, Opcode.SHRI,
    Opcode.SLTI, Opcode.SEQI, Opcode.FADD, Opcode.FSUB, Opcode.FMUL,
    Opcode.FDIV, Opcode.FMOV, Opcode.ITOF, Opcode.FTOI})


def _dropped_exit(committed: int, done: int) -> list:
    """The exit after a store that dropped a decoded bundle, which
    empties the block table (PERF.md §3): the bundles after it may be
    stale, so the trace goes on from a block built anew."""
    return [(_TABLE_LINE, "if not blocks:"),
            (_TABLE_LINE, f"    return _exit_block(thread, {committed}, "
             f"{done}, ips[{committed}])")]


def _block_name(codes: tuple, tail: bool) -> str:
    """A name unique to the sequence: its length, first live op and
    last int op, then a 32-bit FNV-1a digest of every opcode (stable
    across processes, unlike ``hash``)."""
    text = ";".join(",".join(code.name for code in triple)
                    for triple in codes) + (";tail" if tail else "")
    digest = 2166136261
    for byte in text.encode():
        digest = (digest ^ byte) * 16777619 & 0xFFFFFFFF
    first = next((code for code in codes[0] if code not in _FILLERS),
                 Opcode.NOP)
    return (f"block{len(codes)}_{first.name.lower()}_"
            f"{codes[-1][0].name.lower()}_{digest:08x}")


def _exit_block(thread: Thread, committed: int, operations: int,
                ip: GuardedPointer | None) -> None:
    """A block leaves early after ``committed`` bundles, one cycle
    each: the trace goes on at ``ip``, or ends when it is None (the
    block has set the thread's IP)."""
    thread.scheduler._block_exit = (committed, committed, operations, ip)


def _exit_on_fault(thread: Thread, cause: GuardedPointerFault,
                   bundle: Bundle, ip: GuardedPointer, now: int,
                   committed: int, operations: int) -> None:
    """A block's bundle at ``ip`` faulted in cycle ``now``.  The cycle
    still elapses and the bundle still issues (fetch hit, then the unit
    faulted), but it commits nothing, exactly like the per-cycle path;
    the trace ends."""
    cluster = thread.scheduler
    thread.ip = ip
    cluster.chip.now = now
    cluster._fault(thread, cause, cluster._fault_site(bundle, cause), now)
    cluster._block_exit = (committed + 1, committed, operations, None)


def _exit_off_segment(thread: Thread, ip: GuardedPointer, now: int,
                      committed: int, operations: int) -> None:
    """A block's last bundle, at ``ip``, fell through off the end of
    the code segment in cycle ``now``: re-derive the fall-through live
    (pure, so it faults again identically); the trace ends."""
    cluster = thread.scheduler
    chip = cluster.chip
    thread.ip = ip
    chip.now = now
    try:
        _lea(chip, ip.word, BUNDLE_BYTES)
    except GuardedPointerFault as cause:
        cluster._fault(thread, cause, "ip-advance", now)
    cluster._block_exit = (committed, committed, operations, None)

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
    defers its write and blocks the thread for the stall (a block then
    leaves by ``{blocked}``, empty in an issue function); in a halting
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
             "    {blocked}\n"
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
        "target = _lea(chip, {ip}.word, {imm}) if {k} is None else {k}"),
    Opcode.BEQ: _fragment(
        "target = None\n"
        "if r[{rd}].value == 0:\n"
        "    target = (_lea(chip, {ip}.word, {imm}) if {k} is None\n"
        "              else {k})"),
    Opcode.BNE: _fragment(
        "target = None\n"
        "if r[{rd}].value != 0:\n"
        "    target = (_lea(chip, {ip}.word, {imm}) if {k} is None\n"
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
    Opcode.GETIP: _fragment("{v} = _lea(chip, {ip}.word, {imm}).word",
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
