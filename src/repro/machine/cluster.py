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

Each opcode's semantics are written once, as the closure its compile
function builds when a bundle is decoded (:func:`compile_bundle`); the
per-cycle path and superblock traces both run those closures.
"""

from __future__ import annotations

import math
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
from repro.machine.isa import BUNDLE_BYTES, Bundle, Opcode, Operation
from repro.machine.registers import float_to_word, saturating_ftoi, word_to_float
from repro.machine.thread import REMOTE_WAIT, Thread, ThreadState

if TYPE_CHECKING:  # pragma: no cover
    from repro.machine.chip import MAPChip


class _Halt(Exception):
    """Internal: bundle executed a HALT."""


def _ieee_div(a: float, b: float) -> float:
    try:
        return a / b
    except ZeroDivisionError:
        if a == 0 or math.isnan(a):
            return math.nan
        return math.inf if (a > 0) == (b >= 0) else -math.inf


_INT_ALU = {
    Opcode.ADD: lambda a, b: a + b,
    Opcode.SUB: lambda a, b: a - b,
    Opcode.MUL: lambda a, b: a * b,
    Opcode.AND: lambda a, b: a & b,
    Opcode.OR: lambda a, b: a | b,
    Opcode.XOR: lambda a, b: a ^ b,
    Opcode.SHL: lambda a, b: a << (b & 63),
    Opcode.SHR: lambda a, b: a >> (b & 63),
    Opcode.SLT: lambda a, b: int(to_s64(a) < to_s64(b)),
    Opcode.SEQ: lambda a, b: int(a == b),
}

_INT_ALU_IMM = {
    Opcode.ADDI: Opcode.ADD,
    Opcode.SUBI: Opcode.SUB,
    Opcode.ANDI: Opcode.AND,
    Opcode.ORI: Opcode.OR,
    Opcode.XORI: Opcode.XOR,
    Opcode.SHLI: Opcode.SHL,
    Opcode.SHRI: Opcode.SHR,
    Opcode.SLTI: Opcode.SLT,
    Opcode.SEQI: Opcode.SEQ,
}

_FP_ALU = {
    Opcode.FADD: lambda a, b: a + b,
    Opcode.FSUB: lambda a, b: a - b,
    Opcode.FMUL: lambda a, b: a * b,
    Opcode.FDIV: _ieee_div,
}


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
        :func:`compile_bundle`), so
        issue is a call per live slot — int, fp, then mem, the memory
        access last — with no opcode dispatch left to do."""
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
        bundle, int_fn, fp_fn, mem_fn, next_ip, live_ops, _ = node

        obs = chip.obs
        if obs.hot:
            obs.emit("bundle", now, cluster=self.cluster_id, tid=thread.tid,
                     address=thread.ip.address, priv=thread.privileged,
                     text=disassemble_bundle(bundle))

        regs = thread.regs
        commits: list[tuple[str, int, object]] = []
        target = None
        block_until = None
        pending = ()
        try:
            if int_fn is not None:
                target = int_fn(thread, regs, commits, now)
            if fp_fn is not None:
                fp_fn(thread, regs, commits, now)
            if mem_fn is not None:
                block_until, pending = mem_fn(thread, regs, commits, now)
        except GuardedPointerFault as cause:
            self._fault(thread, cause, self._fault_site(bundle, cause), now)
            return True

        # Commit phase: nothing above faulted.
        if commits:
            regs.commit(commits)

        stats = thread.stats
        stats.bundles += 1
        stats.operations += live_ops

        if target is _Halt:
            # a halting bundle still commits everything it did — a
            # blocking load sharing the bundle with HALT must land its
            # register write before the thread's state goes final
            regs.commit(pending)
            thread.state = ThreadState.HALTED
            thread.halted_at = now
            if obs.enabled:
                obs.emit("thread.halt", now, cluster=self.cluster_id,
                         tid=thread.tid, bundles=stats.bundles)
            return True

        if target is not None:
            thread.ip = target
        elif next_ip is not None:
            thread.ip = next_ip
        else:
            try:
                thread.ip = _lea(chip, thread.ip.word, BUNDLE_BYTES)
            except GuardedPointerFault as cause:
                # running off the end of the code segment
                self._fault(thread, cause, "ip-advance", now)
                return True

        if block_until == REMOTE_WAIT:
            # remote load: the true reply cycle is computed at the next
            # window barrier, which rewrites wake_at and charges the
            # stall; the register write arrives the same way
            thread.pending_writes.extend(pending)
            thread.block_until(REMOTE_WAIT)
        elif block_until is not None and block_until > now + 1:
            thread.pending_writes.extend(pending)
            stats.stall_cycles += block_until - (now + 1)
            thread.block_until(block_until)
        elif pending:
            regs.commit(pending)
        return True

    # -- superblock execution ------------------------------------------------

    def run_superblock(self, thread: Thread, start: int, end: int) -> int:
        """Execute ``thread``'s straight-line bundles for cycles
        ``[start, end)`` in one dispatch; returns the cycles consumed.

        The chip has proven (in :meth:`MAPChip._run_superblock`) that
        nothing else can act before ``end``, so this loop is exactly
        the per-cycle path with the invariant parts hoisted: scheduling
        collapses to "this thread again", fetch collapses to a probe of
        the decoded-bundle cache, and cycle/issue/idle accounting is
        settled in bulk at exit.  Each bundle runs the same compiled
        node closures :meth:`_execute_bundle` runs —
        execution units, guarded-pointer checks, cache timing, the
        check memos, histograms, fault dispatch — so cycle counts,
        counters and trace events are bit-identical to stepping the
        same cycles one by one.  Any bundle the cache cannot answer (not
        decoded yet, self-modified, reached through a pointer word that
        has not passed the fetch checks, HALT/TRAP) exits the superblock
        and the normal path handles it.
        """
        chip = self.chip
        cache = chip._decode_cache
        regs = thread.regs
        commits: list[tuple[str, int, object]] = []
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
            bundle, int_fn, fp_fn, mem_fn, next_ip, live, ends = node
            if ends:
                break
            commits.clear()
            branch_target = None
            block_until = None
            pending = None
            try:
                if int_fn is not None:
                    branch_target = int_fn(thread, regs, commits, now)
                if fp_fn is not None:
                    fp_fn(thread, regs, commits, now)
                if mem_fn is not None:
                    block_until, pending = mem_fn(thread, regs, commits, now)
            except GuardedPointerFault as cause:
                # the faulting cycle still elapses and the bundle still
                # issues (fetch hit, then the unit faulted) — but it
                # commits nothing, exactly like the per-cycle path
                chip.now = now
                self._fault(thread, cause,
                            self._fault_site(bundle, cause), now)
                self._sb_exit(thread, bundles, operations, start, now + 1,
                              True)
                return now + 1 - start
            if commits:
                regs.commit(commits)
            bundles += 1
            operations += live
            if branch_target is not None:
                thread.ip = ip = branch_target
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
                self._sb_exit(thread, bundles, operations, start, now + 1,
                              True)
                return now + 1 - start
            if block_until is not None and block_until > now + 1:
                thread.pending_writes.extend(pending)
                thread.stats.stall_cycles += block_until - (now + 1)
                thread.block_until(block_until)
                self._sb_exit(thread, bundles, operations, start, now + 1,
                              False)
                return now + 1 - start
            if pending:
                regs.commit(pending)
            now += 1
            if now >= end:
                break
        if now > start:
            self._sb_exit(thread, bundles, operations, start, now, False)
        return now - start

    def _sb_exit(self, thread: Thread, bundles: int, operations: int,
                 start: int, end: int, faulted: bool) -> None:
        """Settle the bulk accounting for a superblock spanning cycles
        ``[start, end)`` — every total a per-cycle run would have
        accumulated over the same stretch, applied at once.
        ``faulted``: the last cycle raised a fault."""
        n = end - start
        chip = self.chip
        chip.stats.cycles += n
        # every superblock cycle issued a bundle, and every one of
        # those bundles was a decoded-bundle-cache hit (a faulting
        # bundle issues too; only the thread's commit stats skip it)
        chip.fetch_hits += n
        chip.superblock_blocks += 1
        chip.superblock_bundles += n
        self.issued_cycles += n
        # scheduling bookkeeping a per-cycle run would have left behind
        self._next_slot = (thread.slot + 1) % len(self.slots)
        self.last_domain = thread.domain
        self._last_tid = thread.tid
        thread.stats.bundles += bundles
        thread.stats.operations += operations
        chip.stats.issued_bundles += n + chip._settle_others(self, start, end,
                                                             faulted)

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


# -- compiled bundles: one definition per opcode ---------------------------


#: A bundle node: one decoded bundle compiled for issue through one
#: pointer word.  The decoded-bundle cache maps each fetch address to
#: its nodes by pointer word (:meth:`MAPChip.fetch`), and the per-cycle
#: path and superblock traces both execute them (PERF.md §6).  Nodes
#: are plain tuples because both executors unpack one every cycle, and
#: CPython unpacks an exact tuple fastest (a NamedTuple subclass
#: measured ~7% slower on an ALU trace).  The fields, in order:
#:
#: * ``bundle`` — the decoded :class:`~repro.machine.isa.Bundle`;
#: * ``int_fn``, ``fp_fn``, ``mem_fn`` — one closure per live slot,
#:   ``fn(thread, regs, commits, now)``, or ``None`` for a NOP slot (a
#:   filler has no effect, so skipping the call is behaviorally
#:   identical).  The integer closure returns a branch target, the
#:   ``_Halt`` sentinel or None; the memory closure returns
#:   ``(block_until, pending_writes)``;
#: * ``next_ip`` — the memoized fall-through IP, or None when it leaves
#:   the code segment (the executors then re-derive it live, which
#:   faults);
#: * ``live_ops`` — the bundle's non-filler operations;
#: * ``ends_trace`` — HALT or TRAP: final thread state and trap dispatch
#:   belong to the per-cycle path, so superblock traces stop in front.
#:
#: A node refers to nothing that refers back to it, so one dropped from
#: the cache is freed at once.
NODE_BUNDLE = 0
NODE_MEM_FN = 3


def compile_bundle(chip: "MAPChip", bundle: Bundle,
                   ip: GuardedPointer) -> tuple:
    """Compile ``bundle``, fetched through ``ip``, into its node (the
    layout above).

    The trace-cache idiom: everything that is a pure function of the
    encoding and the fetch pointer — which unit an op needs, ALU
    immediates, MOVI's word, branch targets, the fall-through IP —
    resolves once, here, so issuing the bundle spends no cycles
    re-deciding what each op *is*.  Pre-deriving pointers is invisible:
    LEA is pure (the same derivation the executors would make, through
    the same memo), and a derivation that faults is re-made live, so
    the fault raises only where stepping would raise it."""
    try:
        next_ip = _lea(chip, ip.word, BUNDLE_BYTES)
    except GuardedPointerFault:
        next_ip = None
    code = bundle.int_op.opcode
    return (bundle, _compile_int(chip, bundle.int_op, ip),
            _compile_fp(bundle.fp_op), _compile_mem(chip, bundle.mem_op),
            next_ip, bundle.live_ops,
            code is Opcode.HALT or code is Opcode.TRAP)


def _unit(unit, chip: "MAPChip", op: Operation):
    """The closure of a rare op: call its unit on every issue."""
    def call_unit(thread, regs, commits, now):
        return unit(chip, thread, op, commits, now)
    return call_unit


def _compile_int(chip: "MAPChip", op: Operation, ip: GuardedPointer):
    """The integer-slot closure.  ALU ops, MOVI, MOV, the branches, HALT
    and TRAP are defined here; the rest call :func:`_int_unit`."""
    code = op.opcode
    rd, ra, rb, imm = op.rd, op.ra, op.rb, op.imm
    if code is Opcode.NOP:
        return None
    # ALU results are built the way the frozen dataclass's own __init__
    # does (object.__setattr__), skipping three Python calls per op;
    # reading ``.value`` ignores the tag, exactly as ``.untagged()``
    new = TaggedWord.__new__
    setattr_ = object.__setattr__
    if code in _INT_ALU_IMM:
        fn = _INT_ALU[_INT_ALU_IMM[code]]
        b = imm & _WORD_MASK

        def alu_imm(thread, regs, commits, now):
            word = new(TaggedWord)
            setattr_(word, "value", fn(regs.read(ra).value, b) & _WORD_MASK)
            setattr_(word, "tag", False)
            commits.append(("r", rd, word))
        return alu_imm
    if code in _INT_ALU:
        fn = _INT_ALU[code]

        def alu(thread, regs, commits, now):
            word = new(TaggedWord)
            setattr_(word, "value",
                     fn(regs.read(ra).value, regs.read(rb).value)
                     & _WORD_MASK)
            setattr_(word, "tag", False)
            commits.append(("r", rd, word))
        return alu
    if code is Opcode.MOVI:
        write = ("r", rd, TaggedWord.integer(imm))

        def movi(thread, regs, commits, now):
            commits.append(write)
        return movi
    if code is Opcode.MOV:
        def mov(thread, regs, commits, now):
            # MOV preserves the tag: copying a pointer yields the pointer
            commits.append(("r", rd, regs.read(ra)))
        return mov
    if code is Opcode.BR or code is Opcode.BEQ or code is Opcode.BNE:
        try:
            target = _lea(chip, ip.word, imm)
        except GuardedPointerFault:
            # the target leaves the segment: derive it live, so the
            # fault raises only when the branch is taken
            target = None
        if code is Opcode.BR:
            def br(thread, regs, commits, now):
                if target is None:
                    return _lea(chip, thread.ip.word, imm)
                return target
            return br
        want_zero = code is Opcode.BEQ

        def branch(thread, regs, commits, now):
            if (regs.read(rd).value == 0) is not want_zero:
                return None
            if target is None:
                return _lea(chip, thread.ip.word, imm)
            return target
        return branch
    if code is Opcode.HALT:
        def halt(thread, regs, commits, now):
            return _Halt
        return halt
    if code is Opcode.TRAP:
        def trap(thread, regs, commits, now):
            raise TrapFault(imm)
        return trap
    return _unit(_int_unit, chip, op)


def _compile_fp(op: Operation):
    """The floating-point-slot closure: the FP ALU is defined here; the
    moves and casts call :func:`_fp_unit`."""
    code = op.opcode
    if code is Opcode.FNOP or code is Opcode.NOP:
        return None
    if code in _FP_ALU:
        fn = _FP_ALU[code]
        rd, ra, rb = op.rd, op.ra, op.rb

        def fp_alu(thread, regs, commits, now):
            commits.append(("f", rd, fn(regs.read_f(ra), regs.read_f(rb))))
        return fp_alu
    return _unit(_fp_unit, None, op)


#: a memory op that neither blocks nor defers a register write
_NO_BLOCK = (None, ())


def _compile_mem(chip: "MAPChip", op: Operation):
    """The memory-slot closure: the checked loads and stores are defined
    here; pointer manipulation calls :func:`_mem_unit`.

    Loads and stores keep the exact per-execution path — the
    access-check memo, the banked cache's timing, the load-to-use
    histogram, the store's decoded-bundle invalidation.  Off a mesh
    they bind the local cache port directly, which is everything
    :meth:`MAPChip.access_memory` does without a router; on a mesh
    they go through ``access_memory`` for routing, remote waits and the
    remote-code mirror.  A node compiled off a mesh never runs on one:
    attaching a router drops every decoded bundle.
    """
    code = op.opcode
    if code is Opcode.NOP or code is Opcode.FNOP:
        return None
    ra, rd, imm = op.ra, op.rd, op.imm
    meshed = chip.router is not None
    if code is Opcode.LD or code is Opcode.LDF:
        access = chip.access_memory if meshed else chip.cache.access
        obs = chip.obs
        load_to_use = obs.load_to_use.add
        to_float = code is Opcode.LDF
        bank = "f" if to_float else "r"

        def load(thread, regs, commits, now):
            vaddr = _mem_address(chip, regs.read(ra), imm, False)
            # the port's (word, ready_cycle, hit, bank) tuple, read by
            # index: CPython indexes a tuple subclass faster than it
            # unpacks or reads fields of one
            result = access(vaddr, write=False, now=now)
            ready = result[1]
            if ready == REMOTE_WAIT:
                # remote load: the window barrier resolves the value
                # and the true latency (the histogram is charged then)
                chip.router.bind_remote_load(chip, thread.tid, bank, rd)
                return REMOTE_WAIT, ()
            if obs.enabled:
                load_to_use(ready - now)
            if to_float:
                return ready, (("f", rd, word_to_float(result[0])),)
            return ready, (("r", rd, result[0]),)
        return load
    if code is Opcode.ST or code is Opcode.STF:
        access = chip.access_memory if meshed else chip.cache.access
        invalidate = None if meshed else chip.invalidate_decoded_word
        from_float = code is Opcode.STF

        def store(thread, regs, commits, now):
            vaddr = _mem_address(chip, regs.read(ra), imm, True)
            if from_float:
                value = float_to_word(regs.read_f(rd))
            else:
                value = regs.read(rd)
            if invalidate is not None:
                invalidate(vaddr)
            access(vaddr, write=True, now=now, value=value)
            return _NO_BLOCK  # stores are buffered; the thread proceeds
        return store
    return _unit(_mem_unit, chip, op)


# -- the rare-op units -----------------------------------------------------


def _int_unit(chip: "MAPChip", thread: Thread, op: Operation,
              commits: list, now: int):
    """ISPTR, GETIP and JMP; returns JMP's target, else None."""
    code = op.opcode
    regs = thread.regs
    if code is Opcode.ISPTR:
        commits.append(("r", op.rd, ops.ispointer(regs.read(op.ra))))
        return None
    if code is Opcode.GETIP:
        commits.append(("r", op.rd, _lea(chip, thread.ip.word, op.imm).word))
        return None
    if code is Opcode.JMP:
        target_word = regs.read(op.ra)
        new_ip = ops.check_jump(target_word, thread.privileged)
        auditor = chip.jump_auditor
        if auditor is not None:
            auditor(thread, GuardedPointer.from_word(target_word),
                    new_ip, now)
        obs = chip.obs
        if obs.enabled:
            obs.note_jump(thread, target_word, new_ip, now,
                          cluster=thread.scheduler.cluster_id)
        return new_ip
    raise AssertionError(f"unhandled integer op {code.name}")


def _fp_unit(chip, thread: Thread, op: Operation, commits: list,
             now: int) -> None:
    """FMOV and the casts."""
    code = op.opcode
    regs = thread.regs
    if code is Opcode.FMOV:
        commits.append(("f", op.rd, regs.read_f(op.ra)))
        return
    if code is Opcode.ITOF:
        commits.append(("f", op.rd, float(regs.read(op.ra).as_signed())))
        return
    if code is Opcode.FTOI:
        commits.append(("r", op.rd,
                        TaggedWord.integer(saturating_ftoi(regs.read_f(op.ra)))))
        return
    raise AssertionError(f"unhandled fp op {code.name}")


def _mem_unit(chip: "MAPChip", thread: Thread, op: Operation,
              commits: list, now: int):
    """The pointer-manipulation ops; none of them blocks."""
    code = op.opcode
    regs = thread.regs
    if code is Opcode.LEA:
        commits.append(("r", op.rd, _lea(chip, regs.read(op.ra), op.imm).word))
    elif code is Opcode.LEAR:
        offset = to_s64(regs.read(op.rb).untagged().value)
        commits.append(("r", op.rd, _lea(chip, regs.read(op.ra), offset).word))
    elif code is Opcode.LEAB:
        commits.append(("r", op.rd, ops.leab(regs.read(op.ra), op.imm).word))
    elif code is Opcode.LEABR:
        offset = to_s64(regs.read(op.rb).untagged().value)
        commits.append(("r", op.rd, ops.leab(regs.read(op.ra), offset).word))
    elif code is Opcode.SETPTR:
        forged = ops.setptr(regs.read(op.ra), privileged=thread.privileged)
        commits.append(("r", op.rd, forged.word))
    elif code is Opcode.RESTRICT:
        perm_code = regs.read(op.rb).untagged().value
        try:
            perm = Permission(perm_code)
        except ValueError:
            raise RestrictFault(f"not a permission code: {perm_code}") from None
        commits.append(("r", op.rd, ops.restrict(regs.read(op.ra), perm).word))
    elif code is Opcode.SUBSEG:
        length = regs.read(op.rb).untagged().value
        commits.append(("r", op.rd, ops.subseg(regs.read(op.ra), length).word))
    else:
        raise AssertionError(f"unhandled memory op {code.name}")
    return _NO_BLOCK


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
