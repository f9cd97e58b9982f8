"""Thread contexts.

The MAP keeps several threads resident per cluster and selects among
them every cycle; a thread's entire protection state is its register
contents and instruction pointer, which is why switching threads —
even across protection domains — costs nothing (§3).

``domain`` tags the thread's protection domain.  Guarded-pointer
hardware never looks at it; experiment E5 uses it to model conventional
machines that must do work when consecutively issued threads belong to
different domains.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.core.constants import PERM_SHIFT
from repro.core.permissions import (EXECUTE_BY_CODE, PERMISSION_BY_CODE,
                                    Permission)
from repro.core.pointer import GuardedPointer
from repro.machine.faults import FaultRecord
from repro.machine.registers import RegisterFile


#: ``wake_at`` sentinel for a thread blocked on a remote load whose
#: reply cycle is not known yet (the windowed mesh engine resolves it
#: at the next window barrier and rewrites ``wake_at`` with the real
#: reply cycle).  Far beyond any reachable cycle count, so the normal
#: wake scan never fires on it.
REMOTE_WAIT = 1 << 60

#: the permission field of a privileged IP
_EXECUTE_PRIV = int(Permission.EXECUTE_PRIV)


class ThreadState(enum.Enum):
    READY = "ready"        #: may issue this cycle
    BLOCKED = "blocked"    #: waiting on the memory system
    HALTED = "halted"      #: executed HALT
    FAULTED = "faulted"    #: stopped on a fault, awaiting the kernel


@dataclass
class ThreadStats:
    bundles: int = 0
    operations: int = 0
    stall_cycles: int = 0
    faults: int = 0


@dataclass
class Thread:
    """One hardware thread slot's architectural state.

    ``state`` is a property over the ``_state`` field: every transition
    is reported to the cluster the thread is resident on (its
    ``scheduler``), which keeps per-state occupancy counts incrementally
    — the run loop reads those counts instead of rescanning every
    thread every cycle.
    """

    tid: int
    ip: GuardedPointer
    domain: int = 0
    regs: RegisterFile = field(default_factory=RegisterFile)
    _state: ThreadState = field(default=ThreadState.READY, repr=False)
    wake_at: int = 0
    #: register writes deferred until a blocking load completes:
    #: list of ("r"|"f", index, value)
    pending_writes: list = field(default_factory=list)
    fault: FaultRecord | None = None
    stats: ThreadStats = field(default_factory=ThreadStats)
    #: cycle at which this thread executed HALT (None while running) —
    #: an observability stamp set by the cluster, never read by the
    #: model; the service load driver turns it into request latency
    halted_at: int | None = None
    #: the cluster whose slot holds this thread (None while unplaced);
    #: set by Cluster.add_thread, notified on every state transition
    scheduler: object | None = field(default=None, repr=False, compare=False)
    #: the index of that slot (meaningful only while ``scheduler`` is
    #: set): the bit this thread owns in the cluster's ready mask
    slot: int = field(default=0, repr=False, compare=False)

    def __post_init__(self) -> None:
        # the IP word's permission field, read as the fetch check reads
        # it: a reserved code, then any non-execute code, raises
        code = self.ip.word.value >> PERM_SHIFT
        if not EXECUTE_BY_CODE[code]:
            if PERMISSION_BY_CODE[code] is None:
                raise ValueError(f"reserved permission code: {code}")
            raise ValueError("a thread's IP must be an execute pointer")

    @property
    def state(self) -> ThreadState:
        return self._state

    @state.setter
    def state(self, new: ThreadState) -> None:
        old = self._state
        self._state = new
        if old is not new and self.scheduler is not None:
            self.scheduler.on_state_change(self, old, new)

    @property
    def privileged(self) -> bool:
        """True while running with an execute-privileged IP (§2.2)."""
        return self.ip.word.value >> PERM_SHIFT == _EXECUTE_PRIV

    def block_until(self, cycle: int) -> None:
        self.state = ThreadState.BLOCKED
        self.wake_at = cycle

    def maybe_wake(self, now: int) -> None:
        if self.state is ThreadState.BLOCKED and now >= self.wake_at:
            self.regs.commit(self.pending_writes)
            self.pending_writes.clear()
            self.state = ThreadState.READY

    def record_fault(self, record: FaultRecord) -> None:
        self.state = ThreadState.FAULTED
        self.fault = record
        self.stats.faults += 1

    def resume(self) -> None:
        """Clear a fault and make the thread runnable again; the
        faulting bundle re-executes because nothing was committed."""
        if self.state is not ThreadState.FAULTED:
            raise ValueError("only a faulted thread can be resumed")
        self.fault = None
        self.state = ThreadState.READY
