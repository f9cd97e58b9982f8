"""Standard system services, both ways the paper describes.

§2.2: "The RESTRICT and SUBSEG instructions are not completely
necessary, as they can be emulated by providing user processes with
enter-privileged pointers to routines that use the SETPTR instruction
... The M-Machine ... takes this approach."

This module provides exactly those routines — RESTRICT and SUBSEG
implemented *in MAP assembly* behind enter-privileged gateways, with the
permission-subset check done in software against a rights table kept in
the gateway's code segment — plus the small set of services that truly
need kernel state (segment allocation/free), reached by TRAP.

Gateway calling convention (registers):

=====  =========================================
r3     pointer argument
r4     permission code / new length
r5     result (0 on refusal)
r15    return instruction pointer (caller GETIPs)
=====  =========================================

The gateways clobber r6–r13 (documented scratch); r14 — the stack
pointer convention register — is preserved.

**The refusal contract.**  A gateway runs SETPTR, the one instruction
that can amplify rights, on operands its caller chose, so it returns
exactly what the hardware instruction it emulates
(:func:`~repro.core.operations.restrict`,
:func:`~repro.core.operations.subseg`) returns, and refuses — r5 = the
untagged word 0 — exactly where that instruction faults:

* either gateway: r3 is not a pointer (its bits would name a segment
  nobody granted);
* RESTRICT: r4 is not a permission code 0–6, or its rights are not a
  strict subset of r3's;
* SUBSEG: r3's permission has no MODIFY right (enter pointers and
  keys), or r4, read as an unsigned word, is not below r3's length.

Trap ABI: ``TRAP code`` with r3/r4 as arguments, result in r5.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.constants import LENGTH_SHIFT, PERM_SHIFT
from repro.core.permissions import Permission, rights_of
from repro.core.pointer import GuardedPointer
from repro.core.word import TaggedWord
from repro.machine.faults import FaultRecord
from repro.machine.thread import Thread
from repro.runtime.kernel import Kernel
from repro.runtime.subsystem import ProtectedSubsystem

#: trap codes for the kernel-state services
TRAP_ALLOC = 0x10   #: r3 = bytes, r4 = permission code → r5 = pointer
TRAP_FREE = 0x11    #: r3 = pointer → r5 = 1 on success
TRAP_SPAWN = 0x12   #: r3 = code pointer, r4 = argument (→ child r1),
                    #: r6 = optional data pointer (→ child r2);
                    #: returns r5 = child tid + 1, or 0 on refusal
TRAP_TID = 0x13     #: → r5 = caller's thread id


def _rights_table_words() -> list[str]:
    """.word lines encoding rights_of(perm) for codes 0..6, used by the
    in-assembly subset check."""
    lines = []
    for code in range(7):
        rights = rights_of(Permission(code)).value
        lines.append(f"    .word {rights}")
    return lines


#: RESTRICT as an enter-privileged routine: software subset check, then
#: SETPTR-forged result.  Refusal returns 0 rather than faulting, so the
#: caller can branch on it (a fault would kill the caller's thread).
RESTRICT_GATEWAY = "\n".join([
    "entry:",
    "    isptr r7, r3            ; only a pointer can be restricted",
    "    beq r7, refuse",
    "    shri r7, r4, 3          ; the new code must be 0..6: below 8",
    "    bne r7, refuse          ;   as an unsigned word,",
    "    seqi r7, r4, 7          ;   and not the reserved 7",
    "    bne r7, refuse",
    "    mov r6, r3",
    "    addi r6, r6, 0          ; strip the tag: pointer bits as integer",
    f"    shri r7, r6, {PERM_SHIFT}   ; old permission code",
    "    getip r8, rights",
    "    shli r9, r7, 4          ; rights table stride is 24 bytes:",
    "    shli r10, r7, 3         ;   offset = code*16 + code*8",
    "    add r9, r9, r10",
    "    lear r9, r8, r9",
    "    ld r9, r9, 0            ; rights[old]",
    "    shli r10, r4, 4",
    "    shli r11, r4, 3",
    "    add r10, r10, r11",
    "    lear r10, r8, r10",
    "    ld r10, r10, 0          ; rights[new]",
    "    and r12, r10, r9",
    "    seq r12, r12, r10       ; subset of old?",
    "    seq r13, r10, r9        ; identical rights?",
    "    xori r13, r13, 1",
    "    and r12, r12, r13       ; strict subset",
    "    beq r12, refuse",
    "    movi r13, 15",
    f"    shli r13, r13, {PERM_SHIFT}",
    "    xori r13, r13, -1       ; ~perm-field mask",
    "    and r6, r6, r13         ; clear the old permission",
    f"    shli r13, r4, {PERM_SHIFT}",
    "    or r6, r6, r13          ; insert the new one",
    "    setptr r5, r6           ; privileged forge",
    "    movi r6, 0              ; wipe temporaries (incl. our own",
    "    movi r8, 0              ;  execute-priv self-pointer!)",
    "    movi r9, 0",
    "    jmp r15",
    "refuse:",
    "    movi r5, 0",
    "    movi r6, 0",
    "    movi r8, 0",
    "    movi r9, 0",
    "    jmp r15",
    "rights:",
    *_rights_table_words(),
])


#: SUBSEG as an enter-privileged routine: new length must be strictly
#: smaller; field replaced, pointer re-forged with SETPTR.
SUBSEG_GATEWAY = "\n".join([
    "entry:",
    "    isptr r7, r3            ; only a pointer can be shrunk",
    "    beq r7, refuse",
    "    mov r6, r3",
    "    addi r6, r6, 0          ; strip the tag",
    f"    shri r7, r6, {PERM_SHIFT + 2}",
    "    bne r7, refuse          ; codes 4..6 (enter, key): no MODIFY",
    "    shri r8, r4, 6          ; the new length must be below 64 as",
    "    bne r8, refuse          ;   an unsigned word (so slt is exact)",
    f"    shri r7, r6, {LENGTH_SHIFT}",
    "    andi r7, r7, 63         ; old length field",
    "    slt r8, r4, r7          ; new < old ?",
    "    beq r8, refuse",
    "    movi r9, 63",
    f"    shli r9, r9, {LENGTH_SHIFT}",
    "    xori r9, r9, -1         ; ~length-field mask",
    "    and r6, r6, r9",
    f"    shli r9, r4, {LENGTH_SHIFT}",
    "    or r6, r6, r9",
    "    setptr r5, r6",
    "    movi r6, 0",
    "    movi r9, 0",
    "    jmp r15",
    "refuse:",
    "    movi r5, 0",
    "    movi r6, 0",
    "    jmp r15",
])


@dataclass(frozen=True)
class Services:
    """Handles user code needs to reach the standard services."""

    restrict_gateway: GuardedPointer   #: enter-privileged
    subseg_gateway: GuardedPointer     #: enter-privileged


def install(kernel: Kernel) -> Services:
    """Install the gateway routines and the kernel trap services;
    returns the enter pointers to hand to user programs."""
    restrict_sub = ProtectedSubsystem.install(kernel, RESTRICT_GATEWAY,
                                              privileged=True)
    subseg_sub = ProtectedSubsystem.install(kernel, SUBSEG_GATEWAY,
                                            privileged=True)

    def alloc_service(thread: Thread, record: FaultRecord) -> None:
        nbytes = thread.regs.read(3).value
        perm_code = thread.regs.read(4).value
        try:
            perm = Permission(perm_code)
            pointer = kernel.allocate_segment(max(nbytes, 1), perm)
            thread.regs.write(5, pointer.word)
        except Exception:
            thread.regs.write(5, TaggedWord.zero())

    def free_service(thread: Thread, record: FaultRecord) -> None:
        word = thread.regs.read(3)
        try:
            kernel.free_segment(GuardedPointer.from_word(word))
            thread.regs.write(5, TaggedWord.integer(1))
        except Exception:
            thread.regs.write(5, TaggedWord.zero())

    def spawn_service(thread: Thread, record: FaultRecord) -> None:
        """Create a thread in the caller's protection domain.

        The child starts at the given code pointer with the argument in
        r1 and the optional data pointer in r2 — the caller can only
        hand the child pointers it already holds, so spawning cannot
        amplify rights.
        """
        from repro.core.operations import check_jump
        try:
            entry = check_jump(thread.regs.read(3), privileged=False)
            regs: dict[int, object] = {1: thread.regs.read(4)}
            if thread.regs.read(6).tag:
                regs[2] = thread.regs.read(6)
            child = kernel.spawn(entry, domain=thread.domain, regs=regs,
                                 stack_bytes=4096)
            thread.regs.write(5, TaggedWord.integer(child.tid + 1))
        except Exception:
            thread.regs.write(5, TaggedWord.zero())

    def tid_service(thread: Thread, record: FaultRecord) -> None:
        thread.regs.write(5, TaggedWord.integer(thread.tid))

    kernel.register_trap(TRAP_ALLOC, alloc_service)
    kernel.register_trap(TRAP_FREE, free_service)
    kernel.register_trap(TRAP_SPAWN, spawn_service)
    kernel.register_trap(TRAP_TID, tid_service)
    return Services(
        restrict_gateway=restrict_sub.enter,
        subseg_gateway=subseg_sub.enter,
    )
