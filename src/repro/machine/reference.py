"""A sequential reference interpreter for MAP programs.

This is the differential-testing oracle for the cycle-level simulator:
it executes bundles one at a time against a flat functional memory —
no cache, no banks, no blocking loads, no multithreading — using the
same architectural semantics (the checked operations of
``repro.core.operations`` and LIW read-before-write within a bundle).

Any divergence between :class:`ReferenceInterpreter` and
:class:`~repro.machine.chip.MAPChip` on a single-threaded program is a
pipeline bug: commit ordering, deferred load writeback, IP update or
fault atomicity.  ``tests/machine/test_differential.py`` fuzzes random
programs through both.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core import operations as ops
from repro.core.exceptions import GuardedPointerFault, PermissionFault, RestrictFault
from repro.core.permissions import Permission
from repro.core.pointer import GuardedPointer
from repro.core.word import TaggedWord, to_s64
from repro.machine.cluster import _FP_ALU, _INT_ALU, _INT_ALU_IMM
from repro.machine.faults import TrapFault
from repro.machine.isa import BUNDLE_BYTES, OP_BYTES, SLOTS, Bundle, Opcode, Operation
from repro.machine.registers import (RegisterFile, float_to_word,
                                     saturating_ftoi, word_to_float)
from repro.mem.tagged_memory import AlignmentFault


@dataclass
class ReferenceResult:
    """Outcome of a reference run."""

    reason: str                 #: "halted" | "faulted" | "max_bundles"
    bundles: int
    fault: GuardedPointerFault | None = None


class ReferenceInterpreter:
    """Flat-memory, one-bundle-at-a-time executor."""

    def __init__(self):
        self.regs = RegisterFile()
        self.memory: dict[int, TaggedWord] = {}
        self.code: dict[int, TaggedWord] = {}
        self.ip: GuardedPointer | None = None

    # -- setup -------------------------------------------------------------

    def load_program(self, program, base: int,
                     perm: Permission = Permission.EXECUTE_USER) -> GuardedPointer:
        """Place encoded words at ``base``; returns the entry pointer."""
        from repro.mem.allocator import round_up_log2
        words = program.encode()
        seglen = max(round_up_log2(max(len(words) * OP_BYTES, 1)), 3)
        if base % (1 << seglen):
            raise ValueError("base not aligned for the program size")
        for i, word in enumerate(words):
            self.code[base + i * OP_BYTES] = word
        entry = GuardedPointer.make(perm, seglen, base)
        self.ip = entry
        return entry

    def load_word(self, vaddr: int) -> TaggedWord:
        if vaddr % 8:
            raise AlignmentFault(f"unaligned word access at {vaddr:#x}")
        return self.memory.get(vaddr, self.code.get(vaddr, TaggedWord.zero()))

    def store_word(self, vaddr: int, word: TaggedWord) -> None:
        if vaddr % 8:
            raise AlignmentFault(f"unaligned word access at {vaddr:#x}")
        self.memory[vaddr] = word

    # -- execution ------------------------------------------------------------

    def run(self, max_bundles: int = 100_000) -> ReferenceResult:
        executed = 0
        while executed < max_bundles:
            try:
                state = self._step()
            except GuardedPointerFault as fault:
                return ReferenceResult("faulted", executed, fault)
            executed += 1
            if state == "halted":
                return ReferenceResult("halted", executed)
        return ReferenceResult("max_bundles", executed)

    def _fetch(self) -> Bundle:
        words = []
        for slot in range(SLOTS):
            vaddr = self.ip.address + slot * OP_BYTES
            if not self.ip.contains(vaddr):
                # same fault type the chip raises for this check
                raise PermissionFault("bundle extends past the code segment")
            words.append(self.load_word(vaddr))
        return Bundle.decode(words)

    def _step(self) -> str:
        try:
            bundle = self._fetch()
        except GuardedPointerFault:
            raise
        except Exception as cause:
            # undecodable words (a program stored garbage over its own
            # code) fault like they do on the chip, whose cluster wraps
            # any non-architectural fetch error the same way
            raise PermissionFault(f"{type(cause).__name__}: {cause}") from cause
        privileged = self.ip.permission is Permission.EXECUTE_PRIV
        commits: list[tuple[str, int, object]] = []
        branch_target: GuardedPointer | None = None
        halted = False

        target = self._exec_int(bundle.int_op, commits, privileged)
        if target == "halt":
            halted = True
        elif target is not None:
            branch_target = target
        self._exec_fp(bundle.fp_op, commits)
        self._exec_mem(bundle.mem_op, commits, privileged)

        self.regs.commit(commits)

        if halted:
            return "halted"
        if branch_target is not None:
            self.ip = branch_target
        else:
            self.ip = ops.lea(self.ip.word, BUNDLE_BYTES)
        return "running"

    def _exec_int(self, op: Operation, commits, privileged: bool):
        code = op.opcode
        regs = self.regs
        if code is Opcode.NOP:
            return None
        if code is Opcode.HALT:
            return "halt"
        if code is Opcode.TRAP:
            raise TrapFault(op.imm)
        if code in _INT_ALU:
            a = regs.read(op.ra).untagged().value
            b = regs.read(op.rb).untagged().value
            commits.append(("r", op.rd, TaggedWord.integer(_INT_ALU[code](a, b))))
            return None
        if code in _INT_ALU_IMM:
            a = regs.read(op.ra).untagged().value
            b = op.imm & ((1 << 64) - 1)
            fn = _INT_ALU[_INT_ALU_IMM[code]]
            commits.append(("r", op.rd, TaggedWord.integer(fn(a, b))))
            return None
        if code is Opcode.MOVI:
            commits.append(("r", op.rd, TaggedWord.integer(op.imm)))
            return None
        if code is Opcode.MOV:
            commits.append(("r", op.rd, regs.read(op.ra)))
            return None
        if code is Opcode.ISPTR:
            commits.append(("r", op.rd, ops.ispointer(regs.read(op.ra))))
            return None
        if code is Opcode.GETIP:
            commits.append(("r", op.rd, ops.lea(self.ip.word, op.imm).word))
            return None
        if code is Opcode.BR:
            return ops.lea(self.ip.word, op.imm)
        if code in (Opcode.BEQ, Opcode.BNE):
            value = regs.read(op.rd).untagged().value
            taken = (value == 0) if code is Opcode.BEQ else (value != 0)
            return ops.lea(self.ip.word, op.imm) if taken else None
        if code is Opcode.JMP:
            return ops.check_jump(regs.read(op.ra), privileged)
        raise AssertionError(f"unhandled integer op {code.name}")

    def _exec_fp(self, op: Operation, commits) -> None:
        code = op.opcode
        regs = self.regs
        if code in (Opcode.FNOP, Opcode.NOP):
            return
        if code in _FP_ALU:
            commits.append(("f", op.rd,
                            _FP_ALU[code](regs.read_f(op.ra), regs.read_f(op.rb))))
            return
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

    def _exec_mem(self, op: Operation, commits, privileged: bool) -> None:
        code = op.opcode
        regs = self.regs
        if code in (Opcode.NOP, Opcode.FNOP):
            return
        if code is Opcode.LD or code is Opcode.LDF:
            ptr = ops.lea(regs.read(op.ra), op.imm)
            ops.check_load(ptr.word)
            word = self.load_word(ptr.address)
            if code is Opcode.LD:
                commits.append(("r", op.rd, word))
            else:
                commits.append(("f", op.rd, word_to_float(word)))
            return
        if code is Opcode.ST or code is Opcode.STF:
            ptr = ops.lea(regs.read(op.ra), op.imm)
            ops.check_store(ptr.word)
            if code is Opcode.ST:
                value = regs.read(op.rd)
            else:
                value = float_to_word(regs.read_f(op.rd))
            self.store_word(ptr.address, value)
            return
        if code is Opcode.LEA:
            commits.append(("r", op.rd, ops.lea(regs.read(op.ra), op.imm).word))
            return
        if code is Opcode.LEAR:
            offset = to_s64(regs.read(op.rb).untagged().value)
            commits.append(("r", op.rd, ops.lea(regs.read(op.ra), offset).word))
            return
        if code is Opcode.LEAB:
            commits.append(("r", op.rd, ops.leab(regs.read(op.ra), op.imm).word))
            return
        if code is Opcode.LEABR:
            offset = to_s64(regs.read(op.rb).untagged().value)
            commits.append(("r", op.rd, ops.leab(regs.read(op.ra), offset).word))
            return
        if code is Opcode.SETPTR:
            commits.append(("r", op.rd,
                            ops.setptr(regs.read(op.ra), privileged).word))
            return
        if code is Opcode.RESTRICT:
            perm_code = regs.read(op.rb).untagged().value
            try:
                perm = Permission(perm_code)
            except ValueError:
                # same conversion the cluster performs
                raise RestrictFault(
                    f"not a permission code: {perm_code}") from None
            commits.append(("r", op.rd,
                            ops.restrict(regs.read(op.ra), perm).word))
            return
        if code is Opcode.SUBSEG:
            length = regs.read(op.rb).untagged().value
            commits.append(("r", op.rd,
                            ops.subseg(regs.read(op.ra), length).word))
            return
        raise AssertionError(f"unhandled memory op {code.name}")
