"""Multi-op LIW bundles against the reference interpreter.

Each decoded bundle issues as one generated function that reads every
operand before any op writes (LIW read-before-write) and writes no
register unless every op passed its checks (fault atomicity).  The
sweep runs every (int, mem, fp) opcode triple the ISA decodes, one
bundle each, with cross-slot hazards — each slot writes a register
another slot reads — through ``step()``, ``run()``, the plain machine
(``fast_paths=False``) and :class:`ReferenceInterpreter`, and compares
registers by bits, data memory and the fault type.
"""

import struct

import pytest

from repro.core.permissions import Permission
from repro.core.pointer import GuardedPointer
from repro.core.word import TaggedWord
from repro.machine.assembler import assemble
from repro.machine.chip import ChipConfig, MAPChip
from repro.machine.isa import (BUNDLE_BYTES, IMM_MAX, IMM_MIN, OP_BYTES,
                               OP_INFO, Bundle, Opcode, Operation, Slot)
from repro.machine.reference import ReferenceInterpreter
from repro.machine.thread import ThreadState
from repro.mem.allocator import round_up_log2

CODE = 0x10000
DATA = 0x40000
DATA_SEGLEN = 12
#: the data words compared: every one a test program can store to
DATA_WORDS = 64

INT_OPS = [op for op in Opcode if OP_INFO[op][0] is Slot.INT]
MEM_OPS = [Opcode.NOP] + [op for op in Opcode if OP_INFO[op][0] is Slot.MEM]
FP_OPS = [op for op in Opcode if OP_INFO[op][0] is Slot.FP]

#: the swept bundle's place, and the target its branches, JMP and GETIP
#: name (see :func:`sweep_program`)
SWEPT, EXIT = 1, 5


def _bits(value: float) -> int:
    return struct.unpack("<Q", struct.pack("<d", value))[0]


def _entry(words: list[TaggedWord], start: int = 0) -> GuardedPointer:
    seglen = max(round_up_log2(len(words) * OP_BYTES), 3)
    return GuardedPointer.make(Permission.EXECUTE_USER, seglen, CODE + start)


def outcomes(words, regs=None, fregs=None, data=None, start=0,
             cycles=5_000):
    """Run the encoded program at ``CODE``, entered at byte ``start``,
    on four engines: a chip stepped cycle by cycle, ``run()``, the
    plain machine, and the reference.  ``regs``, ``fregs`` and ``data``
    (offset -> word in the data segment, a pointer to which is in r8)
    set the start state.  Returns each engine's (outcome, fault type,
    integer registers, FP register bits, data words)."""
    entry = _entry(words, start)
    pointer = GuardedPointer.make(Permission.READ_WRITE, DATA_SEGLEN, DATA)
    regs = {8: pointer.word, **(regs or {})}
    fregs = fregs or {}
    data = data or {}
    results = {}
    for engine in ("step", "run", "plain"):
        # a small cache: these chips are built thousands of times
        chip = MAPChip(ChipConfig(memory_bytes=128 * 1024, cache_bytes=4096,
                                  fast_paths=engine != "plain"))
        chip.page_table.ensure_mapped(CODE, len(words) * OP_BYTES)
        for i, word in enumerate(words):
            chip.memory.store_word(chip.page_table.walk(CODE + i * OP_BYTES),
                                   word)
        chip.page_table.ensure_mapped(DATA, 1 << DATA_SEGLEN)
        for offset, word in data.items():
            chip.memory.store_word(chip.page_table.walk(DATA + offset), word)
        thread = chip.spawn(entry, regs=regs)
        for index, value in fregs.items():
            thread.regs.write_f(index, value)
        if engine == "step":
            while chip.runnable_threads() and chip.now < cycles:
                chip.step()
        else:
            chip.run(max_cycles=cycles)
        assert thread.state in (ThreadState.HALTED, ThreadState.FAULTED)
        results[engine] = (
            thread.state.value,
            type(thread.fault.cause).__name__ if thread.fault else None,
            tuple(thread.regs.read(i) for i in range(16)),
            tuple(_bits(thread.regs.read_f(i)) for i in range(16)),
            tuple(chip.memory.load_word(chip.page_table.walk(DATA + offset))
                  for offset in range(0, 8 * DATA_WORDS, 8)))
    ref = ReferenceInterpreter()
    for i, word in enumerate(words):
        ref.code[CODE + i * OP_BYTES] = word
    ref.ip = entry
    for index, value in regs.items():
        ref.regs.write(index, value)
    for index, value in fregs.items():
        ref.regs.write_f(index, value)
    for offset, word in data.items():
        ref.memory[DATA + offset] = word
    done = ref.run(max_bundles=cycles)
    results["reference"] = (
        done.reason,
        type(done.fault).__name__ if done.fault else None,
        tuple(ref.regs.read(i) for i in range(16)),
        tuple(_bits(ref.regs.read_f(i)) for i in range(16)),
        tuple(ref.load_word(DATA + offset)
              for offset in range(0, 8 * DATA_WORDS, 8)))
    return results


def assert_engines_agree(results) -> None:
    reference = results.pop("reference")
    for engine, result in results.items():
        for what, mine, theirs in zip(
                ("outcome", "fault", "registers", "fp registers", "data"),
                result, reference):
            assert mine == theirs, (engine, what, mine, theirs)


def sweep_program(int_code, mem_code, fp_code) -> list[TaggedWord]:
    """A loop that issues the swept bundle twice (so the second time a
    superblock trace can run it from the decode cache):

    ====  =========================================================
    0     ``movi r12, 2``
    1     the swept bundle: the int op writes r1 and reads r2, r3;
          the mem op writes r2 or f2 and reads r1 (register offsets,
          RESTRICT's code, SUBSEG's length) through r8; the fp op
          writes f3 or r3 and reads r1 or f1, f2
    2-4   ``subi r12, r12, 1``, ``bne r12, 1``, ``halt``
    5-6   ``movi r9, 77``, ``halt``: where a branch, JMP or GETIP leads
    ====  =========================================================
    """
    to_exit = (EXIT - SWEPT) * BUNDLE_BYTES
    bundles = [
        Bundle.of(Operation(Opcode.MOVI, rd=12, imm=2)),
        Bundle(Operation(int_code, rd=1, ra=2, rb=3, imm=to_exit),
               Operation(mem_code, rd=2, ra=8, rb=1, imm=8),
               Operation(fp_code, rd=3, ra=1, rb=2)),
        Bundle.of(Operation(Opcode.SUBI, rd=12, ra=12, imm=1)),
        Bundle.of(Operation(Opcode.BNE, rd=12, imm=-2 * BUNDLE_BYTES)),
        Bundle.of(Operation(Opcode.HALT)),
        Bundle.of(Operation(Opcode.MOVI, rd=9, imm=77)),
        Bundle.of(Operation(Opcode.HALT)),
    ]
    return [word for bundle in bundles for word in bundle.encode()]


def sweep_state(r1: int):
    """The swept program's start state: r2 an execute pointer to the
    exit (JMP's target), data word 8 the bits of 4.0."""
    exit_ip = GuardedPointer.make(
        Permission.EXECUTE_USER,
        _entry(sweep_program(Opcode.NOP, Opcode.NOP, Opcode.FNOP)).seglen,
        CODE + EXIT * BUNDLE_BYTES)
    return dict(regs={1: TaggedWord.integer(r1), 2: exit_ip.word,
                      3: TaggedWord.integer(5)},
                fregs={1: 1.5, 2: -2.0, 3: 0.25},
                data={8: TaggedWord.integer(_bits(4.0))})


#: the ops that read r1 before the swept bundle writes it
READS_R1 = {Opcode.BEQ, Opcode.BNE, Opcode.LEAR, Opcode.LEABR,
            Opcode.RESTRICT, Opcode.SUBSEG, Opcode.ITOF}


@pytest.mark.parametrize("int_code", INT_OPS, ids=lambda op: op.name)
def test_every_opcode_triple_matches_the_reference(int_code):
    # 12 x 8 triples per integer op; where an op reads r1, r1 = 0 and
    # 3 take BEQ and BNE both ways and give RESTRICT a legal and an
    # illegal code
    for mem_code in MEM_OPS:
        for fp_code in FP_OPS:
            words = sweep_program(int_code, mem_code, fp_code)
            reads = READS_R1 & {int_code, mem_code, fp_code}
            for r1 in (0, 3) if reads else (0,):
                results = outcomes(words, **sweep_state(r1))
                try:
                    assert_engines_agree(results)
                except AssertionError as failure:
                    raise AssertionError(
                        (int_code.name, mem_code.name, fp_code.name, r1,
                         failure.args)) from None


@pytest.mark.parametrize("source,fault", [
    # the integer slot faults: the store beside it must not land
    ("trap 7 | st r2, r8, 0 | fadd f3, f1, f2", "TrapFault"),
    ("jmp r3 | ld r2, r8, 8 | itof f3, r1", "TagFault"),
    # the memory slot faults: neither the ALU nor the FP write lands
    ("add r1, r2, r3 | ld r2, r8, 8192 | fmul f3, f1, f2", "BoundsFault"),
    ("movi r1, 9 | lea r2, r3, 0 | ftoi r3, f1", "TagFault"),
])
def test_a_faulting_slot_commits_nothing(source, fault):
    # the FP ops define a result for every operand, so only the integer
    # and memory slots can fault
    words = assemble(source + "\nhalt").encode()
    state = sweep_state(3)
    results = outcomes(words, **state)
    reference = results["reference"]
    assert reference[:2] == ("faulted", fault)
    assert reference[2][1:4] == tuple(state["regs"][i] for i in (1, 2, 3))
    assert reference[3][1:4] == tuple(_bits(state["fregs"][i])
                                      for i in (1, 2, 3))
    assert reference[4][:2] == (TaggedWord.zero(), state["data"][8])
    assert_engines_agree(results)


def _at_segment_end(source: str) -> tuple[list[TaggedWord], int]:
    """``source``'s words after zero words that make its last bundle
    end where its code segment ends, and the byte it starts at."""
    words = assemble(source).encode()
    pad = (1 << round_up_log2(len(words) * OP_BYTES)) // OP_BYTES - len(words)
    return [TaggedWord.zero()] * pad + words, pad * OP_BYTES


def test_a_load_whose_fall_through_leaves_the_segment():
    # the bundle's other writes land before the IP advance faults; the
    # load's does not, on every engine the chip has (the reference
    # commits the whole bundle first, so it is not asked)
    words, start = _at_segment_end("movi r4, 1\naddi r1, r1, 1 | ld r2, r8, 8")
    state = sweep_state(3)
    results = outcomes(words, start=start, **state)
    del results["reference"]
    (outcome, fault, regs, _, _), = set(results.values())
    assert (outcome, fault) == ("faulted", "BoundsFault")
    assert regs[1] == TaggedWord.integer(4) and regs[4].value == 1
    assert regs[2] == state["regs"][2]
    # the same bundle branching away lands its load (2, stored by the
    # first pass); falling through, it drops it (1, by the second)
    words, start = _at_segment_end(
        "movi r4, 2\ntop:\nsubi r4, r4, 1 | st r4, r8, 8\n"
        "bne r4, top | ld r2, r8, 8")
    results = outcomes(words, start=start, **state)
    del results["reference"]
    (outcome, fault, regs, _, _), = set(results.values())
    assert (outcome, fault) == ("faulted", "BoundsFault")
    assert regs[2] == TaggedWord.integer(2) and regs[4].value == 0


def test_a_wider_pointer_to_a_segment_end_load_lands_it():
    # the load bundle ends where a 64-byte segment ends: fetched through
    # that segment's pointer it falls off (the load is dropped with the
    # IP-advance fault); fetched next at the same address through a
    # pointer with twice the bounds, it falls through to a HALT, and
    # the load lands
    chip = MAPChip(ChipConfig(memory_bytes=128 * 1024, cache_bytes=4096))
    chip.page_table.ensure_mapped(CODE, 128)
    start = CODE + 40
    words = (assemble("ld r2, r8, 8").encode()
             + assemble("halt").encode())
    for i, word in enumerate(words):
        chip.memory.store_word(chip.page_table.walk(start + 8 * i), word)
    chip.page_table.ensure_mapped(DATA, 1 << DATA_SEGLEN)
    chip.memory.store_word(chip.page_table.walk(DATA + 8),
                           TaggedWord.integer(42))
    data = GuardedPointer.make(Permission.READ_WRITE, DATA_SEGLEN, DATA)
    narrow, wide = (
        chip.spawn(GuardedPointer.make(Permission.EXECUTE_USER, seglen,
                                       start), cluster=0,
                   regs={8: data.word})
        for seglen in (6, 7))
    chip.run()
    assert narrow.state is ThreadState.FAULTED
    assert narrow.regs.read(2) == TaggedWord.zero()
    assert wide.state is ThreadState.HALTED
    assert wide.regs.read(2) == TaggedWord.integer(42)


INT_EDGES = (0, 1, (1 << 63) - 1, 1 << 63, (1 << 64) - 1)
SHIFTS = (0, 1, 63, 64, 127)
IMM_EDGES = (0, 1, -1, 63, 64, 127, IMM_MAX, IMM_MIN)
FP_EDGES = (0.0, -0.0, float("inf"), float("-inf"), float("nan"), 1e308,
            5e-324)
INT_ALU = [op for op in INT_OPS
           if Opcode.ADD <= op <= Opcode.SEQ]
INT_ALU_IMM = [op for op in INT_OPS if Opcode.ADDI <= op <= Opcode.SEQI]
SHIFT_OPS = (Opcode.SHL, Opcode.SHR)
#: registers that hold operands (r8 is the data pointer, r11 the result)
VALUE_REGS = (1, 2, 3, 4, 5, 6, 7, 9, 10, 12)


def _stored(ops) -> list[TaggedWord]:
    """``ops`` (Operations writing r11, or f11 for an FP op), each
    followed by a store of its result to the next data word."""
    words = []
    for index, op in enumerate(ops):
        fp = OP_INFO[op.opcode][0] is Slot.FP
        store = Operation(Opcode.STF if fp else Opcode.ST, rd=11, ra=8,
                          imm=8 * index)
        words += Bundle.of(op).encode() + Bundle.of(store).encode()
    return words + Bundle.of(Operation(Opcode.HALT)).encode()


@pytest.mark.parametrize("code", INT_ALU + INT_ALU_IMM + list(
    (op for op in FP_OPS if Opcode.FADD <= op <= Opcode.FDIV)),
    ids=lambda op: op.name)
def test_alu_edge_operands_match_the_reference(code):
    # the chip's fragments and the reference's own ALU agree on every
    # edge operand, results compared by bits (NaN included)
    slot = OP_INFO[code][0]
    if slot is Slot.FP:
        fregs = dict(zip(VALUE_REGS, FP_EDGES))
        ops = [Operation(code, rd=11, ra=a, rb=b)
               for a in fregs for b in fregs]
        results = outcomes(_stored(ops), fregs=fregs)
    elif code in INT_ALU:
        # the edges in r1-r5, and the shift counts beside them
        values = INT_EDGES + (SHIFTS if code in SHIFT_OPS else ())
        regs = {i: TaggedWord.integer(v) for i, v in zip(VALUE_REGS, values)}
        ops = [Operation(code, rd=11, ra=a, rb=b)
               for a in VALUE_REGS[:len(INT_EDGES)] for b in regs]
        results = outcomes(_stored(ops), regs=regs)
    else:
        regs = {i: TaggedWord.integer(v) for i, v in zip(VALUE_REGS,
                                                          INT_EDGES)}
        ops = [Operation(code, rd=11, ra=a, imm=imm) for a in regs
               for imm in IMM_EDGES]
        results = outcomes(_stored(ops), regs=regs)
    assert results["reference"][0] == "halted"
    assert_engines_agree(results)
