"""Tests for the standard services: SETPTR gateways and kernel traps."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import operations as ops
from repro.core.constants import LENGTH_SHIFT, PERM_SHIFT, WORD_MASK
from repro.core.exceptions import EncodingFault, GuardedPointerFault
from repro.core.permissions import Permission
from repro.core.pointer import GuardedPointer
from repro.core.word import TaggedWord
from repro.machine.assembler import assemble
from repro.machine.chip import ChipConfig, MAPChip
from repro.machine.thread import ThreadState
from repro.runtime import services
from repro.runtime.kernel import Kernel


@pytest.fixture
def kernel():
    return Kernel(MAPChip(ChipConfig(memory_bytes=4 * 1024 * 1024)))


@pytest.fixture
def svc(kernel):
    return services.install(kernel)


CALLER = """
    getip r15, ret
    jmp r1
ret:
    halt
"""


def call_gateway(kernel, gateway, r3, r4=0):
    entry = kernel.load_program(CALLER)
    thread = kernel.spawn(entry, regs={1: gateway.word, 3: r3, 4: r4},
                          stack_bytes=0)
    result = kernel.run()
    assert result.reason == "halted", (result.reason, thread.fault)
    return thread


class TestRestrictGateway:
    def test_legal_restriction(self, kernel, svc):
        data = kernel.allocate_segment(4096)
        t = call_gateway(kernel, svc.restrict_gateway, data.word,
                         int(Permission.READ_ONLY))
        result = GuardedPointer.from_word(t.regs.read(5))
        assert result.permission is Permission.READ_ONLY
        assert result.segment_base == data.segment_base
        assert result.seglen == data.seglen

    def test_amplification_refused(self, kernel, svc):
        data = kernel.allocate_segment(4096, Permission.READ_ONLY)
        t = call_gateway(kernel, svc.restrict_gateway, data.word,
                         int(Permission.READ_WRITE))
        assert t.regs.read(5).value == 0
        assert not t.regs.read(5).tag

    def test_same_permission_refused(self, kernel, svc):
        data = kernel.allocate_segment(4096)
        t = call_gateway(kernel, svc.restrict_gateway, data.word,
                         int(Permission.READ_WRITE))
        assert t.regs.read(5).value == 0

    def test_restrict_to_key(self, kernel, svc):
        data = kernel.allocate_segment(4096)
        t = call_gateway(kernel, svc.restrict_gateway, data.word,
                         int(Permission.KEY))
        assert GuardedPointer.from_word(t.regs.read(5)).permission is Permission.KEY

    def test_agrees_with_hardware_restrict(self, kernel, svc):
        from repro.core.operations import restrict
        data = kernel.allocate_segment(4096)
        t = call_gateway(kernel, svc.restrict_gateway, data.word,
                         int(Permission.READ_ONLY))
        via_gateway = GuardedPointer.from_word(t.regs.read(5))
        via_hardware = restrict(data.word, Permission.READ_ONLY)
        assert via_gateway == via_hardware

    def test_no_privileged_pointer_leaks(self, kernel, svc):
        data = kernel.allocate_segment(4096)
        t = call_gateway(kernel, svc.restrict_gateway, data.word,
                         int(Permission.READ_ONLY))
        # only r1 (gateway enter), r3 (input) and r5 (result) may be
        # pointers afterwards; in particular no execute-priv pointer
        for index in range(16):
            word = t.regs.read(index)
            if word.tag:
                perm = GuardedPointer.from_word(word).permission
                assert perm is not Permission.EXECUTE_PRIV
                assert index in (1, 3, 5, 15)

    def test_caller_stays_unprivileged(self, kernel, svc):
        data = kernel.allocate_segment(4096)
        entry = kernel.load_program("""
            getip r15, ret
            jmp r1
        ret:
            setptr r6, r3      ; must fault: privilege ended at return
            halt
        """)
        t = kernel.spawn(entry, regs={1: svc.restrict_gateway.word,
                                      3: data.word,
                                      4: int(Permission.READ_ONLY)},
                         stack_bytes=0)
        kernel.run()
        assert t.state is ThreadState.FAULTED


class TestSubsegGateway:
    def test_legal_shrink(self, kernel, svc):
        data = kernel.allocate_segment(4096)  # seglen 12
        t = call_gateway(kernel, svc.subseg_gateway, data.word, 6)
        result = GuardedPointer.from_word(t.regs.read(5))
        assert result.seglen == 6
        assert data.contains(result.segment_base)
        assert data.contains(result.segment_limit - 1)

    def test_grow_refused(self, kernel, svc):
        data = kernel.allocate_segment(4096)
        t = call_gateway(kernel, svc.subseg_gateway, data.word, 20)
        assert t.regs.read(5).value == 0

    def test_equal_refused(self, kernel, svc):
        data = kernel.allocate_segment(4096)
        t = call_gateway(kernel, svc.subseg_gateway, data.word, data.seglen)
        assert t.regs.read(5).value == 0

    def test_agrees_with_hardware_subseg(self, kernel, svc):
        from repro.core.operations import subseg
        data = kernel.allocate_segment(4096)
        t = call_gateway(kernel, svc.subseg_gateway, data.word, 4)
        assert GuardedPointer.from_word(t.regs.read(5)) == subseg(data.word, 4)


class TestTrapServices:
    def test_alloc_via_trap(self, kernel, svc):
        entry = kernel.load_program(f"""
            movi r3, 512
            movi r4, perm:read_write
            trap {services.TRAP_ALLOC}
            halt
        """)
        t = kernel.spawn(entry, stack_bytes=0)
        result = kernel.run()
        assert result.reason == "halted"
        pointer = GuardedPointer.from_word(t.regs.read(5))
        assert pointer.segment_size == 512
        assert kernel.segment_of(pointer.segment_base) is not None

    def test_alloc_then_use(self, kernel, svc):
        entry = kernel.load_program(f"""
            movi r3, 4096
            movi r4, perm:read_write
            trap {services.TRAP_ALLOC}
            movi r6, 31
            st r6, r5, 0
            ld r7, r5, 0
            halt
        """)
        t = kernel.spawn(entry, stack_bytes=0)
        result = kernel.run()
        assert result.reason == "halted"
        assert t.regs.read(7).value == 31

    def test_free_via_trap(self, kernel, svc):
        data = kernel.allocate_segment(4096)
        entry = kernel.load_program(f"""
            trap {services.TRAP_FREE}
            halt
        """)
        t = kernel.spawn(entry, regs={3: data.word}, stack_bytes=0)
        kernel.run()
        assert t.regs.read(5).value == 1
        assert kernel.segment_of(data.segment_base) is None

    def test_free_garbage_refused(self, kernel, svc):
        entry = kernel.load_program(f"""
            movi r3, 1234
            trap {services.TRAP_FREE}
            halt
        """)
        t = kernel.spawn(entry, stack_bytes=0)
        kernel.run()
        assert t.regs.read(5).value == 0


# -- the refusal contract ---------------------------------------------------
# Each repro below returned a forged or amplified pointer, or crashed the
# simulator, before the gateways checked their arguments.

def refused(thread) -> bool:
    word = thread.regs.read(5)
    return not word.tag and word.value == 0


def as_word(value: int) -> int:
    """A signed Python int as the 64-bit register word it names."""
    return value & WORD_MASK


class TestGatewayRepros:
    def test_subseg_negative_length_is_refused(self, kernel, svc):
        # r4 = -884 slipped past the signed `slt`, and its bits 6-9 were
        # ORed into the permission field: READ_WRITE | 2 = EXECUTE_PRIV
        data = kernel.allocate_segment(4096)
        t = call_gateway(kernel, svc.subseg_gateway, data.word, as_word(-884))
        assert refused(t)

    def test_subseg_alias_cannot_run_setptr(self, kernel, svc):
        # the demo: code stored into the caller's own writable segment,
        # then entered through the gateway's "subsegment" of it
        data = kernel.allocate_segment(4096, eager=True)
        payload = assemble("movi r2, 77\nsetptr r9, r2\nhalt").encode()
        table = kernel.chip.page_table
        for i, word in enumerate(payload):
            kernel.chip.memory.store_word(
                table.walk(data.segment_base + i * 8), word)
        entry = kernel.load_program("""
            getip r15, ret
            jmp r1
        ret:
            jmp r5
        """)
        t = kernel.spawn(entry, regs={1: svc.subseg_gateway.word,
                                      3: data.word, 4: as_word(-884)},
                         stack_bytes=0)
        kernel.run()
        assert refused(t)
        assert t.state is ThreadState.FAULTED      # jmp through integer 0
        assert not t.regs.read(9).tag

    @pytest.mark.parametrize("code", [19, 35])
    def test_restrict_code_past_the_rights_table_is_refused(self, kernel,
                                                            svc, code):
        # codes >= 7 read zero words past the table (empty rights pass
        # the subset check) and `shli r13, r4, 60` kept only the low
        # four bits: 19 and 35 both became EXECUTE_PRIV
        data = kernel.allocate_segment(4096)
        t = call_gateway(kernel, svc.restrict_gateway, data.word, code)
        assert refused(t)

    def test_restrict_of_an_integer_forges_nothing(self, kernel, svc):
        data = kernel.allocate_segment(4096)
        t = call_gateway(kernel, svc.restrict_gateway, data.word.untagged(),
                         int(Permission.READ_ONLY))
        assert refused(t)

    def test_subseg_of_an_integer_forges_nothing(self, kernel, svc):
        data = kernel.allocate_segment(4096)
        t = call_gateway(kernel, svc.subseg_gateway, data.word.untagged(),
                         11)
        assert refused(t)

    def test_subseg_minus_one_is_refused_not_a_crash(self, kernel, svc):
        data = kernel.allocate_segment(4096)
        t = call_gateway(kernel, svc.subseg_gateway, data.word, as_word(-1))
        assert refused(t)

    @pytest.mark.parametrize("code", [7, 8])
    def test_restrict_reserved_code_is_refused_not_a_crash(self, kernel,
                                                           svc, code):
        data = kernel.allocate_segment(4096)
        t = call_gateway(kernel, svc.restrict_gateway, data.word, code)
        assert refused(t)

    def test_subseg_of_an_enter_pointer_is_refused(self, kernel, svc):
        # hardware SUBSEG needs the MODIFY right
        data = kernel.allocate_segment(4096)
        enter = GuardedPointer.make(Permission.ENTER_USER, data.seglen,
                                    data.address)
        t = call_gateway(kernel, svc.subseg_gateway, enter.word, 4)
        assert refused(t)


class TestPrivilegedSetptrFaultsPrecisely:
    """SETPTR of an integer that encodes no pointer faults where the
    forge is, instead of crashing the simulator (reserved permission
    code) or leaving a pointer whose first use crashes it (a length
    field above 54)."""

    PROGRAM = """
        setptr r5, r3
        lea r6, r5, 8
        halt
    """

    def run_privileged(self, kernel, bits):
        entry = kernel.load_program(self.PROGRAM,
                                    perm=Permission.EXECUTE_PRIV)
        t = kernel.spawn(entry, regs={3: bits}, stack_bytes=0)
        kernel.run()
        return t

    def test_length_field_above_54(self, kernel):
        bits = (int(Permission.READ_WRITE) << PERM_SHIFT) | (60 << LENGTH_SHIFT)
        t = self.run_privileged(kernel, bits)
        assert t.state is ThreadState.FAULTED
        assert isinstance(t.fault.cause, EncodingFault)
        assert t.fault.opcode_name == "setptr"
        assert not t.regs.read(5).tag

    @pytest.mark.parametrize("code", [7, 15])
    def test_reserved_permission_code(self, kernel, code):
        t = self.run_privileged(kernel, (code << PERM_SHIFT) | (12 << LENGTH_SHIFT))
        assert t.state is ThreadState.FAULTED
        assert isinstance(t.fault.cause, EncodingFault)
        assert t.fault.opcode_name == "setptr"


# -- the gateways against the instructions they emulate ---------------------

def _hardware_restrict(word: TaggedWord, r4: int) -> TaggedWord | None:
    """What RESTRICT returns, or None where it faults (the memory unit
    faults on an operand that is not a permission code)."""
    code = as_word(r4)
    if code > int(Permission.KEY):
        return None
    try:
        return ops.restrict(word, Permission(code)).word
    except GuardedPointerFault:
        return None


def _hardware_subseg(word: TaggedWord, r4: int) -> TaggedWord | None:
    """What SUBSEG returns, or None where it faults (the operand is
    read as an unsigned word)."""
    try:
        return ops.subseg(word, as_word(r4)).word
    except GuardedPointerFault:
        return None


class _GatewayBench:
    """One kernel with the services installed and the caller loaded,
    reused by every example (a halted thread's slot is reused)."""

    def __init__(self):
        self.kernel = Kernel(MAPChip(ChipConfig(memory_bytes=4 * 1024 * 1024)))
        self.svc = services.install(self.kernel)
        self.entry = self.kernel.load_program(CALLER)
        data = self.kernel.allocate_segment(4096)
        address = data.address + 1000
        self.operands = [GuardedPointer.make(perm, data.seglen, address).word
                         for perm in Permission]
        self.operands += [data.word.untagged(), TaggedWord.integer(1000)]

    def call(self, gateway, r3: TaggedWord, r4: int) -> TaggedWord | None:
        thread = self.kernel.spawn(self.entry, regs={1: gateway.word, 3: r3,
                                                     4: as_word(r4)},
                                   stack_bytes=0)
        result = self.kernel.run()
        assert result.reason == "halted", (result.reason, thread.fault)
        word = thread.regs.read(5)
        return None if word == TaggedWord.zero() else word


_BENCH: list = []

R4_VALUES = st.one_of(st.integers(-1100, 1100), st.just((1 << 43) - 1),
                      st.integers(0, 8).map(lambda k: 16 + k),
                      st.integers(0, 8).map(lambda k: 64 + k))


class TestGatewaysMatchHardware:
    @settings(max_examples=500, deadline=None)
    @given(operand=st.integers(0, 8), r4=R4_VALUES)
    def test_gateways_return_what_the_instructions_return(self, operand, r4):
        if not _BENCH:
            _BENCH.append(_GatewayBench())
        bench = _BENCH[0]
        r3 = bench.operands[operand]
        assert bench.call(bench.svc.restrict_gateway, r3, r4) == \
            _hardware_restrict(r3, r4)
        assert bench.call(bench.svc.subseg_gateway, r3, r4) == \
            _hardware_subseg(r3, r4)
