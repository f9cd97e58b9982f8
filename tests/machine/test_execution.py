"""Execution tests: programs running on the MAP chip."""

import pytest

from repro.core.exceptions import (
    BoundsFault,
    PermissionFault,
    PrivilegeFault,
    TagFault,
)
from repro.core.permissions import Permission
from repro.core.pointer import GuardedPointer
from repro.core.word import TaggedWord
from repro.machine.chip import RunReason, RunResult
from repro.machine.faults import TrapFault
from repro.machine.thread import ThreadState

from tests.machine.conftest import data_segment, load


def run_program(chip, source, regs=None, max_cycles=10_000, domain=0):
    ip = load(chip, source)
    thread = chip.spawn(ip, regs=regs or {}, domain=domain)
    result = chip.run(max_cycles)
    return thread, result


class TestArithmetic:
    def test_movi_add(self, chip):
        t, r = run_program(chip, """
            movi r1, 20
            movi r2, 22
            add r3, r1, r2
            halt
        """)
        assert r.reason == "halted"
        assert t.regs.read(3).value == 42

    def test_immediate_forms(self, chip):
        t, _ = run_program(chip, """
            movi r1, 10
            addi r2, r1, 5
            subi r3, r1, 5
            shli r4, r1, 2
            shri r5, r1, 1
            andi r6, r1, 6
            ori  r7, r1, 1
            xori r8, r1, 0xff
            halt
        """)
        assert t.regs.read(2).value == 15
        assert t.regs.read(3).value == 5
        assert t.regs.read(4).value == 40
        assert t.regs.read(5).value == 5
        assert t.regs.read(6).value == 2
        assert t.regs.read(7).value == 11
        assert t.regs.read(8).value == 10 ^ 0xFF

    def test_comparisons(self, chip):
        t, _ = run_program(chip, """
            movi r1, -3
            movi r2, 5
            slt r3, r1, r2
            slt r4, r2, r1
            seq r5, r1, r1
            seqi r6, r2, 5
            halt
        """)
        assert t.regs.read(3).value == 1
        assert t.regs.read(4).value == 0
        assert t.regs.read(5).value == 1
        assert t.regs.read(6).value == 1

    def test_mul_wraps_64_bits(self, chip):
        t, _ = run_program(chip, """
            movi r1, 0x100000000
            mul r2, r1, r1
            halt
        """)
        assert t.regs.read(2).value == 0

    def test_mov_preserves_tag(self, chip):
        seg = data_segment(chip, 0x40000, 256)
        t, _ = run_program(chip, "mov r2, r1\nhalt", regs={1: seg.word})
        assert t.regs.read(2).tag
        assert GuardedPointer.from_word(t.regs.read(2)) == seg


class TestControlFlow:
    def test_loop_sums(self, chip):
        t, r = run_program(chip, """
            movi r1, 0      ; sum
            movi r2, 10     ; counter
        loop:
            beq r2, done
            add r1, r1, r2
            subi r2, r2, 1
            br loop
        done:
            halt
        """)
        assert r.reason == "halted"
        assert t.regs.read(1).value == 55

    def test_bne(self, chip):
        t, _ = run_program(chip, """
            movi r1, 1
            bne r1, skip
            movi r2, 99
        skip:
            halt
        """)
        assert t.regs.read(2).value == 0

    def test_running_off_code_segment_faults(self, chip):
        t, r = run_program(chip, "movi r1, 1")  # no halt
        assert t.state is ThreadState.FAULTED
        assert isinstance(t.fault.cause, (BoundsFault, PermissionFault))

    def test_jmp_through_execute_pointer(self, chip):
        # build a second code region and jump to it through a pointer
        target_ip = load(chip, "movi r5, 123\nhalt", base=0x20000)
        t, r = run_program(chip, "jmp r1", regs={1: target_ip.word})
        assert r.reason == "halted"
        assert t.regs.read(5).value == 123

    def test_jmp_through_data_pointer_faults(self, chip):
        seg = data_segment(chip, 0x40000, 256)
        t, _ = run_program(chip, "jmp r1", regs={1: seg.word})
        assert t.state is ThreadState.FAULTED
        assert isinstance(t.fault.cause, PermissionFault)

    def test_jmp_through_integer_faults(self, chip):
        t, _ = run_program(chip, "jmp r1", regs={1: 0x20000})
        assert isinstance(t.fault.cause, TagFault)

    def test_getip_produces_return_pointer(self, chip):
        target_ip = load(chip, "jmp r15", base=0x20000)
        t, r = run_program(chip, """
            getip r15, ret
            jmp r1
        ret:
            movi r9, 7
            halt
        """, regs={1: target_ip.word})
        assert r.reason == "halted"
        assert t.regs.read(9).value == 7


class TestMemoryOps:
    def test_store_load_roundtrip(self, chip):
        seg = data_segment(chip, 0x40000, 4096)
        t, r = run_program(chip, """
            movi r2, 77
            st r2, r1, 64
            ld r3, r1, 64
            halt
        """, regs={1: seg.word})
        assert r.reason == "halted"
        assert t.regs.read(3).value == 77

    def test_pointer_survives_store_load(self, chip):
        seg = data_segment(chip, 0x40000, 4096)
        t, _ = run_program(chip, """
            st r1, r1, 0
            ld r4, r1, 0
            isptr r5, r4
            halt
        """, regs={1: seg.word})
        assert t.regs.read(5).value == 1
        assert GuardedPointer.from_word(t.regs.read(4)) == seg

    def test_store_through_read_only_faults(self, chip):
        seg = data_segment(chip, 0x40000, 4096, perm=Permission.READ_ONLY)
        t, _ = run_program(chip, "movi r2, 1\nst r2, r1, 0\nhalt",
                           regs={1: seg.word})
        assert t.state is ThreadState.FAULTED
        assert isinstance(t.fault.cause, PermissionFault)

    def test_load_outside_segment_faults(self, chip):
        seg = data_segment(chip, 0x40000, 256)
        t, _ = run_program(chip, "ld r2, r1, 256\nhalt", regs={1: seg.word})
        assert isinstance(t.fault.cause, BoundsFault)

    def test_load_with_integer_address_faults(self, chip):
        t, _ = run_program(chip, "ld r2, r1, 0\nhalt", regs={1: 0x40000})
        assert isinstance(t.fault.cause, TagFault)

    def test_lea_chain_walks_array(self, chip):
        seg = data_segment(chip, 0x40000, 4096)
        # store 5 at word 0, 6 at word 1 via LEA-stepped pointer
        t, r = run_program(chip, """
            movi r3, 5
            st r3, r1, 0
            lea r2, r1, 8
            movi r4, 6
            st r4, r2, 0
            ld r5, r1, 8
            halt
        """, regs={1: seg.word})
        assert t.regs.read(5).value == 6

    def test_leab_rebases(self, chip):
        seg = data_segment(chip, 0x40000, 256)
        # move the pointer into the segment, then LEAB back to base+8
        t, _ = run_program(chip, """
            lea r2, r1, 100
            leab r3, r2, 8
            halt
        """, regs={1: seg.word})
        p = GuardedPointer.from_word(t.regs.read(3))
        assert p.address == 0x40008

    def test_float_memory_roundtrip(self, chip):
        seg = data_segment(chip, 0x40000, 4096)
        t, _ = run_program(chip, """
            movi r2, 3
            itof f1, r2
            stf f1, r1, 0
            ldf f2, r1, 0
            ftoi r3, f2
            halt
        """, regs={1: seg.word})
        assert t.regs.read(3).value == 3
        assert t.regs.read_f(2) == 3.0


class TestPointerInstructions:
    def test_restrict_in_program(self, chip):
        seg = data_segment(chip, 0x40000, 4096)
        t, _ = run_program(chip, """
            movi r2, perm:read_only
            restrict r3, r1, r2
            halt
        """, regs={1: seg.word})
        assert GuardedPointer.from_word(t.regs.read(3)).permission is Permission.READ_ONLY

    def test_restrict_amplify_faults(self, chip):
        seg = data_segment(chip, 0x40000, 4096, perm=Permission.READ_ONLY)
        t, _ = run_program(chip, """
            movi r2, perm:read_write
            restrict r3, r1, r2
            halt
        """, regs={1: seg.word})
        assert t.state is ThreadState.FAULTED

    def test_subseg_in_program(self, chip):
        seg = data_segment(chip, 0x40000, 4096)
        t, _ = run_program(chip, """
            movi r2, 4
            subseg r3, r1, r2
            halt
        """, regs={1: seg.word})
        assert GuardedPointer.from_word(t.regs.read(3)).segment_size == 16

    def test_setptr_unprivileged_faults(self, chip):
        t, _ = run_program(chip, "setptr r2, r1\nhalt", regs={1: 0x40000})
        assert isinstance(t.fault.cause, PrivilegeFault)

    def test_setptr_privileged_forges(self, chip):
        seg = GuardedPointer.make(Permission.READ_WRITE, 12, 0x40000)
        chip.page_table.ensure_mapped(0x40000, 4096)
        ip = load(chip, "setptr r2, r1\nhalt", base=0x20000,
                  perm=Permission.EXECUTE_PRIV)
        t = chip.spawn(ip, regs={1: seg.as_integer()})
        r = chip.run()
        assert r.reason == "halted"
        assert GuardedPointer.from_word(t.regs.read(2)) == seg

    def test_user_cannot_forge_via_arithmetic(self, chip):
        seg = data_segment(chip, 0x40000, 4096)
        # strip the tag by running the pointer through an ALU op, then
        # try to use the result as an address.
        t, _ = run_program(chip, """
            addi r2, r1, 0
            ld r3, r2, 0
            halt
        """, regs={1: seg.word})
        assert isinstance(t.fault.cause, TagFault)


class TestFloatingPoint:
    def test_fp_pipeline(self, chip):
        t, _ = run_program(chip, """
            movi r1, 6
            movi r2, 7
            itof f1, r1
            itof f2, r2
            fmul f3, f1, f2
            ftoi r3, f3
            halt
        """)
        assert t.regs.read(3).value == 42

    def test_fdiv_by_zero_is_inf_not_crash(self, chip):
        t, r = run_program(chip, """
            movi r1, 1
            itof f1, r1
            fdiv f2, f1, f0
            halt
        """)
        assert r.reason == "halted"
        assert t.regs.read_f(2) == float("inf")


class TestTrapAndFaults:
    def test_trap_faults_to_kernel(self, chip):
        t, r = run_program(chip, "trap 7\nhalt")
        assert t.state is ThreadState.FAULTED
        assert isinstance(t.fault.cause, TrapFault)
        assert t.fault.cause.code == 7

    def test_fault_handler_can_resume(self, chip):
        codes = []

        def handler(record, thread):
            if isinstance(record.cause, TrapFault):
                codes.append(record.cause.code)
                # skip the trap bundle and resume
                thread.resume()
                thread.ip = thread.ip.with_fields(address=thread.ip.address + 24)

        chip.fault_handler = handler
        t, r = run_program(chip, "trap 9\nmovi r1, 5\nhalt")
        assert r.reason == "halted"
        assert codes == [9]
        assert t.regs.read(1).value == 5

    def test_no_commit_on_faulting_bundle(self, chip):
        seg = data_segment(chip, 0x40000, 256)
        # the ld faults (out of bounds): the movi in the same bundle
        # must not commit either
        t, _ = run_program(chip, "movi r5, 1 | ld r2, r1, 512\nhalt",
                           regs={1: seg.word})
        assert t.state is ThreadState.FAULTED
        assert t.regs.read(5).value == 0

    def test_fault_log_records(self, chip):
        t, _ = run_program(chip, "trap 1")
        assert len(chip.fault_log) == 1
        assert chip.fault_log[0].thread_id == t.tid


class TestMultithreading:
    def test_two_threads_interleave(self, chip):
        ip1 = load(chip, """
            movi r1, 0
            movi r2, 100
        loop:
            beq r2, done
            addi r1, r1, 1
            subi r2, r2, 1
            br loop
        done:
            halt
        """, base=0x10000)
        ip2 = load(chip, """
            movi r1, 0
            movi r2, 50
        loop:
            beq r2, done
            addi r1, r1, 2
            subi r2, r2, 2
            br loop
        done:
            halt
        """, base=0x20000)
        t1 = chip.spawn(ip1, cluster=0)
        t2 = chip.spawn(ip2, cluster=0)
        r = chip.run()
        assert r.reason == "halted"
        assert t1.regs.read(1).value == 100
        assert t2.regs.read(1).value == 50

    def test_memory_stall_lets_other_thread_issue(self, chip):
        seg = data_segment(chip, 0x40000, 4096)
        loader = """
            ld r2, r1, 0
            ld r3, r1, 1024
            ld r4, r1, 2048
            halt
        """
        spinner = """
            movi r1, 30
        loop:
            beq r1, done
            subi r1, r1, 1
            br loop
        done:
            halt
        """
        ip1 = load(chip, loader, base=0x10000)
        ip2 = load(chip, spinner, base=0x20000)
        t1 = chip.spawn(ip1, cluster=0, regs={1: seg.word})
        t2 = chip.spawn(ip2, cluster=0)
        r = chip.run()
        assert r.reason == "halted"
        # the loader stalled on misses, but the cluster kept issuing
        cluster = chip.clusters[0]
        assert t1.stats.stall_cycles > 0
        assert cluster.issued_cycles >= t1.stats.bundles + t2.stats.bundles

    def test_zero_cost_domain_interleave_by_default(self, chip):
        ip1 = load(chip, "movi r1, 1\nhalt", base=0x10000)
        ip2 = load(chip, "movi r1, 2\nhalt", base=0x20000)
        chip.spawn(ip1, cluster=0, domain=1)
        chip.spawn(ip2, cluster=0, domain=2)
        chip.run()
        assert chip.clusters[0].switch_stall_cycles == 0

    def test_domain_switch_penalty_models_conventional(self):
        from repro.machine.chip import ChipConfig, MAPChip
        chip = MAPChip(ChipConfig(memory_bytes=1024 * 1024,
                                  domain_switch_penalty=8))
        ip1 = load(chip, "movi r1, 1\nmovi r2, 1\nmovi r3, 1\nhalt", base=0x10000)
        ip2 = load(chip, "movi r1, 2\nmovi r2, 2\nmovi r3, 2\nhalt", base=0x20000)
        chip.spawn(ip1, cluster=0, domain=1)
        chip.spawn(ip2, cluster=0, domain=2)
        chip.run()
        assert chip.clusters[0].switch_stall_cycles > 0

    def test_threads_spread_across_clusters(self, chip):
        ip = load(chip, "halt")
        threads = [chip.spawn(ip) for _ in range(8)]
        assert all(len(c.live_threads()) == 2 for c in chip.clusters)
        assert len({t.tid for t in threads}) == 8

    def test_cluster_slot_exhaustion(self, chip):
        ip = load(chip, "halt")
        for _ in range(4):
            chip.spawn(ip, cluster=0)
        with pytest.raises(RuntimeError):
            chip.spawn(ip, cluster=0)


class TestRunLoop:
    def test_max_cycles_stops_runaway(self, chip):
        t, r = run_program(chip, "loop:\nbr loop", max_cycles=100)
        assert r.reason == "max_cycles"
        assert r.cycles == 100

    def test_faulted_reason(self, chip):
        t, r = run_program(chip, "trap 0")
        assert r.reason == "faulted"

    def test_utilization_single_thread(self, chip):
        t, r = run_program(chip, "movi r1, 1\nmovi r2, 2\nhalt")
        assert r.issued_bundles == 3
        assert 0 < r.utilization <= 1


class TestRunResult:
    """A tuple the run loop builds without a frame, with the fields,
    positional construction and ``utilization`` of the old record."""

    def test_fields_and_positional_construction(self):
        result = RunResult(10, 4, RunReason.HALTED)
        assert (result.cycles, result.issued_bundles, result.reason) == \
            (10, 4, "halted")
        assert RunResult._fields == ("cycles", "issued_bundles", "reason")
        assert result == RunResult(cycles=10, issued_bundles=4,
                                   reason=RunReason.HALTED)
        assert result.utilization == 0.4
        assert RunResult(0, 0, RunReason.DEADLOCK).utilization == 0.0

    def test_the_run_loop_returns_one(self, chip):
        t, r = run_program(chip, "movi r1, 1\nhalt")
        assert isinstance(r, RunResult) and isinstance(r, tuple)
        assert type(r) is RunResult
        cycles, bundles, reason = r
        assert (cycles, bundles, reason) == (r.cycles, 2, "halted")
        assert r == RunResult(r.cycles, 2, RunReason.HALTED)
