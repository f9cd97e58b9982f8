"""Tests for the multicomputer: one address space, many nodes."""

import pytest

from repro.core.exceptions import PermissionFault
from repro.core.permissions import Permission
from repro.core.word import TaggedWord
from repro.machine.chip import ChipConfig
from repro.machine.multicomputer import Multicomputer, Partition, node_bits_for
from repro.machine.network import MeshShape
from repro.machine.thread import ThreadState


def small_machine(nodes=(2, 1, 1)):
    return Multicomputer(
        shape=MeshShape(*nodes),
        chip_config=ChipConfig(memory_bytes=2 * 1024 * 1024),
        arena_order=24,
    )


class TestPartition:
    def test_node_bits(self):
        assert node_bits_for(1) == 0
        assert node_bits_for(2) == 1
        assert node_bits_for(8) == 3
        assert node_bits_for(5) == 3

    def test_homes_are_disjoint(self):
        p = Partition(node_bits=2)
        assert p.home_of(p.base_of(0)) == 0
        assert p.home_of(p.base_of(3)) == 3
        assert p.home_of(p.base_of(1) - 1) == 0

    def test_span(self):
        p = Partition(node_bits=3)
        assert p.span() == 1 << 51


class TestSegmentsAcrossNodes:
    def test_arenas_live_in_their_partitions(self):
        mc = small_machine()
        a = mc.allocate_on(0, 4096)
        b = mc.allocate_on(1, 4096)
        assert mc.partition.home_of(a.segment_base) == 0
        assert mc.partition.home_of(b.segment_base) == 1

    def test_local_program_runs(self):
        mc = small_machine()
        entry = mc.load_on(0, "movi r1, 5\nhalt")
        t = mc.spawn_on(0, entry, stack_bytes=0)
        result = mc.run()
        assert result.reason == "halted"
        assert t.regs.read(1).value == 5


class TestRemoteAccess:
    def test_pointer_works_across_nodes(self):
        # node 1 writes through a pointer whose segment lives on node 0
        mc = small_machine()
        shared = mc.allocate_on(0, 4096, eager=True)
        entry = mc.load_on(1, """
            movi r2, 123
            st r2, r1, 0
            ld r3, r1, 0
            halt
        """)
        t = mc.spawn_on(1, entry, regs={1: shared.word}, stack_bytes=0)
        result = mc.run()
        assert result.reason == "halted"
        assert t.regs.read(3).value == 123
        # the data really landed in node 0's memory
        physical = mc.chips[0].page_table.walk(shared.segment_base)
        assert mc.chips[0].memory.load_word(physical).value == 123

    @pytest.mark.parametrize("port", ["access_memory", "remote_access"])
    def test_store_without_value_takes_no_sequence_number(self, port):
        # snapshots carry the per-node sequence numbers: a refused store
        # must not use one up, nor queue a message
        mc = small_machine()
        remote = mc.allocate_on(0, 4096, eager=True)
        chip = mc.chips[1]
        seq = list(mc._seq)
        outbox = [list(box) for box in mc._outbox]
        with pytest.raises(ValueError, match="store requires a value"):
            if port == "access_memory":
                chip.access_memory(remote.segment_base, write=True, now=0)
            else:
                mc.remote_access(chip, remote.segment_base, write=True,
                                 now=0)
        assert mc._seq == seq
        assert [list(box) for box in mc._outbox] == outbox

    def test_remote_loads_cost_network_latency(self):
        mc = small_machine()
        local = mc.allocate_on(1, 4096, eager=True)
        remote = mc.allocate_on(0, 4096, eager=True)
        src = """
            ld r2, r1, 0
            halt
        """
        t_local = mc.spawn_on(1, mc.load_on(1, src), regs={1: local.word},
                              stack_bytes=0)
        t_remote = mc.spawn_on(1, mc.load_on(1, src), regs={1: remote.word},
                               stack_bytes=0)
        mc.run()
        assert t_remote.stats.stall_cycles > t_local.stats.stall_cycles
        assert mc.network.stats.messages >= 2  # request + reply

    def test_protection_checked_at_issue_even_for_remote(self):
        # a read-only remote pointer refuses stores on the *issuing*
        # node — no protection state exists at the home node at all
        mc = small_machine()
        shared = mc.allocate_on(0, 4096, Permission.READ_ONLY, eager=True)
        entry = mc.load_on(1, """
            movi r2, 9
            st r2, r1, 0
            halt
        """)
        t = mc.spawn_on(1, entry, regs={1: shared.word}, stack_bytes=0)
        mc.run()
        assert t.state is ThreadState.FAULTED
        assert isinstance(t.fault.cause, PermissionFault)
        assert mc.network.stats.messages == 0  # rejected before injection

    def test_remote_demand_paging(self):
        # lazy segment on node 0 touched first from node 1: the fault is
        # serviced by the home node's kernel
        mc = small_machine()
        lazy = mc.allocate_on(0, 64 * 1024)  # not eager
        entry = mc.load_on(1, """
            movi r2, 7
            st r2, r1, 0
            ld r3, r1, 0
            halt
        """)
        t = mc.spawn_on(1, entry, regs={1: lazy.word}, stack_bytes=0)
        result = mc.run()
        assert result.reason == "halted"
        assert t.regs.read(3).value == 7
        assert mc.kernels[0].stats.demand_pages >= 1

    def test_tagged_pointer_travels_between_nodes(self):
        # store a pointer into remote memory; reload it; it's still a
        # pointer (tags are part of every node's memory)
        mc = small_machine()
        mailbox = mc.allocate_on(0, 4096, eager=True)
        secret = mc.allocate_on(0, 4096, eager=True)
        entry = mc.load_on(1, """
            st r2, r1, 0      ; publish a pointer into node 0's mailbox
            ld r3, r1, 0      ; read it back over the mesh
            isptr r4, r3
            halt
        """)
        t = mc.spawn_on(1, entry, regs={1: mailbox.word, 2: secret.word},
                        stack_bytes=0)
        result = mc.run()
        assert result.reason == "halted"
        assert t.regs.read(4).value == 1


class TestLockstep:
    def test_threads_on_all_nodes_progress(self):
        mc = Multicomputer(shape=MeshShape(2, 2, 1),
                           chip_config=ChipConfig(memory_bytes=1024 * 1024),
                           arena_order=20)
        threads = []
        for node in range(4):
            entry = mc.load_on(node, f"""
                movi r1, {node + 10}
                halt
            """)
            threads.append(mc.spawn_on(node, entry, stack_bytes=0))
        result = mc.run()
        assert result.reason == "halted"
        for node, t in enumerate(threads):
            assert t.regs.read(1).value == node + 10

    def test_cross_node_producer_consumer(self):
        mc = small_machine()
        flag = mc.allocate_on(0, 4096, eager=True)
        producer = mc.load_on(0, """
            movi r2, 10
        delay:
            beq r2, go
            subi r2, r2, 1
            br delay
        go:
            movi r3, 77
            st r3, r1, 0
            halt
        """)
        consumer = mc.load_on(1, """
        wait:
            ld r3, r1, 0
            beq r3, wait
            halt
        """)
        mc.spawn_on(0, producer, regs={1: flag.word}, stack_bytes=0)
        t = mc.spawn_on(1, consumer, regs={1: flag.word}, stack_bytes=0)
        result = mc.run(max_cycles=100_000)
        assert result.reason == "halted"
        assert t.regs.read(3).value == 77
