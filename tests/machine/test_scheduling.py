"""Cluster scheduling behaviour: fairness, wakeup, slot reuse."""

import random

import pytest

from repro.core.exceptions import TagFault
from repro.core.permissions import Permission
from repro.core.pointer import GuardedPointer
from repro.machine.chip import ChipConfig, MAPChip
from repro.machine.faults import FaultRecord
from repro.machine.thread import ThreadState

from tests.machine.conftest import data_segment, load


@pytest.fixture
def chip():
    return MAPChip(ChipConfig(memory_bytes=2 * 1024 * 1024))


SPIN = """
    movi r1, {n}
loop:
    beq r1, done
    subi r1, r1, 1
    br loop
done:
    halt
"""


class TestRoundRobinFairness:
    def test_equal_threads_finish_together(self, chip):
        threads = []
        for i in range(4):
            ip = load(chip, SPIN.format(n=50), base=0x10000 * (i + 1))
            threads.append(chip.spawn(ip, cluster=0))
        chip.run()
        bundles = [t.stats.bundles for t in threads]
        assert len(set(bundles)) == 1  # identical work, identical counts

    def test_interleaving_is_cycle_by_cycle(self, chip):
        # two threads; with round-robin each issues every other cycle,
        # so both should have issued after any two consecutive cycles
        ip1 = load(chip, SPIN.format(n=20), base=0x10000)
        ip2 = load(chip, SPIN.format(n=20), base=0x20000)
        t1 = chip.spawn(ip1, cluster=0)
        t2 = chip.spawn(ip2, cluster=0)
        chip.step()
        chip.step()
        assert t1.stats.bundles == 1
        assert t2.stats.bundles == 1

    def test_short_thread_frees_issue_slots(self, chip):
        short = chip.spawn(load(chip, "halt", base=0x10000), cluster=0)
        long = chip.spawn(load(chip, SPIN.format(n=30), base=0x20000),
                          cluster=0)
        result = chip.run()
        assert short.state is ThreadState.HALTED
        assert long.state is ThreadState.HALTED
        # after the short thread halts, the long one issues every cycle:
        # total cycles well under 2x its bundle count
        assert result.cycles < long.stats.bundles + 10


class TestBlockedWakeup:
    def test_thread_wakes_exactly_when_data_ready(self, chip):
        seg = data_segment(chip, 0x40000, 4096)
        ip = load(chip, "ld r2, r1, 0\naddi r3, r2, 1\nhalt")
        t = chip.spawn(ip, regs={1: seg.word})
        chip.run()
        assert t.state is ThreadState.HALTED
        # cold load: 1 + 20 (walk) + 10 (fill) = 31 → stall 30
        assert t.stats.stall_cycles == 30

    def test_two_blocked_threads_wake_independently(self, chip):
        seg = data_segment(chip, 0x40000, 4096)
        src = "ld r2, r1, {off}\nhalt"
        t1 = chip.spawn(load(chip, src.format(off=0), base=0x10000),
                        cluster=0, regs={1: seg.word})
        t2 = chip.spawn(load(chip, src.format(off=2048), base=0x20000),
                        cluster=0, regs={1: seg.word})
        result = chip.run()
        assert result.reason == "halted"
        # the second miss queued behind the single external port
        assert t2.stats.stall_cycles != t1.stats.stall_cycles

    def test_store_does_not_block(self, chip):
        seg = data_segment(chip, 0x40000, 4096)
        ip = load(chip, """
            movi r2, 1
            st r2, r1, 0
            movi r3, 7
            halt
        """)
        t = chip.spawn(ip, regs={1: seg.word})
        chip.run()
        assert t.stats.stall_cycles == 0
        assert t.regs.read(3).value == 7


class TestSlotReuse:
    def test_halted_slot_reused(self, chip):
        ip = load(chip, "halt")
        for _ in range(4):
            chip.spawn(ip, cluster=0)
        chip.run()
        # all four slots halted; a fifth spawn reuses one
        t5 = chip.spawn(ip, cluster=0)
        result = chip.run()
        assert result.reason == "halted"
        assert t5.state is ThreadState.HALTED

    def test_faulted_slot_not_reused(self, chip):
        bad = load(chip, "trap 0")
        for _ in range(4):
            chip.spawn(bad, cluster=0)
        chip.run()
        with pytest.raises(RuntimeError):
            chip.spawn(bad, cluster=0)

    def test_remove_thread_frees_slot(self, chip):
        ip = load(chip, "trap 0")
        threads = [chip.spawn(ip, cluster=0) for _ in range(4)]
        chip.run()
        chip.clusters[0].remove_thread(threads[0])
        chip.spawn(ip, cluster=0)  # fits again


class TestMultiCluster:
    def test_clusters_issue_in_parallel(self, chip):
        threads = []
        for c in range(4):
            ip = load(chip, SPIN.format(n=40), base=0x10000 * (c + 1))
            threads.append(chip.spawn(ip, cluster=c))
        result = chip.run()
        single = threads[0].stats.bundles
        # 4 clusters: wall-clock ≈ one thread's bundles, not 4x
        assert result.cycles < single + 10
        assert result.issued_bundles == 4 * single


# -- the ready-mask select against the slot scan it replaced ---------------

def scan_select(cluster):
    """The round-robin slot scan: the first READY slot from the cursor,
    wrapping; returns (thread, cursor after), the cursor unmoved when
    nothing is ready."""
    n = len(cluster.slots)
    for i in range(n):
        index = (cluster._next_slot + i) % n
        thread = cluster.slots[index]
        if thread is not None and thread._state is ThreadState.READY:
            return thread, (index + 1) % n
    return None, cluster._next_slot


def random_event(rng, chip, ip) -> None:
    """One spawn, remove, block, wake, fault, resume or halt on cluster
    0, chosen among the ones that apply."""
    cluster = chip.clusters[0]
    resident = [t for t in cluster.slots if t is not None]
    by_state = {state: [t for t in resident if t._state is state]
                for state in ThreadState}
    choices = []
    if (any(t is None for t in cluster.slots)
            or by_state[ThreadState.HALTED]):
        choices.append("spawn")
    if resident:
        choices.append("remove")
    if by_state[ThreadState.READY]:
        choices += ["block", "fault", "halt"]
    if by_state[ThreadState.BLOCKED]:
        choices.append("wake")
    if by_state[ThreadState.FAULTED]:
        choices.append("resume")
    if not choices:
        return
    event = rng.choice(choices)
    if event == "spawn":
        chip.spawn(ip, cluster=0)
    elif event == "remove":
        cluster.remove_thread(rng.choice(resident))
    elif event == "block":
        rng.choice(by_state[ThreadState.READY]).block_until(5)
    elif event == "wake":
        rng.choice(by_state[ThreadState.BLOCKED]).maybe_wake(5)
    elif event == "fault":
        thread = rng.choice(by_state[ThreadState.READY])
        thread.record_fault(FaultRecord(thread_id=thread.tid, cycle=0,
                                        cause=TagFault("test"),
                                        opcode_name="test", ip_address=0))
    elif event == "resume":
        rng.choice(by_state[ThreadState.FAULTED]).resume()
    else:
        rng.choice(by_state[ThreadState.READY]).state = ThreadState.HALTED


class TestSelectMatchesTheSlotScan:
    """``_select`` is a bit scan of the ready mask the slot bookkeeping
    keeps; across random spawn/remove/block/wake/fault sequences it must
    pick the thread, and leave the cursor, the slot scan would."""

    IP = GuardedPointer.make(Permission.EXECUTE_USER, 12, 0x10000)

    def check_select(self, cluster) -> None:
        want, cursor = scan_select(cluster)
        assert cluster._select(0) is want
        assert cluster._next_slot == cursor

    @pytest.mark.parametrize("slots", range(1, 9))
    def test_random_sequences(self, slots):
        rng = random.Random(slots)
        for _ in range(40):
            chip = MAPChip(ChipConfig(memory_bytes=64 * 1024, clusters=1,
                                      threads_per_cluster=slots))
            for _ in range(60):
                random_event(rng, chip, self.IP)
                if rng.random() < 0.5:
                    self.check_select(chip.clusters[0])

    @pytest.mark.parametrize("slots", [1, 3, 4, 8])
    def test_across_capture_and_restore(self, slots):
        rng = random.Random(100 + slots)
        config = ChipConfig(memory_bytes=64 * 1024, clusters=1,
                            threads_per_cluster=slots)
        for _ in range(10):
            chip = MAPChip(config)
            for _ in range(30):
                random_event(rng, chip, self.IP)
                self.check_select(chip.clusters[0])
            twin = MAPChip(config)
            twin.restore_state(chip.capture_state())
            assert twin.clusters[0]._ready_mask == \
                chip.clusters[0]._ready_mask
            for _ in range(30):
                random_event(rng, twin, self.IP)
                self.check_select(twin.clusters[0])
