"""The trace hub: gating, the flight ring, sinks, the enter tracker."""

import json

import pytest

from repro.core.permissions import Permission
from repro.core.pointer import GuardedPointer
from repro.obs import (FLIGHT_CAPACITY, HISTOGRAM_NAMES, FlightRecorder,
                       TraceEvent, TraceHub, TraceSession, load_flight)
from repro.sim.api import Simulation


class TestFlightRecorder:
    def test_keeps_the_most_recent_events(self):
        flight = FlightRecorder(capacity=3)
        for cycle in range(5):
            flight.append(TraceEvent(name="swap.out", cycle=cycle))
        assert [e.cycle for e in flight.events()] == [2, 3, 4]
        assert flight.total == 5
        assert len(flight) == 3

    def test_dump_round_trips_through_json(self):
        flight = FlightRecorder(capacity=2)
        for cycle in range(4):
            flight.append(TraceEvent(name="fault.raise", cycle=cycle,
                                     cluster=1, tid=3,
                                     args={"cause": "TrapFault"}))
        dump = json.loads(json.dumps(flight.dump()))
        assert dump["capacity"] == 2
        assert dump["total"] == 4
        assert dump["dropped"] == 2
        events = load_flight(dump)
        assert [e.cycle for e in events] == [2, 3]
        assert events[0].args["cause"] == "TrapFault"

    def test_clear(self):
        flight = FlightRecorder()
        flight.append(TraceEvent(name="swap.in", cycle=1))
        flight.clear()
        assert len(flight) == 0
        assert flight.total == 0
        assert flight.capacity == FLIGHT_CAPACITY


class TestGating:
    def test_cold_events_reach_the_flight_recorder_by_default(self):
        hub = TraceHub()
        assert hub.enabled and not hub.hot
        hub.emit("swap.out", 10, page=3)
        assert [e.name for e in hub.flight.events()] == ["swap.out"]

    def test_disabled_hub_records_nothing(self):
        hub = TraceHub()
        hub.enabled = False
        hub.emit("swap.out", 10)
        assert len(hub.flight) == 0

    def test_attach_opens_and_detach_closes_the_hot_gate(self):
        hub = TraceHub()
        first, second = [], []
        hub.attach(first)
        assert hub.hot
        hub.attach(second)
        hub.emit("bundle", 1, cluster=0, tid=0)
        assert len(first) == len(second) == 1
        hub.detach(first)
        assert hub.hot  # second still listening
        hub.detach(second)
        assert not hub.hot

    def test_events_carry_the_hub_node(self):
        hub = TraceHub(node=5)
        hub.emit("swap.out", 1)
        assert hub.flight.events()[0].node == 5


class TestCounterSources:
    def test_one_source_per_histogram_plus_flight(self):
        hub = TraceHub()
        sources = dict(hub.counter_sources())
        assert set(sources) == ({f"hist.{n}" for n in HISTOGRAM_NAMES}
                                | {"flight"})

    def test_flight_source_reports_occupancy(self):
        hub = TraceHub(flight_capacity=2)
        for cycle in range(3):
            hub.emit("swap.out", cycle)
        counters = dict(hub.counter_sources())["flight"]()
        assert counters == {"recorded": 3, "resident": 2, "dropped": 1}


class _FakeThread:
    def __init__(self, tid, ip):
        self.tid = tid
        self.ip = ip

    @property
    def privileged(self):
        return self.ip.permission is Permission.EXECUTE_PRIV


def _ptr(perm, addr=0x10000):
    return GuardedPointer.make(perm, 12, addr)


class TestEnterTracker:
    def test_priv_enter_call_and_return_round_trip(self):
        hub = TraceHub()
        gate = _ptr(Permission.ENTER_PRIV, 0x20000)
        inside = _ptr(Permission.EXECUTE_PRIV, 0x20000)
        back = _ptr(Permission.EXECUTE_USER, 0x10008)
        thread = _FakeThread(0, _ptr(Permission.EXECUTE_USER))
        hub.note_jump(thread, gate.word, inside, now=100, cluster=1)
        thread.ip = inside  # the jump landed; thread is now privileged
        hub.note_jump(thread, back.word, back, now=130, cluster=1)
        names = [e.name for e in hub.flight.events()]
        assert names == ["enter.call", "enter.return"]
        ret = hub.flight.events()[1]
        assert ret.dur == 30
        assert hub.enter_roundtrip.count == 1
        assert hub.enter_roundtrip.max == 30

    def test_user_enter_emits_call_only(self):
        hub = TraceHub()
        gate = _ptr(Permission.ENTER_USER, 0x20000)
        inside = _ptr(Permission.EXECUTE_USER, 0x20000)
        thread = _FakeThread(0, _ptr(Permission.EXECUTE_USER))
        hub.note_jump(thread, gate.word, inside, now=7)
        (event,) = hub.flight.events()
        assert event.name == "enter.call"
        assert event.args["priv"] is False
        assert hub.enter_roundtrip.count == 0

    def test_plain_jump_emits_nothing(self):
        hub = TraceHub()
        target = _ptr(Permission.EXECUTE_USER, 0x10010)
        thread = _FakeThread(0, _ptr(Permission.EXECUTE_USER))
        hub.note_jump(thread, target.word, target, now=5)
        assert len(hub.flight) == 0

    def test_unmatched_privilege_drop_is_ignored(self):
        hub = TraceHub()
        back = _ptr(Permission.EXECUTE_USER, 0x10008)
        thread = _FakeThread(0, _ptr(Permission.EXECUTE_PRIV))
        hub.note_jump(thread, back.word, back, now=50)  # no call on stack
        assert len(hub.flight) == 0
        assert hub.enter_roundtrip.count == 0


class TestTraceSession:
    def test_context_manager_attaches_and_detaches(self):
        hub = TraceHub()
        with TraceSession([hub]) as session:
            assert hub.hot
            hub.emit("swap.out", 3)
        assert not hub.hot
        assert [e.name for e in session.events] == ["swap.out"]
        hub.emit("swap.out", 4)  # after stop: not recorded
        assert len(session.events) == 1

    def test_merges_multiple_hubs(self):
        hubs = [TraceHub(node=0), TraceHub(node=1)]
        with TraceSession(hubs) as session:
            hubs[0].emit("swap.out", 1)
            hubs[1].emit("swap.in", 2)
        assert [(e.node, e.name) for e in session.events] == \
            [(0, "swap.out"), (1, "swap.in")]

    def test_stop_is_idempotent(self):
        hub = TraceHub()
        session = TraceSession([hub])
        session.stop()
        session.stop()
        assert not hub.hot


class TestTraceParity:
    """Recording a full trace session must never change cycle counts —
    with the simulator's shortcuts on and off (a hot sink also keeps
    superblock turbo off, so this compares the per-cycle path against
    turbo too)."""

    WORKLOAD = """
        movi r2, 6
    loop:
        ld r3, r1, 0
        st r3, r1, 8
        subi r2, r2, 1
        bne r2, loop
        halt
    """

    def run_workload(self, fast_paths, traced):
        sim = Simulation(memory_bytes=2 * 1024 * 1024,
                         fast_paths=fast_paths)
        data = sim.allocate(4096)
        sim.spawn(self.WORKLOAD, regs={1: data.word}, stack_bytes=0)
        if not traced:
            return sim.run().cycles
        with sim.trace() as session:
            cycles = sim.run().cycles
        # the traced run actually recorded the issue stream
        assert any(e.name == "bundle" for e in session.events)
        return cycles

    @pytest.mark.parametrize("fast_paths", [True, False])
    def test_traced_and_untraced_cycles_identical(self, fast_paths):
        untraced = self.run_workload(fast_paths, traced=False)
        traced = self.run_workload(fast_paths, traced=True)
        assert traced == untraced
