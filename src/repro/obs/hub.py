"""The per-chip trace hub: event spine, flight recorder, histograms.

Every :class:`~repro.machine.chip.MAPChip` owns one :class:`TraceHub`
(``chip.obs``).  Emission has three gates, matching the three cost
classes in :data:`~repro.obs.events.EVENT_NAMES`:

* ``hub.enabled`` — the master switch.  Cold-path events (faults,
  enter crossings, swap, migration, spawn/halt, request admission) and
  the latency histograms are on by default; their cost is negligible
  because the paths are rare or already expensive.  ``enabled =
  False`` turns the whole subsystem into a handful of dead branches,
  which is what the tracing-overhead benchmark measures.
* ``hub.spans`` — true exactly while *any* sink is attached.  Per-miss
  sites (cache fill, TLB walk, router hop) guard with one attribute
  load and branch (``if obs.spans:``), so span recording — what the
  request tracer needs — costs one rare branch per miss and nothing
  per bundle.
* ``hub.hot`` — true exactly while a sink attached with ``hot=True``
  is present (the default, and what :class:`TraceSession` uses).
  Per-bundle sites (``bundle``, ``thread.switch``) guard with
  ``if obs.hot:``, so detailed tracing is zero-cost when nobody is
  listening, and a spans-only listener never pays for the issue
  stream.

Events always land in the **flight recorder** — a fixed-size ring that
keeps the last N events at O(1) per event — and are forwarded to any
attached sinks (anything with ``.append``).  The fuzzer serializes the
ring into crash dumps; :class:`TraceSession` is the user-facing sink
behind ``Simulation.trace()`` and ``repro trace``.

Emission never changes machine state: cycle counts with tracing on and
off are bit-identical, and the trace parity tests and the
tracing-overhead benchmark police that continuously.

``hub.hot`` is also the gate superblock turbo execution respects
(``docs/PERF.md`` §6): the chip refuses to enter a bulk-dispatch trace
while a *hot* sink is attached, so per-bundle event streams stay
complete — turbo mode never skips an emission a listener would have
seen.  A spans-only sink leaves turbo on: miss fills inside a
superblock go through the same cache access path and still emit.
Cold-path emissions and the histograms (e.g. load-to-use) are still
recorded from inside a trace, at the same cycles as the per-cycle
path.
"""

from __future__ import annotations

from collections import deque

from repro.obs.events import TraceEvent, encode_event
from repro.obs.histogram import Histogram

#: flight-recorder depth: enough to reconstruct the last few hundred
#: control-plane moments without bloating crash dumps
FLIGHT_CAPACITY = 512

#: the latency distributions every chip keeps (see docs/OBSERVABILITY.md)
HISTOGRAM_NAMES = ("load_to_use", "fault_residency", "enter_roundtrip",
                   "remote_latency")


class FlightRecorder:
    """A fixed-size ring of the most recent events."""

    __slots__ = ("_ring", "total")

    def __init__(self, capacity: int = FLIGHT_CAPACITY):
        self._ring: deque[TraceEvent] = deque(maxlen=capacity)
        #: events ever recorded (so ``total - len(ring)`` = dropped)
        self.total = 0

    def append(self, event: TraceEvent) -> None:
        self._ring.append(event)
        self.total += 1

    def events(self) -> list[TraceEvent]:
        return list(self._ring)

    def clear(self) -> None:
        self._ring.clear()
        self.total = 0

    def __len__(self) -> int:
        return len(self._ring)

    @property
    def capacity(self) -> int:
        return self._ring.maxlen or 0

    def dump(self) -> dict:
        """The ring as plain JSON — what crash dumps and failure
        artifacts embed (``repro.obs.load_flight`` reads it back)."""
        return {
            "capacity": self.capacity,
            "total": self.total,
            "dropped": max(self.total - len(self._ring), 0),
            "events": [encode_event(e) for e in self._ring],
        }


def load_flight(dump: dict) -> list[TraceEvent]:
    """Decode a :meth:`FlightRecorder.dump` payload back into events."""
    from repro.obs.events import decode_event

    return [decode_event(e) for e in dump.get("events", [])]


class TraceHub:
    """One chip's event spine (``chip.obs``)."""

    def __init__(self, node: int = 0, flight_capacity: int = FLIGHT_CAPACITY):
        self.node = node
        #: master switch; False turns every site into a dead branch
        self.enabled = True
        #: true exactly while a hot sink is attached (per-bundle gate)
        self.hot = False
        #: true exactly while any sink is attached (per-miss gate)
        self.spans = False
        self.flight = FlightRecorder(flight_capacity)
        self._sinks: list = []
        self._hot_sinks: list = []
        #: clock callback (set by the chip) so sites without a cycle
        #: argument — the TLB — can still stamp events
        self.clock = None
        self.histograms = {name: Histogram(name)
                           for name in HISTOGRAM_NAMES}
        # direct references for the emitting sites
        self.load_to_use = self.histograms["load_to_use"]
        self.fault_residency = self.histograms["fault_residency"]
        self.enter_roundtrip = self.histograms["enter_roundtrip"]
        self.remote_latency = self.histograms["remote_latency"]
        #: per-tid stack of in-flight privileged enter-call start cycles
        self._enter_stack: dict[int, list[int]] = {}

    # -- histograms -----------------------------------------------------

    def add_histogram(self, name: str) -> Histogram:
        """Register an *additional* named histogram on this hub (the
        standard four in :data:`HISTOGRAM_NAMES` exist on every chip;
        subsystems with their own latency distributions — the
        multi-tenant service's per-request latency, say — add theirs
        here).  Idempotent: asking for an existing name returns the
        live histogram.  The caller wires it into the chip's counter
        file (``chip.counters.add_source(f"hist.{name}", h.as_counters)``)
        so it appears in snapshots like the built-ins."""
        histogram = self.histograms.get(name)
        if histogram is None:
            histogram = Histogram(name)
            self.histograms[name] = histogram
        return histogram

    # -- sinks ----------------------------------------------------------

    def attach(self, sink, *, hot: bool = True) -> None:
        """Forward every event to ``sink`` (anything with ``.append``).
        ``hot=True`` (the default) opens the per-bundle gate too;
        ``hot=False`` opens only the per-miss ``spans`` gate — what the
        request tracer uses, so superblock turbo stays engaged."""
        self._sinks.append(sink)
        if hot:
            self._hot_sinks.append(sink)
        self.spans = True
        self.hot = bool(self._hot_sinks)

    def detach(self, sink) -> None:
        # identity-based removal: sinks are often plain lists, and two
        # empty lists compare equal — ``list.remove`` would drop the
        # wrong listener
        self._sinks = [s for s in self._sinks if s is not sink]
        self._hot_sinks = [s for s in self._hot_sinks if s is not sink]
        self.spans = bool(self._sinks)
        self.hot = bool(self._hot_sinks)

    # -- emission -------------------------------------------------------

    def emit(self, name: str, cycle: int, *, cluster: int | None = None,
             tid: int | None = None, dur: int | None = None,
             **args) -> None:
        """Record one event (flight recorder + attached sinks).  Cold
        call sites call this directly; hot sites guard with
        ``if obs.hot:`` first so the call never happens untraced."""
        if not self.enabled:
            return
        event = TraceEvent(name=name, cycle=cycle, node=self.node,
                           cluster=cluster, tid=tid, dur=dur, args=args)
        self.flight.append(event)
        for sink in self._sinks:
            sink.append(event)

    def now(self) -> int:
        """The chip clock, for sites without a cycle argument."""
        clock = self.clock
        return clock() if clock is not None else 0

    # -- the enter-call round-trip tracker -----------------------------

    def note_jump(self, thread, target_word, new_ip, now: int,
                  cluster: int | None = None) -> None:
        """Called by the integer unit on every JMP (after
        ``check_jump`` passed).  Emits ``enter.call`` when the target
        was an ENTER pointer; when a privileged enter call later drops
        back to user code, emits ``enter.return`` with the round-trip
        duration and feeds the ``enter_roundtrip`` histogram.

        Round trips are only tracked for ENTER_PRIV gateways — the
        privilege drop is the unambiguous architectural return signal.
        ENTER_USER crossings emit ``enter.call`` only.
        """
        if not self.enabled:
            return
        from repro.core.permissions import Permission
        from repro.core.pointer import GuardedPointer

        target = GuardedPointer.from_word(target_word).permission
        if target.is_enter:
            self.emit("enter.call", now, cluster=cluster, tid=thread.tid,
                      target=new_ip.address,
                      priv=target is Permission.ENTER_PRIV)
            if target is Permission.ENTER_PRIV:
                self._enter_stack.setdefault(thread.tid, []).append(now)
            return
        if (thread.privileged
                and new_ip.permission is Permission.EXECUTE_USER):
            stack = self._enter_stack.get(thread.tid)
            if stack:
                duration = now - stack.pop()
                self.emit("enter.return", now, cluster=cluster,
                          tid=thread.tid, dur=duration,
                          target=new_ip.address)
                self.enter_roundtrip.add(duration)

    # -- counter integration -------------------------------------------

    def counter_sources(self):
        """``(prefix, callable)`` pairs for
        :meth:`~repro.machine.counters.PerfCounters.add_source` — one
        per histogram plus the flight recorder's occupancy."""
        for name, histogram in self.histograms.items():
            yield f"hist.{name}", histogram.as_counters
        yield "flight", self._flight_counters

    def _flight_counters(self) -> dict[str, int]:
        flight = self.flight
        return {"recorded": flight.total, "resident": len(flight),
                "dropped": max(flight.total - len(flight), 0)}


class TraceSession:
    """A recording session over one or more hubs (one per node).

    Context-manager friendly::

        with sim.trace() as session:
            sim.run()
        session.save_chrome("trace.json")

    ``events`` is the merged, emission-ordered event list; exporters
    (:func:`~repro.obs.export.to_chrome_trace`,
    :func:`~repro.obs.export.to_text_timeline`) read it directly.
    """

    def __init__(self, hubs):
        self.events: list[TraceEvent] = []
        self._hubs = list(hubs)
        self._attached = True
        for hub in self._hubs:
            hub.attach(self.events)

    def stop(self) -> None:
        if self._attached:
            for hub in self._hubs:
                hub.detach(self.events)
            self._attached = False

    def __enter__(self) -> "TraceSession":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- exports --------------------------------------------------------

    def to_chrome(self) -> dict:
        from repro.obs.export import to_chrome_trace

        return to_chrome_trace(self.events)

    def save_chrome(self, path) -> "Path":
        """Write a Perfetto/Chrome-trace JSON file (open it at
        https://ui.perfetto.dev or chrome://tracing)."""
        import json
        from pathlib import Path

        path = Path(path)
        path.write_text(json.dumps(self.to_chrome()) + "\n",
                        encoding="utf-8")
        return path

    def text(self) -> str:
        from repro.obs.export import to_text_timeline

        return to_text_timeline(self.events)
