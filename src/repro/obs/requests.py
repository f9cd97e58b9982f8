"""Request-scoped tracing: who made the p99 slow, and where it went.

The service report (:mod:`repro.service.driver`) says *how slow* the
tail is; this module says *why*.  A :class:`RequestTraceRecorder`
rides along with the load driver — the driver tells it about every
admission and retirement (cheap, driver-side bookkeeping), while
span-level machine events (cache fills, TLB walks, router hops,
faults, enter crossings, migration) stream into per-node sinks
attached with ``hot=False``, so the per-bundle path stays dark and
superblock turbo stays engaged.  On the sharded engine the sinks live
in the worker processes (plus the coordinator, which owns the mesh
network and the migration path) and drain over the pipes.

:func:`assemble_tail` then folds the records and events into the
slowest-K requests, each decomposed along its critical path into named
components that **sum exactly** to its arrival→halt latency:

* ``queueing`` — scheduled arrival to admission (waiting for a slot);
* ``gateway_entry`` — admission to the request thread's first
  ``enter.call`` (spawn-to-gateway prologue);
* ``migration_stall`` / ``fault_residency`` / ``remote`` /
  ``miss_fill`` — cycles of the request's window covered by
  ``migrate.ship``, the thread's own ``fault.dispatch`` residencies,
  ``router.hop`` spans sourced at its node, and cache/TLB miss spans
  on its node;
* ``execute`` — the residual.

Overlapping spans are attributed once, in that priority order (a miss
fill during a migration stall counts as migration stall).  Miss and
router spans carry no thread identity — the hardware fills a line, it
does not know for whom — so those two components are node-level
attributions: cycles where *the request's node* was eating misses or
mesh latency during the request's window.  ``docs/OBSERVABILITY.md``
§"Reading a request trace" walks a real decomposition.

Everything here is deterministic: records come from the driver's
admission order, events are sorted by a canonical key, so the same
seed produces byte-identical ``--explain-tail`` JSON on the lockstep
and the sharded engine.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from repro.obs.events import EVENT_NAMES, TraceEvent, encode_event

#: decomposition components, in report order; they sum (with queueing)
#: to each request's arrival -> halt latency
COMPONENTS = ("queueing", "gateway_entry", "execute", "miss_fill",
              "fault_residency", "remote", "migration_stall")

#: claim priority inside the admission -> halt window (highest first);
#: ``execute`` is the residual and ``queueing`` lives before the window
_PRIORITY = ("migration_stall", "fault_residency", "remote", "miss_fill",
             "gateway_entry")


def sort_events(events) -> list[TraceEvent]:
    """The canonical engine-independent event order: the lockstep and
    sharded engines emit the same event *multiset* but interleave
    collection differently; this total order makes the two streams
    byte-identical."""
    return sorted(events, key=lambda e: (
        e.cycle, e.node, e.name,
        json.dumps(encode_event(e), sort_keys=True)))


@dataclass
class RequestRecord:
    """One admitted request, as the driver saw it."""

    req: int            #: admission serial (schedule order)
    tenant: int
    op: int
    key: int
    node: int           #: ingress node
    tid: int
    arrival: int        #: scheduled arrival cycle
    admitted: int       #: cycle the request thread was spawned
    halted_at: int | None = None
    state: str | None = None

    @property
    def latency(self) -> int | None:
        return (self.halted_at - self.arrival
                if self.halted_at is not None else None)


class RequestTraceRecorder:
    """Collects per-request records and span-level machine events for
    one load-driver run (build via ``Simulation.record_requests()``,
    hand to the driver, call :meth:`finish` after the run)."""

    def __init__(self, sim):
        self.sim = sim
        self.records: dict[int, RequestRecord] = {}
        self._live: dict[tuple[int, int], int] = {}
        self._collector = sim.span_collector()
        self._events: list[TraceEvent] | None = None

    def admit(self, serial: int, request, node: int, tid: int,
              cycle: int) -> None:
        """The driver admitted ``request`` as thread ``tid`` on
        ``node`` at ``cycle``; also lands a ``request.admit`` instant
        in the node's event stream / flight recorder."""
        self.records[serial] = RequestRecord(
            req=serial, tenant=request.tenant, op=request.op,
            key=request.key, node=node, tid=tid,
            arrival=request.arrival, admitted=cycle)
        self._live[(node, tid)] = serial
        self.sim.emit(node, "request.admit", cycle, tid=tid, req=serial,
                      tenant=request.tenant, op=request.op)

    def done(self, node: int, tid: int, halted_at: int | None,
             state: str) -> None:
        """The request running as ``(node, tid)`` retired."""
        serial = self._live.pop((node, tid), None)
        if serial is None:
            return
        record = self.records[serial]
        record.halted_at = halted_at
        record.state = state
        if halted_at is not None:
            self.sim.emit(node, "request.done", halted_at, tid=tid,
                          dur=max(halted_at - record.admitted, 0),
                          req=serial, tenant=record.tenant, state=state)

    def finish(self) -> list[TraceEvent]:
        """Detach every sink and return the machine events in canonical
        order.  ``request.*`` instants are dropped (the records carry
        the same facts exactly), and so are hot-class events: a sink
        receives whatever the hub emits, so when a full trace session
        runs alongside, per-bundle events would leak in and make the
        tail payload depend on which *other* observers were attached.
        Idempotent."""
        if self._events is None:
            drained = self._collector.drain()
            self._events = sort_events(
                e for e in drained
                if not e.name.startswith("request.")
                and EVENT_NAMES.get(e.name, ("hot",))[0] != "hot")
        return self._events

    def explain_tail(self, k: int) -> dict:
        """The slowest-``k`` decomposition (see :func:`assemble_tail`)."""
        return assemble_tail(self.records, self.finish(), k)


class SpanCollector:
    """Span-level sinks on every node's hub, wherever the node lives —
    attached and drained through the machine's shard transport
    (``trace_on``/``trace_drain``, see
    :class:`repro.machine.multicomputer.LocalShards`)."""

    def __init__(self, shards):
        self._shards = shards
        shards.trace_on()
        self._drained: list[TraceEvent] | None = None

    def drain(self) -> list[TraceEvent]:
        if self._drained is None:
            self._drained = self._shards.trace_drain()
        return self._drained


# -- critical-path assembly ---------------------------------------------

def _free_parts(span: tuple[int, int],
                claimed: list[list[int]]) -> list[tuple[int, int]]:
    """Parts of ``span`` not covered by the merged, sorted ``claimed``
    interval list."""
    start, end = span
    parts: list[tuple[int, int]] = []
    for c_start, c_end in claimed:
        if c_end <= start:
            continue
        if c_start >= end:
            break
        if c_start > start:
            parts.append((start, c_start))
        start = max(start, c_end)
        if start >= end:
            break
    if start < end:
        parts.append((start, end))
    return parts


def _merge(intervals) -> list[list[int]]:
    merged: list[list[int]] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    return merged


def _component_spans(record: RequestRecord,
                     events: list[TraceEvent]) -> dict[str, list]:
    """Raw candidate intervals per component, clipped to the request's
    admission -> halt window."""
    lo, hi = record.admitted, record.halted_at
    spans: dict[str, list] = {name: [] for name in _PRIORITY}

    def clip(cycle: int, dur: int):
        start, end = max(cycle, lo), min(cycle + dur, hi)
        return (start, end) if start < end else None

    first_enter = None
    for event in events:
        if event.name == "enter.call":
            if (first_enter is None and event.node == record.node
                    and event.tid == record.tid
                    and lo <= event.cycle < hi):
                first_enter = event.cycle
            continue
        dur = event.dur or 0
        if not dur or event.cycle >= hi or event.cycle + dur <= lo:
            continue
        if event.name == "migrate.ship" and event.node == record.node:
            bucket = "migration_stall"
        elif (event.name == "fault.dispatch" and event.node == record.node
                and event.tid == record.tid):
            bucket = "fault_residency"
        elif (event.name == "router.hop"
                and event.args.get("src") == record.node):
            bucket = "remote"
        elif (event.name in ("cache.miss_fill", "tlb.miss_walk")
                and event.node == record.node):
            bucket = "miss_fill"
        else:
            continue
        part = clip(event.cycle, dur)
        if part is not None:
            spans[bucket].append(part)
    if first_enter is not None and first_enter > lo:
        spans["gateway_entry"].append((lo, first_enter))
    return spans


def decompose(record: RequestRecord,
              events: list[TraceEvent]) -> dict[str, int]:
    """The critical-path decomposition of one completed request.  The
    returned components sum exactly to ``record.latency``."""
    if record.halted_at is None:
        raise ValueError(f"request {record.req} never completed")
    spans = _component_spans(record, events)
    components = {name: 0 for name in COMPONENTS}
    components["queueing"] = max(record.admitted - record.arrival, 0)
    claimed: list[list[int]] = []
    for name in _PRIORITY:
        cycles = 0
        fresh = []
        for span in _merge(spans[name]):
            for start, end in _free_parts((span[0], span[1]), claimed):
                cycles += end - start
                fresh.append((start, end))
        components[name] = cycles
        if fresh:
            claimed = _merge(claimed + [list(p) for p in fresh])
    window = record.halted_at - record.admitted
    components["execute"] = window - sum(
        components[name] for name in _PRIORITY)
    total = sum(components.values())
    assert total == record.latency, (record, components)
    return components


def _timeline_events(record: RequestRecord,
                     events: list[TraceEvent]) -> list[TraceEvent]:
    """The events that overlap the request's window on its node (its
    own faults/enters by tid; node-level misses, hops, migration)."""
    lo, hi = record.admitted, record.halted_at
    out = []
    for event in events:
        end = event.cycle + (event.dur or 0)
        if end < lo or event.cycle >= hi:
            continue
        if event.name in ("enter.call", "enter.return", "fault.raise",
                          "fault.dispatch", "thread.spawn", "thread.halt"):
            if event.node == record.node and event.tid == record.tid:
                out.append(event)
        elif event.name == "router.hop":
            if event.args.get("src") == record.node:
                out.append(event)
        elif event.node == record.node:
            out.append(event)
    return out


def assemble_tail(records: dict[int, RequestRecord],
                  events: list[TraceEvent], k: int) -> dict:
    """The ``--explain-tail`` payload: the slowest ``k`` completed
    requests, each decomposed into :data:`COMPONENTS` (summing exactly
    to its latency), plus the worst request's event timeline.  Faulted
    or never-retired requests are excluded — they have no halt cycle to
    decompose to (their count is reported instead)."""
    done = [r for r in records.values()
            if r.halted_at is not None and r.state == "HALTED"]
    ranked = sorted(done, key=lambda r: (-r.latency, r.req))[:max(k, 0)]
    slowest = []
    for record in ranked:
        slowest.append({
            "req": record.req, "tenant": record.tenant, "op": record.op,
            "node": record.node, "tid": record.tid,
            "arrival": record.arrival, "admitted": record.admitted,
            "halted_at": record.halted_at, "latency": record.latency,
            "components": decompose(record, events),
        })
    out = {
        "requests": len(records),
        "completed": len(done),
        "unexplained": len(records) - len(done),
        "explained": len(slowest),
        "slowest": slowest,
    }
    if ranked:
        worst = ranked[0]
        out["worst"] = {
            "req": worst.req,
            "timeline": [encode_event(e)
                         for e in _timeline_events(worst, events)],
        }
    return out


# -- text rendering ------------------------------------------------------

def render_tail(tail: dict) -> str:
    """The slowest-K table plus the worst request's text timeline —
    what ``repro serve --explain-tail K`` prints."""
    lines = [f"tail attribution: slowest {tail['explained']} of "
             f"{tail['completed']} completed requests"
             + (f" ({tail['unexplained']} not decomposable)"
                if tail["unexplained"] else "")]
    header = (f"  {'req':>6} {'tenant':>6} {'node':>4} {'latency':>8}"
              + "".join(f" {name:>{max(len(name), 7)}}"
                        for name in COMPONENTS))
    lines.append(header)
    for entry in tail["slowest"]:
        row = (f"  {entry['req']:>6} {entry['tenant']:>6} "
               f"{entry['node']:>4} {entry['latency']:>8}")
        for name in COMPONENTS:
            row += f" {entry['components'][name]:>{max(len(name), 7)}}"
        lines.append(row)
    if tail.get("worst"):
        worst = next(e for e in tail["slowest"]
                     if e["req"] == tail["worst"]["req"])
        lines.append(
            f"  worst request {worst['req']} (tenant {worst['tenant']}, "
            f"node {worst['node']}): arrival {worst['arrival']}, "
            f"admitted {worst['admitted']}, halt {worst['halted_at']}")
        for encoded in tail["worst"]["timeline"]:
            offset = encoded["cycle"] - worst["admitted"]
            dur = f" dur {encoded['dur']}" if "dur" in encoded else ""
            args = encoded.get("args", {})
            detail = "".join(f" {k}={args[k]}" for k in sorted(args))
            lines.append(f"    +{offset:<8} {encoded['name']:<16}{dur}"
                         f"{detail}")
    return "\n".join(lines)
