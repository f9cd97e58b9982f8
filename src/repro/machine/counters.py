"""Chip-wide performance counters.

Hardware exposes its behaviour through a counter file; the simulator
does the same.  :class:`PerfCounters` is one flat namespace of named
monotonically increasing counters with two feeding mechanisms:

* **events** — hot paths call :meth:`PerfCounters.incr` for occurrences
  that no component records on its own (faults by type, decode-cache
  invalidations, remote-port traffic);
* **sources** — components that already keep their own statistics
  (cache, TLB, clusters, the chip's issue counters) are registered as
  *pull sources*: a callable returning a ``{name: value}`` mapping that
  is read only when a snapshot is taken, so steady-state simulation
  pays nothing for them.

Counter names are dotted, ``"<unit>.<event>"`` — e.g. ``cache.hits``,
``tlb.walk_cycles``, ``fetch.misses``, ``fault.PageFault``,
``cluster0.issued`` — so a snapshot sorts into per-unit groups and
:func:`repro.sim.runner.format_table` can print it directly.

The wiring lives in :class:`repro.machine.chip.MAPChip` (every chip
owns a ``counters`` attribute) and, for multi-node machines, in
:class:`repro.machine.multicomputer.Multicomputer`, which adds router
traffic counters per node.  ``docs/PERF.md`` documents every counter.

Superblock turbo execution (``docs/PERF.md`` §6) batches its
accounting: while a trace runs, the per-cycle sites that feed the pull
sources (cluster issue/idle counts, fetch hits, thread stats) are
settled in one shot at trace exit rather than incremented per bundle.
Because sources are only read at snapshot time — and a snapshot cannot
be taken mid-trace — the counter file is bit-identical to per-cycle
stepping.  Across ``ChipConfig(fast_paths=...)`` it is identical except
for the shortcut tallies (:data:`repro.machine.chip.SHORTCUT_TALLIES`):
the fuzzer's fast-vs-plain axis, ``tests/machine/test_superblock.py``
and ``benchmarks/bench_superblock.py`` enforce that equality.
"""

from __future__ import annotations

import math
from typing import Callable, Mapping

#: Type of a pull source: returns {counter_name: value} when sampled.
CounterSource = Callable[[], Mapping[str, int | float]]


def _json_safe(value: int | float) -> int | float:
    """Clamp a counter reading to something ``json.dumps(...,
    allow_nan=False)`` accepts.  A source that divides by zero (or
    overflows a derived ratio) must not poison the whole snapshot —
    non-finite readings are reported as 0.0, which is also what the
    ratio helpers report for an empty denominator."""
    if isinstance(value, float) and not math.isfinite(value):
        return 0.0
    return value


class PerfCounters:
    """A named counter file: cheap increments plus lazily-pulled sources."""

    def __init__(self) -> None:
        self._events: dict[str, int] = {}
        self._sources: list[tuple[str, CounterSource]] = []

    # -- the hot-path half ------------------------------------------------

    def incr(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to event counter ``name`` (created at 0)."""
        self._events[name] = self._events.get(name, 0) + amount

    # -- the pull half ----------------------------------------------------

    def add_source(self, prefix: str, source: CounterSource) -> None:
        """Register a pull source; its keys appear as ``prefix.key``
        (or bare keys when ``prefix`` is empty) in every snapshot."""
        self._sources.append((prefix, source))

    def has_source(self, prefix: str) -> bool:
        """Whether a pull source is already registered under ``prefix``
        (late-wired sources — a service's request-latency histogram —
        use this to register exactly once per chip)."""
        return any(p == prefix for p, _ in self._sources)

    # -- reading ----------------------------------------------------------

    def snapshot(self) -> dict[str, int | float]:
        """One coherent reading of every counter, sorted by name.

        Event counters and pull sources are merged; a source key that
        collides with an event name wins (sources are authoritative for
        the units that own them).

        The result is guaranteed to round-trip through JSON verbatim:
        keys are sorted (stable order run to run), and every value is a
        finite int or float — non-finite source readings are clamped to
        0.0 — so snapshots, ``BENCH_*.json`` and machine snapshot files
        can embed it with ``json.dumps(snap, allow_nan=False)``.
        """
        merged: dict[str, int | float] = dict(self._events)
        for prefix, source in self._sources:
            for key, value in source().items():
                merged[f"{prefix}.{key}" if prefix else key] = _json_safe(value)
        return dict(sorted(merged.items()))

    def get(self, name: str, default: int | float = 0) -> int | float:
        """Read one counter by its snapshot name."""
        return self.snapshot().get(name, default)

    def reset_events(self) -> None:
        """Zero the event half.  Pull sources belong to their components
        (``CacheStats``, ``TLBStats``, ...) and are reset by resetting
        those components, not here."""
        self._events.clear()

    # -- persistence (repro.persist) --------------------------------------

    def capture_events(self) -> dict[str, int]:
        """The event half alone (pull sources are captured by capturing
        their owning components)."""
        return dict(self._events)

    def restore_events(self, events: Mapping[str, int]) -> None:
        self._events = dict(events)

    def __len__(self) -> int:
        return len(self.snapshot())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PerfCounters({len(self._events)} events, {len(self._sources)} sources)"


def merge_snapshots(per_node: Mapping[int, Mapping[str, int | float]]
                    ) -> dict[str, int | float]:
    """Combine per-node snapshots into one machine-wide view.

    Node-qualified names (``node<N>.<counter>``) are kept, and every
    counter is also summed across nodes under its bare name, so
    ``cache.hits`` in the merged view is machine-wide while
    ``node2.cache.hits`` remains inspectable.

    Derived ratios are not additive: a ``<unit>.hit_rate`` summed over
    nodes would read as a "rate" above 1.  The machine-wide rate is
    recomputed from the summed ``<unit>.hits`` / ``<unit>.misses``
    instead (an access-weighted mean of the per-node rates).
    """
    merged: dict[str, int | float] = {}
    summed: dict[str, int | float] = {}
    for node, snap in per_node.items():
        for name, value in snap.items():
            merged[f"node{node}.{name}"] = value
            summed[name] = summed.get(name, 0) + value
    for name in summed:
        if name.endswith(".hit_rate"):
            unit = name[: -len("hit_rate")]
            hits = summed.get(f"{unit}hits", 0)
            accesses = hits + summed.get(f"{unit}misses", 0)
            summed[name] = round(hits / accesses, 6) if accesses else 0.0
    merged.update(summed)
    return dict(sorted(merged.items()))
