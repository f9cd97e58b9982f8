"""The stable simulation API: one object from chip to counters — for
one node *or* a whole mesh.

Before this module, every benchmark, example and CLI command rebuilt
the same scaffolding by hand — construct a :class:`ChipConfig`, wrap a
:class:`MAPChip` in a :class:`Kernel`, load programs, spawn threads,
run, then reach into ``chip.stats``/``chip.cache.stats``/... for
numbers.  :class:`Simulation` packages that whole lifecycle behind one
facade so callers stop depending on chip internals:

    from repro import Simulation

    sim = Simulation(memory_bytes=4 * 1024 * 1024)
    data = sim.allocate(4096)
    thread = sim.spawn(PROGRAM, regs={1: data.word})
    result = sim.run()
    assert result.reason == RunReason.HALTED
    print(sim.counter_table())        # the chip-wide perf counters

The same surface fronts a multicomputer: ``Simulation(nodes=4)`` (or
``Simulation.mesh(MeshShape(2, 2, 1))``) builds a mesh of MAP nodes
over one 54-bit global address space, and every facade method keeps
working — ``load``/``allocate``/``spawn`` take a keyword-only ``node``
to place work, ``run``/``step`` drive every node in lockstep,
``snapshot()`` merges the per-node counter files, ``trace()`` records
all nodes onto one timeline, and ``save``/``restore`` round-trip the
whole machine.  A workload written against the facade runs unchanged
on 1 node or 16; ``examples/multinode_sharing.py`` and the service
load driver (:mod:`repro.service`) are the proof.

Everything underneath remains reachable (``sim.chip``, ``sim.kernel``,
``sim.machine`` on a mesh) for code that genuinely needs the lower
layers; the facade is the supported surface, and its methods are the
ones ``docs/PERF.md`` documents.
"""

from __future__ import annotations

from dataclasses import replace

from repro.core.exceptions import GuardedPointerFault
from repro.core.pointer import GuardedPointer
from repro.machine.assembler import Program
from repro.machine.chip import ChipConfig, MAPChip, RunResult
from repro.machine.counters import PerfCounters
from repro.machine.multicomputer import LocalShards, Multicomputer
from repro.machine.thread import Thread
from repro.runtime.kernel import Kernel


class SimulationError(RuntimeError):
    """A facade method was used in a way its machine shape forbids."""


def mesh_shape_for(nodes: int) -> "MeshShape":
    """The most compact mesh holding ``nodes`` nodes: factor into
    ``x >= y >= z`` as near a cube as the divisors allow (4 -> 2x2x1,
    8 -> 2x2x2, 6 -> 3x2x1, primes degrade to a chain)."""
    from repro.machine.network import MeshShape

    if nodes <= 0:
        raise ValueError("need at least one node")
    z = max(d for d in range(1, int(nodes ** (1 / 3) + 1e-9) + 1)
            if nodes % d == 0)
    rest = nodes // z
    y = max(d for d in range(1, int(rest ** 0.5 + 1e-9) + 1)
            if rest % d == 0)
    x = rest // y
    return MeshShape(x, y, z)


class Simulation:
    """A MAP machine — one node or a mesh — ready to load and run.

    ``config`` provides the architectural parameters; keyword overrides
    patch individual fields without spelling out a full config::

        Simulation()                                    # paper defaults
        Simulation(memory_bytes=1 << 20)                # one override
        Simulation(ChipConfig(clusters=2), tlb_entries=8)
        Simulation(nodes=4)                             # a 2x2x1 mesh
        Simulation.mesh(MeshShape(4, 2, 1), hop_cycles=3)

    On a mesh every chip shares one config; ``node=`` keywords place
    segments, programs and threads, and the single global address
    space means a pointer allocated on one node dereferences from any
    other (the multicomputer story of §3).
    """

    def __init__(self, config: ChipConfig | None = None, *,
                 nodes: int = 1, shape=None,
                 hop_cycles: int = 5, interface_cycles: int = 10,
                 arena_order: int | None = None, workers: int = 1,
                 **overrides):
        base = config or ChipConfig()
        self.config = replace(base, **overrides) if overrides else base
        if workers < 1:
            raise ValueError("need at least one worker")
        if shape is not None and nodes > 1 and shape.nodes != nodes:
            raise ValueError(f"shape has {shape.nodes} nodes, not {nodes}")
        if shape is None and nodes > 1:
            shape = mesh_shape_for(nodes)
        if shape is not None:
            kwargs = {} if arena_order is None else {
                "arena_order": arena_order}
            self.machine = Multicomputer(
                shape=shape, chip_config=self.config,
                hop_cycles=hop_cycles, interface_cycles=interface_cycles,
                **kwargs)
            self.chips = self.machine.chips
            self.kernels = self.machine.kernels
            if workers > 1:
                from repro.machine.parallel import ParallelMulticomputer

                self.machine.shards = ParallelMulticomputer(self.machine,
                                                            workers)
            self._clock = self.machine
            self._shards = self.machine.shards
        else:
            if arena_order is not None:
                raise ValueError("arena_order only applies to a mesh")
            if workers > 1:
                raise SimulationError(
                    "workers > 1 needs a mesh: a single node has nothing "
                    "to shard")
            self.machine = None
            chip = MAPChip(self.config)
            self.chips = [chip]
            self.kernels = [Kernel(chip)]
            self._clock = chip
            self._shards = LocalShards(self)

    @classmethod
    def mesh(cls, shape=None, config: ChipConfig | None = None,
             **kwargs) -> "Simulation":
        """A mesh simulation with an explicit
        :class:`~repro.machine.network.MeshShape` (``None``: the 2x2x2
        default).  Keyword arguments are the constructor's
        (``hop_cycles``, ``interface_cycles``, ``arena_order``, chip
        overrides)."""
        from repro.machine.network import MeshShape

        return cls(config, shape=shape or MeshShape(), **kwargs)

    @classmethod
    def _from_multicomputer(cls, machine) -> "Simulation":
        """Wrap an already-built multicomputer (the restore path)."""
        sim = cls.__new__(cls)
        sim.config = machine.chips[0].config
        sim.machine = machine
        sim.chips = machine.chips
        sim.kernels = machine.kernels
        sim._clock = machine
        sim._shards = machine.shards
        return sim

    # -- the shard transport (repro.machine.parallel) ------------------------

    @property
    def workers(self) -> int:
        """OS worker processes the clock runs across (1 = lockstep)."""
        return self._shards.workers

    @property
    def engine(self):
        """The shard transport the facade's verbs run over: in-process
        (:class:`~repro.machine.multicomputer.LocalShards`) or, with
        ``workers > 1``, the worker pipes
        (:class:`~repro.machine.parallel.ParallelMulticomputer`)."""
        return self._shards

    def _guard_direct(self, what: str) -> None:
        """Direct machine access is legal only while the in-process
        machine is authoritative: always on the lockstep engine, and on
        the sharded one before the workers start or after
        :meth:`sync_back` (the next verb then ships the edits)."""
        if not self._shards.authoritative:
            raise SimulationError(
                f"{what}: the machine is sharded across worker processes "
                f"and the in-process copy is stale; use the facade verbs "
                f"(spawn_request / retire_finished / snapshot), or call "
                f"sync_back() first")

    def sync_back(self) -> None:
        """Make the in-process machine authoritative again: on the
        sharded engine, drain to a window barrier and pull every node's
        state back (no-op on the lockstep engine).  Direct access and
        edits are legal until the next verb, which ships the machine
        back to the workers."""
        self._shards.sync_back()

    def close(self) -> None:
        """Stop worker processes, if any (no-op on the lockstep
        engine).  The in-process machine keeps the state of the last
        :meth:`sync_back`."""
        self._shards.close()

    def rebalance(self, owned: list[list[int]] | None = None) -> None:
        """Re-shard node ownership across the workers (sharded engine
        only): drain, sync, and warm-start every worker from the fresh
        snapshot — bit-exact, since the window protocol makes execution
        independent of the ownership map."""
        if self.workers == 1:
            raise SimulationError("rebalance needs workers > 1")
        self._shards.rebalance(owned)

    # -- machine shape -----------------------------------------------------

    @property
    def nodes(self) -> int:
        return len(self.chips)

    @property
    def chip(self) -> MAPChip:
        """Node 0's chip (the only chip on a single-node machine)."""
        return self.chips[0]

    @property
    def kernel(self) -> Kernel:
        """Node 0's kernel (the only kernel on a single-node machine)."""
        return self.kernels[0]

    def _require_mesh(self, what: str):
        if self.machine is None:
            raise SimulationError(
                f"{what} needs a mesh: build one with Simulation(nodes=N) "
                f"or Simulation.mesh(...)")
        return self.machine

    @property
    def shape(self):
        """The mesh dimensions (mesh machines only)."""
        return self._require_mesh("shape").shape

    @property
    def network(self):
        """The mesh network (mesh machines only)."""
        return self._require_mesh("network").network

    @property
    def partition(self):
        """The global-address-space carve-up (mesh machines only)."""
        return self._require_mesh("partition").partition

    def _check_node(self, node: int) -> int:
        if not 0 <= node < len(self.kernels):
            raise ValueError(
                f"node {node} out of range for a {len(self.kernels)}-node "
                f"machine")
        return node

    # -- workload loading --------------------------------------------------

    def load(self, program: Program | str, *, node: int = 0,
             **kwargs) -> GuardedPointer:
        """Assemble-and-install a program on ``node``; returns its entry
        pointer.  Keyword arguments pass through to
        ``Kernel.load_program`` (``perm``, ``patches``)."""
        self._guard_direct("load")
        return self.kernels[self._check_node(node)].load_program(
            program, **kwargs)

    def allocate(self, nbytes: int, *, node: int = 0,
                 **kwargs) -> GuardedPointer:
        """A fresh data segment homed on ``node`` (``perm``/``eager``
        pass through)."""
        self._guard_direct("allocate")
        return self.kernels[self._check_node(node)].allocate_segment(
            nbytes, **kwargs)

    def spawn(self, entry: GuardedPointer | Program | str, *,
              node: int | None = None, **kwargs) -> Thread:
        """Start a thread.  ``entry`` may be an entry pointer from
        :meth:`load`, or program source/a ``Program`` to load first.
        ``node`` places the thread; when omitted, a pointer entry runs
        on its home node (pointers name their home in the high address
        bits — §3) and source loads on node 0.  Keyword arguments pass
        through to ``Kernel.spawn`` (``domain``, ``regs``, ``cluster``,
        ``stack_bytes``).  On a started sharded machine use
        :meth:`spawn_request` instead (it returns a tid, not a live
        thread object)."""
        self._guard_direct("spawn")
        if not isinstance(entry, GuardedPointer):
            entry = self.load(entry, node=node or 0)
        if node is None:
            if self.machine is not None:
                try:
                    node = self.machine.home_of(entry.address)
                except GuardedPointerFault as cause:
                    # non-power-of-two meshes leave high-bit patterns
                    # with no node behind them; an entry pointer there
                    # cannot run anywhere
                    raise SimulationError(
                        f"entry pointer has no home node: {cause}"
                    ) from cause
            else:
                node = 0
        return self.kernels[self._check_node(node)].spawn(entry, **kwargs)

    # -- the clock ---------------------------------------------------------

    def run(self, max_cycles: int = 1_000_000) -> RunResult:
        """Run to completion — every node in lockstep on a mesh (see
        :meth:`MAPChip.run` / :meth:`Multicomputer.run`), sharded
        across OS processes with ``workers > 1``."""
        return self._clock.run(max_cycles)

    def step(self, cycles: int = 1) -> int:
        """Advance the clock ``cycles`` cycles (lockstep across nodes);
        returns bundles issued."""
        if self.machine is not None:
            return self.machine.step(cycles)
        issued = 0
        for _ in range(cycles):
            issued += self.chip.step()
        return issued

    def advance_idle(self, cycles: int) -> None:
        """Skip guaranteed-idle cycles (only legal when nothing is
        runnable; see :meth:`MAPChip.advance_idle`)."""
        self._clock.advance_idle(cycles)

    @property
    def now(self) -> int:
        return self._shards.now()

    # -- engine-neutral request handles -------------------------------------
    # (the service load driver runs on these, so the same driver code
    # drives the lockstep and the sharded engine bit-identically)

    def spawn_request(self, node: int, entry: GuardedPointer, *,
                      domain: int = 0, regs: dict | None = None,
                      stack_bytes: int = 0) -> int:
        """Spawn a request thread on ``node`` and return its tid — a
        handle that stays valid on both engines (a live
        :class:`Thread` object would not cross a process boundary)."""
        return self._shards.spawn(
            self._check_node(node), entry,
            {"domain": domain, "regs": regs, "stack_bytes": stack_bytes})

    def retire_finished(self, pending, result_reg: int = 5) -> list[dict]:
        """Retire the finished threads among ``pending`` — an iterable
        of ``(node, tid)`` handles — removing each from its cluster
        slot.  Returns, in ``pending`` order, one dict per finished
        thread: ``node``, ``tid``, ``state`` ("HALTED"/"FAULTED"),
        ``halted_at`` and ``result`` (the value of ``result_reg`` at
        HALT).  Still-running handles are left alone; a handle whose
        thread the kernel already reaped reports as FAULTED."""
        pending = list(pending)
        finished = self._shards.retire(pending, result_reg)
        return [finished[key] for key in pending if key in finished]

    def record_sample(self, node: int, name: str, value: int) -> None:
        """Add one sample to ``node``'s named histogram (created on
        first use; see :meth:`repro.obs.hub.TraceHub.add_histogram`) —
        works on both engines."""
        self._shards.hist(self._check_node(node), name, value)

    def emit(self, node: int, name: str, cycle: int, *,
             tid: int | None = None, dur: int | None = None,
             **args) -> None:
        """Land one event in ``node``'s trace hub (flight recorder plus
        any attached sinks) — works on both engines.  This is how the
        service driver threads ``request.admit``/``request.done``
        instants into the event stream; ``name`` should come from
        :data:`repro.obs.EVENT_NAMES`."""
        self._shards.emit(self._check_node(node), name, cycle, tid, dur,
                          args)

    def counters_per_node(self) -> dict[int, dict]:
        """Each node's (unmerged) counter snapshot — on a started
        sharded machine pulled from the owning workers over RPC.  The
        time-series sampler reads this at every window boundary."""
        return self._shards.counters()

    # -- results and counters ---------------------------------------------

    @property
    def counters(self) -> PerfCounters:
        """The chip-wide performance-counter file.  Single-node only —
        a mesh has one file per node (:meth:`counters_of`) and a merged
        view (:meth:`snapshot`)."""
        if self.machine is not None:
            raise SimulationError(
                "a mesh has per-node counter files: use counters_of(node) "
                "for one node or snapshot() for the merged view")
        return self.chip.counters

    def counters_of(self, node: int) -> PerfCounters:
        """One node's performance-counter file."""
        self._guard_direct("counters_of")
        return self.chips[self._check_node(node)].counters

    def snapshot(self) -> dict[str, int | float]:
        """One coherent reading of every perf counter (sorted names).
        On a mesh: the machine-wide merge — bare names are sums across
        nodes, ``node<N>.*`` names stay per-node (see
        :func:`repro.machine.counters.merge_snapshots`).  On a started
        sharded machine the workers' files are merged over RPC."""
        if self.machine is not None:
            return self.machine.counters_snapshot()
        return self.chip.counters.snapshot()

    def counter_table(self, title: str = "perf counters") -> str:
        """The counter snapshot rendered by the standard table
        formatter (:func:`repro.sim.runner.format_table`)."""
        from repro.sim.runner import format_table

        return format_table(self.snapshot(), title=title)

    @property
    def threads(self) -> list[Thread]:
        self._guard_direct("threads")
        return [t for chip in self.chips for t in chip.all_threads()]

    # -- structured tracing (repro.obs) -------------------------------------

    def trace(self) -> "TraceSession":
        """Open a recording session over this machine's trace hubs —
        every node's, on a mesh (docs/OBSERVABILITY.md).  While the
        session is attached, every event — per-bundle issue, cache/TLB
        miss fills, faults, enter crossings, mesh hops, swap and
        migration — lands in ``session.events``; recording never
        changes cycle counts.  Use as a context manager, then export::

            with sim.trace() as session:
                sim.run()
            session.save_chrome("trace.json")   # ui.perfetto.dev
            print(session.text())               # greppable timeline
        """
        if self.workers > 1:
            raise SimulationError(
                "tracing needs the lockstep engine: a session cannot "
                "attach to chips living in worker processes (not even "
                "after sync_back() — the next run re-advances them "
                "there).  For time-resolved telemetry under workers>1 "
                "use Simulation.timeseries(window) / repro serve "
                "--timeseries-out (per-window counter deltas over RPC), "
                "or capture_state() and restore into a workers=1 "
                "Simulation to trace a replay")
        from repro.obs.hub import TraceSession

        return TraceSession([chip.obs for chip in self.chips])

    def span_collector(self):
        """Span-level event recording (``hot=False`` sinks: per-miss
        and cold events only, per-bundle path stays dark, superblock
        turbo stays engaged) — works on both engines; the request
        tracer builds on this.  Returns an object with ``drain()``."""
        from repro.obs.requests import SpanCollector

        return SpanCollector(self._shards)

    def record_requests(self) -> "RequestTraceRecorder":
        """A request-scoped trace recorder for a service run: hand it
        to the :class:`~repro.service.driver.ServiceLoadDriver`
        (``recorder=``), then ``recorder.explain_tail(k)`` after the
        run (docs/OBSERVABILITY.md §"Reading a request trace").  On a
        sharded machine, create it after all workload setup — attaching
        starts the workers."""
        from repro.obs.requests import RequestTraceRecorder

        return RequestTraceRecorder(self)

    def timeseries(self, window: int) -> "TimeseriesSampler":
        """A windowed counter sampler (docs/OBSERVABILITY.md
        §"Time-series sampling"): poll it at deterministic points (the
        load driver does, via ``sampler=``), read ``rows`` or write
        JSON/CSV after :meth:`~repro.obs.timeseries.TimeseriesSampler.
        finish`.  Works on both engines — the sharded engine samples
        over RPC at window boundaries."""
        from repro.obs.timeseries import TimeseriesSampler

        return TimeseriesSampler(self, window)

    # -- migration (repro.persist) ------------------------------------------

    def migrate(self, process, destination: int, pin=()) -> "MigrationReport":
        """Live-migrate ``process`` to node ``destination`` (mesh
        machines only; see
        :class:`repro.persist.migrate.MigrationService`).  ``pin``
        lists pointers whose segments stay home."""
        from repro.persist.migrate import MigrationError, MigrationService
        from repro.persist.state import threads_by_tid

        machine = self._require_mesh("migrate")
        self.sync_back()
        # a sync back rebuilds thread objects; rebind the handles by tid
        mapping = threads_by_tid(process.kernel.chip)
        missing = [t.tid for t in process.threads if t.tid not in mapping]
        if missing:
            raise MigrationError(
                f"threads {missing} are not resident on the process's node")
        process.threads = [mapping[t.tid] for t in process.threads]
        return MigrationService(machine).migrate(
            process, destination=destination, pin=pin)

    # -- persistence (repro.persist) ---------------------------------------

    def capture_state(self) -> dict:
        """The whole machine — one node or every node plus the mesh —
        as one JSON-safe payload (pair with :meth:`restore_state`).  On
        a started sharded machine this drains in-flight window traffic
        to the barrier first (the clock may advance by up to one
        window), then syncs every shard back; the image is
        engine-neutral and restores onto either engine."""
        self.sync_back()
        if self.machine is not None:
            return self.machine.capture_state()
        from repro.persist.image import capture_simulation

        return capture_simulation(self)

    def restore_state(self, state: dict) -> None:
        """Overwrite this machine's state with a captured image (the
        machine must have the image's shape)."""
        self._guard_direct("restore_state")
        if self.machine is not None:
            self.machine.restore_state(state)
            return
        from repro.persist.image import restore_node
        from repro.persist.snapshot import SnapshotError

        if state.get("kind") != "simulation":
            raise SnapshotError(
                f"expected a simulation image, got {state.get('kind')!r}")
        restore_node(self.kernel, state["node"])

    def save(self, path) -> "Path":
        """Write this machine's complete state — memory with tags,
        registers, page tables, cache/TLB/network timing, counters —
        to a snapshot file.  ``Simulation.restore(path)`` (same process
        or a different one, days later) resumes cycle-exactly.  A
        sharded machine drains to its window barrier first; the image
        is engine-neutral, so a parallel-captured file restores into a
        lockstep simulation bit-identically (and vice versa)."""
        self.sync_back()
        if self.machine is not None:
            from repro.persist.image import save_multicomputer

            return save_multicomputer(self.machine, path)
        from repro.persist.image import save_simulation

        return save_simulation(self, path)

    @classmethod
    def restore(cls, path, **overrides) -> "Simulation":
        """Rebuild a simulation from a :meth:`save` file — single-node
        and mesh images both come back behind this same facade.
        Keyword overrides may switch ``fast_paths`` (or the
        observational ``flight_capacity``); architectural overrides
        are rejected.  (Named ``restore`` because ``load`` is the
        facade's program loader.)"""
        from repro.persist.image import load_machine

        machine = load_machine(path, **overrides)
        if isinstance(machine, Multicomputer):
            return cls._from_multicomputer(machine)
        return machine

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        c = self.config
        mesh = ""
        if self.machine is not None:
            s = self.machine.shape
            mesh = f"nodes={s.nodes} ({s.x}x{s.y}x{s.z}), "
        return (f"Simulation({mesh}clusters={c.clusters}, "
                f"threads_per_cluster={c.threads_per_cluster}, "
                f"now={self.now})")
