"""The five end-to-end workloads, each split into set-up and a measured
phase, with the checks that prove the simulated outputs are right.

A workload object is built by :func:`build` (the set-up: machine,
programs or tenants, input data, schedule, worker start) and then
``run()`` once (the measured phase); ``finish()`` reads the counters
and checks the results outside the timed region, and ``close()`` stops
any worker processes.  Everything goes through the public ``repro``
API, the way a user drives the simulator.

Sizes in ``SPECS`` are for one *rep* at ``scale=1``; a run repeats
reps and reports medians.

The seed picks the inputs only: data words and initial registers for
the kernels (their timing does not depend on data, so their simulated
cycles are the same for every seed), the request schedule for the
services.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro import ChipConfig, RunReason, Simulation
from repro.obs.histogram import percentile_from_snapshot
from repro.service import ServiceLoadDriver, install_tenants, open_loop

WORKLOADS = ("kernel_turbo", "kernel_mt", "serve_node", "serve_mesh",
             "serve_mesh_sharded")

KERNEL_MAX_CYCLES = 100_000_000

# -- kernel programs -----------------------------------------------------
# Frozen copies of the superblock benchmark's loops and the E5 worker,
# so a later change to those files cannot silently change this
# benchmark's inputs.

#: pure integer loop: every slot compiles into a superblock
ALU = """
    movi r2, {iterations}
loop:
    addi r3, r3, 7
    xor  r4, r3, r2
    add  r5, r4, r3
    subi r2, r2, 1
    bne  r2, loop
    halt
"""

#: loads with stores beside them (r1 = data segment)
STREAM = """
    movi r2, {iterations}
loop:
    ld   r3, r1, 0
    addi r3, r3, 1
    st   r3, r1, 8
    ld   r4, r1, 16
    st   r4, r1, 24
    subi r2, r2, 1
    bne  r2, loop
    halt
"""

#: the E5 (Fig. 5) worker: compute interleaved with two loads
WORKER = """
    movi r2, {iterations}
loop:
    beq r2, done
    ld r3, r1, 0      | addi r4, r4, 1
    ld r5, r1, 512    | addi r4, r4, 1
    addi r4, r4, 3
    subi r2, r2, 1
    br loop
done:
    halt
"""

#: writes the seed's data words where STREAM and WORKER load them
INIT = """
    movi r2, {d0}
    st r2, r1, 0
    movi r2, {d16}
    st r2, r1, 16
    movi r2, {d512}
    st r2, r1, 512
    halt
"""

SOURCES = {"alu": ALU, "stream": STREAM, "worker": WORKER}


def expected_registers(program: str, n: int, inputs: dict) -> dict[int, int]:
    """The closed form of each loop's final registers after ``n``
    iterations from ``inputs`` (initial registers and data words)."""
    if program == "alu":
        r3 = inputs["r3"] + 7 * n
        # the last iteration XORs with r2 == 1, before the decrement
        return {2: 0, 3: r3, 4: r3 ^ 1, 5: (r3 ^ 1) + r3}
    if program == "stream":
        return {2: 0, 3: inputs["d0"] + 1, 4: inputs["d16"]}
    return {2: 0, 3: inputs["d0"], 4: inputs["r4"] + 5 * n,
            5: inputs["d512"]}


@dataclass
class Outcome:
    """What one measured phase produced (filled in by ``finish``)."""

    cycles: int = 0
    bundles: int = 0
    units: int = 0            #: requests, or kernel threads
    completed: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    #: every simulated result, compared exactly across reps and runs
    report: dict = field(default_factory=dict)
    latency: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)


def _delta(after: dict, before: dict) -> dict:
    return {k: v - before.get(k, 0) for k, v in after.items()
            if isinstance(v, (int, float))}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _check(outcome: Outcome, ok: bool, message: str) -> None:
    if not ok:
        outcome.failures.append(message)
        outcome.failed += 1


def _machine_counters(outcome: Outcome, sim, before: dict,
                      superblock_before: tuple[int, int]) -> dict:
    """Per-layer ratios from the counter file, over the measured phase
    only, plus the machine-wide bookkeeping identities.  Returns the
    counter deltas."""
    d = _delta(sim.snapshot(), before)
    issued = d["chip.issued_bundles"]
    clusters = sum(v for k, v in d.items()
                   if k.startswith("cluster") and k.endswith(".issued"))
    fetches = d["fetch.hits"] + d["fetch.misses"]
    _check(outcome, issued == clusters,
           f"chip.issued_bundles {issued} != sum of cluster*.issued "
           f"{clusters}")
    if sim.nodes == 1:
        _check(outcome, issued == fetches,
               f"chip.issued_bundles {issued} != fetch.hits + fetch.misses "
               f"{fetches}")
    else:
        # a fetch that waits for remote code counts one miss per retry
        _check(outcome, fetches >= issued,
               f"fetch.hits + fetch.misses {fetches} < issued {issued}")
    blocks, sb_bundles = (now - then for now, then in
                          zip(_superblocks(sim), superblock_before))
    remote = {k: v for k, v in d.items()
              if k.startswith("hist.remote_latency.")}
    outcome.counters = {
        "chip.fetch.decode_hit_ratio": _ratio(d["fetch.hits"], fetches),
        "cluster.exec.check_memo_hit_ratio": _ratio(
            d["mem.check_memo_hits"],
            d["mem.check_memo_hits"] + d["mem.check_memo_misses"]),
        "cluster.superblock.bundle_share": _ratio(sb_bundles, issued),
        "cluster.superblock.bundles_per_block": _ratio(sb_bundles, blocks),
        "chip.sched.idle_skip_share": _ratio(
            d.get("chip.idle_skipped_cycles", 0), d["chip.cycles"]),
        "mem.xlate_memo_hit_ratio": _ratio(
            d["cache.xlate_memo_hits"],
            d["cache.xlate_memo_hits"] + d["cache.xlate_memo_misses"]),
        "mem.cache_hit_rate": _ratio(d["cache.hits"],
                                     d["cache.hits"] + d["cache.misses"]),
        "mem.tlb_hit_rate": _ratio(d["tlb.hits"],
                                   d["tlb.hits"] + d["tlb.misses"]),
        "obs.flight_events_per_kcycle": _ratio(
            1000 * d.get("flight.recorded", 0), outcome.cycles),
        "mesh.remote_ops_per_request": _ratio(
            d.get("router.remote_reads", 0) + d.get("router.remote_writes", 0),
            outcome.units),
        "mesh.remote_latency_p50_cycles": percentile_from_snapshot(
            remote, "hist.remote_latency", 0.50),
    }
    outcome.report["counters"] = {k: d[k] for k in sorted(d)
                                  if not k.startswith("thread.")}
    outcome.report["superblock"] = {"blocks": blocks, "bundles": sb_bundles}
    return d


def _superblocks(sim) -> tuple[int, int]:
    return (sum(c.superblock_blocks for c in sim.chips),
            sum(c.superblock_bundles for c in sim.chips))


# -- kernels -------------------------------------------------------------

@dataclass(frozen=True)
class KernelSpec:
    programs: tuple[str, ...]  #: one thread per entry
    iterations: int            #: per thread, at scale 1
    concurrent: bool           #: all threads on cluster 0 at once


class Kernel:
    """One node running hand-written loops; ``concurrent`` puts every
    thread on cluster 0 in its own protection domain (E5, Fig. 5),
    otherwise the threads run one after another (superblock turbo)."""

    def __init__(self, spec: KernelSpec, seed: int, scale: float):
        self.spec = spec
        self.n = max(1, round(spec.iterations * scale))
        rng = random.Random(seed)
        if spec.concurrent:
            self.sim = Simulation(ChipConfig(memory_bytes=4 * 1024 * 1024,
                                             threads_per_cluster=4))
        else:
            self.sim = Simulation(memory_bytes=4 * 1024 * 1024)
        sim = self.sim
        entries = {name: sim.load(SOURCES[name].format(iterations=self.n))
                   for name in sorted(set(spec.programs))}
        self.threads = []
        setup_threads = []
        for program in spec.programs:
            inputs = {"r3": rng.randrange(1, 1 << 40),
                      "r4": rng.randrange(1, 1 << 40),
                      "d0": rng.randrange(1, 1 << 40),
                      "d16": rng.randrange(1, 1 << 40),
                      "d512": rng.randrange(1, 1 << 40)}
            regs = {3: inputs["r3"], 4: inputs["r4"]}
            if program != "alu":
                data = sim.allocate(4096, eager=True)
                regs[1] = data.word
                setup_threads.append(sim.spawn(
                    INIT.format(**inputs), regs={1: data.word},
                    stack_bytes=0))
            self.threads.append((entries[program], program, regs, inputs))
        if setup_threads:
            result = sim.run(KERNEL_MAX_CYCLES)
            if result.reason != RunReason.HALTED:
                raise RuntimeError(f"data set-up stopped: {result.reason}")
            sim.retire_finished([(0, t.tid) for t in setup_threads])
        self._before = sim.snapshot()
        self._sb_before = _superblocks(sim)
        self._spawned = []
        self._results = []

    def run(self) -> None:
        sim = self.sim
        if self.spec.concurrent:
            for index, (entry, _, regs, _) in enumerate(self.threads):
                self._spawned.append(sim.spawn(
                    entry, domain=index + 1, cluster=0, regs=regs,
                    stack_bytes=0))
            self._results.append(sim.run(KERNEL_MAX_CYCLES))
            return
        for entry, _, regs, _ in self.threads:
            self._spawned.append(sim.spawn(entry, regs=regs, stack_bytes=0))
            self._results.append(sim.run(KERNEL_MAX_CYCLES))

    def finish(self) -> Outcome:
        out = Outcome(units=len(self.threads))
        out.cycles = sum(r.cycles for r in self._results)
        out.bundles = sum(r.issued_bundles for r in self._results)
        for result in self._results:
            _check(out, result.reason == RunReason.HALTED,
                   f"kernel run stopped: {result.reason}")
        registers = []
        for thread, (_, program, _, inputs) in zip(self._spawned,
                                                   self.threads):
            want = expected_registers(program, self.n, inputs)
            got = {i: thread.regs.read(i).value for i in want}
            halted = thread.state.name == "HALTED"
            if halted and got == want:
                out.completed += 1
            else:
                out.failed += 1
                out.failures.append(
                    f"{program} thread {thread.tid}: state "
                    f"{thread.state.name}, registers {got} != {want}")
            registers.append(got)
        out.report = {"cycles": out.cycles, "bundles": out.bundles,
                      "registers": registers}
        _machine_counters(out, self.sim, self._before, self._sb_before)
        return out

    def close(self) -> None:
        pass


def kernel_cycles(name: str, seed: int, scale: float) -> int:
    """Simulated cycles of one small rep (the seed-independence check)."""
    kernel = build(name, seed, scale)
    kernel.run()
    return kernel.finish().cycles


# -- services ------------------------------------------------------------

@dataclass(frozen=True)
class ServeSpec:
    nodes: int
    mean_gap: float   #: cycles between arrivals (Poisson)
    ingress: str
    requests: int     #: at scale 1
    workers: int = 1


TENANTS = 200


class Serve:
    """The ``repro serve`` service: 200 tenants, open-loop Poisson
    arrivals, Zipf 1.1 tenant skew, 50% PUT."""

    def __init__(self, spec: ServeSpec, seed: int, scale: float):
        self.spec = spec
        requests = max(1, round(spec.requests * scale))
        if spec.nodes == 1:
            self.sim = Simulation(memory_bytes=8 * 1024 * 1024,
                                  page_bytes=512)
        else:
            self.sim = Simulation(nodes=spec.nodes,
                                  memory_bytes=8 * 1024 * 1024,
                                  page_bytes=512, workers=spec.workers)
        try:
            tenants = install_tenants(self.sim, TENANTS)
            self.driver = ServiceLoadDriver(self.sim, tenants,
                                            ingress=spec.ingress)
            self.schedule = open_loop(requests=requests, tenants=TENANTS,
                                      mean_gap=spec.mean_gap, seed=seed)
            if spec.workers > 1:
                self.sim.engine.start()
            self._before = self.sim.snapshot()
            self._sb_before = _superblocks(self.sim)
        except BaseException:
            self.sim.close()
            raise
        self.report = None

    def run(self) -> None:
        self.report = self.driver.run(self.schedule)

    def finish(self) -> Outcome:
        report = self.report
        out = Outcome(units=report.requests)
        out.cycles = report.cycles
        out.completed = report.completed - report.wrong_results
        out.failed = report.requests - out.completed
        if out.failed:
            out.failures.append(
                f"{report.requests} requests: {report.completed} completed, "
                f"{report.errors} faulted, {report.wrong_results} wrong GETs")
        out.latency = report.latency
        out.report = report.as_dict()
        d = _machine_counters(out, self.sim, self._before, self._sb_before)
        out.bundles = d["chip.issued_bundles"]
        enters = d.get("hist.enter_roundtrip.count", 0)
        _check(out, enters == report.completed,
               f"hist.enter_roundtrip.count {enters} != completed "
               f"{report.completed}")
        return out

    def close(self) -> None:
        self.sim.close()


#: one rep at scale 1 takes about a second on a 2-vCPU Xeon (the mesh
#: ones about two, the sharded one about four): short reps, so a run's
#: median is taken over many of them and a burst of host load spoils
#: few.  The mesh schedule is 2k requests because with 1k, the seed's
#: schedule alone moved sim_cycles_per_s by +-5% from seed to seed.
SPECS = {
    "kernel_turbo": KernelSpec(("alu", "stream", "worker"), 20_000, False),
    "kernel_mt": KernelSpec(("worker", "worker", "stream", "stream"),
                            5_000, True),
    "serve_node": ServeSpec(1, 40.0, "home", 5_000),
    "serve_mesh": ServeSpec(4, 80.0, "scatter", 2_000),
    "serve_mesh_sharded": ServeSpec(4, 80.0, "scatter", 2_000, workers=2),
}


def build(name: str, seed: int, scale: float):
    """Set up one rep of workload ``name``."""
    spec = SPECS[name]
    if isinstance(spec, KernelSpec):
        return Kernel(spec, seed, scale)
    return Serve(spec, seed, scale)
