"""Scenario runners and the fast-vs-plain diff axis.

Every scenario runs the same case with the simulator's shortcuts on
(``ChipConfig(fast_paths=True)``: decoded-bundle cache, LEA,
access-check and translation-line memos, idle fast-forward, superblock
traces) and off, and the pair must produce *identical* digests: thread
state, register files, fault sequence, memory image, cycle count (the
shortcuts are timing-transparent, so even ``now`` must match) and the
counter file minus the shortcut tallies
(:data:`~repro.machine.chip.SHORTCUT_TALLIES`).  The scenarios are
chosen to stress exactly the paths that can leave a stale decoded
bundle, a stale memoised translation, or a stale superblock node
behind:

==============  ======================================================
plain           straight ISA soup (control: no mutation at all)
self_modify     the program stores over its own next iteration
enter_call      ENTER-pointer call/return (decoded gate bundles)
unmap_remap     kernel unmaps the code page mid-run, remaps + rewrites
swap            code and data pages take a backing-store round-trip
gc_sweep        a GC collection plus ``sweep_revoke`` over live memory
loader_reuse    a freed code segment's range is reloaded with new code
remote_store    another node patches this node's code through the mesh
interleave      2-4 threads in separate domains share cluster 0, each
                with its own registers and lazily mapped data segment
==============  ======================================================

The **replay** axis (:func:`diff_replay_axis`) runs every scenario a
second time with a snapshot/restore round-trip spliced in at the
scenario's mutation point: the machine is captured through the real
container codec (:mod:`repro.persist.snapshot` — canonical JSON, zlib,
CRC and all), a *fresh* machine is rebuilt from the bytes, and the run
finishes there.  The digests must still be identical, under both
``fast_paths`` settings — that is the deterministic-replay guarantee
``Simulation.save``/``restore`` advertises, policed case by case.
"""

from __future__ import annotations

from repro.core.permissions import Permission
from repro.core.pointer import GuardedPointer
from repro.core.word import TaggedWord
from repro.machine.assembler import assemble
from repro.machine.chip import ChipConfig, MAPChip, without_shortcut_tallies
from repro.machine.multicomputer import Multicomputer
from repro.machine.network import MeshShape
from repro.machine.thread import Thread
from repro.machine.verifier import InvariantViolation, SecurityMonitor
from repro.runtime.gc import AddressSpaceGC, sweep_revoke
from repro.runtime.swap import SwapManager
from repro.sim.api import Simulation

from repro.fuzz.differ import Divergence, setup_chip
from repro.fuzz.generator import DATA_BYTES, FuzzCase

#: generated programs finish within a few thousand cycles; this bound
#: only matters for broken shrink candidates (deleted loop decrements),
#: so it is kept tight enough that burning it stays cheap
MAX_CYCLES = 20_000

#: where the replay axis splices its snapshot into scenarios that have
#: no mutation point of their own (plain / self_modify / enter_call)
ROUNDTRIP_AFTER = 40


# -- the replay-axis splice ------------------------------------------------
#
# Each helper captures a machine through the real container codec and
# rebuilds a fresh one from the bytes — the same path a snapshot file
# takes through disk, minus the filesystem.  Returning the blob lets a
# divergence carry the exact restorable image that misbehaved.

def _roundtrip_bare_chip(chip: MAPChip) -> tuple[MAPChip, bytes]:
    from repro.persist.snapshot import decode_snapshot, encode_snapshot
    from repro.persist.state import capture_chip, restore_chip_state

    blob = encode_snapshot({"kind": "chip", "chip": capture_chip(chip)})
    payload = decode_snapshot(blob)
    fresh = MAPChip(ChipConfig(**payload["chip"]["config"]))
    restore_chip_state(fresh, payload["chip"])
    return fresh, blob


def _roundtrip_sim(sim: Simulation) -> tuple[Simulation, bytes]:
    from repro.persist.image import capture_simulation, restore_simulation
    from repro.persist.snapshot import decode_snapshot, encode_snapshot

    blob = encode_snapshot(capture_simulation(sim))
    return restore_simulation(decode_snapshot(blob)), blob


def _roundtrip_mc(mc: Multicomputer) -> tuple[Multicomputer, bytes]:
    from repro.persist.image import (capture_multicomputer,
                                     restore_multicomputer)
    from repro.persist.snapshot import decode_snapshot, encode_snapshot

    blob = encode_snapshot(capture_multicomputer(mc))
    return restore_multicomputer(decode_snapshot(blob)), blob


def _rebind(chip: MAPChip, *threads: Thread) -> tuple:
    """After a round-trip, object identity is gone: re-resolve the
    threads by tid on the restored chip and attach one fresh monitor
    (monitors are code, not state — ``note_spawn`` re-baselines I1 at
    each thread's *current* privilege, which is what birth privilege
    means on a restored machine).  Returns the threads, then the
    monitor."""
    from repro.persist.state import threads_by_tid

    by_tid = threads_by_tid(chip)
    threads = [by_tid[thread.tid] for thread in threads]
    monitor = SecurityMonitor(chip)
    for thread in threads:
        monitor.note_spawn(thread)
    return (*threads, monitor)


# -- digest helpers -------------------------------------------------------

def _digest_thread(thread: Thread) -> dict:
    return {
        "state": thread.state.name,
        "bundles": thread.stats.bundles,
        "fault": (type(thread.fault.cause).__name__
                  if thread.fault is not None else None),
        "regs": [(w.value, w.tag)
                 for w in (thread.regs.read(i) for i in range(16))],
        # repr, not the float: NaN must compare equal to itself here
        "fregs": [repr(thread.regs.read_f(i)) for i in range(16)],
    }


def _segment_words(chip: MAPChip, base: int, nbytes: int) -> list:
    """The segment's words as compare-friendly tuples; pages the kernel
    unmapped (swap, GC) digest as the string ``"unmapped"``."""
    table = chip.page_table
    out: list = []
    for off in range(0, nbytes, 8):
        vaddr = base + off
        if not table.is_mapped(table.page_of(vaddr)):
            out.append("unmapped")
        else:
            word = chip.memory.load_word(table.walk(vaddr))
            out.append((word.value, word.tag))
    return out


def _digest_chip(chip: MAPChip, threads: list[Thread],
                 segments: list[tuple[int, int]],
                 monitors: list[SecurityMonitor]) -> dict:
    digest = {
        "cycles": chip.now,
        "threads": [_digest_thread(t) for t in threads],
        "faults": [type(r.cause).__name__ for r in chip.fault_log],
        "memory": [_segment_words(chip, base, nbytes)
                   for base, nbytes in segments],
        "counters": without_shortcut_tallies(chip.counters.snapshot()),
        "invariant": None,
        # side channel, like "_snapshot": the flight recorder rides
        # along for crash artifacts but is popped before any comparison
        "_flight": chip.obs.flight.dump(),
    }
    for monitor in monitors:
        try:
            monitor.check_all()
        except InvariantViolation as e:
            digest["invariant"] = str(e)
            break
    return digest


# -- the runners ----------------------------------------------------------

def _run_program_scenario(case: FuzzCase, fast_paths: bool,
                          roundtrip: bool) -> dict:
    """plain / self_modify / enter_call: a bare chip, run to the end."""
    chip, thread, entry, data = setup_chip(case.source,
                                           fast_paths=fast_paths,
                                           fregs=case.fregs)
    monitor = SecurityMonitor(chip)
    monitor.note_spawn(thread)
    snapshot = None
    budget = MAX_CYCLES
    if roundtrip:
        budget -= chip.run(ROUNDTRIP_AFTER).cycles
        chip, snapshot = _roundtrip_bare_chip(chip)
        thread, monitor = _rebind(chip, thread)
    chip.run(budget)
    digest = _digest_chip(chip, [thread],
                          [(data.segment_base, DATA_BYTES)], [monitor])
    if snapshot is not None:
        digest["_snapshot"] = snapshot
    return digest


def _make_sim(case: FuzzCase, fast_paths: bool
              ) -> tuple[Simulation, Thread, SecurityMonitor, int, int]:
    """A kernel-backed single-node machine with the case loaded: data
    segment in r8, stack in r14 (kernel convention)."""
    sim = Simulation(memory_bytes=2 * 1024 * 1024, fast_paths=fast_paths)
    data = sim.allocate(DATA_BYTES, eager=True)
    entry = sim.load(case.source)
    monitor = SecurityMonitor(sim.chip)
    thread = sim.spawn(entry, regs={8: data.word})
    monitor.note_spawn(thread)
    for index, value in case.fregs.items():
        thread.regs.write_f(index, value)
    return sim, thread, monitor, entry.segment_base, data.segment_base


def _run_unmap_remap(case: FuzzCase, fast_paths: bool,
                     roundtrip: bool) -> dict:
    """Mid-run, the code page is unmapped, remapped, and rewritten with
    a carpet of HALT bundles — the decoded old program must not run on."""
    sim, thread, monitor, code_base, data_base = _make_sim(case, fast_paths)
    sim.step(case.meta["mutate_after"])
    table = sim.chip.page_table
    program_bytes = assemble(case.source).size_bytes
    table.unmap(table.page_of(code_base))
    table.ensure_mapped(code_base, program_bytes)
    halt_words = assemble("halt").encode()  # one full bundle: halt|nop|nop
    for i in range(program_bytes // 8):
        sim.chip.store_runtime_word(table.walk(code_base + i * 8),
                                    halt_words[i % 3])
    snapshot = None
    if roundtrip:
        sim, snapshot = _roundtrip_sim(sim)
        thread, monitor = _rebind(sim.chip, thread)
    sim.run(MAX_CYCLES)
    digest = _digest_chip(sim.chip, [thread],
                          [(data_base, DATA_BYTES)], [monitor])
    if snapshot is not None:
        digest["_snapshot"] = snapshot
    return digest


def _run_swap(case: FuzzCase, fast_paths: bool,
              roundtrip: bool) -> dict:
    """Mid-run, the code and data pages are forced out to the backing
    store; the demand-pager brings them back on the next touch."""
    sim, thread, monitor, code_base, data_base = _make_sim(case, fast_paths)
    swap = SwapManager(sim.kernel, swap_cycles=50)
    sim.step(case.meta["mutate_after"])
    table = sim.chip.page_table
    swap.swap_out(table.page_of(code_base))
    swap.swap_out(table.page_of(data_base))
    snapshot = None
    if roundtrip:
        # the snapshot lands while both pages sit in the backing store:
        # the restored machine must fault them back in identically
        sim, snapshot = _roundtrip_sim(sim)
        thread, monitor = _rebind(sim.chip, thread)
    sim.run(MAX_CYCLES)
    digest = _digest_chip(sim.chip, [thread],
                          [(data_base, DATA_BYTES)], [monitor])
    if snapshot is not None:
        digest["_snapshot"] = snapshot
    return digest


def _run_gc_sweep(case: FuzzCase, fast_paths: bool,
                  roundtrip: bool) -> dict:
    """Mid-run, a full collection frees an unreachable decoy and a
    ``sweep_revoke`` zeroes every copy of a victim pointer — both write
    below translation, which is exactly where staleness hides."""
    sim, thread, monitor, code_base, data_base = _make_sim(case, fast_paths)
    victim = sim.allocate(256, eager=True)
    sim.allocate(512, eager=True)  # the decoy: unreachable, GC frees it
    # park the victim pointer in live data so the sweep has work to do
    table = sim.chip.page_table
    sim.chip.memory.store_word(table.walk(data_base + DATA_BYTES - 8),
                               victim.word)
    sim.step(case.meta["mutate_after"])
    AddressSpaceGC(sim.kernel).collect(extra_roots=[victim])
    sweep_revoke(sim.kernel, victim)
    snapshot = None
    if roundtrip:
        sim, snapshot = _roundtrip_sim(sim)
        thread, monitor = _rebind(sim.chip, thread)
    sim.run(MAX_CYCLES)
    digest = _digest_chip(sim.chip, [thread],
                          [(data_base, DATA_BYTES)], [monitor])
    if snapshot is not None:
        digest["_snapshot"] = snapshot
    return digest


def _run_loader_reuse(case: FuzzCase, fast_paths: bool,
                      roundtrip: bool) -> dict:
    """Run program A, free its code segment, load program B over the
    recycled range, run that too — B must never execute A's bundles."""
    sim = Simulation(memory_bytes=2 * 1024 * 1024, fast_paths=fast_paths)
    data = sim.allocate(DATA_BYTES, eager=True)
    data_base = data.segment_base
    monitor = SecurityMonitor(sim.chip)
    entry_a = sim.load(case.source)
    thread_a = sim.spawn(entry_a, regs={8: data.word})
    monitor.note_spawn(thread_a)
    sim.run(MAX_CYCLES)
    sim.kernel.free_segment(entry_a)
    snapshot = None
    if roundtrip:
        # snapshot straddles the loader boundary: program A is done,
        # its range is free, program B is loaded on the *restored* sim
        sim, snapshot = _roundtrip_sim(sim)
        thread_a, monitor = _rebind(sim.chip, thread_a)
        data = sim.kernel.segments[data_base].pointer
    entry_b = sim.load(case.meta["source_b"])
    thread_b = sim.spawn(entry_b, regs={8: data.word})
    monitor.note_spawn(thread_b)
    sim.run(MAX_CYCLES)
    digest = _digest_chip(sim.chip, [thread_a, thread_b],
                          [(data_base, DATA_BYTES)], [monitor])
    if snapshot is not None:
        digest["_snapshot"] = snapshot
    return digest


def _run_remote_store(case: FuzzCase, fast_paths: bool,
                      roundtrip: bool) -> dict:
    """Two mesh nodes; node 1 patches node 0's code through the network
    mid-run, flipping a ``movi`` immediate the loop keeps executing.
    (Superblocks self-disable on meshed chips, so here the fast run
    differs from the plain one only by its memos and decode cache.)"""
    mc = Multicomputer(MeshShape(2, 1, 1),
                       chip_config=ChipConfig(memory_bytes=2 * 1024 * 1024,
                                              fast_paths=fast_paths),
                       arena_order=24)
    data = mc.allocate_on(0, DATA_BYTES, eager=True)
    entry = mc.load_on(0, case.source)
    monitors = [SecurityMonitor(chip) for chip in mc.chips]
    thread = mc.spawn_on(0, entry, regs={8: data.word})
    monitors[0].note_spawn(thread)
    for index, value in case.fregs.items():
        thread.regs.write_f(index, value)
    mc.run(max_cycles=case.meta["mutate_after"])
    patch_addr = entry.segment_base + case.meta["patch_offset"]
    mc.chips[1].access_memory(
        patch_addr, write=True, now=mc.chips[1].now,
        value=TaggedWord.integer(case.meta["patch_word"]))
    snapshot = None
    if roundtrip:
        # whole-machine round-trip: both nodes plus the mesh's port
        # timing come back from the bytes
        mc, snapshot = _roundtrip_mc(mc)
        thread, monitor0 = _rebind(mc.chips[0], thread)
        monitors = [monitor0] + [SecurityMonitor(chip)
                                 for chip in mc.chips[1:]]
    mc.run(max_cycles=MAX_CYCLES)
    digest = _digest_chip(mc.chips[0], [thread],
                          [(data.segment_base, DATA_BYTES)], monitors)
    digest["cycles"] = max(chip.now for chip in mc.chips)
    digest["faults"] = [[type(r.cause).__name__ for r in chip.fault_log]
                        for chip in mc.chips]
    digest["counters"] = without_shortcut_tallies(mc.counters_snapshot())
    if snapshot is not None:
        digest["_snapshot"] = snapshot
    return digest


def _run_interleave(case: FuzzCase, fast_paths: bool,
                    roundtrip: bool) -> dict:
    """The program on 2-4 threads of cluster 0, in separate domains.
    Each thread has its own lazily mapped data segment in r8 and its
    own r1-r7 (``meta["regs"]``), so skip branches desynchronise the
    threads, and faults and demand-paging stalls end solo runs at
    varying round-robin positions.  The digest covers every thread
    and segment."""
    sim = Simulation(memory_bytes=2 * 1024 * 1024, fast_paths=fast_paths)
    entry = sim.load(case.source)
    threads, segments = [], []
    for k, values in enumerate(case.meta["regs"]):
        data = sim.allocate(DATA_BYTES, eager=False)
        regs = {8: data.word}
        regs.update(enumerate(values, start=1))
        thread = sim.spawn(entry, cluster=0, domain=k + 1, regs=regs)
        for index, value in case.fregs.items():
            thread.regs.write_f(index, value)
        threads.append(thread)
        segments.append((data.segment_base, DATA_BYTES))
    monitor = SecurityMonitor(sim.chip)
    for thread in threads:
        monitor.note_spawn(thread)
    snapshot = None
    budget = MAX_CYCLES
    if roundtrip:
        budget -= sim.run(ROUNDTRIP_AFTER).cycles
        sim, snapshot = _roundtrip_sim(sim)
        *threads, monitor = _rebind(sim.chip, *threads)
    sim.run(budget)
    digest = _digest_chip(sim.chip, threads, segments, [monitor])
    if snapshot is not None:
        digest["_snapshot"] = snapshot
    return digest


_RUNNERS = {
    "plain": _run_program_scenario,
    "self_modify": _run_program_scenario,
    "enter_call": _run_program_scenario,
    "unmap_remap": _run_unmap_remap,
    "swap": _run_swap,
    "gc_sweep": _run_gc_sweep,
    "loader_reuse": _run_loader_reuse,
    "remote_store": _run_remote_store,
    "interleave": _run_interleave,
}


def run_scenario(case: FuzzCase, fast_paths: bool = True,
                 roundtrip: bool = False) -> dict:
    """One digest of ``case`` with the shortcuts on or off.  With
    ``roundtrip`` the machine takes a snapshot/restore round-trip at
    the scenario's mutation point, and the digest carries the container
    bytes under the ``"_snapshot"`` side-channel key (popped before any
    comparison)."""
    return _RUNNERS[case.scenario](case, fast_paths, roundtrip)


def _first_difference(a: dict, b: dict, a_name: str, b_name: str) -> str:
    """The first digest entry that differs, as a one-line detail; for
    the counter file, only the counters that differ."""
    for key in a:
        if a[key] == b[key]:
            continue
        if key == "counters":
            names = sorted(n for n in a[key].keys() | b[key].keys()
                           if a[key].get(n) != b[key].get(n))
            return "counters: " + ", ".join(
                f"{n} {a_name}={a[key].get(n)!r} {b_name}={b[key].get(n)!r}"
                for n in names[:8])
        return f"{key}: {a_name}={a[key]!r} {b_name}={b[key]!r}"
    return "digests differ"


def diff_fast_paths_axis(case: FuzzCase) -> Divergence | None:
    """Run ``case`` with every simulator shortcut on and on the plain
    per-cycle machine; None means the two runs were architecturally
    *and* temporally identical, with the same counter file outside the
    shortcut tallies."""
    axis = "fast-vs-plain"
    digests = []
    for name, fast_paths in (("fast", True), ("plain", False)):
        try:
            digest = run_scenario(case, fast_paths)
        except Exception as e:
            return Divergence(axis, case, "crash",
                              f"{name} run crashed: {type(e).__name__}: {e}")
        flight = digest.pop("_flight", None)
        if digest["invariant"] is not None:
            return Divergence(axis, case, "invariant", digest["invariant"],
                              flight=flight)
        digests.append((digest, flight))
    (fast, flight), (plain, _) = digests
    if fast != plain:
        return Divergence(axis, case, "state",
                          _first_difference(fast, plain, "fast", "plain"),
                          flight=flight)
    return None


def diff_replay_axis(case: FuzzCase) -> Divergence | None:
    """Run ``case`` uninterrupted and with a snapshot/restore
    round-trip spliced in at the mutation point — under *both*
    ``fast_paths`` settings — and require bit-identical digests
    (registers, memory, fault sequence, cycle count, counters).  On a
    mismatch the returned divergence carries the snapshot bytes, so the
    failing image ships inside the crash dump, restorable for
    post-mortem."""
    axis = "replay-roundtrip"
    for fast_paths in (True, False):
        label = "fast" if fast_paths else "plain"
        try:
            base = run_scenario(case, fast_paths)
        except Exception as e:
            return Divergence(axis, case, "crash",
                              f"uninterrupted {label} run crashed: "
                              f"{type(e).__name__}: {e}")
        try:
            replayed = run_scenario(case, fast_paths, roundtrip=True)
        except Exception as e:
            return Divergence(axis, case, "crash",
                              f"replayed {label} run crashed: "
                              f"{type(e).__name__}: {e}")
        snapshot = replayed.pop("_snapshot", None)
        base.pop("_flight", None)
        flight = replayed.pop("_flight", None)
        if base["invariant"] is not None:
            return Divergence(axis, case, "invariant", base["invariant"])
        if replayed["invariant"] is not None:
            return Divergence(axis, case, "invariant", replayed["invariant"],
                              snapshot=snapshot, flight=flight)
        if base != replayed:
            detail = _first_difference(base, replayed,
                                       f"{label}-uninterrupted",
                                       f"{label}-replayed")
            return Divergence(axis, case, "state", detail,
                              snapshot=snapshot, flight=flight)
    return None


# -- the parallel axis -----------------------------------------------------

#: scenarios the sharded axis can transplant onto a mesh: their sources
#: are self-contained given the bare-chip register convention (r8 data,
#: r15 a writable code alias) — no kernel choreography mid-run
PARALLEL_SCENARIOS = ("plain", "self_modify")


def _run_sharded_mesh(case: FuzzCase, workers: int) -> dict:
    """The case on a two-node mesh: one copy of the program per node,
    r8 pointing at a data segment homed on the *other* node so every
    access crosses the network, r15 a writable alias of the node's own
    code (the bare-chip register convention, transplanted).  With
    ``workers=1`` the lockstep engine runs it; with ``workers=2`` each
    node lives in its own OS process and the digest must not be able
    to tell.

    Capture points are symmetric on purpose: ``capture_state`` resets
    the functional memos on the live machine (the documented carve-out
    in ``repro.persist.state``), and the sharded engine captures once
    at worker warm-start, so the lockstep arm takes an explicit capture
    at the same point.  Both arms then capture at a window-aligned
    split, which doubles as the mid-run snapshot-digest comparison.
    """
    import hashlib

    from repro.persist.snapshot import encode_snapshot
    from repro.persist.state import threads_by_tid

    sim = Simulation(nodes=2, memory_bytes=2 * 1024 * 1024,
                     arena_order=24, workers=workers)
    try:
        datas = [sim.allocate(DATA_BYTES, node=node, eager=True)
                 for node in (0, 1)]
        tids = []
        for node in (0, 1):
            entry = sim.load(case.source, node=node)
            rw = GuardedPointer.make(Permission.READ_WRITE, entry.seglen,
                                     entry.address)
            thread = sim.spawn(entry, node=node, stack_bytes=0,
                               regs={8: datas[1 - node].word,
                                     15: rw.word})
            for index, value in case.fregs.items():
                thread.regs.write_f(index, value)
            tids.append(thread.tid)
        if workers == 1:
            sim.capture_state()  # parity with the warm-start capture
        budget = MAX_CYCLES
        budget -= sim.run(max_cycles=8 * sim.machine.window).cycles
        mid = hashlib.sha256(
            encode_snapshot(sim.capture_state())).hexdigest()
        sim.run(max_cycles=budget)
        counters = sim.snapshot()
        sim.sync_back()
        nodes = []
        for node, tid in enumerate(tids):
            chip = sim.chips[node]
            nodes.append(_digest_chip(
                chip, [threads_by_tid(chip)[tid]],
                [(datas[node].segment_base, DATA_BYTES)], []))
        return {
            "cycles": max(chip.now for chip in sim.chips),
            "mid_snapshot": mid,
            "nodes": nodes,
            "counters": counters,
            "invariant": None,
            "_flight": [d.pop("_flight") for d in nodes],
        }
    finally:
        sim.close()


def diff_parallel_axis(case: FuzzCase) -> Divergence | None:
    """Run ``case`` on a two-node mesh under the lockstep engine and
    again with ``workers=2`` — every node advanced in its own OS
    process — and require bit-identical digests: cycle counts,
    registers, memory, fault sequences, the merged counter snapshot,
    and a sha-256 of the full machine image captured at a
    window-aligned split mid-run.  Both arms run the same window loop
    over the same node verbs, so this checks the pipe transport against
    in-process calls: the partition map must be unobservable."""
    if case.scenario not in PARALLEL_SCENARIOS:
        return None
    axis = "parallel-vs-lockstep"
    try:
        lockstep = _run_sharded_mesh(case, workers=1)
    except Exception as e:
        return Divergence(axis, case, "crash",
                          f"lockstep mesh run crashed: "
                          f"{type(e).__name__}: {e}")
    try:
        sharded = _run_sharded_mesh(case, workers=2)
    except Exception as e:
        return Divergence(axis, case, "crash",
                          f"2-worker mesh run crashed: "
                          f"{type(e).__name__}: {e}")
    lockstep.pop("_flight", None)
    flight = sharded.pop("_flight", None)
    if lockstep != sharded:
        return Divergence(axis, case, "state",
                          _first_difference(lockstep, sharded, "lockstep",
                                            "2-worker"),
                          flight=flight)
    return None
