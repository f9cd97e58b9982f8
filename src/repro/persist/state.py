"""Capturing and restoring one MAP node's complete state.

The dividing line between what is captured and what is rebuilt follows
the simulator's timing-transparency contract:

* **captured exactly** — everything a cycle count can depend on: the
  tagged memory image, the frame free list (its *order* decides which
  frame the next map picks), the page table, the TLB's resident set in
  LRU order, every cache bank's line lists and busy cycles, the single
  external-port busy cycle, each cluster's round-robin cursor / drain
  state / domain history, and every thread's architectural state
  (registers with tags, FP registers as IEEE-754 bit patterns, pending
  deferred writes, wake cycle, fault record);
* **dropped and re-warmed** — the decoded-bundle cache (whose
  compiled nodes superblock traces run), the LEA memo, the load/store
  check memos and the cache's translation line memo.  They are pure
  functions of pointer bits and the page table, change zero cycles by
  contract (the fuzzer's fast-vs-plain axis polices that
  continuously), and so a restored machine replays cycle-identically
  whether or not they were present at capture time.

Capture *also* resets those memos on the live machine.  The memo
hit/miss tallies (``fetch.*``, ``mem.check_memo_*``,
``cache.xlate_memo_*``) are architectural counter state and are
captured exactly; if the live machine kept its warm memos past the
capture point while a restored twin re-warmed from cold, those tallies
would silently diverge between two otherwise bit-identical machines.
Clearing both sides at the snapshot boundary makes capture the common
reset point: live-after-capture and restored-from-capture re-warm
identically, so full counter-snapshot equality holds with no
"modulo memo tallies" carve-out.

Nothing here touches pointers: a guarded pointer's protection state is
its 64 bits plus the tag, so serialising words *is* serialising
capabilities — the restore path has no fixup pass because the
architecture gives it nothing to fix up (§2).

Callable state cannot be captured: trap handlers, fault-handler chains
and jump auditors are re-attached by the layer that rebuilds the
machine (:mod:`repro.persist.image`), and machines with MMIO devices
attached are refused outright.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import TYPE_CHECKING

from repro.core.exceptions import GuardedPointerFault, PageFault
from repro.core.pointer import GuardedPointer
from repro.core.word import TaggedWord
from repro.machine.faults import FaultRecord, TrapFault
from repro.machine.registers import float_to_word, word_to_float
from repro.machine.thread import Thread, ThreadState
from repro.persist.snapshot import SnapshotError

if TYPE_CHECKING:  # pragma: no cover
    from repro.machine.chip import MAPChip
    from repro.runtime.kernel import Kernel
    from repro.runtime.swap import SwapManager

#: ChipConfig fields that change simulator speed but zero cycles; a
#: snapshot restores onto a machine with *any* setting of these.
SPEED_KNOBS = frozenset({"fast_paths"})

#: purely observational ChipConfig fields (no architectural or timing
#: effect), equally exempt from the restore shape check
OBS_KNOBS = frozenset({"flight_capacity"})


def config_dict(config) -> dict:
    return asdict(config)


def check_architecture(snapshot_config: dict, config) -> None:
    """Refuse to restore onto a machine whose *architectural* shape
    differs from the snapshot's.  ``fast_paths`` is exempt — restoring
    a fast image onto a plain machine (and vice versa) is the
    determinism test's whole point."""
    live = config_dict(config)
    for name, value in snapshot_config.items():
        if name in SPEED_KNOBS or name in OBS_KNOBS:
            continue
        if name not in live or live[name] != value:
            raise SnapshotError(
                f"snapshot was taken on a machine with {name}={value!r}, "
                f"this machine has {name}={live.get(name)!r}")


# -- fault records ------------------------------------------------------

def _fault_registry() -> dict[str, type]:
    """Every concrete fault class, found by walking the architectural
    fault hierarchy (so new fault types persist without registration)."""
    registry: dict[str, type] = {}
    stack: list[type] = [GuardedPointerFault]
    while stack:
        cls = stack.pop()
        registry[cls.__name__] = cls
        stack.extend(cls.__subclasses__())
    return registry


def encode_fault_cause(cause: GuardedPointerFault) -> dict:
    encoded: dict = {"type": type(cause).__name__, "message": str(cause)}
    if isinstance(cause, TrapFault):
        encoded["code"] = cause.code
    if isinstance(cause, PageFault):
        encoded["vaddr"] = cause.vaddr
    return encoded


def decode_fault_cause(encoded: dict) -> GuardedPointerFault:
    cls = _fault_registry().get(encoded["type"])
    if cls is None or cls is GuardedPointerFault:
        # a fault type this build does not know: degrade to the base
        # class rather than refuse the whole image
        return GuardedPointerFault(encoded["message"])
    if issubclass(cls, TrapFault):
        return cls(int(encoded["code"]))
    if issubclass(cls, PageFault):
        return cls(int(encoded["vaddr"]), encoded["message"])
    return cls(encoded["message"])


def encode_fault_record(record: FaultRecord) -> dict:
    return {
        "thread_id": record.thread_id,
        "cycle": record.cycle,
        "cause": encode_fault_cause(record.cause),
        "opcode_name": record.opcode_name,
        "ip_address": record.ip_address,
    }


def decode_fault_record(encoded: dict) -> FaultRecord:
    return FaultRecord(
        thread_id=int(encoded["thread_id"]),
        cycle=int(encoded["cycle"]),
        cause=decode_fault_cause(encoded["cause"]),
        opcode_name=encoded["opcode_name"],
        ip_address=int(encoded["ip_address"]),
    )


# -- threads ------------------------------------------------------------

def _encode_pending(pending: list) -> list:
    """Deferred register writes: integer-bank values keep their tag,
    FP-bank values become IEEE-754 bit patterns (NaN-safe)."""
    encoded = []
    for bank, index, value in pending:
        if bank == "r":
            encoded.append(["r", index, value.value, value.tag])
        else:
            encoded.append(["f", index, float_to_word(value).value])
    return encoded


def _decode_pending(encoded: list) -> list:
    pending = []
    for entry in encoded:
        if entry[0] == "r":
            pending.append(("r", int(entry[1]),
                            TaggedWord(int(entry[2]), bool(entry[3]))))
        else:
            pending.append(("f", int(entry[1]),
                            word_to_float(TaggedWord(int(entry[2])))))
    return pending


def encode_thread(thread: Thread) -> dict:
    regs, fregs = thread.regs.snapshot()
    return {
        "tid": thread.tid,
        "ip": thread.ip.word.value,
        "domain": thread.domain,
        "state": thread._state.value,
        "wake_at": thread.wake_at,
        "regs": [[w.value, w.tag] for w in regs],
        "fregs": [float_to_word(f).value for f in fregs],
        "pending_writes": _encode_pending(thread.pending_writes),
        "fault": (encode_fault_record(thread.fault)
                  if thread.fault is not None else None),
        "stats": vars(thread.stats).copy(),
    }


def decode_thread(encoded: dict) -> Thread:
    """Rebuild a thread, unplaced (no scheduler).  The caller installs
    it into a cluster slot and accounts its state."""
    ip = GuardedPointer.from_word(TaggedWord(int(encoded["ip"]), tag=True))
    thread = Thread(tid=int(encoded["tid"]), ip=ip,
                    domain=int(encoded["domain"]))
    thread._state = ThreadState(encoded["state"])
    thread.wake_at = int(encoded["wake_at"])
    for index, (value, tag) in enumerate(encoded["regs"]):
        thread.regs.write(index, TaggedWord(int(value), bool(tag)))
    for index, bits in enumerate(encoded["fregs"]):
        thread.regs.write_f(index, word_to_float(TaggedWord(int(bits))))
    thread.pending_writes = _decode_pending(encoded["pending_writes"])
    if encoded["fault"] is not None:
        thread.fault = decode_fault_record(encoded["fault"])
    for name, value in encoded["stats"].items():
        setattr(thread.stats, name, value)
    return thread


# -- the trace hub --------------------------------------------------------

def capture_obs(obs) -> dict:
    """The hub's accumulated observability state: every histogram's
    exact contents, the flight-recorder ring, and the in-flight
    enter-call stacks.  All of it feeds counter snapshots (``hist.*``,
    ``flight.*``) or future ``enter.return`` durations, so a restored
    machine must carry it to stay counter-identical with the live one —
    and the parallel engine ships it back from the workers the same
    way."""
    return {
        "histograms": [[name, {"count": h.count, "total": h.total,
                               "max": h.max, "buckets": list(h._buckets),
                               "sums": list(h._sums)}]
                       for name, h in sorted(obs.histograms.items())],
        "flight": obs.flight.dump(),
        "enter_stack": [[tid, list(stack)]
                        for tid, stack in sorted(obs._enter_stack.items())
                        if stack],
    }


def restore_obs(chip: "MAPChip", state: dict) -> None:
    """Inverse of :func:`capture_obs` onto ``chip.obs``.  Histograms the
    snapshot knows but the hub does not (late-wired ones, like the
    service's ``request_latency``) are created and wired into the
    chip's counter file, exactly as their original creator did."""
    from repro.obs.hub import load_flight

    obs = chip.obs
    captured = dict((name, data) for name, data in state["histograms"])
    for name in list(obs.histograms) + [n for n in captured
                                        if n not in obs.histograms]:
        histogram = obs.histograms.get(name)
        if histogram is None:
            histogram = obs.add_histogram(name)
            prefix = f"hist.{name}"
            if not chip.counters.has_source(prefix):
                chip.counters.add_source(prefix, histogram.as_counters)
        data = captured.get(name)
        if data is None:
            histogram.reset()
            continue
        histogram.count = int(data["count"])
        histogram.total = int(data["total"])
        histogram.max = int(data["max"])
        histogram._buckets = [int(b) for b in data["buckets"]]
        histogram._sums = [int(s) for s in data["sums"]]
    flight = obs.flight
    flight.clear()
    for event in load_flight(state["flight"]):
        flight.append(event)
    flight.total = int(state["flight"]["total"])
    obs._enter_stack = {int(tid): [int(c) for c in stack]
                        for tid, stack in state["enter_stack"]}


# -- the chip -------------------------------------------------------------

def _reset_functional_memos(chip: "MAPChip") -> None:
    """Raw-clear every functional memo (no invalidation counters bump:
    this is a snapshot boundary, not an architectural invalidation).
    Called on both sides of the boundary — by capture on the live
    machine and by restore on the target — so the two re-warm from the
    same cold state and their memo tallies stay bit-identical.  The
    block table goes with the decode cache it is built from; the block
    functions, like the content memo, hold only what a restore writes
    in place, and stay."""
    chip._decode_cache.clear()
    chip._blocks.clear()
    if chip._lea_cache is not None:
        chip._lea_cache.clear()
    if chip._load_check_memo is not None:
        chip._load_check_memo.clear()
    if chip._store_check_memo is not None:
        chip._store_check_memo.clear()
    if chip.cache._xlate is not None:
        chip.cache._xlate.clear()


def capture_chip(chip: "MAPChip") -> dict:
    """The complete architectural + timing state of one node.

    Capturing resets the live machine's functional memos (see the
    module docstring): the snapshot is the common cold-start point from
    which the live machine and any restored twin re-warm identically."""
    if chip.memory._devices:
        raise SnapshotError(
            "cannot snapshot a machine with MMIO devices attached: "
            "device state lives outside tagged memory")
    clusters = []
    for cluster in chip.clusters:
        pending_slot = None
        if cluster._pending is not None:
            pending_slot = cluster.slots.index(cluster._pending)
        clusters.append({
            "next_slot": cluster._next_slot,
            "last_domain": cluster.last_domain,
            "stall_until": cluster._stall_until,
            "pending_slot": pending_slot,
            "issued_cycles": cluster.issued_cycles,
            "idle_cycles": cluster.idle_cycles,
            "switch_stall_cycles": cluster.switch_stall_cycles,
            "slots": [encode_thread(t) if t is not None else None
                      for t in cluster.slots],
        })
    state = {
        "config": config_dict(chip.config),
        "now": chip.now,
        "next_tid": chip._next_tid,
        "memory": chip.memory.dump_words(),
        "frames": chip.frames.capture_state(),
        "page_table": chip.page_table.capture_state(),
        "tlb": chip.tlb.capture_state(),
        "cache": chip.cache.capture_state(),
        "clusters": clusters,
        "fault_log": [encode_fault_record(r) for r in chip.fault_log],
        "counter_events": chip.counters.capture_events(),
        "stats": vars(chip.stats).copy(),
        "fetch": {"hits": chip.fetch_hits, "misses": chip.fetch_misses,
                  "invalidations": chip.decode_invalidations},
        "check_memo": {"hits": chip.check_memo_hits,
                       "misses": chip.check_memo_misses},
        # windowed-mesh per-node state (empty off a mesh): the
        # remote-code mirror, the words this node exported to remote
        # fetchers, and in-flight remote-load register bindings
        "windows": {
            "mirror": [[vaddr, None if pair is None else list(pair)]
                       for vaddr, pair in sorted(chip._remote_mirror.items())],
            "exported": sorted(chip._exported_code),
            "pending": [[seq, list(binding)]
                        for seq, binding in sorted(chip._remote_pending.items())],
        },
        "obs": capture_obs(chip.obs),
    }
    _reset_functional_memos(chip)
    return state


def restore_chip_state(chip: "MAPChip", state: dict) -> None:
    """Overwrite ``chip``'s state with a captured image.

    The chip must have the snapshot's architectural shape
    (``fast_paths`` may differ, see :data:`SPEED_KNOBS`).  Fault
    handlers, jump auditors and router wiring are left exactly as the
    caller set them — they are code, not state.
    """
    check_architecture(state["config"], chip.config)
    if chip.memory._devices:
        raise SnapshotError("cannot restore over attached MMIO devices")
    if len(state["clusters"]) != len(chip.clusters):
        raise SnapshotError("snapshot cluster count differs from chip's")

    chip.memory.load_words(state["memory"])
    chip.frames.restore_state(state["frames"])
    # restore_state does not fire invalidation hooks; the memo flushes
    # below do exactly what the hooks would have
    chip.page_table.restore_state(state["page_table"])
    chip.tlb.restore_state(state["tlb"])
    chip.cache.restore_state(state["cache"])

    # drop every functional memo — they re-warm without a cycle's skew,
    # from the same cold state capture left on the live machine
    _reset_functional_memos(chip)

    chip._ready_count = 0
    chip._runnable_count = 0
    chip._ready_clusters = 0
    for cluster, cstate in zip(chip.clusters, state["clusters"]):
        if len(cstate["slots"]) != len(cluster.slots):
            raise SnapshotError("snapshot slot count differs from cluster's")
        cluster.slots = [None] * len(cluster.slots)
        cluster._n_ready = cluster._n_blocked = 0
        cluster._n_faulted = cluster._n_halted = 0
        cluster._ready_mask = 0
        for index, tstate in enumerate(cstate["slots"]):
            if tstate is not None:
                cluster._install(index, decode_thread(tstate))
        cluster._next_slot = int(cstate["next_slot"])
        cluster.last_domain = (None if cstate["last_domain"] is None
                               else int(cstate["last_domain"]))
        cluster._stall_until = int(cstate["stall_until"])
        cluster._pending = (None if cstate["pending_slot"] is None
                            else cluster.slots[int(cstate["pending_slot"])])
        cluster.issued_cycles = int(cstate["issued_cycles"])
        cluster.idle_cycles = int(cstate["idle_cycles"])
        cluster.switch_stall_cycles = int(cstate["switch_stall_cycles"])

    chip.fault_log = [decode_fault_record(r) for r in state["fault_log"]]
    chip.counters.restore_events(state["counter_events"])
    for name, value in state["stats"].items():
        setattr(chip.stats, name, value)
    chip.fetch_hits = int(state["fetch"]["hits"])
    chip.fetch_misses = int(state["fetch"]["misses"])
    chip.decode_invalidations = int(state["fetch"]["invalidations"])
    chip.check_memo_hits = int(state["check_memo"]["hits"])
    chip.check_memo_misses = int(state["check_memo"]["misses"])
    windows = state["windows"]
    chip._remote_mirror = {
        int(vaddr): None if pair is None else (int(pair[0]), bool(pair[1]))
        for vaddr, pair in windows["mirror"]}
    chip._exported_code = {int(v) for v in windows["exported"]}
    chip._remote_pending = {
        int(seq): (int(b[0]), b[1], int(b[2]))
        for seq, b in windows["pending"]}
    restore_obs(chip, state["obs"])
    chip.now = int(state["now"])
    chip._next_tid = int(state["next_tid"])


def threads_by_tid(chip: "MAPChip") -> dict[int, Thread]:
    """Resolve threads after a restore (object identity does not
    survive a snapshot; tids do)."""
    return {t.tid: t for cluster in chip.clusters
            for t in cluster.slots if t is not None}


# -- the kernel -----------------------------------------------------------

def capture_kernel(kernel: "Kernel") -> dict:
    """Virtual-arena and segment bookkeeping.  Trap handlers are code
    and are not captured; re-register them after restore."""
    return {
        "arena": kernel.allocator.capture_state(),
        "segments": [[segment.block.base, segment.block.order,
                      segment.pointer.word.value]
                     for _, segment in sorted(kernel.segments.items())],
        "stats": vars(kernel.stats).copy(),
    }


def restore_kernel_state(kernel: "Kernel", state: dict) -> None:
    from repro.mem.allocator import Block
    from repro.runtime.kernel import Segment

    kernel.allocator.restore_state(state["arena"])
    kernel.segments = {}
    for base, order, word in state["segments"]:
        pointer = GuardedPointer.from_word(TaggedWord(int(word), tag=True))
        kernel.segments[int(base)] = Segment(Block(int(base), int(order)),
                                             pointer)
    for name, value in state["stats"].items():
        setattr(kernel.stats, name, value)


# -- the swap manager ------------------------------------------------------

def capture_swap(swap: "SwapManager") -> dict:
    """Backing store (tags included — a swapped-out pointer is still a
    pointer), residency LRU order, and parameters."""
    return {
        "reserve_frames": swap.reserve_frames,
        "swap_cycles": swap.swap_cycles,
        "stats": vars(swap.stats).copy(),
        "store": [[page, [[w.value, w.tag] for w in words]]
                  for page, words in sorted(swap._store.items())],
        "resident": list(swap._resident.keys()),
    }


def restore_swap_state(swap: "SwapManager", state: dict) -> None:
    from collections import OrderedDict

    swap.reserve_frames = int(state["reserve_frames"])
    swap.swap_cycles = int(state["swap_cycles"])
    for name, value in state["stats"].items():
        setattr(swap.stats, name, value)
    swap._store = {
        int(page): [TaggedWord(int(v), bool(t)) for v, t in words]
        for page, words in state["store"]
    }
    swap._resident = OrderedDict((int(p), True) for p in state["resident"])
