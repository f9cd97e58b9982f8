"""The lockstep differ: `MAPChip` against `ReferenceInterpreter`.

The chip is stepped cycle by cycle; every time it *commits* a bundle
(fault-free bundles only — faulting bundles commit nothing on either
engine), the reference commits one bundle too, and the full
architectural register state is compared at that boundary.  Deferred
load writebacks still in the chip's pending queue are overlaid, since
they are architecturally visible the moment the bundle commits.

At the end the differ compares halt reason, fault type, every word the
reference wrote, the data segment, and — via the
:class:`~repro.machine.verifier.SecurityMonitor` — the paper's security
invariants I1–I5 on the chip side.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.permissions import Permission
from repro.core.pointer import GuardedPointer
from repro.machine.assembler import assemble
from repro.machine.chip import ChipConfig, MAPChip
from repro.machine.reference import ReferenceInterpreter
from repro.machine.thread import Thread, ThreadState
from repro.machine.verifier import InvariantViolation, SecurityMonitor
from repro.mem.allocator import round_up_log2

from repro.fuzz.generator import DATA_BYTES, FuzzCase

CODE_BASE = 0x10000
DATA_BASE = 0x40000
DATA_SEGLEN = round_up_log2(DATA_BYTES)  # 12: a 4096-byte segment


@dataclass
class Divergence:
    """One observed disagreement, attributable to a replayable case."""

    axis: str            #: "chip-vs-reference" | "fast-vs-plain" |
                         #: "replay-roundtrip" | "parallel-vs-lockstep"
    case: FuzzCase
    kind: str            #: "state" | "fault-type" | "fault-order" |
                         #: "halt-order" | "memory" | "crash" |
                         #: "invariant" | "no-termination"
    detail: str
    #: committed-bundle index at first disagreement, when known
    bundle_index: int | None = None
    #: the machine image that misbehaved (container bytes), when the
    #: failing axis captured one — the replay axis always does; it
    #: rides along in the crash dump for post-mortem restoration
    snapshot: bytes | None = None
    #: the misbehaving chip's flight-recorder dump
    #: (:meth:`repro.obs.hub.FlightRecorder.dump`) — the last few
    #: hundred trace events before the divergence, for crash artifacts
    flight: dict | None = None

    def __str__(self) -> str:
        where = f" @bundle {self.bundle_index}" if self.bundle_index is not None else ""
        return (f"[{self.axis}] {self.kind}{where} "
                f"(seed {self.case.seed}, {self.case.scenario}): {self.detail}")


def setup_chip(source: str, *, fast_paths: bool = True,
               fregs: dict[int, float] | None = None
               ) -> tuple[MAPChip, Thread, GuardedPointer, GuardedPointer]:
    """A bare chip (no kernel) with the program at ``CODE_BASE``, a
    mapped data segment in r8, a READ_WRITE code alias in r15, and —
    when the program defines a ``gate`` label — an ENTER pointer to it
    in r13.  Mirrors the reference setup exactly."""
    program = assemble(source)
    chip = MAPChip(ChipConfig(memory_bytes=2 * 1024 * 1024,
                              fast_paths=fast_paths))
    chip.page_table.ensure_mapped(CODE_BASE, max(program.size_bytes, 8))
    for i, word in enumerate(program.encode()):
        chip.memory.store_word(chip.page_table.walk(CODE_BASE + i * 8), word)
    chip.page_table.ensure_mapped(DATA_BASE, DATA_BYTES)
    seglen = max(round_up_log2(max(program.size_bytes, 1)), 3)
    entry = GuardedPointer.make(Permission.EXECUTE_USER, seglen, CODE_BASE)
    data = GuardedPointer.make(Permission.READ_WRITE, DATA_SEGLEN, DATA_BASE)
    regs = {8: data.word,
            15: GuardedPointer.make(Permission.READ_WRITE, seglen,
                                    CODE_BASE).word}
    if "gate" in program.labels:
        regs[13] = GuardedPointer.make(
            Permission.ENTER_USER, seglen,
            CODE_BASE + program.labels["gate"]).word
    thread = chip.spawn(entry, regs=regs)
    for index, value in (fregs or {}).items():
        thread.regs.write_f(index, value)
    return chip, thread, entry, data


def _setup_reference(source: str, chip_thread: Thread,
                     fregs: dict[int, float] | None) -> ReferenceInterpreter:
    ref = ReferenceInterpreter()
    ref.load_program(assemble(source), CODE_BASE)
    for index in range(16):
        ref.regs.write(index, chip_thread.regs.read(index))
    for index, value in (fregs or {}).items():
        ref.regs.write_f(index, value)
    return ref


def _effective_state(thread: Thread):
    """Register state with the pending (deferred-load) writes overlaid —
    the committed architectural view mid-block."""
    regs = [thread.regs.read(i) for i in range(16)]
    fregs = [thread.regs.read_f(i) for i in range(16)]
    for bank, index, value in thread.pending_writes:
        if bank == "r":
            regs[index] = value
        else:
            fregs[index] = float(value)
    return regs, fregs


def _compare_regs(thread: Thread, ref: ReferenceInterpreter) -> str | None:
    regs, fregs = _effective_state(thread)
    for i in range(16):
        if regs[i] != ref.regs.read(i):
            return (f"r{i}: chip={regs[i]!r} ref={ref.regs.read(i)!r}")
    for i in range(16):
        a, b = fregs[i], ref.regs.read_f(i)
        if a != b and not (a != a and b != b):  # NaN == NaN here
            return f"f{i}: chip={a!r} ref={b!r}"
    return None


def diff_against_reference(case: FuzzCase,
                           max_cycles: int = 20_000) -> Divergence | None:
    """Run ``case`` on both engines in lockstep; None means parity."""
    axis = "chip-vs-reference"
    chip, thread, entry, data = setup_chip(case.source, fregs=case.fregs)
    monitor = SecurityMonitor(chip)
    monitor.note_spawn(thread)
    ref = _setup_reference(case.source, thread, case.fregs)

    def div(kind: str, detail: str,
            bundle_index: int | None = None) -> Divergence:
        # every divergence carries the chip's flight recorder: the last
        # few hundred events leading up to the disagreement
        return Divergence(axis, case, kind, detail,
                          bundle_index=bundle_index,
                          flight=chip.obs.flight.dump())

    ref_done = None  # the reference's terminal ReferenceResult, if any
    start = chip.now
    while chip.now - start < max_cycles:
        if chip.runnable_threads() == 0:
            break
        before = thread.stats.bundles
        try:
            chip.step()
        except InvariantViolation as e:  # the jump auditor fired
            return div("invariant", str(e), bundle_index=before)
        except Exception as e:  # a crash IS the divergence
            return div("crash",
                       f"chip crashed: {type(e).__name__}: {e}",
                       bundle_index=before)
        if thread.stats.bundles == before:
            continue
        if ref_done is not None:
            return div("halt-order",
                       f"chip committed bundle {before} after the "
                       f"reference already {ref_done.reason}",
                       bundle_index=before)
        try:
            r = ref.run(max_bundles=1)
        except Exception as e:
            return div("crash",
                       f"reference crashed: {type(e).__name__}: {e}",
                       bundle_index=before)
        if r.reason == "faulted":
            return div("fault-order",
                       f"chip committed bundle {before} but the "
                       f"reference faulted there with "
                       f"{type(r.fault).__name__}",
                       bundle_index=before)
        mismatch = _compare_regs(thread, ref)
        if mismatch is not None:
            return div("state", mismatch, bundle_index=before)
        if r.reason == "halted":
            ref_done = r
    else:
        return div("no-termination",
                   f"chip still running after {max_cycles} cycles")

    if thread.state is ThreadState.HALTED:
        if ref_done is None:
            return div("halt-order",
                       "chip halted but the reference is still running",
                       bundle_index=thread.stats.bundles)
    elif thread.state is ThreadState.FAULTED:
        try:
            r = ref.run(max_bundles=1)
        except Exception as e:
            return div("crash",
                       f"reference crashed: {type(e).__name__}: {e}",
                       bundle_index=thread.stats.bundles)
        if r.reason != "faulted":
            return div("fault-order",
                       f"chip faulted with "
                       f"{type(thread.fault.cause).__name__} but the "
                       f"reference {r.reason}",
                       bundle_index=thread.stats.bundles)
        if type(thread.fault.cause).__name__ != type(r.fault).__name__:
            return div("fault-type",
                       f"chip {type(thread.fault.cause).__name__} vs "
                       f"reference {type(r.fault).__name__}",
                       bundle_index=thread.stats.bundles)
    else:
        return div("no-termination",
                   f"chip stopped with thread {thread.state.name}")

    # every word the reference wrote, plus the whole data segment
    table, memory = chip.page_table, chip.memory
    addresses = set(ref.memory) | {DATA_BASE + off
                                   for off in range(0, DATA_BYTES, 8)}
    for vaddr in sorted(addresses):
        chip_word = memory.load_word(table.walk(vaddr))
        if chip_word != ref.load_word(vaddr):
            return div("memory",
                       f"mem[{vaddr:#x}]: chip={chip_word!r} "
                       f"ref={ref.load_word(vaddr)!r}")

    try:
        monitor.check_all()
    except Exception as e:
        return div("invariant", str(e))
    return None
