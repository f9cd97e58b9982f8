"""Seeded random program generation over the pointer-manipulation ISA.

Each :class:`FuzzCase` is fully determined by its seed: the program
text, the floating-point initial state and the scenario schedule (when
a mutation fires, which word gets patched) all come from one
``random.Random``.  That makes every case replayable from two integers
— the campaign seed and the case index — which is what the shrinker
and the emitted regression tests rely on.

Register conventions (shared with ``tests/machine/test_differential``):

========  =====================================================
r1–r7     scratch computation registers
r8        pointer to a read/write data segment (never clobbered)
r9–r11    derivation targets (LEA/LEAB/RESTRICT/SUBSEG results)
r12       bounded-loop counter
r13       ENTER pointer to the ``gate`` label (enter-call cases)
r14       return pointer (GETIP) / kernel-provided stack pointer
r15       read/write alias of the code segment (self-modify cases)
========  =====================================================
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.machine.assembler import assemble

#: every scenario the generator can emit
SCENARIOS = (
    "plain",          # straight-line / bounded-loop ISA soup
    "self_modify",    # the program patches its own next iteration
    "enter_call",     # call through an ENTER pointer and return
    "unmap_remap",    # kernel unmaps the code page, remaps with new code
    "swap",           # code and data pages take a swap round-trip
    "gc_sweep",       # GC collection plus a sweep-revoke mid-run
    "loader_reuse",   # free a code segment, reload over the same range
    "remote_store",   # another node patches this node's code via the mesh
    "interleave",     # 2-4 threads with their own registers share a cluster
)

#: scenarios the flat-memory reference interpreter can also execute
#: (no paging, no kernel, no mesh) — these run on both diff axes
REFERENCE_SCENARIOS = frozenset({"plain", "self_modify", "enter_call"})

DATA_BYTES = 4096


@dataclass
class FuzzCase:
    """One replayable differential-test case."""

    seed: int
    scenario: str
    source: str
    #: initial floating-point registers (both engines / both axes)
    fregs: dict[int, float] = field(default_factory=dict)
    #: scenario knobs: mutation cycle, patch offset/word, second program
    meta: dict = field(default_factory=dict)


def _int_word_hi(source: str) -> int:
    """High (opcode|rd) bits of a one-line bundle's integer-slot word —
    what a program must shift into place to forge that op's encoding."""
    return assemble(source).encode()[0].value >> 54


_MOVI_R5_HI = _int_word_hi("movi r5, 0")

_RRR = ("add", "sub", "mul", "and", "or", "xor", "slt", "seq")
_RRI = ("addi", "subi", "andi", "ori", "xori", "slti", "seqi")
_FP = ("fadd", "fsub", "fmul", "fdiv")


def _body_lines(rng: random.Random, n: int, risky: bool = True,
                tag: str = "", allow_skip: bool = True) -> list[str]:
    """``n`` random body lines under the register conventions above.

    ``risky`` admits low-probability lines that are *expected* to fault
    (unaligned access, out-of-bounds derivation, unprivileged SETPTR,
    TRAP) — fault type and ordering parity is part of what the differ
    checks.  ``tag`` keeps forward-skip labels unique when a program
    splices together several generated bodies.
    """
    lines: list[str] = []
    skip = 0
    for _ in range(n):
        kind = rng.choice(
            ["rrr", "rri", "movi", "mov", "ld", "st", "lea", "leab", "fp",
             "itof", "ftoi", "isptr", "restrict", "subseg"]
            + (["skip"] if allow_skip else [])
            + (["risky"] if risky and rng.random() < 0.3 else []))
        r = lambda: rng.randint(1, 7)          # noqa: E731
        d = lambda: rng.randint(9, 11)         # noqa: E731
        f = lambda: rng.randint(0, 7)          # noqa: E731
        imm = lambda: rng.randint(-1000, 1000)  # noqa: E731
        off = lambda: rng.randrange(DATA_BYTES // 8) * 8  # noqa: E731
        if kind == "rrr":
            lines.append(f"{rng.choice(_RRR)} r{r()}, r{r()}, r{r()}")
        elif kind == "rri":
            lines.append(f"{rng.choice(_RRI)} r{r()}, r{r()}, {imm()}")
        elif kind == "movi":
            lines.append(f"movi r{r()}, {imm()}")
        elif kind == "mov":
            lines.append(f"mov r{r()}, r{r()}")
        elif kind == "ld":
            lines.append(f"ld r{r()}, r8, {off()}")
        elif kind == "st":
            lines.append(f"st r{r()}, r8, {off()}")
        elif kind == "lea":
            lines.append(f"lea r{d()}, r8, {off()}")
        elif kind == "leab":
            lines.append(f"leab r{d()}, r8, {off()}")
        elif kind == "fp":
            lines.append(f"{rng.choice(_FP)} f{f()}, f{f()}, f{f()}")
        elif kind == "itof":
            lines.append(f"itof f{f()}, r{r()}")
        elif kind == "ftoi":
            lines.append(f"ftoi r{r()}, f{f()}")
        elif kind == "isptr":
            lines.append(f"isptr r{r()}, r{r()}")
        elif kind == "restrict":
            reg = r()
            lines.append(f"movi r{reg}, {rng.randint(0, 8)}")
            lines.append(f"restrict r{d()}, r8, r{reg}")
        elif kind == "subseg":
            reg = r()
            lines.append(f"movi r{reg}, {rng.randint(0, 14)}")
            lines.append(f"subseg r{d()}, r8, r{reg}")
        elif kind == "skip":
            # a forward branch over a couple of lines (always safe:
            # forward-only, so loops stay bounded by the skeleton)
            label = f"fskip{tag}{skip}"
            skip += 1
            op = rng.choice(["beq", "bne"])
            lines.append(f"{op} r{r()}, {label}")
            lines.extend(_body_lines(rng, rng.randint(1, 2), risky=False,
                                     allow_skip=False))
            lines.append(f"{label}:")
        elif kind == "risky":
            choice = rng.choice(["unaligned", "oob", "setptr", "trap"])
            if choice == "unaligned":
                lines.append(f"lea r9, r8, {off() + rng.choice((1, 4))}")
                lines.append(f"{rng.choice(('ld r3, r9, 0', 'st r3, r9, 0'))}")
            elif choice == "oob":
                lines.append(f"lea r9, r8, {DATA_BYTES + rng.randint(0, 64) * 8}")
            elif choice == "setptr":
                lines.append(f"movi r{r()}, 4")
                lines.append(f"setptr r{d()}, r{r()}")
            else:
                lines.append(f"trap {rng.randint(0, 7)}")
    return lines


def _loop(rng: random.Random, body: list[str], count: int | None = None) -> str:
    count = count if count is not None else rng.randint(1, 4)
    inner = "\n".join(body)
    return (f"movi r12, {count}\n"
            f"top:\nbeq r12, out\n{inner}\n"
            f"subi r12, r12, 1\nbr top\nout:\nhalt")


def _random_fregs(rng: random.Random) -> dict[int, float]:
    fregs: dict[int, float] = {}
    for index in range(8):
        roll = rng.random()
        if roll < 0.25:
            fregs[index] = round(rng.uniform(-1e6, 1e6), 3)
        elif roll < 0.3:
            fregs[index] = rng.choice((float("inf"), float("-inf"), 0.0))
    return fregs


def _patchable_loop(rng: random.Random, body: list[str],
                    store_line: str | None,
                    count: int | None = None) -> tuple[str, int, int, int]:
    """A bounded loop containing a patch *target* bundle
    (``movi r5, old``) and optionally the store that patches it.

    The target executes *before* the store in each iteration, so the
    first pass decodes (and caches) the old bundle and later passes
    must observe the patch — the exact ordering that turns a missed
    invalidation into an architecturally visible stale ``r5``.

    Returns ``(source, target_byte_offset, old_imm, new_imm)``; the
    offset is resolved by assembling once with a placeholder (changing
    an immediate never moves labels).
    """
    old, new = rng.randint(0, 99), rng.randint(100, 999)
    prologue = [f"movi r1, {_MOVI_R5_HI}",
                "shli r1, r1, 54",
                f"ori r1, r1, {new}"]
    inner = ["target:", f"movi r5, {old}"]
    inner.extend(body)
    if store_line is not None:
        inner.append(store_line)
    source = "\n".join(prologue) + "\n" + _loop(
        rng, inner, count=count if count is not None else rng.randint(2, 4))
    offset = assemble(source).labels["target"]
    return source, offset, old, new


def generate_case(seed: int, scenario: str | None = None) -> FuzzCase:
    """The deterministic case for ``seed`` (optionally pinning the
    scenario instead of drawing it)."""
    rng = random.Random(seed)
    if scenario is None:
        # reference-checkable scenarios get double weight: they run on
        # both axes and are the cheapest to execute
        pool = SCENARIOS + ("plain", "self_modify", "enter_call")
        scenario = rng.choice(pool)
    fregs = _random_fregs(rng)
    meta: dict = {}

    if scenario == "plain":
        body = _body_lines(rng, rng.randint(3, 18))
        source = _loop(rng, body) if rng.random() < 0.5 else \
            "\n".join(body) + "\nhalt"

    elif scenario == "self_modify":
        source, offset, old, new = _patchable_loop(
            rng, _body_lines(rng, rng.randint(1, 5), risky=False),
            store_line="st r1, r15, 0")
        source = source.replace("st r1, r15, 0", f"st r1, r15, {offset}")
        meta = {"patch_offset": offset, "old": old, "new": new}

    elif scenario == "enter_call":
        body_a = _body_lines(rng, rng.randint(1, 4), risky=False, tag="a")
        body_b = _body_lines(rng, rng.randint(1, 4), risky=False, tag="b")
        placeholder = ("\n".join(body_a)
                       + "\nretsetup:\ngetip r14, 0\njmp r13\nback:\n"
                       + "\n".join(body_b)
                       + f"\nhalt\ngate:\nmovi r6, {rng.randint(1, 99)}\njmp r14")
        labels = assemble(placeholder).labels
        disp = labels["back"] - labels["retsetup"]
        source = placeholder.replace("getip r14, 0", f"getip r14, {disp}")
        meta = {"gate_offset": labels["gate"]}

    elif scenario in ("unmap_remap", "swap", "gc_sweep"):
        body = _body_lines(rng, rng.randint(2, 8), risky=False)
        source = _loop(rng, body, count=rng.randint(8, 20))
        meta = {"mutate_after": rng.randint(5, 120)}

    elif scenario == "loader_reuse":
        source = "\n".join(_body_lines(rng, rng.randint(2, 8), risky=False,
                                       tag="a")) + "\nhalt"
        meta = {"source_b":
                "\n".join(_body_lines(rng, rng.randint(2, 8), risky=False,
                                      tag="b")) + "\nhalt"}

    elif scenario == "remote_store":
        # a longer loop than the local self-patch: the remote store
        # lands ``mutate_after`` cycles in, and the loop must still be
        # running to witness it
        source, offset, old, new = _patchable_loop(
            rng, _body_lines(rng, rng.randint(1, 4), risky=False),
            store_line=None, count=rng.randint(8, 40))
        meta = {"patch_offset": offset,
                "patch_word": (_MOVI_R5_HI << 54) | new,
                "old": old, "new": new,
                "mutate_after": rng.randint(10, 200)}

    elif scenario == "interleave":
        # one program, risky lines included, for 2-4 threads; each
        # thread's own r1-r7 (zeros included, so skip branches split
        # the threads) come from the case, not the runner
        body = _body_lines(rng, rng.randint(3, 14))
        source = _loop(rng, body, count=rng.randint(2, 6))
        meta = {"regs": [[0 if rng.random() < 0.3 else rng.randint(-99, 99)
                          for _ in range(7)]
                         for _ in range(rng.randint(2, 4))]}

    else:
        raise ValueError(f"unknown scenario {scenario!r}")

    return FuzzCase(seed=seed, scenario=scenario, source=source,
                    fregs=fregs, meta=meta)
