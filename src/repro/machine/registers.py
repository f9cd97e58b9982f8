"""Per-thread register state.

Each thread owns sixteen 64-bit general-purpose registers, each with
its tag bit — "guarded pointers concentrate process state in general
purpose registers instead of auxiliary or special memory" (§6) — plus
sixteen floating-point registers and the instruction pointer, which is
itself a guarded execute pointer.
"""

from __future__ import annotations

import struct

from repro.core.word import TaggedWord
from repro.machine.isa import NUM_REGS


def float_to_word(value: float) -> TaggedWord:
    """IEEE-754 bit pattern of a float as an untagged word, so floats
    stored to memory occupy ordinary data words."""
    raw = struct.unpack("<Q", struct.pack("<d", value))[0]
    return TaggedWord.integer(raw)


def word_to_float(word: TaggedWord) -> float:
    """Reinterpret a word's 64 bits as an IEEE-754 double."""
    return struct.unpack("<d", struct.pack("<Q", word.value))[0]


_S64_MIN = -(1 << 63)
_S64_MAX = (1 << 63) - 1


def saturating_ftoi(value: float) -> int:
    """FTOI semantics shared by the cluster and the reference
    interpreter: truncate toward zero, saturate at the signed 64-bit
    limits, and convert NaN to 0 (the invalid-operation default).

    Bare ``int()`` raises on non-finite input, which is a host artifact
    — hardware delivers a defined result for every bit pattern.
    """
    if value != value:  # NaN
        return 0
    if value >= _S64_MAX:
        return _S64_MAX
    if value <= _S64_MIN:
        return _S64_MIN
    return int(value)


class RegisterFile:
    """Sixteen tagged integer registers and sixteen FP registers."""

    def __init__(self) -> None:
        self._regs = [TaggedWord.zero()] * NUM_REGS
        self._fregs = [0.0] * NUM_REGS

    def read(self, index: int) -> TaggedWord:
        return self._regs[index]

    def write(self, index: int, word: TaggedWord) -> None:
        self._regs[index] = word

    def read_f(self, index: int) -> float:
        return self._fregs[index]

    def write_f(self, index: int, value: float) -> None:
        self._fregs[index] = float(value)

    def commit(self, writes) -> None:
        """Apply ``(bank, index, value)`` writes in order — a bundle's
        commits, or the deferred writes of a load — where bank ``"r"``
        names the integer registers and ``"f"`` the FP registers."""
        regs, fregs = self._regs, self._fregs
        for bank, index, value in writes:
            if bank == "r":
                regs[index] = value
            else:
                fregs[index] = float(value)

    def pointers(self) -> list[TaggedWord]:
        """All tagged words currently in integer registers — what a
        caller must spill/clear around a protected subsystem call
        (Figure 4)."""
        return [w for w in self._regs if w.tag]

    def snapshot(self) -> tuple[tuple[TaggedWord, ...], tuple[float, ...]]:
        return tuple(self._regs), tuple(self._fregs)
