"""Guarded pointers (paper §2, Figure 1).

A :class:`GuardedPointer` is a view over a tagged 64-bit word whose tag
bit is set.  It decodes the three architectural fields — permission,
segment length and address — and derives the segment geometry (base,
limit, offset) by pure masking, exactly as the hardware would.

Construction helpers:

* :meth:`GuardedPointer.make` — forge a pointer from fields.  This is
  the *privileged* path (SETPTR); user code must go through the checked
  operations in :mod:`repro.core.operations`.
* :meth:`GuardedPointer.from_word` — reinterpret an already-tagged word.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core import constants as c
from repro.core.exceptions import EncodingFault, TagFault
from repro.core.permissions import PERMISSION_BY_CODE, Permission
from repro.core.word import TaggedWord


def encode_fields(perm: int, seglen: int, address: int) -> int:
    """Pack (perm, seglen, address) into a 64-bit pointer word."""
    if not 0 <= perm <= c.PERM_FIELD_MASK:
        raise EncodingFault(f"permission field out of range: {perm}")
    if not 0 <= seglen <= c.MAX_SEGLEN:
        raise EncodingFault(f"segment length field out of range: {seglen}")
    if not 0 <= address <= c.ADDRESS_MASK:
        raise EncodingFault(f"address wider than {c.ADDRESS_BITS} bits: {address:#x}")
    return (perm << c.PERM_SHIFT) | (seglen << c.LENGTH_SHIFT) | address


def decode_fields(word: int) -> tuple[int, int, int]:
    """Unpack a 64-bit pointer word into (perm, seglen, address)."""
    perm = (word >> c.PERM_SHIFT) & c.PERM_FIELD_MASK
    seglen = (word >> c.LENGTH_SHIFT) & c.LENGTH_FIELD_MASK
    address = word & c.ADDRESS_MASK
    return perm, seglen, address


@dataclass(frozen=True, slots=True)
class GuardedPointer:
    """An unforgeable handle to a byte within a segment.

    Immutable; every derivation (LEA, RESTRICT, ...) produces a new
    pointer.  The underlying representation is the word itself, so a
    pointer stored to memory and reloaded is bit-identical.
    """

    word: TaggedWord

    # -- construction ------------------------------------------------

    @staticmethod
    def make(perm: Permission, seglen: int, address: int) -> "GuardedPointer":
        """Forge a pointer from architectural fields.

        This models SETPTR's power and therefore performs only encoding
        checks (field widths); it does *not* check privilege — callers
        in the machine and runtime are responsible for that.  Segments
        must be aligned on their length, which here means the pointer's
        address may be anywhere inside the aligned segment; alignment
        itself is a property of the segment, automatically satisfied
        because base = address with offset bits cleared.
        """
        if seglen > c.MAX_SEGLEN:
            raise EncodingFault(f"segment larger than address space: 2**{seglen}")
        raw = encode_fields(int(perm), seglen, address)
        return GuardedPointer(TaggedWord(raw, tag=True))

    @staticmethod
    def from_word(word: TaggedWord) -> "GuardedPointer":
        """Reinterpret a tagged word as a guarded pointer.

        Raises :class:`TagFault` when the tag bit is clear and
        ``ValueError`` when the permission field holds a reserved code.
        """
        if not word.tag:
            raise TagFault("word is not tagged as a pointer")
        field = word.value >> c.PERM_SHIFT
        if PERMISSION_BY_CODE[field] is None:
            raise ValueError(f"reserved permission code: {field}")
        return GuardedPointer(word)

    # -- architectural fields ----------------------------------------

    @property
    def permission(self) -> Permission:
        # a word's value is 64 bits, so the shift leaves the 4-bit field
        field = self.word.value >> c.PERM_SHIFT
        perm = PERMISSION_BY_CODE[field]
        if perm is None:
            raise ValueError(f"reserved permission code: {field}")
        return perm

    @property
    def seglen(self) -> int:
        """log2 of the segment length in bytes."""
        return (self.word.value >> c.LENGTH_SHIFT) & c.LENGTH_FIELD_MASK

    @property
    def address(self) -> int:
        """The 54-bit byte address this pointer names."""
        return self.word.value & c.ADDRESS_MASK

    # -- derived segment geometry ------------------------------------

    @property
    def segment_size(self) -> int:
        """Segment length in bytes (a power of two)."""
        return 1 << self.seglen

    @property
    def segment_base(self) -> int:
        """First byte of the segment: the address with all offset bits
        cleared (possible because segments are aligned on their
        length)."""
        return self.address & c.segment_mask(self.seglen)

    @property
    def segment_limit(self) -> int:
        """One past the last byte of the segment."""
        return self.segment_base + self.segment_size

    @property
    def offset(self) -> int:
        """Byte offset of the address within its segment."""
        return self.address & c.offset_mask(self.seglen)

    def contains(self, address: int) -> bool:
        """True when ``address`` lies inside this pointer's segment."""
        return self.segment_base <= address < self.segment_limit

    # -- conversions ---------------------------------------------------

    def with_fields(
        self,
        perm: Permission | None = None,
        seglen: int | None = None,
        address: int | None = None,
    ) -> "GuardedPointer":
        """Unchecked field substitution (hardware building block used by
        the checked operations; not part of the user-visible ISA)."""
        return GuardedPointer.make(
            self.permission if perm is None else perm,
            self.seglen if seglen is None else seglen,
            self.address if address is None else address,
        )

    def as_integer(self) -> TaggedWord:
        """The pointer's bits with the tag cleared — what a non-pointer
        operation sees if handed this pointer (§2.2)."""
        return self.word.untagged()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"GuardedPointer({self.permission.name}, "
            f"seg=[{self.segment_base:#x},{self.segment_limit:#x}), "
            f"addr={self.address:#x})"
        )
