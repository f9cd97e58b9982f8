"""Checked pointer operations — the guarded-pointer ISA (paper §2.2).

These functions are the architectural semantics shared by the M-Machine
simulator's execution units and by the runtime.  Each models one
instruction or hardware check:

================  ====================================================
``lea``           pointer + offset, masked-comparator bounds check
``leab``          segment base + offset (used for pointer↔int casts)
``restrict``      substitute a strictly smaller permission
``subseg``        substitute a strictly smaller contained segment
``setptr``        privileged: forge any pointer from an integer
``ispointer``     test the tag bit
``check_load``    permission check for a load address
``check_store``   permission check for a store address
``check_jump``    permission check for a jump target; converts enter →
                  execute pointers (the gateway of §2.3)
``pointer_to_integer`` / ``integer_to_pointer``
                  the two-instruction cast sequences for C-like
                  languages
================  ====================================================

All checks happen *before* the operation issues; nothing downstream
(cache, memory) re-checks protection.
"""

from __future__ import annotations

from repro.core import constants as c
from repro.core.exceptions import (
    BoundsFault,
    EncodingFault,
    PermissionFault,
    PrivilegeFault,
    RestrictFault,
    SubsegFault,
    TagFault,
)
from repro.core.permissions import (
    EXECUTE_BY_CODE,
    PERMISSION_BY_CODE,
    Permission,
    Right,
    is_strict_subset,
    rights_of,
)
from repro.core.pointer import GuardedPointer
from repro.core.word import TaggedWord

#: Whether each 4-bit permission field carries the MODIFY right (LEA's
#: check), indexed like :data:`PERMISSION_BY_CODE`.
_MODIFY_BY_CODE = tuple(
    perm is not None and bool(rights_of(perm) & Right.MODIFY)
    for perm in PERMISSION_BY_CODE)

#: JMP's gateway conversion (§2.3): the execute code each enter code
#: becomes
_EXECUTE_OF_ENTER = {int(Permission.ENTER_USER): int(Permission.EXECUTE_USER),
                     int(Permission.ENTER_PRIV): int(Permission.EXECUTE_PRIV)}

#: the length and address fields of a pointer word
_BELOW_PERM = (1 << c.PERM_SHIFT) - 1


def _require_pointer(word: TaggedWord, what: str) -> GuardedPointer:
    if not word.tag:
        raise TagFault(f"{what} requires a guarded pointer, got an integer")
    return GuardedPointer.from_word(word)


def _require_right(ptr: GuardedPointer, right: Right, what: str) -> None:
    if not rights_of(ptr.permission) & right:
        raise PermissionFault(
            f"{what} not permitted by {ptr.permission.name} pointer"
        )


# ---------------------------------------------------------------------------
# Pointer arithmetic (Figure 2)
# ---------------------------------------------------------------------------

def lea(word: TaggedWord, offset: int) -> GuardedPointer:
    """LEA: derive ``pointer + offset``.

    The permission must allow modification (read-only, read/write or
    execute pointers; enter pointers and keys may not be modified).
    The add is performed on the 54-bit address field; a fault is raised
    if any *fixed* (segment) bit of the address changes — the masked
    comparator of Figure 2.  Over- and underflow out of the 54-bit
    space are likewise faults.

    Every check reads the word's bits directly, in the order (and with
    the messages) of the field-by-field checks the other operations
    make: tag, reserved permission code, MODIFY right, the 54-bit
    range, an out-of-range length field, then the masked compare.  The
    result is the same word with its address field replaced, which is
    the word :meth:`GuardedPointer.make` would encode.
    """
    if not word.tag:
        raise TagFault("LEA requires a guarded pointer, got an integer")
    value = word.value
    code = value >> c.PERM_SHIFT
    if not _MODIFY_BY_CODE[code]:
        perm = PERMISSION_BY_CODE[code]
        if perm is None:
            raise ValueError(f"reserved permission code: {code}")
        raise PermissionFault(
            f"pointer arithmetic not permitted by {perm.name} pointer")
    address = value & c.ADDRESS_MASK
    new_address = address + offset
    if not 0 <= new_address <= c.ADDRESS_MASK:
        raise BoundsFault(
            f"LEA overflowed the {c.ADDRESS_BITS}-bit address space: "
            f"{address:#x} + {offset}"
        )
    seglen = (value >> c.LENGTH_SHIFT) & c.LENGTH_FIELD_MASK
    if seglen > c.MAX_SEGLEN:
        raise ValueError(f"segment length field out of range: {seglen}")
    if (new_address ^ address) >> seglen:
        base = address >> seglen << seglen
        raise BoundsFault(
            f"LEA left the segment: {address:#x} + {offset} is outside "
            f"[{base:#x}, {base + (1 << seglen):#x})"
        )
    # the address field neither over- nor underflowed, so adding the
    # offset to the whole word replaces just that field
    return GuardedPointer(TaggedWord(value + offset, True))


def leab(word: TaggedWord, offset: int) -> GuardedPointer:
    """LEAB: derive ``segment_base + offset``.

    Provided "for efficiency" (§2.2); equivalent to an LEA relative to
    the base of the segment rather than the pointer's current address.
    """
    ptr = _require_pointer(word, "LEAB")
    _require_right(ptr, Right.MODIFY, "pointer arithmetic")
    if not 0 <= offset < ptr.segment_size:
        raise BoundsFault(
            f"LEAB offset {offset} outside segment of {ptr.segment_size} bytes"
        )
    return ptr.with_fields(address=ptr.segment_base + offset)


# ---------------------------------------------------------------------------
# Access-right restriction (user-mode, no system software)
# ---------------------------------------------------------------------------

def restrict(word: TaggedWord, perm: Permission) -> GuardedPointer:
    """RESTRICT: substitute permission ``perm`` into the pointer.

    Legal only when ``perm`` is a *strict* subset of the pointer's
    rights; otherwise :class:`RestrictFault`.
    """
    ptr = _require_pointer(word, "RESTRICT")
    if not is_strict_subset(perm, ptr.permission):
        raise RestrictFault(
            f"{perm.name} is not a strict subset of {ptr.permission.name}"
        )
    return ptr.with_fields(perm=perm)


def subseg(word: TaggedWord, seglen: int) -> GuardedPointer:
    """SUBSEG: substitute a smaller segment length into the pointer.

    The new length must be strictly smaller than the old one.  The
    pointer's address is unchanged; the new (smaller, aligned) segment
    is the one containing that address, which is necessarily contained
    in the old segment.
    """
    ptr = _require_pointer(word, "SUBSEG")
    _require_right(ptr, Right.MODIFY, "SUBSEG")
    if not 0 <= seglen < ptr.seglen:
        raise SubsegFault(
            f"SUBSEG length {seglen} is not smaller than {ptr.seglen}"
        )
    return ptr.with_fields(seglen=seglen)


# ---------------------------------------------------------------------------
# Privileged creation and the tag predicate
# ---------------------------------------------------------------------------

def setptr(word: TaggedWord, privileged: bool) -> GuardedPointer:
    """SETPTR: set the tag bit on an integer, forging a pointer.

    Only legal in privileged mode (an execute-privileged instruction
    pointer); this is the single amplification point of the whole
    architecture.  User code reaches it only through enter-privileged
    gateways, which check their arguments before forging (see
    :mod:`repro.runtime.services`).  The integer must encode a pointer:
    a reserved permission code or a segment length above 54 raises
    :class:`EncodingFault` here, where the forge is, rather than at the
    first use of the result.
    """
    if not privileged:
        raise PrivilegeFault("SETPTR requires privileged mode")
    value = word.value
    code = value >> c.PERM_SHIFT
    if PERMISSION_BY_CODE[code] is None:
        raise EncodingFault(f"reserved permission code: {code}")
    seglen = (value >> c.LENGTH_SHIFT) & c.LENGTH_FIELD_MASK
    if seglen > c.MAX_SEGLEN:
        raise EncodingFault(f"segment length field out of range: {seglen}")
    return GuardedPointer(TaggedWord(value, tag=True))


def ispointer(word: TaggedWord) -> TaggedWord:
    """ISPOINTER: return 1 if the word's tag bit is set, else 0.

    Used by storage reclamation (LISP-style GC) to find pointers.
    """
    return TaggedWord.integer(1 if word.tag else 0)


# ---------------------------------------------------------------------------
# Memory-access and jump checks
# ---------------------------------------------------------------------------

def check_load(word: TaggedWord) -> GuardedPointer:
    """Validate ``word`` as the address operand of a load."""
    ptr = _require_pointer(word, "load")
    _require_right(ptr, Right.READ, "load")
    return ptr


def check_store(word: TaggedWord) -> GuardedPointer:
    """Validate ``word`` as the address operand of a store."""
    ptr = _require_pointer(word, "store")
    _require_right(ptr, Right.WRITE, "store")
    return ptr


def check_jump(word: TaggedWord) -> GuardedPointer:
    """Validate ``word`` as a jump target and return the new instruction
    pointer.

    * Execute pointers are used directly (a program may jump anywhere
      inside its code segment).
    * Enter pointers are *converted* to the corresponding execute
      pointer — the protected-subsystem gateway of §2.3.  Jumping to an
      enter-privileged pointer is how privileged mode is entered;
      jumping to any user pointer exits it.  No privilege is required
      to jump to an enter-privileged pointer — that is the point of the
      gateway — so the check does not ask whether the jumper is
      privileged.
    * Anything else (data pointers, keys, integers) faults.

    Every check reads the word's bits, as :func:`lea` does, with the
    exceptions (types, messages, order) of the field-by-field checks:
    the tag, a reserved permission code, an enter pointer's length
    field (which :meth:`GuardedPointer.make` refuses above 54), and
    last the permission.  Conversion rewrites only the permission
    field.
    """
    if not word.tag:
        raise TagFault("jump requires a guarded pointer, got an integer")
    value = word.value
    code = value >> c.PERM_SHIFT
    if EXECUTE_BY_CODE[code]:
        return GuardedPointer(word)
    execute = _EXECUTE_OF_ENTER.get(code)
    if execute is not None:
        seglen = (value >> c.LENGTH_SHIFT) & c.LENGTH_FIELD_MASK
        if seglen > c.MAX_SEGLEN:
            raise EncodingFault(
                f"segment larger than address space: 2**{seglen}")
        return GuardedPointer(TaggedWord(
            execute << c.PERM_SHIFT | value & _BELOW_PERM, True))
    perm = PERMISSION_BY_CODE[code]
    if perm is None:
        raise ValueError(f"reserved permission code: {code}")
    raise PermissionFault(f"jump through {perm.name} pointer")


# ---------------------------------------------------------------------------
# C-style casts (§2.2) — unprivileged two-instruction sequences
# ---------------------------------------------------------------------------

def pointer_to_integer(word: TaggedWord) -> TaggedWord:
    """Cast pointer → int: the pointer's offset within its segment.

    Paper sequence::

        LEAB Ptr, 0, Base
        SUB  Ptr, Base, Int
    """
    base = leab(word, 0)
    ptr = GuardedPointer.from_word(word)
    return TaggedWord.integer(ptr.address - base.address)


def integer_to_pointer(data_segment: TaggedWord, value: TaggedWord) -> GuardedPointer:
    """Cast int → pointer: a pointer into ``data_segment`` with the
    integer as its offset (LEAB), legal only when the integer fits in
    the offset field of the segment."""
    return leab(data_segment, value.value)
