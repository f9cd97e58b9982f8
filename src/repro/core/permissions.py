"""Permission types and the rights lattice (paper §2.1).

The 4-bit permission field names the set of operations a pointer
permits.  The paper's representative set:

* ``READ_ONLY``      — load only.
* ``READ_WRITE``     — load and store.
* ``EXECUTE_USER``   — read-only + usable as a jump target (user mode).
* ``EXECUTE_PRIV``   — as above, with the supervisor bit set; only an
  execute-privileged instruction pointer may issue privileged ops.
* ``ENTER_USER``     — opaque gateway: jumping converts it to
  ``EXECUTE_USER`` at the same address; no load/store/modify.
* ``ENTER_PRIV``     — gateway to privileged code.
* ``KEY``            — unforgeable identifier; no operation at all.

RESTRICT may substitute permission ``T`` for ``P`` only when the
*rights* of ``T`` are a strict subset of the rights of ``P``.  Rights
are modelled explicitly as frozensets so the subset test is literal.
"""

from __future__ import annotations

import enum
from typing import FrozenSet

from repro.core.constants import PERM_FIELD_MASK


class Right(enum.Flag):
    """Primitive rights a permission may confer."""

    NONE = 0
    READ = enum.auto()        #: may be the address of a load
    WRITE = enum.auto()       #: may be the address of a store
    EXECUTE = enum.auto()     #: may sit in the instruction pointer
    ENTER = enum.auto()       #: may be the target of a gateway jump
    MODIFY = enum.auto()      #: address arithmetic (LEA) is allowed
    PRIV = enum.auto()        #: supervisor: privileged ops legal


class Permission(enum.IntEnum):
    """4-bit architectural permission codes.

    The numeric values are the bit patterns stored in the pointer's
    permission field.  Codes 7..15 are reserved; decoding them raises
    in :func:`rights_of`.
    """

    READ_ONLY = 0
    READ_WRITE = 1
    EXECUTE_USER = 2
    EXECUTE_PRIV = 3
    ENTER_USER = 4
    ENTER_PRIV = 5
    KEY = 6

    @property
    def is_enter(self) -> bool:
        return self in (Permission.ENTER_USER, Permission.ENTER_PRIV)

    @property
    def is_execute(self) -> bool:
        return self in (Permission.EXECUTE_USER, Permission.EXECUTE_PRIV)

    @property
    def is_privileged(self) -> bool:
        return self in (Permission.EXECUTE_PRIV, Permission.ENTER_PRIV)


#: Rights conferred by each permission code.  Execute pointers are
#: "read-only pointers that may be used as targets for jump
#: instructions" (§2.1), hence READ|EXECUTE|MODIFY.  Enter pointers may
#: not be modified or dereferenced — their only right is ENTER.  Keys
#: confer nothing.
_RIGHTS: dict[Permission, Right] = {
    Permission.READ_ONLY: Right.READ | Right.MODIFY,
    Permission.READ_WRITE: Right.READ | Right.WRITE | Right.MODIFY,
    Permission.EXECUTE_USER: Right.READ | Right.EXECUTE | Right.MODIFY,
    Permission.EXECUTE_PRIV: Right.READ | Right.EXECUTE | Right.MODIFY | Right.PRIV,
    Permission.ENTER_USER: Right.ENTER,
    Permission.ENTER_PRIV: Right.ENTER | Right.PRIV,
    Permission.KEY: Right.NONE,
}


#: The member of each 4-bit permission field, ``None`` for the reserved
#: codes 7..15.  Decoding a field is an index here rather than an
#: ``Enum`` construction: every pointer check decodes one.
PERMISSION_BY_CODE: tuple[Permission | None, ...] = tuple(
    Permission(code) if code <= Permission.KEY else None
    for code in range(PERM_FIELD_MASK + 1))

#: Whether each 4-bit permission field may sit in the instruction
#: pointer (the execute codes), indexed like :data:`PERMISSION_BY_CODE`.
EXECUTE_BY_CODE: tuple[bool, ...] = tuple(
    perm is not None and perm.is_execute for perm in PERMISSION_BY_CODE)


def decode_permission(field: int) -> Permission:
    """Decode a 4-bit permission field; reserved codes raise ValueError."""
    if not 0 <= field <= PERM_FIELD_MASK:
        raise ValueError(f"permission field out of range: {field}")
    perm = PERMISSION_BY_CODE[field]
    if perm is None:
        raise ValueError(f"reserved permission code: {field}")
    return perm


def rights_of(perm: Permission) -> Right:
    """The rights conferred by ``perm``."""
    return _RIGHTS[perm]


def is_strict_subset(candidate: Permission, source: Permission) -> bool:
    """True when ``candidate``'s rights are a strict subset of
    ``source``'s rights — the legality condition for RESTRICT (§2.2).
    """
    c, s = rights_of(candidate), rights_of(source)
    return (c & s) == c and c != s


def restriction_targets(source: Permission) -> FrozenSet[Permission]:
    """All permissions a user process may RESTRICT ``source`` to."""
    return frozenset(p for p in Permission if is_strict_subset(p, source))
