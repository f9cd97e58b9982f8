"""Tests for the checked pointer ISA (§2.2, Figure 2)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

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
from repro.core.operations import (
    check_jump,
    check_load,
    check_store,
    integer_to_pointer,
    ispointer,
    lea,
    leab,
    pointer_to_integer,
    restrict,
    setptr,
    subseg,
)
from repro.core.permissions import Permission, Right, rights_of
from repro.core.pointer import GuardedPointer, decode_fields
from repro.core.word import TaggedWord


def ptr(perm=Permission.READ_WRITE, seglen=8, address=0x4200):
    return GuardedPointer.make(perm, seglen, address)


class TestLea:
    def test_in_segment_add(self):
        p = ptr(address=0x4200, seglen=8)  # segment [0x4200, 0x4300)
        q = lea(p.word, 0x40)
        assert q.address == 0x4240
        assert q.seglen == p.seglen
        assert q.permission == p.permission

    def test_negative_offset_within_segment(self):
        p = ptr(address=0x4240, seglen=8)
        q = lea(p.word, -0x40)
        assert q.address == 0x4200

    def test_overflow_into_fixed_bits_faults(self):
        p = ptr(address=0x42FF, seglen=8)
        with pytest.raises(BoundsFault):
            lea(p.word, 1)

    def test_underflow_below_base_faults(self):
        p = ptr(address=0x4200, seglen=8)
        with pytest.raises(BoundsFault):
            lea(p.word, -1)

    def test_zero_offset_is_identity(self):
        p = ptr()
        assert lea(p.word, 0) == p

    def test_lea_on_integer_faults(self):
        with pytest.raises(TagFault):
            lea(TaggedWord.integer(0x4200), 4)

    def test_lea_on_enter_pointer_faults(self):
        p = ptr(perm=Permission.ENTER_USER)
        with pytest.raises(PermissionFault):
            lea(p.word, 0)

    def test_lea_on_key_faults(self):
        p = ptr(perm=Permission.KEY)
        with pytest.raises(PermissionFault):
            lea(p.word, 0)

    def test_lea_on_execute_pointer_allowed(self):
        p = ptr(perm=Permission.EXECUTE_USER)
        assert lea(p.word, 8).address == p.address + 8

    def test_overflow_out_of_address_space_faults(self):
        p = GuardedPointer.make(Permission.READ_WRITE, c.MAX_SEGLEN, c.ADDRESS_MASK)
        with pytest.raises(BoundsFault):
            lea(p.word, 1)

    @given(
        st.integers(min_value=0, max_value=c.MAX_SEGLEN),
        st.integers(min_value=0, max_value=c.ADDRESS_MASK),
        st.integers(min_value=-(1 << 54), max_value=1 << 54),
    )
    def test_lea_succeeds_iff_result_in_segment(self, seglen, address, offset):
        p = GuardedPointer.make(Permission.READ_WRITE, seglen, address)
        target = address + offset
        if p.segment_base <= target < p.segment_limit:
            assert lea(p.word, offset).address == target
        else:
            with pytest.raises(BoundsFault):
                lea(p.word, offset)

    @given(
        st.integers(min_value=0, max_value=c.MAX_SEGLEN),
        st.integers(min_value=0, max_value=c.ADDRESS_MASK),
        st.integers(min_value=-(1 << 54), max_value=1 << 54),
    )
    def test_lea_never_changes_segment(self, seglen, address, offset):
        p = GuardedPointer.make(Permission.READ_WRITE, seglen, address)
        try:
            q = lea(p.word, offset)
        except BoundsFault:
            return
        assert q.segment_base == p.segment_base
        assert q.segment_size == p.segment_size


def fig2_lea(word: TaggedWord, offset: int) -> GuardedPointer:
    """An independent LEA oracle: decode the fields, check the rights,
    run Figure 2's masked comparator on the decoded address, and encode
    the result with :meth:`GuardedPointer.make`."""
    if not word.tag:
        raise TagFault("LEA requires a guarded pointer, got an integer")
    field, seglen, address = decode_fields(word.value)
    try:
        perm = Permission(field)
    except ValueError:
        raise ValueError(f"reserved permission code: {field}") from None
    if not rights_of(perm) & Right.MODIFY:
        raise PermissionFault(
            f"pointer arithmetic not permitted by {perm.name} pointer")
    new_address = address + offset
    if not 0 <= new_address <= c.ADDRESS_MASK:
        raise BoundsFault(f"LEA overflowed the {c.ADDRESS_BITS}-bit address "
                          f"space: {address:#x} + {offset}")
    mask = c.segment_mask(seglen)
    if new_address & mask != address & mask:
        base = address & mask
        raise BoundsFault(f"LEA left the segment: {address:#x} + {offset} "
                          f"is outside [{base:#x}, {base + (1 << seglen):#x})")
    return GuardedPointer.make(perm, seglen, new_address)


def outcome(fn, *args):
    """A call's result word, or its exception's type and message."""
    try:
        return fn(*args).word
    except Exception as exc:  # noqa: BLE001 - the comparison is the point
        return type(exc), str(exc)


class TestLeaOracle:
    """``lea`` works on the word's bits; every path must match the
    field-by-field oracle: result word, or exception type and message."""

    TOP = c.ADDRESS_MASK

    def offsets(self, seglen: int, address: int) -> set[int]:
        size = 1 << min(seglen, c.ADDRESS_BITS)
        base = address & ~(size - 1)
        limit = base + size
        edges = {0, 1, -1, limit - address, limit - address - 1,
                 base - address, base - address - 1,
                 self.TOP - address, self.TOP - address + 1,
                 -address, -address - 1, 1 << c.ADDRESS_BITS,
                 -(1 << c.ADDRESS_BITS)}
        return edges

    def test_every_code_length_and_edge(self):
        checked = 0
        for code in range(16):
            for seglen in range(64):
                span = 1 << min(seglen, c.ADDRESS_BITS)
                for address in {0, span - 1, self.TOP, self.TOP - span + 1,
                                (0x1234_5678_9AB & self.TOP) | (span >> 1)}:
                    address &= self.TOP
                    word = TaggedWord((code << c.PERM_SHIFT)
                                      | (seglen << c.LENGTH_SHIFT) | address,
                                      tag=True)
                    for offset in self.offsets(seglen, address):
                        assert outcome(lea, word, offset) == \
                            outcome(fig2_lea, word, offset), \
                            (code, seglen, hex(address), offset)
                        checked += 1
        assert checked > 40_000

    def test_integer_operand(self):
        word = ptr().as_integer()
        assert outcome(lea, word, 8) == outcome(fig2_lea, word, 8)


class TestLeab:
    def test_offset_from_base(self):
        p = ptr(address=0x4277, seglen=8)
        q = leab(p.word, 5)
        assert q.address == 0x4205

    def test_offset_equal_to_size_faults(self):
        p = ptr(seglen=8)
        with pytest.raises(BoundsFault):
            leab(p.word, 256)

    def test_negative_offset_faults(self):
        p = ptr(seglen=8)
        with pytest.raises(BoundsFault):
            leab(p.word, -1)

    def test_leab_on_key_faults(self):
        with pytest.raises(PermissionFault):
            leab(ptr(perm=Permission.KEY).word, 0)


class TestRestrict:
    def test_rw_to_ro(self):
        q = restrict(ptr(Permission.READ_WRITE).word, Permission.READ_ONLY)
        assert q.permission == Permission.READ_ONLY

    def test_amplification_faults(self):
        with pytest.raises(RestrictFault):
            restrict(ptr(Permission.READ_ONLY).word, Permission.READ_WRITE)

    def test_same_permission_faults(self):
        # strict subset required
        with pytest.raises(RestrictFault):
            restrict(ptr(Permission.READ_WRITE).word, Permission.READ_WRITE)

    def test_to_key_always_legal_from_nonkey(self):
        q = restrict(ptr(Permission.READ_ONLY).word, Permission.KEY)
        assert q.permission == Permission.KEY

    def test_key_cannot_be_restricted(self):
        with pytest.raises(RestrictFault):
            restrict(ptr(Permission.KEY).word, Permission.KEY)

    def test_address_and_length_preserved(self):
        p = ptr(Permission.READ_WRITE, seglen=12, address=0x5123)
        q = restrict(p.word, Permission.READ_ONLY)
        assert (q.seglen, q.address) == (12, 0x5123)

    def test_restrict_integer_faults(self):
        with pytest.raises(TagFault):
            restrict(TaggedWord.integer(0), Permission.KEY)


class TestSubseg:
    def test_shrink_keeps_address(self):
        p = ptr(seglen=12, address=0x5123)
        q = subseg(p.word, 4)
        assert q.address == 0x5123
        assert q.segment_size == 16
        assert p.contains(q.segment_base)
        assert p.contains(q.segment_limit - 1)

    def test_grow_faults(self):
        p = ptr(seglen=4)
        with pytest.raises(SubsegFault):
            subseg(p.word, 12)

    def test_equal_length_faults(self):
        p = ptr(seglen=4)
        with pytest.raises(SubsegFault):
            subseg(p.word, 4)

    def test_subseg_on_enter_faults(self):
        with pytest.raises(PermissionFault):
            subseg(ptr(perm=Permission.ENTER_USER, seglen=8).word, 4)

    @given(
        st.integers(min_value=1, max_value=c.MAX_SEGLEN),
        st.integers(min_value=0, max_value=c.ADDRESS_MASK),
        st.data(),
    )
    def test_subsegment_always_contained(self, seglen, address, data):
        p = GuardedPointer.make(Permission.READ_WRITE, seglen, address)
        new_len = data.draw(st.integers(min_value=0, max_value=seglen - 1))
        q = subseg(p.word, new_len)
        assert p.segment_base <= q.segment_base
        assert q.segment_limit <= p.segment_limit


class TestSetptrIspointer:
    def test_setptr_requires_privilege(self):
        raw = ptr().as_integer()
        with pytest.raises(PrivilegeFault):
            setptr(raw, privileged=False)

    def test_setptr_forges_pointer(self):
        for perm in Permission:
            for seglen in (0, 10, c.MAX_SEGLEN):
                original = ptr(perm, seglen, 0x8000)
                forged = setptr(original.as_integer(), privileged=True)
                assert forged == original

    @pytest.mark.parametrize("code", range(7, 16))
    def test_setptr_of_a_reserved_code_faults(self, code):
        raw = TaggedWord.integer((code << c.PERM_SHIFT)
                                 | (12 << c.LENGTH_SHIFT) | 0x4000)
        with pytest.raises(EncodingFault,
                           match=f"reserved permission code: {code}"):
            setptr(raw, privileged=True)

    @pytest.mark.parametrize("seglen", range(c.MAX_SEGLEN + 1, 64))
    def test_setptr_of_a_length_beyond_54_faults(self, seglen):
        raw = TaggedWord.integer(seglen << c.LENGTH_SHIFT)
        with pytest.raises(EncodingFault,
                           match=f"segment length field out of range: "
                                 f"{seglen}"):
            setptr(raw, privileged=True)

    def test_ispointer_true_false(self):
        assert ispointer(ptr().word).value == 1
        assert ispointer(TaggedWord.integer(99)).value == 0


class TestAccessChecks:
    def test_load_through_ro_rw_execute(self):
        for perm in (Permission.READ_ONLY, Permission.READ_WRITE,
                     Permission.EXECUTE_USER, Permission.EXECUTE_PRIV):
            assert check_load(ptr(perm).word).permission == perm

    def test_load_through_enter_or_key_faults(self):
        for perm in (Permission.ENTER_USER, Permission.ENTER_PRIV, Permission.KEY):
            with pytest.raises(PermissionFault):
                check_load(ptr(perm).word)

    def test_store_only_through_rw(self):
        assert check_store(ptr(Permission.READ_WRITE).word)
        for perm in (Permission.READ_ONLY, Permission.EXECUTE_USER,
                     Permission.ENTER_USER, Permission.KEY):
            with pytest.raises(PermissionFault):
                check_store(ptr(perm).word)

    def test_load_with_integer_address_faults(self):
        with pytest.raises(TagFault):
            check_load(TaggedWord.integer(0x4200))


class TestJumpChecks:
    def test_jump_to_execute(self):
        ip = check_jump(ptr(Permission.EXECUTE_USER).word)
        assert ip.permission == Permission.EXECUTE_USER

    def test_enter_user_converts_to_execute_user(self):
        ip = check_jump(ptr(Permission.ENTER_USER).word)
        assert ip.permission == Permission.EXECUTE_USER

    def test_enter_priv_converts_to_execute_priv(self):
        # unprivileged code may enter privileged mode ONLY via the gateway
        ip = check_jump(ptr(Permission.ENTER_PRIV).word)
        assert ip.permission == Permission.EXECUTE_PRIV

    def test_jump_to_data_pointer_faults(self):
        for perm in (Permission.READ_ONLY, Permission.READ_WRITE, Permission.KEY):
            with pytest.raises(PermissionFault):
                check_jump(ptr(perm).word)

    def test_jump_target_address_preserved(self):
        p = ptr(Permission.ENTER_USER, seglen=10, address=0x9040)
        ip = check_jump(p.word)
        assert ip.address == 0x9040
        assert ip.seglen == 10


def fields_check_jump(word: TaggedWord) -> GuardedPointer:
    """A field-level JMP oracle: decode the pointer through
    :meth:`GuardedPointer.from_word` and its permission, and convert an
    enter pointer with :meth:`GuardedPointer.with_fields`."""
    if not word.tag:
        raise TagFault("jump requires a guarded pointer, got an integer")
    p = GuardedPointer.from_word(word)
    perm = p.permission
    if perm.is_execute:
        return p
    if perm is Permission.ENTER_USER:
        return p.with_fields(perm=Permission.EXECUTE_USER)
    if perm is Permission.ENTER_PRIV:
        return p.with_fields(perm=Permission.EXECUTE_PRIV)
    raise PermissionFault(f"jump through {perm.name} pointer")


def jump_word(tag: bool, code: int, seglen: int, address: int) -> TaggedWord:
    return TaggedWord((code << c.PERM_SHIFT) | (seglen << c.LENGTH_SHIFT)
                      | address, tag=tag)


class TestJumpOracle:
    """``check_jump`` works on the word's bits; every path must match
    the field-level oracle: result word, or exception type and message,
    in the oracle's order (tag, reserved code, an enter length beyond
    54, permission)."""

    @given(tag=st.booleans(), code=st.integers(0, 15),
           seglen=st.integers(0, 63),
           address=st.integers(0, c.ADDRESS_MASK))
    def test_matches_the_field_oracle(self, tag, code, seglen, address):
        word = jump_word(tag, code, seglen, address)
        assert outcome(check_jump, word) == outcome(fields_check_jump, word)

    def test_every_code_and_length(self):
        for tag in (False, True):
            for code in range(16):
                for seglen in range(64):
                    for address in (0, 0x9040, c.ADDRESS_MASK):
                        word = jump_word(tag, code, seglen, address)
                        assert outcome(check_jump, word) \
                            == outcome(fields_check_jump, word), \
                            (tag, code, seglen, hex(address))


class TestCasts:
    def test_pointer_to_integer_yields_offset(self):
        p = ptr(address=0x4277, seglen=8)
        assert pointer_to_integer(p.word).value == 0x77

    def test_integer_to_pointer_roundtrip(self):
        seg = ptr(address=0x4200, seglen=8)
        i = pointer_to_integer(lea(seg.word, 0x31).word)
        q = integer_to_pointer(seg.word, i)
        assert q.address == 0x4231

    def test_integer_to_pointer_out_of_segment_faults(self):
        seg = ptr(seglen=4)
        with pytest.raises(BoundsFault):
            integer_to_pointer(seg.word, TaggedWord.integer(16))

    def test_casts_require_no_privilege(self):
        # the sequences run entirely in user mode (§2.2)
        p = ptr(Permission.READ_ONLY, address=0x4203, seglen=8)
        assert pointer_to_integer(p.word).value == 3
