"""Tests for the permission lattice (§2.1) and RESTRICT legality."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.constants import LENGTH_SHIFT, PERM_SHIFT
from repro.core.permissions import (
    Permission,
    Right,
    decode_permission,
    is_strict_subset,
    restriction_targets,
    rights_of,
)
from repro.core.pointer import GuardedPointer
from repro.core.word import TaggedWord

perms = st.sampled_from(list(Permission))


class TestRights:
    def test_read_only_cannot_write(self):
        r = rights_of(Permission.READ_ONLY)
        assert r & Right.READ
        assert not r & Right.WRITE

    def test_read_write_can_both(self):
        r = rights_of(Permission.READ_WRITE)
        assert r & Right.READ and r & Right.WRITE

    def test_execute_is_readable_jumpable(self):
        r = rights_of(Permission.EXECUTE_USER)
        assert r & Right.READ and r & Right.EXECUTE
        assert not r & Right.WRITE
        assert not r & Right.PRIV

    def test_execute_priv_carries_supervisor_bit(self):
        assert rights_of(Permission.EXECUTE_PRIV) & Right.PRIV

    def test_enter_pointers_confer_only_entry(self):
        for p in (Permission.ENTER_USER, Permission.ENTER_PRIV):
            r = rights_of(p)
            assert r & Right.ENTER
            assert not r & (Right.READ | Right.WRITE | Right.MODIFY)

    def test_key_confers_nothing(self):
        assert rights_of(Permission.KEY) == Right.NONE


class TestPredicates:
    def test_is_enter(self):
        assert Permission.ENTER_USER.is_enter
        assert Permission.ENTER_PRIV.is_enter
        assert not Permission.EXECUTE_USER.is_enter

    def test_is_execute(self):
        assert Permission.EXECUTE_USER.is_execute
        assert Permission.EXECUTE_PRIV.is_execute
        assert not Permission.ENTER_USER.is_execute

    def test_is_privileged(self):
        assert Permission.EXECUTE_PRIV.is_privileged
        assert Permission.ENTER_PRIV.is_privileged
        assert not Permission.READ_WRITE.is_privileged


class TestDecode:
    def test_known_codes_decode(self):
        for p in Permission:
            assert decode_permission(int(p)) is p

    @pytest.mark.parametrize("code", [7, 8, 15])
    def test_reserved_codes_raise(self, code):
        with pytest.raises(ValueError):
            decode_permission(code)

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError):
            decode_permission(16)

    @pytest.mark.parametrize("field", range(16))
    def test_every_field_decodes_like_the_enum(self, field):
        """The decode table against ``Permission(field)``: the same
        member from all three readers of a permission field, or the same
        ValueError from each."""
        word = TaggedWord((field << PERM_SHIFT) | (12 << LENGTH_SHIFT)
                          | 0x4000, tag=True)
        readers = (lambda: decode_permission(field),
                   lambda: GuardedPointer(word).permission,
                   lambda: GuardedPointer.from_word(word).permission)
        try:
            member = Permission(field)
        except ValueError:
            for read in readers:
                with pytest.raises(ValueError, match=(
                        f"^reserved permission code: {field}$")):
                    read()
        else:
            for read in readers:
                assert read() is member


class TestRestrictLattice:
    def test_rw_to_ro_is_legal(self):
        assert is_strict_subset(Permission.READ_ONLY, Permission.READ_WRITE)

    def test_ro_to_rw_is_amplification(self):
        assert not is_strict_subset(Permission.READ_WRITE, Permission.READ_ONLY)

    def test_execute_to_read_only_is_legal(self):
        # "Execute pointers are read-only pointers that may be used as
        # targets for jump instructions" — dropping EXECUTE is a restriction.
        assert is_strict_subset(Permission.READ_ONLY, Permission.EXECUTE_USER)

    def test_key_is_bottom(self):
        for p in Permission:
            if p is Permission.KEY:
                continue
            assert is_strict_subset(Permission.KEY, p)

    @given(perms)
    def test_never_subset_of_itself(self, p):
        assert not is_strict_subset(p, p)

    @given(perms, perms, perms)
    def test_transitivity(self, a, b, c):
        if is_strict_subset(a, b) and is_strict_subset(b, c):
            assert is_strict_subset(a, c)

    @given(perms, perms)
    def test_antisymmetry(self, a, b):
        assert not (is_strict_subset(a, b) and is_strict_subset(b, a))

    def test_restriction_targets_of_rw(self):
        targets = restriction_targets(Permission.READ_WRITE)
        assert Permission.READ_ONLY in targets
        assert Permission.KEY in targets
        assert Permission.EXECUTE_USER not in targets  # would add EXECUTE

    def test_restriction_targets_of_key_is_empty(self):
        assert restriction_targets(Permission.KEY) == frozenset()
