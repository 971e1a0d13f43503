"""Unit tests for the 8-byte address scheme (repro.msg.address)."""

import pytest

from repro.errors import AddressError
from repro.msg import (
    ADDRESS_SIZE,
    Address,
    make_group_address,
    make_process_address,
)


def test_pack_is_eight_bytes():
    addr = make_process_address(3, 1, 42, entry=7)
    assert len(addr.pack()) == ADDRESS_SIZE


def test_pack_unpack_roundtrip():
    addr = make_process_address(65535, 255, 65535, entry=255)
    assert Address.unpack(addr.pack()) == addr


def test_group_flag_roundtrip():
    gid = make_group_address(2, 9)
    assert gid.is_group
    assert Address.unpack(gid.pack()).is_group


def test_null_address():
    null = Address.null()
    assert null.is_null
    assert Address.unpack(null.pack()).is_null


def test_unpack_rejects_wrong_length():
    with pytest.raises(AddressError):
        Address.unpack(b"\x00" * 7)


def test_field_range_validation():
    with pytest.raises(AddressError):
        Address(site=70000)
    with pytest.raises(AddressError):
        Address(incarnation=300)
    with pytest.raises(AddressError):
        Address(local_id=-1)
    with pytest.raises(AddressError):
        Address(entry=256)


def test_with_entry_changes_only_entry():
    addr = make_process_address(1, 0, 5, entry=0)
    entry9 = addr.with_entry(9)
    assert entry9.entry == 9
    assert entry9.process() == addr.process()


def test_same_process_ignores_entry():
    a = make_process_address(1, 2, 3, entry=4)
    b = make_process_address(1, 2, 3, entry=200)
    c = make_process_address(1, 2, 4, entry=4)
    assert a.same_process(b)
    assert not a.same_process(c)


def test_incarnation_distinguishes_restarted_site():
    before = make_process_address(1, 0, 3)
    after = make_process_address(1, 1, 3)
    assert not before.same_process(after)


def test_addresses_are_hashable_and_ordered():
    a = make_process_address(1, 0, 1)
    b = make_process_address(1, 0, 2)
    assert len({a, b, a}) == 2
    assert sorted([b, a]) == [a, b]


def test_str_forms():
    assert "grp" in str(make_group_address(1, 2))
    assert "proc" in str(make_process_address(1, 0, 2))
    assert str(Address.null()) == "<null>"


# -- the slot-class contract ---------------------------------------------
# ``Address`` must behave exactly like the frozen dataclass it replaced:
# protocol code iterates sets and dicts of addresses, so its hash, not
# just its equality, decides which frame a seeded run sends first.


def test_hash_is_the_field_tuple_hash():
    addr = make_process_address(7, 3, 9, entry=17)
    assert hash(addr) == hash((7, 3, 9, 17, False, False))
    gid = make_group_address(2, 5)
    assert hash(gid) == hash((2, 0, 5, 0, True, False))


def test_positional_and_keyword_construction_agree():
    assert Address(1, 2, 3, 4, True, False) == Address(
        site=1, incarnation=2, local_id=3, entry=4, is_group=True)


def test_attribute_assignment_raises():
    addr = make_process_address(1, 0, 2)
    with pytest.raises(AttributeError):
        addr.site = 5
    with pytest.raises(AttributeError):
        addr.entry = 1
    with pytest.raises(AttributeError):
        del addr.local_id
    assert addr == make_process_address(1, 0, 2)


def test_comparisons_with_other_types_are_not_implemented():
    addr = make_process_address(1, 0, 2)
    fields = (1, 0, 2, 0, False, False)
    assert addr != fields
    assert addr.__eq__(fields) is NotImplemented
    assert addr.__lt__(fields) is NotImplemented
    with pytest.raises(TypeError):
        _ = addr < fields


def test_validation_runs_on_every_construction_path():
    addr = make_process_address(1, 0, 2)
    with pytest.raises(AddressError):
        addr.with_entry(256)
    with pytest.raises(AddressError):
        addr.with_entry(-1)
    with pytest.raises(AddressError):
        make_process_address(1, 256, 2)
    with pytest.raises(AddressError):
        make_group_address(70000, 1)
    with pytest.raises(AddressError):
        Address(1, 0, 2, 0x100)


def test_process_is_cached():
    entry0 = make_process_address(4, 1, 8)
    assert entry0.process() is entry0
    entry5 = entry0.with_entry(5)
    assert entry5.process() == entry0
    assert entry5.process() is entry5.process()
    assert entry5.process().entry == 0


def test_pack_is_cached_and_unpack_reuses_decoded_addresses():
    addr = make_group_address(3, 11, entry=2)
    assert addr.pack() is addr.pack()
    first = Address.unpack(addr.pack())
    assert first == addr and hash(first) == hash(addr)
    assert Address.unpack(bytes(addr.pack())) is first
    assert Address.unpack(bytearray(addr.pack())) is first


def test_unpack_rejects_wrong_length_even_when_prefix_is_cached():
    raw = make_process_address(1, 0, 3).pack()
    Address.unpack(raw)
    with pytest.raises(AddressError):
        Address.unpack(raw[:7])
    with pytest.raises(AddressError):
        Address.unpack(raw + b"\x00")


def test_unpack_cache_stays_within_its_bound():
    from repro.msg import address as address_mod

    bound = address_mod.UNPACK_CACHE_SIZE
    for n in range(bound + 100):
        addr = make_process_address(n % 0x10000, 0, n // 0x10000 + 1)
        assert Address.unpack(addr.pack()) == addr
        assert len(address_mod._UNPACKED) <= bound
