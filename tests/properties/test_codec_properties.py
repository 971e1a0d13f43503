"""Property-based tests: codec round-trips (hypothesis)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import AddressError
from repro.msg import (
    ADDRESS_SIZE,
    Address,
    Message,
    make_group_address,
    make_process_address,
)
from repro.msg import address as address_module
from repro.msg.fields import decode_have_vector, encode_have_vector
from repro.net.packet import (
    FRAME_WIRE_HEADER_BYTES,
    KIND_ACK,
    KIND_DATA,
    KIND_RAW,
    Frame,
    decode_datagram,
    decode_frame,
    encode_datagram,
    encode_frame,
)

addresses = st.builds(
    Address,
    site=st.integers(0, 0xFFFF),
    incarnation=st.integers(0, 0xFF),
    local_id=st.integers(0, 0xFFFF),
    entry=st.integers(0, 0xFF),
    is_group=st.booleans(),
    is_null=st.booleans(),
)

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**63), 2**63 - 1),
    st.floats(allow_nan=False),  # NaN != NaN would break equality checking
    st.text(max_size=64),
    st.binary(max_size=64),
    addresses,
)

values = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(min_size=1, max_size=16), children, max_size=4),
    ),
    max_leaves=12,
)

field_names = st.text(min_size=1, max_size=32)


@given(addresses)
def test_address_pack_roundtrip(addr):
    assert Address.unpack(addr.pack()) == addr


@given(st.dictionaries(field_names, values, max_size=8))
@settings(max_examples=200)
def test_message_encode_roundtrip(fields):
    msg = Message()
    for name, value in fields.items():
        msg[name] = value
    decoded = Message.decode(msg.encode())
    assert decoded.fields() == _normalize(msg.fields())


@given(st.dictionaries(field_names, values, max_size=6))
def test_encoding_is_deterministic(fields):
    msg = Message()
    for name, value in fields.items():
        msg[name] = value
    assert msg.encode() == msg.encode()


@given(st.dictionaries(field_names, values, max_size=6))
def test_size_bytes_matches_encoding(fields):
    msg = Message()
    for name, value in fields.items():
        msg[name] = value
    assert msg.size_bytes == len(msg.encode())


# ----------------------------------------------------------------------
# Kernel envelope kinds (tree dissemination / aggregated stability /
# batched flush reports): built exactly as the kernel builds them, they
# must survive encode/decode with every nested codec intact.
# ----------------------------------------------------------------------

inner_fields = st.dictionaries(
    st.text(min_size=1, max_size=16), scalars, max_size=6)

have_vectors = st.dictionaries(
    st.integers(0, 10_000), st.integers(0, 2**32), max_size=16)

floors = st.tuples(st.integers(0, 2**31), st.integers(0, 2**31))


def _message(fields):
    msg = Message()
    for name, value in fields.items():
        msg[name] = value
    return msg


@given(have_vectors)
def test_have_vector_roundtrip(have):
    assert decode_have_vector(encode_have_vector(have)) == have


@given(gid=addresses, view=st.integers(0, 2**31), root=st.integers(0, 0xFFFF),
       tid=st.integers(1, 2**31), fields=inner_fields)
def test_tree_wrapper_roundtrip(gid, view, root, tid, fields):
    """``g.tr``: relay wrapper around an encoded inner envelope."""
    inner = _message(fields)
    wrapper = Message(_proto="g.tr", gid=gid, view=view, root=root,
                      tid=tid, inner=inner.encode())
    decoded = Message.decode(wrapper.encode())
    assert decoded["_proto"] == "g.tr"
    assert decoded["gid"] == gid
    assert (decoded["view"], decoded["root"], decoded["tid"]) == \
        (view, root, tid)
    relayed = Message.decode(bytes(decoded["inner"]))
    assert relayed.fields() == _normalize(inner.fields())


@given(gid=addresses, stab_view=st.integers(0, 2**31), have=have_vectors,
       n=st.integers(1, 0xFFFF), floor=floors)
def test_stability_up_roundtrip(gid, stab_view, have, n, floor):
    """``g.stab.up``: aggregated subtree report (have-vector nested)."""
    note = Message(_proto="g.stab.up", gid=gid, stab_view=stab_view,
                   have_b=encode_have_vector(have), n=n, df=list(floor))
    decoded = Message.decode(note.encode())
    assert decoded["_proto"] == "g.stab.up"
    assert decoded["stab_view"] == stab_view
    assert decode_have_vector(bytes(decoded["have_b"])) == have
    assert int(decoded["n"]) == n
    df = decoded["df"]
    assert (df[0], df[1]) == floor


@given(gid=addresses, stab_view=st.integers(0, 2**31), stable=have_vectors,
       floor=floors)
def test_stability_dn_roundtrip(gid, stab_view, stable, floor):
    """``g.stab.dn``: the root's stable cut relayed down the tree."""
    note = Message(_proto="g.stab.dn", gid=gid, stab_view=stab_view,
                   stable_b=encode_have_vector(stable), df=list(floor))
    decoded = Message.decode(note.encode())
    assert decoded["_proto"] == "g.stab.dn"
    assert decoded["stab_view"] == stab_view
    assert decode_have_vector(bytes(decoded["stable_b"])) == stable
    df = decoded["df"]
    assert (df[0], df[1]) == floor


@given(gid=addresses, root=st.integers(0, 0xFFFF),
       reports=st.lists(
           st.tuples(st.integers(0, 0xFFFF), inner_fields), max_size=5))
def test_flush_okb_roundtrip(gid, root, reports):
    """``g.fl.okb``: batched pre-reports, each an encoded Message."""
    raw_reports = [(src, _message(fields).encode())
                   for src, fields in reports]
    batch = Message(_proto="g.fl.okb", gid=gid, root=root,
                    reports=raw_reports)
    decoded = Message.decode(batch.encode())
    assert decoded["_proto"] == "g.fl.okb"
    assert decoded["root"] == root
    assert len(decoded["reports"]) == len(reports)
    for (src, fields), got in zip(reports, decoded["reports"]):
        assert got[0] == src
        report = Message.decode(bytes(got[1]))
        assert report.fields() == _normalize(_message(fields).fields())


# ----------------------------------------------------------------------
# Binary frame codec (the asyncio/UDP driver's wire format).
# ----------------------------------------------------------------------

frames = st.builds(
    Frame,
    kind=st.sampled_from([KIND_DATA, KIND_ACK, KIND_RAW]),
    src_site=st.integers(0, 0xFFFF),
    dst_site=st.integers(0, 0xFFFF),
    epoch=st.integers(0, 0xFFFF),
    seq=st.integers(0, 2**32 - 1),
    ack=st.integers(-(2**31), 2**31 - 1),
    msg_id=st.integers(0, 2**32 - 1),
    frag_index=st.integers(0, 0xFFFF),
    frag_total=st.integers(1, 0xFFFF),
    payload=st.binary(max_size=256),
    cheap=st.booleans(),
)


def _same_frame(a: Frame, b: Frame) -> bool:
    return (a.kind == b.kind and a.src_site == b.src_site
            and a.dst_site == b.dst_site and a.epoch == b.epoch
            and a.seq == b.seq and a.ack == b.ack and a.msg_id == b.msg_id
            and a.frag_index == b.frag_index and a.frag_total == b.frag_total
            and a.payload == b.payload and a.cheap == b.cheap)


@given(frames)
def test_frame_wire_roundtrip(frame):
    buf = encode_frame(frame)
    decoded, offset = decode_frame(buf)
    assert offset == len(buf)
    assert _same_frame(decoded, frame)


@given(st.lists(frames, min_size=1, max_size=8))
@settings(max_examples=50)
def test_datagram_roundtrip(bundle):
    decoded = decode_datagram(encode_datagram(bundle))
    assert len(decoded) == len(bundle)
    for got, sent in zip(decoded, bundle):
        assert _same_frame(got, sent)


def _normalize(fields):
    """Tuples decode as lists; normalize expectations accordingly."""

    def norm(value):
        if isinstance(value, tuple):
            return [norm(v) for v in value]
        if isinstance(value, list):
            return [norm(v) for v in value]
        if isinstance(value, dict):
            return {k: norm(v) for k, v in value.items()}
        if isinstance(value, bytearray):
            return bytes(value)
        return value

    return {k: norm(v) for k, v in fields.items()}


addressed_frames = st.builds(
    Frame,
    kind=st.sampled_from([KIND_DATA, KIND_ACK]),
    src_site=st.integers(0, 0xFFFF),
    dst_site=st.integers(0, 0xFFFF),
    epoch=st.integers(0, 0xFF),
    seq=st.integers(0, 2**32 - 1),
    ack=st.integers(-(2**31), 2**31 - 1),
    payload=st.binary(max_size=64),
    dst_epoch=st.integers(0, 0xFF),
    blind=st.booleans(),
)


@given(addressed_frames)
def test_addressed_frame_roundtrip_keeps_both_incarnations(frame):
    """The receiver incarnation rides the high byte of the epoch field:
    the header does not grow."""
    buf = encode_frame(frame)
    assert len(buf) == FRAME_WIRE_HEADER_BYTES + len(frame.payload)
    decoded, _ = decode_frame(buf)
    assert _same_frame(decoded, frame)
    assert (decoded.dst_epoch, decoded.blind) == (frame.dst_epoch, frame.blind)


# -- Address against a plain-tuple reference -----------------------------
# The dataclass ``Address`` compared, hashed and sorted as its field
# tuple; the slot class must too, or seeded trajectories move.

field_tuples = st.tuples(
    st.integers(0, 0xFFFF),
    st.integers(0, 0xFF),
    st.integers(0, 0xFFFF),
    st.integers(0, 0xFF),
    st.booleans(),
    st.booleans(),
)

#: (field index, an out-of-range value) for the four ranged fields.
out_of_range = st.one_of(
    st.tuples(st.just(0), st.one_of(st.integers(max_value=-1),
                                    st.integers(min_value=0x10000))),
    st.tuples(st.just(1), st.one_of(st.integers(max_value=-1),
                                    st.integers(min_value=0x100))),
    st.tuples(st.just(2), st.one_of(st.integers(max_value=-1),
                                    st.integers(min_value=0x10000))),
    st.tuples(st.just(3), st.one_of(st.integers(max_value=-1),
                                    st.integers(min_value=0x100))),
)


@given(st.lists(field_tuples, min_size=1, max_size=12))
@settings(max_examples=200)
def test_address_orders_and_hashes_as_its_field_tuple(refs):
    addrs = [Address(*ref) for ref in refs]
    for addr, ref in zip(addrs, refs):
        assert hash(addr) == hash(ref)
        assert (addr.site, addr.incarnation, addr.local_id, addr.entry,
                addr.is_group, addr.is_null) == ref
    for a, ra in zip(addrs, refs):
        for b, rb in zip(addrs, refs):
            assert (a == b) == (ra == rb)
            assert (a < b) == (ra < rb)
            assert (a <= b) == (ra <= rb)
    ranks = sorted(range(len(refs)), key=lambda i: (refs[i], i))
    assert sorted(range(len(addrs)), key=lambda i: (addrs[i], i)) == ranks
    # Set iteration order follows the hash, so it must match too.
    assert [(a.site, a.incarnation, a.local_id, a.entry, a.is_group,
             a.is_null) for a in set(addrs)] == list(set(refs))


@given(field_tuples, st.integers(0, 0xFF))
def test_address_is_immutable_and_derives_consistently(ref, entry):
    addr = Address(*ref)
    for name in ("site", "incarnation", "local_id", "entry", "is_group",
                 "is_null"):
        with pytest.raises(AttributeError):
            setattr(addr, name, 0)
    assert Address(*ref) == addr
    moved = addr.with_entry(entry)
    assert moved == Address(*ref[:3], entry, *ref[4:])
    proc = addr.process()
    assert proc == Address(*ref[:3], 0, *ref[4:])
    assert proc.process() is proc
    if ref[3] == 0:
        assert proc is addr
    assert addr.same_process(moved)


@given(field_tuples, out_of_range)
def test_address_rejects_out_of_range_fields(ref, bad):
    index, value = bad
    fields = list(ref)
    fields[index] = value
    with pytest.raises(AddressError):
        Address(*fields)
    if index == 3:
        with pytest.raises(AddressError):
            Address(*ref).with_entry(value)
    if index != 1:
        with pytest.raises(AddressError):
            make_process_address(*fields[:4])
    if index in (0, 2, 3):
        with pytest.raises(AddressError):
            make_group_address(fields[0], fields[2], fields[3])


@given(field_tuples, st.integers(0, 16))
def test_address_unpack_cache_is_transparent(ref, length):
    addr = Address(*ref)
    raw = addr.pack()
    assert len(raw) == ADDRESS_SIZE
    decoded = Address.unpack(raw)
    assert decoded == addr and hash(decoded) == hash(addr)
    assert Address.unpack(raw) == addr
    if length != ADDRESS_SIZE:
        # The 8-byte form is cached now; other lengths still fail.
        with pytest.raises(AddressError):
            Address.unpack((raw * 3)[:length])
    assert len(address_module._UNPACKED) <= address_module.UNPACK_CACHE_SIZE
