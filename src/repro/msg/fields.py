"""Typed field values and their binary wire encoding.

§4.1: *"a message is represented as a symbol table containing multiple
fields, each having a name, type, and variable length data ... A field can
even contain another message."*

Supported field types and their wire tags:

====== ============ =====================================================
tag     python       payload encoding (big-endian)
====== ============ =====================================================
0       None         (empty)
1       bool         1 byte
2       int          8-byte signed
3       float        8-byte IEEE double
4       str          u32 length + UTF-8 bytes
5       bytes        u32 length + raw bytes
6       Address      8 packed bytes
7       Message      u32 length + encoded message (recursive)
8       list/tuple   u32 count + encoded values (recursive)
9       dict         u32 count + (u16 keylen + key utf8 + value) pairs
====== ============ =====================================================
"""

from __future__ import annotations

import struct
from typing import Any, Tuple

from ..errors import CodecError
from .address import ADDRESS_SIZE, Address

#: The message class, for nested ``T_MSG`` values.  ``message.py``
#: imports this module, so it binds the class here once the class is
#: defined; the codec functions read it as an ordinary global.
Message: Any = None

T_NONE = 0
T_BOOL = 1
T_INT = 2
T_FLOAT = 3
T_STR = 4
T_BYTES = 5
T_ADDR = 6
T_MSG = 7
T_LIST = 8
T_DICT = 9

_U32 = struct.Struct(">I")
_U16 = struct.Struct(">H")
_I64 = struct.Struct(">q")
_F64 = struct.Struct(">d")


def encode_value(value: Any) -> bytes:
    """Encode one field value, including its leading type tag."""
    if value is None:
        return bytes([T_NONE])
    if isinstance(value, bool):  # must precede int: bool is an int subtype
        return bytes([T_BOOL, 1 if value else 0])
    if isinstance(value, int):
        try:
            return bytes([T_INT]) + _I64.pack(value)
        except struct.error as err:
            raise CodecError(f"integer {value} exceeds 64 bits") from err
    if isinstance(value, float):
        return bytes([T_FLOAT]) + _F64.pack(value)
    if isinstance(value, str):
        raw = value.encode("utf-8")
        return bytes([T_STR]) + _U32.pack(len(raw)) + raw
    if isinstance(value, (bytes, bytearray)):
        raw = bytes(value)
        return bytes([T_BYTES]) + _U32.pack(len(raw)) + raw
    if isinstance(value, Address):
        return bytes([T_ADDR]) + value.pack()
    if isinstance(value, Message):
        raw = value.encode()
        return bytes([T_MSG]) + _U32.pack(len(raw)) + raw
    if isinstance(value, (list, tuple)):
        parts = [bytes([T_LIST]), _U32.pack(len(value))]
        parts.extend(encode_value(item) for item in value)
        return b"".join(parts)
    if isinstance(value, dict):
        parts = [bytes([T_DICT]), _U32.pack(len(value))]
        for key, item in value.items():
            if not isinstance(key, str):
                raise CodecError(f"dict keys must be str, got {key!r}")
            raw_key = key.encode("utf-8")
            if len(raw_key) > 0xFFFF:
                raise CodecError(f"dict key too long: {key[:32]!r}...")
            parts.append(_U16.pack(len(raw_key)))
            parts.append(raw_key)
            parts.append(encode_value(item))
        return b"".join(parts)
    raise CodecError(f"unencodable field value of type {type(value).__name__}")


def decode_value(data: bytes, offset: int) -> Tuple[Any, int]:
    """Decode one value at ``offset``; return (value, next_offset)."""
    if offset >= len(data):
        raise CodecError("truncated value: missing type tag")
    tag = data[offset]
    offset += 1
    if tag == T_NONE:
        return None, offset
    if tag == T_BOOL:
        _need(data, offset, 1)
        return data[offset] != 0, offset + 1
    if tag == T_INT:
        _need(data, offset, 8)
        return _I64.unpack_from(data, offset)[0], offset + 8
    if tag == T_FLOAT:
        _need(data, offset, 8)
        return _F64.unpack_from(data, offset)[0], offset + 8
    if tag == T_STR:
        raw, offset = _read_block(data, offset)
        return raw.decode("utf-8"), offset
    if tag == T_BYTES:
        return _read_block(data, offset)
    if tag == T_ADDR:
        _need(data, offset, ADDRESS_SIZE)
        addr = Address.unpack(data[offset:offset + ADDRESS_SIZE])
        return addr, offset + ADDRESS_SIZE
    if tag == T_MSG:
        raw, offset = _read_block(data, offset)
        return Message.decode(raw), offset
    if tag == T_LIST:
        _need(data, offset, 4)
        count = _U32.unpack_from(data, offset)[0]
        offset += 4
        items = []
        for _ in range(count):
            item, offset = decode_value(data, offset)
            items.append(item)
        return items, offset
    if tag == T_DICT:
        _need(data, offset, 4)
        count = _U32.unpack_from(data, offset)[0]
        offset += 4
        out = {}
        for _ in range(count):
            _need(data, offset, 2)
            key_len = _U16.unpack_from(data, offset)[0]
            offset += 2
            _need(data, offset, key_len)
            key = data[offset:offset + key_len].decode("utf-8")
            offset += key_len
            out[key], offset = decode_value(data, offset)
        return out, offset
    raise CodecError(f"unknown field type tag {tag}")


# ----------------------------------------------------------------------
# Have-vector piggyback codec
# ----------------------------------------------------------------------
# Stability information (per-origin-site "highest contiguous gseq
# received") rides on data and ack envelopes, so it must be cheap:
# a sorted run of (site, top) pairs, sites delta-encoded, everything in
# unsigned LEB128 varints.  A 4-site vector costs ~9 bytes instead of
# the ~80 a generic dict field would.


def modular_newer(a: int, b: int, modulus: int = 256) -> bool:
    """Is bounded counter ``a`` newer than ``b`` under wraparound?

    Bounded-counter comparison (Salem & Schiller): with counters that
    wrap modulo ``modulus``, ``a`` is *newer* than ``b`` when it lies in
    the forward half-window ``(b, b + modulus/2)``.  Site incarnations
    (one address byte) and the transport epochs derived from them use
    this instead of ``>`` so a site may restart more than 255 times.
    """
    return 0 < (a - b) % modulus < modulus // 2


def encode_uvarint(n: int) -> bytes:
    """Unsigned LEB128."""
    if n < 0:
        raise CodecError(f"uvarint cannot encode negative value {n}")
    out = bytearray()
    while True:
        byte = n & 0x7F
        n >>= 7
        if n:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def decode_uvarint(data: bytes, offset: int) -> Tuple[int, int]:
    """Inverse of :func:`encode_uvarint`; returns (value, next_offset)."""
    result = 0
    shift = 0
    while True:
        if offset >= len(data):
            raise CodecError("truncated uvarint")
        byte = data[offset]
        offset += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, offset
        shift += 7
        if shift > 63:
            raise CodecError("uvarint exceeds 64 bits")


def encode_have_vector(have: "dict[int, int]") -> bytes:
    """Compact encoding of a per-origin-site have-vector.

    Sites are delta-encoded in sorted order, values are varints.  The
    same codec carries flat-mode piggybacks/announcements and the
    tree-mode aggregation frames (``g.stab.up``'s subtree minimum and
    ``g.stab.dn``'s global stable cut — see ``core/tree.py``'s
    ``min_merge_have_vectors``).
    """
    parts = [encode_uvarint(len(have))]
    prev_site = 0
    for site in sorted(have):
        if site < 0 or have[site] < 0:
            raise CodecError(f"have-vector entries must be >= 0: "
                             f"{site}:{have[site]}")
        parts.append(encode_uvarint(site - prev_site))
        parts.append(encode_uvarint(have[site]))
        prev_site = site
    return b"".join(parts)


def diff_have_vector(prev: "dict[int, int]",
                     cur: "dict[int, int]") -> "dict[int, int]":
    """Entries of ``cur`` that advanced past ``prev``.

    Have-vectors are monotone within a view and receivers max-merge what
    they learn, so piggybacking only the advanced entries (delta against
    the last vector sent to that peer) is always safe — a peer that
    misses a delta merely trims later, repaired by the next full vector
    (announcements and fallback rounds are never delta-encoded).
    """
    return {site: top for site, top in cur.items()
            if top > prev.get(site, 0)}


def exact_diff_have_vector(base: "dict[int, int]",
                           cur: "dict[int, int]") -> "dict[int, int]":
    """Entries of ``cur`` that *differ* from ``base`` — in either
    direction.

    Unlike :func:`diff_have_vector` (monotone piggyback deltas, where a
    subset is always safe), this diff supports exact reconstruction:
    ``base`` overridden by the returned entries equals ``cur`` (entries
    at 0 mark origins present in ``base`` but absent from ``cur``).
    Used by fast-flush reports, where a participant's have-vector may
    also be *behind* the coordinator's announced base union.
    """
    out = {}
    for origin in set(base) | set(cur):
        mine = cur.get(origin, 0)
        if mine != base.get(origin, 0):
            out[origin] = mine
    return out


def apply_have_diff(base: "dict[int, int]",
                    diff: "dict[int, int]") -> "dict[int, int]":
    """Inverse of :func:`exact_diff_have_vector`: reconstruct ``cur``."""
    out = dict(base)
    out.update(diff)
    return {origin: top for origin, top in out.items() if top > 0}


def decode_have_vector(data: bytes) -> "dict[int, int]":
    """Inverse of :func:`encode_have_vector`."""
    count, offset = decode_uvarint(data, 0)
    out: "dict[int, int]" = {}
    site = 0
    for _ in range(count):
        delta, offset = decode_uvarint(data, offset)
        top, offset = decode_uvarint(data, offset)
        site += delta
        out[site] = top
    if offset != len(data):
        raise CodecError(f"{len(data) - offset} trailing bytes after "
                         "have-vector")
    return out


def _need(data: bytes, offset: int, count: int) -> None:
    if offset + count > len(data):
        raise CodecError(
            f"truncated value: need {count} bytes at offset {offset}, "
            f"have {len(data) - offset}"
        )


def _read_block(data: bytes, offset: int) -> Tuple[bytes, int]:
    _need(data, offset, 4)
    length = _U32.unpack_from(data, offset)[0]
    offset += 4
    _need(data, offset, length)
    return data[offset:offset + length], offset + length
