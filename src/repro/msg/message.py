"""The ISIS message: a symbol table of named, typed fields.

Fields can be inserted and deleted at will; *system fields* (names
beginning with ``_``) carry routing information — the sender's address
(which "cannot be forged": only the kernel writes it), the destination
list, the session id used to match replies with pending calls, and so on
(§4.1).  A field can contain another message, which the toolkit uses to
wrap payloads for forwarding.

Messages have a real binary encoding (:meth:`encode` / :meth:`decode`);
the transport fragments messages by *encoded* size, which is what makes
the Figure 2 throughput knee reproducible.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional

from ..errors import CodecError
from . import fields as _fields
from .address import Address
from .fields import (
    _U16,
    _U32,
    decode_have_vector,
    decode_value,
    encode_have_vector,
    encode_value,
)

# System field names.  Only kernel code should write these.
F_SENDER = "_sender"      # Address: set at send time, unforgeable
F_DESTS = "_dests"        # list[Address]: destination list as given
F_SESSION = "_session"    # int: matches replies to pending calls
F_ENTRY = "_entry"        # int: destination entry point
F_PROTO = "_proto"        # str: multicast protocol tag (cbcast/abcast/...)
F_REPLY_TO = "_reply_to"  # Address: where replies should go
F_VIEW_ID = "_view_id"    # int: view in which a group message is delivered
F_GROUP = "_group"        # Address: group this message was addressed to

_MAGIC = 0x49D2  # "ISis"


class Message:
    """Ordered mapping of field name → value with a binary codec."""

    __slots__ = ("_fields", "_encoded")

    def __init__(self, **fields: Any):
        self._fields: Dict[str, Any] = {}
        #: Cached wire bytes; an envelope fanned out to k destination
        #: sites (or packed into k batches) encodes once, not k times.
        self._encoded: Optional[bytes] = None
        for name, value in fields.items():
            self[name] = value

    # -- mapping interface ------------------------------------------------
    def __setitem__(self, name: str, value: Any) -> None:
        if not isinstance(name, str) or not name:
            raise CodecError(f"field name must be a non-empty str, got {name!r}")
        self._fields[name] = value
        self._encoded = None

    def __getitem__(self, name: str) -> Any:
        try:
            return self._fields[name]
        except KeyError:
            raise KeyError(f"message has no field {name!r}") from None

    def __delitem__(self, name: str) -> None:
        del self._fields[name]
        self._encoded = None

    def __contains__(self, name: str) -> bool:
        return name in self._fields

    def __iter__(self) -> Iterator[str]:
        return iter(self._fields)

    def __len__(self) -> int:
        return len(self._fields)

    def get(self, name: str, default: Any = None) -> Any:
        return self._fields.get(name, default)

    def fields(self) -> Dict[str, Any]:
        """Shallow copy of all fields."""
        return dict(self._fields)

    # -- system field accessors --------------------------------------------
    @property
    def sender(self) -> Optional[Address]:
        return self._fields.get(F_SENDER)

    @property
    def dests(self) -> List[Address]:
        return list(self._fields.get(F_DESTS, ()))

    @property
    def session(self) -> Optional[int]:
        return self._fields.get(F_SESSION)

    @property
    def entry(self) -> int:
        return self._fields.get(F_ENTRY, 0)

    @property
    def group(self) -> Optional[Address]:
        return self._fields.get(F_GROUP)

    @property
    def view_id(self) -> Optional[int]:
        return self._fields.get(F_VIEW_ID)

    # -- copying ------------------------------------------------------------
    def copy(self) -> "Message":
        """Independent copy (field values are shared, names are not)."""
        out = Message()
        out._fields = dict(self._fields)
        out._encoded = self._encoded  # identical fields, identical bytes
        return out

    # -- codec ----------------------------------------------------------------
    def encode(self) -> bytes:
        """Binary encoding: magic, field count, then name/value pairs.

        Cached until a field is inserted or deleted; like
        :attr:`size_bytes`, the cache does not observe in-place mutation
        of nested values (kernel code always copies before mutating).
        """
        if self._encoded is not None:
            return self._encoded
        parts = [_U16.pack(_MAGIC), _U16.pack(len(self._fields))]
        for name, value in self._fields.items():
            raw_name = name.encode("utf-8")
            if len(raw_name) > 0xFFFF:
                raise CodecError(f"field name too long: {name[:32]!r}...")
            parts.append(_U16.pack(len(raw_name)))
            parts.append(raw_name)
            parts.append(encode_value(value))
        self._encoded = b"".join(parts)
        return self._encoded

    @classmethod
    def decode(cls, data: bytes) -> "Message":
        """Inverse of :meth:`encode`."""
        if len(data) < 4:
            raise CodecError("message too short for header")
        magic = _U16.unpack_from(data, 0)[0]
        if magic != _MAGIC:
            raise CodecError(f"bad message magic {magic:#x}")
        count = _U16.unpack_from(data, 2)[0]
        offset = 4
        out = cls()
        for _ in range(count):
            if offset + 2 > len(data):
                raise CodecError("truncated field name length")
            name_len = _U16.unpack_from(data, offset)[0]
            offset += 2
            if offset + name_len > len(data):
                raise CodecError("truncated field name")
            name = data[offset:offset + name_len].decode("utf-8")
            offset += name_len
            value, offset = decode_value(data, offset)
            out._fields[name] = value
        if offset != len(data):
            raise CodecError(f"{len(data) - offset} trailing bytes after message")
        # The codec is canonical (field order and every value round-trip
        # exactly), so the input bytes ARE the encoding: re-encoding a
        # decoded message — loopback hops, refill re-sends — is free.
        out._encoded = bytes(data)
        return out

    @property
    def size_bytes(self) -> int:
        """Encoded size in bytes (cached until the message is mutated)."""
        return len(self.encode())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        keys = ", ".join(sorted(self._fields))
        return f"<Message [{keys}]>"


_fields.Message = Message


# ----------------------------------------------------------------------
# Envelope batch codec
# ----------------------------------------------------------------------
# A batch is one wire message carrying several group data envelopes bound
# for the same destination site, plus an optional piggybacked stability
# have-vector.  Envelopes are stored pre-encoded so packing and unpacking
# never re-walk nested field trees, and so the wire bytes of each
# envelope are exactly what an unbatched send would have produced.

#: Wire protocol tag for a packed envelope batch.
BATCH_PROTO = "g.batch"


def pack_batch(
    gid: Address,
    envelopes: List[Message],
    stab: Optional[Dict[int, int]] = None,
    stab_view: Optional[int] = None,
) -> Message:
    """Pack ``envelopes`` (in order) into one ``g.batch`` wire message.

    ``stab`` is a have-vector piggybacked alongside the data (present
    only when the sender has stability information to share); it is
    tagged with ``stab_view`` because have-vectors are meaningless
    across view changes (gseq counters restart per view).
    """
    if not envelopes:
        raise CodecError("cannot pack an empty envelope batch")
    msg = Message(
        _proto=BATCH_PROTO,
        gid=gid,
        envs=[env.encode() for env in envelopes],
    )
    if stab is not None:
        msg["stab"] = encode_have_vector(stab)
        msg["stab_view"] = stab_view
    return msg


def unpack_batch(
    msg: Message,
) -> "tuple[List[Message], Optional[Dict[int, int]], Optional[int]]":
    """Inverse of :func:`pack_batch`.

    Returns ``(envelopes, stab, stab_view)`` with envelope order
    preserved; ``stab`` is ``None`` when nothing was piggybacked.
    """
    if msg.get(F_PROTO) != BATCH_PROTO:
        raise CodecError(f"not a batch message: {msg.get(F_PROTO)!r}")
    envelopes = [Message.decode(bytes(raw)) for raw in msg["envs"]]
    stab = None
    if "stab" in msg:
        stab = decode_have_vector(bytes(msg["stab"]))
    return envelopes, stab, msg.get("stab_view")


def system_copy(msg: Message) -> Message:
    """Copy carrying only the *user* fields (drops routing state).

    Used when re-wrapping a payload for a new send: system fields must be
    re-stamped by the kernel, never inherited.
    """
    out = Message()
    for name, value in msg._fields.items():
        if not name.startswith("_"):
            out[name] = value
    return out
