"""Vector timestamps for causal (CBCAST) delivery.

The paper's CBCAST implementation piggybacked buffered messages
([Birman-a]); we track *potential causality* (§3.1, after [Lamport-b])
with vector clocks instead — the delivery **semantics** are identical
(see DESIGN.md, substitutions table).

Per group, each kernel keeps the vector of CBCAST sequence numbers it has
delivered, indexed by sending member.  A CBCAST carries

* its own per-sender sequence number within the group, and
* the sender's *causal context*: a map ``group → delivered-vector``
  snapshot taken at send time (covering every group the sender belongs
  to, so causality created by multi-group chains is honoured for common
  members).

Delivery rule for message ``m`` from sender ``p`` in group ``g``:

1. FIFO: ``m.seq == delivered_g[p] + 1``;
2. Causality: for every group ``h`` in ``m.ctx`` that we belong to, our
   delivered vector in ``h`` dominates ``m.ctx[h]`` (restricted to
   current members — departed members' messages were flushed before the
   view we are in).
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Optional, Tuple

from ..errors import CodecError
from ..msg.address import ADDRESS_SIZE, Address
from ..msg.fields import decode_uvarint, encode_uvarint


class VectorClock:
    """Mutable map Address → int with lattice operations."""

    __slots__ = ("_clock",)

    def __init__(self, initial: Optional[Mapping[Address, int]] = None):
        self._clock: Dict[Address, int] = dict(initial or {})

    def get(self, member: Address) -> int:
        return self._clock.get(member.process(), 0)

    def set(self, member: Address, value: int) -> None:
        self._clock[member.process()] = value

    def increment(self, member: Address) -> int:
        """Bump and return the member's counter."""
        key = member.process()
        self._clock[key] = self._clock.get(key, 0) + 1
        return self._clock[key]

    def merge(self, other: "VectorClock") -> None:
        """Pointwise maximum (join)."""
        for member, value in other._clock.items():
            if value > self._clock.get(member, 0):
                self._clock[member] = value

    def first_deficit(
        self, other: "VectorClock",
    ) -> Optional[Tuple[Address, int]]:
        """First ``(member, value)`` of ``other`` not yet covered by self.

        Returns None when ``self`` dominates ``other``.  The scan order is
        ``other``'s (deterministic) insertion order, so repeated calls as
        ``self`` advances walk the deficits one threshold at a time —
        this is what the kernel's WaitIndex registers delivery waits on.
        """
        clock = self._clock
        for member, value in other._clock.items():
            if clock.get(member, 0) < value:
                return member, value
        return None

    def dominates(self, other: "VectorClock",
                  restrict_to: Optional[Iterable[Address]] = None) -> bool:
        """self >= other pointwise (optionally over a member subset)."""
        if restrict_to is None:
            items = other._clock.items()
        else:
            keys = {m.process() for m in restrict_to}
            items = [(k, v) for k, v in other._clock.items() if k in keys]
        return all(self._clock.get(member, 0) >= value for member, value in items)

    def restrict(self, members: Iterable[Address]) -> "VectorClock":
        """Copy containing only the given members' entries."""
        keys = {m.process() for m in members}
        return VectorClock(
            {m: v for m, v in self._clock.items() if m in keys}
        )

    def copy(self) -> "VectorClock":
        return VectorClock(self._clock)

    def drop(self, member: Address) -> None:
        self._clock.pop(member.process(), None)

    # -- wire form --------------------------------------------------------
    def to_value(self) -> Dict[str, int]:
        """Message-embeddable form (addresses hex-packed as dict keys)."""
        return {m.pack().hex(): v for m, v in self._clock.items()}

    @classmethod
    def from_value(cls, value: Mapping[str, int]) -> "VectorClock":
        return cls({
            Address.unpack(bytes.fromhex(key)): v for key, v in value.items()
        })

    def items(self):
        return self._clock.items()

    def __len__(self) -> int:
        return len(self._clock)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VectorClock):
            return NotImplemented
        keys = set(self._clock) | set(other._clock)
        return all(
            self._clock.get(k, 0) == other._clock.get(k, 0) for k in keys
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = ", ".join(f"{m}:{v}" for m, v in sorted(
            self._clock.items(), key=lambda kv: str(kv[0])))
        return f"VC({parts})"


# ----------------------------------------------------------------------
# Compact binary context codec (delta-chained)
# ----------------------------------------------------------------------
# A causal context maps gid -> (view_id, VectorClock).  Delivered vectors
# reset at every view change (the flush has already delivered everything
# older), so an entry is only comparable against the *same* view: the
# view id rides along.  A generic nested-dict field would cost ~45
# bytes per vector-clock entry (hex-string keys, dict framing), and at
# scale the ``cb_ctx`` header would dominate CBCAST frame bytes.  This
# codec packs addresses raw (8 bytes) and counters as LEB128 varints,
# and chains consecutive messages of one sender: message *n* carries
# only the entries that changed since message *n-1*.  The receiver
# reconstructs the absolute context at delivery time — per-sender FIFO
# delivery (``cb_seq`` contiguity) guarantees the predecessor context is
# always known.

Context = Dict[Address, Tuple[int, "VectorClock"]]

_CTX_FULL = 0
_CTX_DELTA = 1


def encode_context_compact(context: Context,
                           prev: Optional[Context] = None) -> bytes:
    """Binary context encoding; delta against ``prev`` when given.

    A delta entry for a group present in ``prev`` *with the same view*
    carries only the counters that changed; a group that is new or whose
    view advanced carries its full vector (the receiver replaces the
    whole entry, since vectors reset per view).  Groups absent from
    ``context`` but present in ``prev`` are listed as removals.
    """
    if prev is None:
        parts = [bytes([_CTX_FULL]), encode_uvarint(len(context))]
        for gid, (view_id, vc) in sorted(context.items(),
                                         key=lambda kv: kv[0].pack()):
            parts.append(_encode_ctx_entry(gid, view_id, dict(vc.items())))
        return b"".join(parts)
    entries = []
    for gid, (view_id, vc) in sorted(context.items(),
                                     key=lambda kv: kv[0].pack()):
        prev_entry = prev.get(gid)
        if prev_entry is not None and prev_entry[0] == view_id:
            prev_vc = prev_entry[1]
            changed = {m: c for m, c in vc.items() if prev_vc.get(m) != c}
            if changed:
                entries.append(_encode_ctx_entry(gid, view_id, changed))
        else:
            entries.append(_encode_ctx_entry(gid, view_id, dict(vc.items())))
    removed = [gid for gid in prev if gid not in context]
    parts = [bytes([_CTX_DELTA]), encode_uvarint(len(entries))]
    parts.extend(entries)
    parts.append(encode_uvarint(len(removed)))
    parts.extend(gid.pack() for gid in sorted(removed,
                                              key=lambda g: g.pack()))
    return b"".join(parts)


def _encode_ctx_entry(gid: Address, view_id: int,
                      counters: Dict[Address, int]) -> bytes:
    parts = [gid.pack(), encode_uvarint(view_id),
             encode_uvarint(len(counters))]
    for member, count in sorted(counters.items(), key=lambda kv: kv[0].pack()):
        parts.append(member.pack())
        parts.append(encode_uvarint(count))
    return b"".join(parts)


def decode_context_compact(data: bytes,
                           prev: Optional[Context] = None) -> Context:
    """Inverse of :func:`encode_context_compact`.

    ``prev`` must be the absolute context reconstructed from the same
    sender's previous message when ``data`` is a delta.  Unchanged
    entries alias ``prev``'s vector clocks, which is safe because
    reconstructed contexts are never mutated in place.
    """
    if not data:
        raise CodecError("empty compact context")
    kind = data[0]
    offset = 1
    if kind not in (_CTX_FULL, _CTX_DELTA):
        raise CodecError(f"unknown compact-context kind {kind}")
    if kind == _CTX_DELTA and prev is None:
        raise CodecError("delta context without a predecessor")
    count, offset = decode_uvarint(data, offset)
    out: Context = dict(prev) if kind == _CTX_DELTA else {}
    for _ in range(count):
        gid, view_id, counters, offset = _decode_ctx_entry(data, offset)
        prev_entry = out.get(gid)
        if (kind == _CTX_DELTA and prev_entry is not None
                and prev_entry[0] == view_id):
            vc = prev_entry[1].copy()
            for member, value in counters.items():
                vc.set(member, value)
        else:
            vc = VectorClock(counters)
        out[gid] = (view_id, vc)
    if kind == _CTX_DELTA:
        removed, offset = decode_uvarint(data, offset)
        for _ in range(removed):
            gid, offset = _read_address(data, offset)
            out.pop(gid, None)
    if offset != len(data):
        raise CodecError(f"{len(data) - offset} trailing bytes after "
                         "compact context")
    return out


def _decode_ctx_entry(data: bytes, offset: int):
    gid, offset = _read_address(data, offset)
    view_id, offset = decode_uvarint(data, offset)
    n, offset = decode_uvarint(data, offset)
    counters: Dict[Address, int] = {}
    for _ in range(n):
        member, offset = _read_address(data, offset)
        counters[member], offset = decode_uvarint(data, offset)
    return gid, view_id, counters, offset


def _read_address(data: bytes, offset: int) -> Tuple[Address, int]:
    if offset + ADDRESS_SIZE > len(data):
        raise CodecError("truncated address in compact context")
    addr = Address.unpack(data[offset:offset + ADDRESS_SIZE])
    return addr, offset + ADDRESS_SIZE
