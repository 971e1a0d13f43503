"""Process and group addresses.

§4.1 of the paper: *"ISIS supports a highly encoded process addressing
scheme that represents addresses using an 8-byte identifier.  Group
addresses can be used in any context where a process address is
acceptable."*

Our 8-byte layout (big-endian):

====== ======= =========================================================
offset  size   field
====== ======= =========================================================
0       1      flags (bit 0: group address; bit 1: null address)
1       2      site id
3       1      site incarnation (bumps on site restart)
4       2      local id (process number, or group number for groups)
6       1      entry point (routine selector within the process)
7       1      reserved (zero)
====== ======= =========================================================

Two addresses denote the same *process* when everything but the entry
byte matches; :meth:`Address.process` strips the entry.  Entries select
which bound routine receives a message (§4.1 "Entries").
"""

from __future__ import annotations

import struct
from typing import Dict, Optional

from ..errors import AddressError

_STRUCT = struct.Struct(">BHBHBB")
_FLAG_GROUP = 0x01
_FLAG_NULL = 0x02

ADDRESS_SIZE = 8

#: Generic entry numbers used by the toolkit itself (§4.1: "Some entry
#: points are generic ones used by the toolkit").  Application entries
#: must be >= ENTRY_USER_BASE.
ENTRY_DEFAULT = 0
ENTRY_JOIN = 1
ENTRY_VIEW_CHANGE = 2
ENTRY_CC_REPLY = 3       # GENERIC_CC_REPLY of §6
ENTRY_STATE_SEND = 4
ENTRY_STATE_RECV = 5
ENTRY_USER_BASE = 16

#: Most distinct wire forms :meth:`Address.unpack` remembers.  A run
#: names a few dozen processes, groups and entries; the bound only
#: keeps a hostile or corrupt byte stream from growing the cache.
UNPACK_CACHE_SIZE = 4096

#: 8 wire bytes -> the decoded address (cleared when it fills up).
_UNPACKED: Dict[bytes, "Address"] = {}

_set = object.__setattr__


class Address:
    """An 8-byte encodable process or group address.

    Immutable.  Everything derived from the fields is computed at most
    once per instance: the hash at construction, the wire bytes on the
    first :meth:`pack`, the entry-0 twin on the first :meth:`process`.

    The hash equals ``hash((site, incarnation, local_id, entry,
    is_group, is_null))`` on purpose.  Set and dict iteration order
    depends on it, and protocol code iterates sets of addresses (member
    lists, destinations), so any other hash would change which frame is
    sent first and move a seeded run's trajectory.
    """

    __slots__ = ("site", "incarnation", "local_id", "entry", "is_group",
                 "is_null", "_key", "_hash", "_packed", "_process")

    def __init__(self, site: int = 0, incarnation: int = 0,
                 local_id: int = 0, entry: int = 0,
                 is_group: bool = False, is_null: bool = False) -> None:
        _set(self, "site", site)
        _set(self, "incarnation", incarnation)
        _set(self, "local_id", local_id)
        _set(self, "entry", entry)
        _set(self, "is_group", is_group)
        _set(self, "is_null", is_null)
        self.__post_init__()
        key = (site, incarnation, local_id, entry, is_group, is_null)
        _set(self, "_key", key)
        _set(self, "_hash", hash(key))
        _set(self, "_packed", None)
        _set(self, "_process", None)

    def __post_init__(self) -> None:
        if not (0 <= self.site <= 0xFFFF):
            raise AddressError(f"site {self.site} out of range")
        if not (0 <= self.incarnation <= 0xFF):
            raise AddressError(f"incarnation {self.incarnation} out of range")
        if not (0 <= self.local_id <= 0xFFFF):
            raise AddressError(f"local_id {self.local_id} out of range")
        if not (0 <= self.entry <= 0xFF):
            raise AddressError(f"entry {self.entry} out of range")

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"Address is immutable: cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"Address is immutable: cannot delete {name!r}")

    def __reduce__(self):
        # copy and pickle rebuild through __init__: setattr is refused.
        return (Address, self._key)

    # -- identity ----------------------------------------------------------
    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object):
        if other.__class__ is Address:
            return self._key == other._key
        return NotImplemented

    def __lt__(self, other: object):
        if other.__class__ is Address:
            return self._key < other._key
        return NotImplemented

    def __le__(self, other: object):
        if other.__class__ is Address:
            return self._key <= other._key
        return NotImplemented

    def __gt__(self, other: object):
        if other.__class__ is Address:
            return self._key > other._key
        return NotImplemented

    def __ge__(self, other: object):
        if other.__class__ is Address:
            return self._key >= other._key
        return NotImplemented

    # -- encoding --------------------------------------------------------
    def pack(self) -> bytes:
        """Encode to the canonical 8-byte form."""
        packed = self._packed
        if packed is None:
            flags = (_FLAG_GROUP if self.is_group else 0) | (
                _FLAG_NULL if self.is_null else 0
            )
            packed = _STRUCT.pack(flags, self.site, self.incarnation,
                                  self.local_id, self.entry, 0)
            _set(self, "_packed", packed)
        return packed

    @classmethod
    def unpack(cls, data: bytes) -> "Address":
        """Decode from 8 bytes."""
        if len(data) != ADDRESS_SIZE:
            raise AddressError(f"address must be {ADDRESS_SIZE} bytes, got {len(data)}")
        key = bytes(data)
        addr = _UNPACKED.get(key)
        if addr is not None:
            return addr
        flags, site, inc, local_id, entry, _reserved = _STRUCT.unpack(key)
        addr = cls(site, inc, local_id, entry, bool(flags & _FLAG_GROUP),
                   bool(flags & _FLAG_NULL))
        if len(_UNPACKED) >= UNPACK_CACHE_SIZE:
            _UNPACKED.clear()
        _UNPACKED[key] = addr
        return addr

    # -- derivation ------------------------------------------------------
    def with_entry(self, entry: int) -> "Address":
        """Same destination, different entry point."""
        return Address(self.site, self.incarnation, self.local_id, entry,
                       self.is_group, self.is_null)

    def process(self) -> "Address":
        """Identity of the process/group, ignoring the entry byte."""
        proc: Optional[Address] = self._process
        if proc is None:
            if not self.entry:
                return self
            proc = Address(self.site, self.incarnation, self.local_id, 0,
                           self.is_group, self.is_null)
            _set(self, "_process", proc)
        return proc

    @classmethod
    def null(cls) -> "Address":
        """The distinguished null address."""
        return cls(is_null=True)

    # -- predicates -------------------------------------------------------
    def same_process(self, other: "Address") -> bool:
        """True if both addresses name the same process (or group)."""
        return self.process() == other.process()

    def __str__(self) -> str:
        if self.is_null:
            return "<null>"
        kind = "grp" if self.is_group else "proc"
        return f"{kind}:{self.site}.{self.incarnation}.{self.local_id}@{self.entry}"

    __repr__ = __str__


def make_process_address(site: int, incarnation: int, local_id: int,
                         entry: int = 0) -> Address:
    """Address of a process hosted at ``site``."""
    return Address(site=site, incarnation=incarnation, local_id=local_id,
                   entry=entry)


def make_group_address(creator_site: int, group_number: int,
                       entry: int = 0) -> Address:
    """Address of a process group, minted at group-creation time.

    The incarnation byte is unused for groups (a group survives site
    restarts through the membership protocol, not through incarnations).
    """
    return Address(site=creator_site, incarnation=0, local_id=group_number,
                   entry=entry, is_group=True)
