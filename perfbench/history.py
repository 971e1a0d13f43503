"""Delivery history of a benchmark run and the correctness gate over it.

Every application process the benchmark starts is one *incarnation*: a
restarted site gets a new one.  An incarnation records the views it
installed and each message it delivered (directly, not replayed from its
write-ahead log), and keeps the application state that state transfer
and log replay carry between incarnations: a delivery count, an
order-free digest of the delivered set and a hash chain over the ABCAST
delivery order.

A multicast id is ``(site, gen, kind, k)``: the sending site, the
sender's incarnation number there, ``CBCAST`` or ``ABCAST``, and the
sender's per-kind sequence number.
"""

from __future__ import annotations

import struct
from typing import Callable, Dict, Iterable, List, Set, Tuple

CBCAST_KIND = 0
ABCAST_KIND = 1
KIND_NAMES = ("cbcast", "abcast")

Mid = Tuple[int, int, int, int]

_STATE = struct.Struct(">QQQ")
_MASK = (1 << 64) - 1


def _mix(x: int) -> int:
    """64-bit finaliser (splitmix64): a stable hash of an integer."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
    return x ^ (x >> 31)


def mid_hash(mid: Mid) -> int:
    site, gen, kind, k = mid
    return _mix((site << 48) ^ (gen << 40) ^ (kind << 32) ^ k)


class Incarnation:
    """One application process: its views, deliveries and state."""

    def __init__(self, site: int, gen: int, clock: Callable[[], float]):
        self.site = site
        self.gen = gen
        self.clock = clock
        self.views: List[int] = []
        #: Direct deliveries in order: (view id, mid, time).
        self.delivered: List[Tuple[int, Mid, float]] = []
        self.replayed = 0
        self.alive = True
        self.count = 0
        self.digest = 0
        self.chain = 0
        #: Called with (mid, now) for every direct delivery.
        self.on_direct: Callable[[Mid, float], None] = lambda mid, now: None

    @property
    def name(self) -> str:
        return f"s{self.site}.{self.gen}"

    def deliver(self, msg) -> None:
        mid = (msg["o"], msg["g"], msg["c"], msg["k"])
        self.count += 1
        self.digest ^= mid_hash(mid)
        if mid[2] == ABCAST_KIND:
            self.chain = _mix(self.chain ^ mid_hash(mid))
        if msg.get("_replay"):
            self.replayed += 1
            return
        now = self.clock()
        self.delivered.append((msg.view_id, mid, now))
        self.on_direct(mid, now)

    def on_view(self, view) -> None:
        if view is not None and (not self.views
                                 or self.views[-1] != view.view_id):
            self.views.append(view.view_id)

    def state(self) -> Tuple[int, int, int]:
        return (self.count, self.digest, self.chain)

    def encode_state(self) -> List[bytes]:
        return [_STATE.pack(self.count, self.digest, self.chain)]

    def decode_state(self, blocks: List[bytes]) -> None:
        if blocks:
            self.count, self.digest, self.chain = _STATE.unpack(blocks[0])


def check(incarnations: Iterable[Incarnation], issued: Iterable[Mid],
          live_senders: Set[Tuple[int, int]]) -> Tuple[Set[Mid], List[str]]:
    """The correctness gate.  Returns ``(failed mids, problems)``.

    ``live_senders`` are the ``(site, gen)`` senders that never crashed:
    every multicast they issued must reach every member.  The checks:

    * exactly once: no incarnation delivers a multicast twice;
    * per-sender FIFO for each kind;
    * delivered sets agree per view among the incarnations that were in
      the view and went on past it (installed a later view or were alive
      at the end);
    * one ABCAST order: every incarnation's ABCAST sequence is a
      subsequence of one order;
    * the incarnations alive at the end hold equal application state, so
      a restarted member equals the survivors, and every multicast a
      live sender issued, or any of them delivered, is in it.
    """
    incs = list(incarnations)
    failed: Set[Mid] = set()
    problems: List[str] = []

    def fail(what: str, mids: Iterable[Mid]) -> None:
        mids = set(mids)
        failed.update(mids)
        problems.append(f"{what} ({len(mids)} multicasts)")

    for inc in incs:
        seen: Set[Mid] = set()
        dup = [mid for _v, mid, _t in inc.delivered
               if mid in seen or seen.add(mid)]
        if dup:
            fail(f"{inc.name} delivered a multicast twice", dup)
        last: Dict[Tuple[int, int, int], int] = {}
        out_of_order = []
        for _v, mid, _t in inc.delivered:
            stream = mid[:3]
            if mid[3] <= last.get(stream, -1):
                out_of_order.append(mid)
            last[stream] = max(mid[3], last.get(stream, -1))
        if out_of_order:
            fail(f"{inc.name} broke per-sender FIFO", out_of_order)

    by_view: Dict[int, Dict[str, Set[Mid]]] = {}
    for inc in incs:
        finished = set(inc.views[:-1])
        if inc.alive and inc.views:
            finished.add(inc.views[-1])
        sets: Dict[int, Set[Mid]] = {v: set() for v in finished}
        for view_id, mid, _t in inc.delivered:
            if view_id in sets:
                sets[view_id].add(mid)
        for view_id, mids in sets.items():
            by_view.setdefault(view_id, {})[inc.name] = mids
    for view_id, sets in sorted(by_view.items()):
        union = set().union(*sets.values())
        for name, mids in sorted(sets.items()):
            if mids != union:
                fail(f"{name} delivered a different set in view {view_id}",
                     union ^ mids)

    order: List[Mid] = []
    for inc in incs:
        seq = [mid for _v, mid, _t in inc.delivered if mid[2] == ABCAST_KIND]
        if len(seq) > len(order):
            order = seq
    rank = {mid: i for i, mid in enumerate(order)}
    for inc in incs:
        prev = -1
        bad = []
        for _v, mid, _t in inc.delivered:
            if mid[2] != ABCAST_KIND:
                continue
            pos = rank.get(mid, -1)
            if pos < 0 and not inc.alive:
                continue  # delivered just before its site crashed
            if pos <= prev:
                bad.append(mid)
            prev = max(prev, pos)
        if bad:
            fail(f"{inc.name} disagrees on the ABCAST order", bad)

    survivors = [inc for inc in incs if inc.alive]
    states = {inc.state() for inc in survivors}
    if len(states) > 1:
        problems.append("members alive at the end hold different state: "
                        + ", ".join(f"{i.name}={i.count}" for i in survivors))
    owed = {mid for mid in issued if mid[:2] in live_senders}
    for inc in survivors:
        if inc.replayed or inc.gen:
            continue  # restarted: its state, checked above, stands for it
        got = {mid for _v, mid, _t in inc.delivered}
        owed |= got
    for inc in survivors:
        if inc.replayed or inc.gen:
            continue
        got = {mid for _v, mid, _t in inc.delivered}
        if got != owed:
            fail(f"{inc.name} missed multicasts", owed - got)
    if len(states) > 1 and not failed:
        failed.update(owed)
    return failed, problems
