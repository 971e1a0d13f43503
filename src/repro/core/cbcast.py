"""CBCAST delivery queue: causal order within and across groups.

See :mod:`repro.core.vectorclock` for the delivery rule.  This module
holds the per-group receiver state: the delivered vector and the queue of
messages waiting for causal predecessors.  The surrounding engine feeds
it received CBCASTs and drains whatever became deliverable.

The drain is dependency-indexed: pending messages are keyed by
``(sender, seq)``.  Delivering seq *k* of a sender wakes exactly
``(sender, k+1)``; a message whose cross-group causal context is
unsatisfied registers one precise wait threshold in the kernel's
:class:`~repro.core.shards.WaitIndex` and is woken only when that
threshold is crossed.  Each arrival or wake costs O(1) amortized,
independent of pending depth.

The drain evaluates *candidates* — pending messages whose blocking
condition may have cleared — in arrival order, so a message that
becomes deliverable together with an older arrival never overtakes it
and a seeded run always delivers in the same order.  The completeness
invariant is that every deliverable pending message is a candidate:
new arrivals are candidates, a FIFO-blocked message is woken by its
predecessor's delivery, and a context-blocked message always holds a
WaitIndex registration on the first threshold its context fails.
Causal order itself is checked against a happens-before history of
whole runs by the property suites, not against a second engine.
"""

from __future__ import annotations

import heapq
from typing import Callable, Dict, List, Optional, Set, Tuple

from ..msg.address import Address
from ..msg.message import Message
from .vectorclock import Context, VectorClock, decode_context_compact

#: A pending CBCAST is identified by (sender process, per-view seq).
PendingKey = Tuple[Address, int]


class CausalReceiver:
    """Receiver-side causal ordering for one group at one kernel.

    ``cb_ctx`` fields are delta-chained per sender: message *n* encodes
    only what changed since message *n-1*.  Because the FIFO rule
    already forces delivery in contiguous ``cb_seq`` order, the
    predecessor's absolute context is always known when a message
    becomes a delivery candidate; reconstructed contexts are cached per
    (sender, seq) so re-evaluating a blocked message never re-decodes.

    ``ctx_check(context, key)`` decides whether a cross-group causal
    context is satisfied at this kernel and, on failure, registers
    ``key`` against the first unsatisfied threshold so a later advance
    re-marks the message as a candidate (see
    ``ProtocolsProcess.check_context_and_register``).
    ``on_advance(sender, seq)`` tells the kernel this group's delivered
    vector advanced, waking cross-group waiters.
    """

    __slots__ = ("delivered", "_pending", "_ctx_chain", "_ctx_cache",
                 "_ctx_check", "_on_advance", "_arrival", "_next_arrival",
                 "_ready", "_ready_set", "_frozen", "peak_pending")

    def __init__(self, ctx_check: Callable[[Context, PendingKey], bool],
                 on_advance: Optional[Callable[[Address, int], None]] = None):
        #: Delivered CBCAST count per sending member (resets per view).
        self.delivered = VectorClock()
        self._ctx_check = ctx_check
        self._on_advance = on_advance
        #: (sender, seq) -> pending message.
        self._pending: Dict[PendingKey, Message] = {}
        #: (sender, seq) -> arrival index (drain evaluates in this order).
        self._arrival: Dict[PendingKey, int] = {}
        self._next_arrival = 0
        #: Min-heap of (arrival, key): candidates awaiting evaluation.
        self._ready: List[Tuple[int, PendingKey]] = []
        self._ready_set: Set[PendingKey] = set()
        #: Per-sender absolute context after their last delivered message.
        self._ctx_chain: Dict[Address, Context] = {}
        #: (sender, seq) -> reconstructed context awaiting delivery.
        self._ctx_cache: Dict[PendingKey, Context] = {}
        #: A flush commit fixed this view's message set (see drain_cut).
        self._frozen = False
        #: High-water mark of the pending buffer (kernel stats).
        self.peak_pending = 0

    def offer(self, msg: Message) -> List[Message]:
        """Feed one received CBCAST; return messages now deliverable, in order."""
        key = (msg["cb_sender"].process(), msg["cb_seq"])
        if key in self._pending:
            return []
        self._pending[key] = msg
        self._arrival[key] = self._next_arrival
        self._next_arrival += 1
        if len(self._pending) > self.peak_pending:
            self.peak_pending = len(self._pending)
        self.mark_candidate(key)
        return self._drain()

    def recheck(self) -> List[Message]:
        """Drain the candidates woken since the last drain."""
        return self._drain()

    def mark_candidate(self, key: PendingKey) -> bool:
        """A blocking condition for ``key`` may have cleared.

        Returns True if the message is pending here and was not already
        marked (the kernel uses this to decide whether a recheck pass is
        owed to this group).
        """
        if key not in self._pending or key in self._ready_set:
            return False
        self._ready_set.add(key)
        heapq.heappush(self._ready, (self._arrival[key], key))
        return True

    def _drain(self) -> List[Message]:
        out: List[Message] = []
        while self._ready:
            _, key = heapq.heappop(self._ready)
            self._ready_set.discard(key)
            msg = self._pending.get(key)
            if msg is None:
                continue  # stale wake: delivered or dropped meanwhile
            sender, seq = key
            if seq != self.delivered.get(sender) + 1:
                # FIFO-blocked: the predecessor's delivery re-marks it.
                continue
            context = self._context_of(msg, sender, seq)
            if not self._ctx_check(context, key):
                # Blocked on a cross-group threshold; ctx_check registered
                # the precise wait, whose crossing re-marks the candidate.
                continue
            # _deliver, inlined: one call fewer per CBCAST delivery.
            del self._pending[key]
            del self._arrival[key]
            self.delivered.set(sender, seq)
            self._advance_chain(msg)
            out.append(msg)
            successor = (sender, seq + 1)
            if successor in self._pending:
                self.mark_candidate(successor)
            if self._on_advance is not None:
                self._on_advance(sender, seq)
        return out

    def _deliver(self, key: PendingKey, msg: Message,
                 out: List[Message]) -> None:
        sender, seq = key
        del self._pending[key]
        del self._arrival[key]
        self.delivered.set(sender, seq)
        self._advance_chain(msg)
        out.append(msg)
        successor = (sender, seq + 1)
        if successor in self._pending:
            self.mark_candidate(successor)
        if self._on_advance is not None:
            self._on_advance(sender, seq)

    # -- flush cut -----------------------------------------------------------
    @property
    def frozen(self) -> bool:
        """Has a flush commit begun draining this view's cut?"""
        return self._frozen

    def cut_deficit(self, vc: VectorClock) -> Optional[Tuple[Address, int]]:
        """First threshold ``(member, seq)`` of ``vc`` a frozen cut still
        waits for: a threshold past a lost message names the first pending
        message before it, or is met if none is pending."""
        for member, value in vc.items():
            if self.delivered.get(member) < value:
                low = self._lowest_pending(member)
                if low is not None and low <= value:
                    return member, low
        return None

    def drain_cut(self, gid: Address,
                  others_ok: Callable[[Context, PendingKey], bool]
                  ) -> List[Message]:
        """Deliver the leftovers the frozen cut allows, in causal order.

        A leftover goes once no pending message precedes it: no earlier
        pending seq of its sender, none of the pending messages its
        context covers in this group (``gid``), and ``others_ok`` — the
        kernel's check of the other groups, which registers a wait on
        failure.  Candidates are tried in arrival order.  Leftovers that
        wait on another group stay pending; the caller holds the commit
        until they are woken.

        Draining freezes the receiver: every old-view message of the cut
        is here by now, so one that is neither delivered nor pending was
        lost with a failed sender and will never arrive; from now on only
        pending messages can still be awaited (see :meth:`cut_deficit`).
        """
        self._frozen = True
        out: List[Message] = []
        progress = True
        while progress and self._pending:
            progress = False
            for key in sorted(self._pending, key=self._arrival.__getitem__):
                sender, seq = key
                if self._lowest_pending(sender) != seq:
                    continue
                msg = self._pending[key]
                context = self._context_of(msg, sender, seq)
                own = context.get(gid)
                if own is not None and self.cut_deficit(own[1]) is not None:
                    continue
                others = {g: entry for g, entry in context.items()
                          if g != gid}
                if not others_ok(others, key):
                    continue
                self._deliver(key, msg, out)
                progress = True
                break
        return out

    def _lowest_pending(self, member: Address) -> Optional[int]:
        member = member.process()
        return min((seq for sender, seq in self._pending if sender == member),
                   default=None)

    def _context_of(self, msg: Message, sender: Address, seq: int) -> Context:
        raw = msg.get("cb_ctx")
        if raw is None:
            return {}
        key = (sender.process(), seq)
        context = self._ctx_cache.get(key)
        if context is None:
            base = self._ctx_chain.get(key[0])
            if base is None and self._frozen:
                # The sender's earlier messages were lost at the cut: the
                # delta decodes to a lower bound of its true context.
                base = {}
            context = decode_context_compact(bytes(raw), base)
            self._ctx_cache[key] = context
        return context

    def _advance_chain(self, msg: Message) -> None:
        """A message was delivered: its context becomes the chain base."""
        key = (msg["cb_sender"].process(), msg["cb_seq"])
        context = self._ctx_cache.pop(key, None)
        if context is not None:
            self._ctx_chain[key[0]] = context

    # -- view transitions ----------------------------------------------------
    def on_new_view(self) -> None:
        """Reset for a new view.

        The flush delivered every old-view message before the view was
        installed, so both the delivered vector and the pending queue
        restart from empty (per-view sequence numbers also restart).
        Context caches for every sender — including members that left —
        are evicted here: delta chains restart with the view's sequence
        numbers, so no entry can carry over.
        """
        self.delivered = VectorClock()
        self._pending.clear()
        self._ctx_chain.clear()
        self._ctx_cache.clear()
        self._arrival.clear()
        self._ready.clear()
        self._ready_set.clear()
        self._frozen = False

    @property
    def pending_count(self) -> int:
        return len(self._pending)

    def cache_sizes(self) -> Tuple[int, int]:
        """(ctx chain entries, ctx cache entries) — bounded-growth stats."""
        return len(self._ctx_chain), len(self._ctx_cache)
