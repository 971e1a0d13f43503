"""Executable specification of the paper's delivery guarantees.

A test records one :class:`History` per run: for every application
process, each multicast it sent (once its ``bcast`` call has returned)
and each message it delivered, with the group and the view it was
delivered in.  :meth:`History.violations` then checks the run against
the guarantees of §2.4 and of causal broadcast:

* **exactly once** — no process delivers a message twice, and a process
  alive at the end delivers every message it sent to a group it belongs
  to;
* **FIFO** — a process delivers the CBCASTs (and the ABCASTs) one sender
  sent to one group in the order they were sent;
* **total order** — any two processes deliver their common ABCASTs of
  a group in the same order;
* **virtual synchrony** — processes that survive a view of a group (they
  deliver in a later view of it, or are alive at the end) deliver the
  same set of messages in that view;
* **causal order** — if CBCAST *m1* happened before CBCAST *m2*, every
  process that delivers both delivers *m1* first.

Happened-before is Lamport's relation (Aspnes, *Notes on Theory of
Distributed Systems*, ch. "Logical clocks"), built from CBCAST events
only: *m1* → *m2* when the process that sent *m2* had sent or delivered
*m1* before it.  ABCAST deliveries do not extend it, because the causal
context a kernel stamps on a CBCAST (``ProtocolsProcess.causal_context``)
covers delivered CBCAST vectors only.

Each violation is one line naming the processes and messages involved,
so a failing assertion reads as a counterexample.  Processes are
assumed to stay in a group from the view they joined (or first delivered
in) until they fail; none of the workloads leaves a group while alive.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, Iterable, List, Optional, Set, Tuple

CBCAST = "cbcast"
ABCAST = "abcast"
GBCAST = "gbcast"

Mid = Hashable
Process = Hashable


class History:
    """Sends and deliveries of one run, in the order they happened."""

    def __init__(self) -> None:
        #: ("send" | "deliver", process, mid) in recording order.
        self._events: List[Tuple[str, Process, Mid]] = []
        #: mid -> (sender, kind, group) for every recorded send.
        self._sends: Dict[Mid, Tuple[Process, str, Any]] = {}
        #: (sender, kind, group) -> mids in send order.
        self._send_order: Dict[Tuple[Process, str, Any], List[Mid]] = {}
        #: process -> [(mid, kind, group, view_id)] in delivery order.
        self._deliveries: Dict[Process, List[Tuple[Mid, str, Any, int]]] = {}
        #: (process, group) -> first view id containing the process.
        self._joined: Dict[Tuple[Process, Any], int] = {}
        #: mid -> kind, for every multicast issued through :meth:`bcast`
        #: (also those whose call never returned: the sender failed).
        self._kinds: Dict[Mid, str] = {}

    # -- recording -----------------------------------------------------------
    def bcast(self, process: Process, isis, gid, entry: int, kind: str,
              mid: Mid, **fields: Any):
        """Multicast ``mid`` and record the send once the call returns.

        A generator for simulated tasks: ``yield from history.bcast(...)``.
        The message carries ``mid`` as its ``tag`` field and nothing else
        of the history's, so recording does not change a run's traffic.
        """
        self._kinds[mid] = kind
        yield isis.bcast(gid, entry, kind=kind, tag=mid, **fields)
        self.sent(process, mid, kind, gid.process())

    def sent(self, process: Process, mid: Mid, kind: str, group) -> None:
        self._sends[mid] = (process, kind, group)
        self._send_order.setdefault((process, kind, group), []).append(mid)
        self._events.append(("send", process, mid))

    def delivered(self, process: Process, mid: Mid, kind: str, group,
                  view_id: int) -> None:
        self._deliveries.setdefault(process, []).append(
            (mid, kind, group, view_id))
        self._events.append(("deliver", process, mid))

    def on_delivery(self, process: Process):
        """A handler for ``proc.bind`` recording messages sent via
        :meth:`bcast` as deliveries of ``process``."""
        def handler(msg) -> None:
            mid = msg["tag"]
            self.delivered(process, mid, self._kinds[mid],
                           msg.group.process(), msg.view_id)
        return handler

    def joined(self, process: Process, group, view_id: int) -> None:
        """``process`` joined ``group``; its first view is ``view_id``."""
        self._joined[(process, group)] = view_id

    # -- queries -------------------------------------------------------------
    def delivered_mids(self, process: Process) -> List[Mid]:
        return [d[0] for d in self._deliveries.get(process, [])]

    # -- checking ------------------------------------------------------------
    def check(self, final: Iterable[Process] = ()) -> None:
        """Raise AssertionError listing every violation (see module doc).

        ``final`` names the processes alive at the end of the run.
        """
        found = self.violations(final)
        if found:
            shown = "\n  ".join(found[:20])
            more = f"\n  ... {len(found) - 20} more" if len(found) > 20 else ""
            raise AssertionError(
                f"{len(found)} violation(s):\n  {shown}{more}")

    def violations(self, final: Iterable[Process] = ()) -> List[str]:
        final_set = set(final)
        out: List[str] = []
        out += self._exactly_once(final_set)
        out += self._fifo()
        out += self._total_order()
        out += self._same_set_per_view(final_set)
        out += self._causal_order()
        return out

    def _exactly_once(self, final: Set[Process]) -> List[str]:
        out = []
        seen: Dict[Process, Set[Mid]] = {}
        member_of: Dict[Process, Set[Any]] = {}
        for process, deliveries in self._deliveries.items():
            got = seen.setdefault(process, set())
            for mid, _, group, _ in deliveries:
                if mid in got:
                    out.append(f"exactly-once: {process} delivered {mid!r} "
                               "twice")
                got.add(mid)
                member_of.setdefault(process, set()).add(group)
        for mid, (sender, kind, group) in self._sends.items():
            if (sender in final and group in member_of.get(sender, ())
                    and mid not in seen[sender]):
                out.append(f"exactly-once: {sender} sent {kind} {mid!r} "
                           "and survived, but never delivered it")
        return out

    def _fifo(self) -> List[str]:
        out = []
        index = {mid: i for order in self._send_order.values()
                 for i, mid in enumerate(order)}
        for process, deliveries in self._deliveries.items():
            last: Dict[Tuple[Process, str, Any], Tuple[int, Mid]] = {}
            for mid, kind, _, _ in deliveries:
                send = self._sends.get(mid)
                if send is None or kind not in (CBCAST, ABCAST):
                    continue
                prev = last.get(send)
                if prev is not None and prev[0] > index[mid]:
                    out.append(f"fifo: {process} delivered {kind} {mid!r} "
                               f"after {prev[1]!r}, which {send[0]} sent "
                               "later")
                if prev is None or prev[0] < index[mid]:
                    last[send] = (index[mid], mid)
        return out

    def _total_order(self) -> List[str]:
        out = []
        orders: Dict[Any, Dict[Process, List[Mid]]] = {}
        for process, deliveries in self._deliveries.items():
            for mid, kind, group, _ in deliveries:
                if kind == ABCAST:
                    orders.setdefault(group, {}).setdefault(
                        process, []).append(mid)
        for group, by_process in orders.items():
            procs = sorted(by_process, key=repr)
            for i, p in enumerate(procs):
                for q in procs[i + 1:]:
                    common = set(by_process[p]) & set(by_process[q])
                    seq_p = [m for m in by_process[p] if m in common]
                    seq_q = [m for m in by_process[q] if m in common]
                    if seq_p != seq_q:
                        at = next(k for k, (a, b) in
                                  enumerate(zip(seq_p, seq_q)) if a != b)
                        out.append(
                            f"total order: in group {group} {p} delivered "
                            f"{seq_p[at]!r} where {q} delivered "
                            f"{seq_q[at]!r} (common ABCAST #{at})")
        return out

    def _same_set_per_view(self, final: Set[Process]) -> List[str]:
        out = []
        # group -> view -> process -> mids delivered in that view
        sets: Dict[Any, Dict[int, Dict[Process, Set[Mid]]]] = {}
        span: Dict[Tuple[Process, Any], List[int]] = {}
        for process, deliveries in self._deliveries.items():
            for mid, _, group, view_id in deliveries:
                sets.setdefault(group, {}).setdefault(view_id, {}).setdefault(
                    process, set()).add(mid)
                first_last = span.setdefault((process, group),
                                             [view_id, view_id])
                first_last[0] = min(first_last[0], view_id)
                first_last[1] = max(first_last[1], view_id)
        for (process, group), view_id in self._joined.items():
            first_last = span.setdefault((process, group), [view_id, -1])
            first_last[0] = min(first_last[0], view_id)
        for group, views in sets.items():
            for view_id in sorted(views):
                survivors = [
                    process for (process, g), (first, last) in span.items()
                    if g == group and first <= view_id
                    and (process in final or view_id < last)]
                by_process = views[view_id]
                reference: Optional[Tuple[Process, Set[Mid]]] = None
                for process in sorted(survivors, key=repr):
                    got = by_process.get(process, set())
                    if reference is None:
                        reference = (process, got)
                        continue
                    ref_proc, ref_set = reference
                    if got != ref_set:
                        only_ref = sorted(ref_set - got, key=repr)
                        only_got = sorted(got - ref_set, key=repr)
                        out.append(
                            f"virtual synchrony: in view {view_id} of group "
                            f"{group} {ref_proc} and {process} both survived "
                            f"but delivered different sets (only "
                            f"{ref_proc}: {only_ref[:3]}, only {process}: "
                            f"{only_got[:3]})")
        return out

    def _causal_order(self) -> List[str]:
        # Causal pasts as bitsets over CBCAST mids.
        kinds = {mid: send[1] for mid, send in self._sends.items()}
        for deliveries in self._deliveries.values():
            for mid, kind, _, _ in deliveries:
                kinds.setdefault(mid, kind)
        cbcasts = [mid for mid, kind in kinds.items() if kind == CBCAST]
        bit = {mid: 1 << i for i, mid in enumerate(cbcasts)}
        past_at_send: Dict[Mid, int] = {}
        past: Dict[Process, int] = {}
        for what, process, mid in self._events:
            if mid not in bit:
                continue
            if what == "send":
                past_at_send[mid] = past.get(process, 0)
                past[process] = past.get(process, 0) | bit[mid]
            else:
                past[process] = (past.get(process, 0) | bit[mid]
                                 | past_at_send.get(mid, 0))
        out = []
        for process, deliveries in self._deliveries.items():
            later = 0
            for mid, _, _, _ in reversed(deliveries):
                if mid not in bit:
                    continue
                early = past_at_send.get(mid, 0) & later
                if early:
                    first = cbcasts[(early & -early).bit_length() - 1]
                    out.append(f"causal order: {first!r} happened before "
                               f"{mid!r}, but {process} delivered "
                               f"{mid!r} first")
                later |= bit[mid]
        return out
