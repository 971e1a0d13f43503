"""Reliable FIFO site-to-site transport: one protocol, two I/O shells.

The multicast protocols of [Birman-a] assume that sites communicate over
channels that deliver messages reliably and in FIFO order despite packet
loss (§2.1: "Our system tolerates message loss").  This module provides
that substrate: a sliding-window, cumulative-ack, retransmit-on-timeout
protocol over a fair-loss link, with fragmentation of messages larger
than the MTU.

:class:`ReliableChannel` is the protocol, written once and free of I/O:
per-destination send windows with backlog and promise resolution, an
oldest-frame retransmission probe with exponential backoff, delayed,
urgent and piggybacked cumulative ACKs, reassembly, and epoch (peer
restart) handling.  Clock, timers and trace come from the driver's
:class:`~repro.runtime.driver.Scheduler`.  A driver shell supplies only:

* ``_wire(frame)`` — put a frame on the wire now; and
  ``_charge_send(frame, fn, *args)`` — run ``fn`` once ``frame``'s send
  cost is paid (``frame=None``: once already-queued sends have left);
* ``_charge_recv(frame, process)`` — pay an inbound frame's cost, then
  ``process(frame)``;
* ``max_rto`` — the retransmission backoff ceiling.

:class:`Transport` is the simulator shell: each frame charges the site's
:class:`~repro.sim.cpu.Cpu` on the sending and receiving sites, which is
how the Figure 2 utilization and throughput numbers arise, and travels
through the modeled :class:`~repro.net.lan.Lan`.  The UDP shell is
:class:`repro.net.udp.UdpTransport`.

Epochs: a restarting site gets a new incarnation number, and every
frame names both ends' incarnations.  Its ``epoch`` is the sender's; a
data frame's ``dst_epoch`` is the receiver incarnation its channel is
addressed to (``-1`` for a *blind* channel, opened before the sender had
heard from the receiver), and an ACK's is the incarnation whose data it
acknowledges.  A newer epoch on *any* inbound frame — data, ACK or raw —
means the peer restarted: both directions' channel state to it is
dropped and pending sends to it are rejected.  Frames from an older
incarnation, and frames addressed to one, are discarded; a data frame
addressed to a previous incarnation is answered with an ACK carrying the
current epoch, so the sender learns of the restart even if this site has
nothing else to say to it.  Blind and addressed channels from the same
sender incarnation never mix: once an addressed frame arrives, the blind
stream is over.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from typing import Any, Callable, Deque, Dict, Optional, Tuple

from ..errors import SiteDown
from ..msg.fields import modular_newer
from ..sim.core import Simulator
from ..sim.cpu import Cpu
from ..sim.tasks import Promise
from .lan import Lan
from .packet import KIND_ACK, KIND_DATA, KIND_RAW, Frame, Reassembler, fragment


class _SendChannel:
    """Sender-side state for one destination site."""

    __slots__ = ("peer_epoch", "next_seq", "unacked", "backlog", "retx_timer",
                 "msg_done", "rto", "wire_times")

    def __init__(self, base_rto: float) -> None:
        #: Receiver incarnation the channel is addressed to (-1: blind),
        #: bound when its first frame leaves: nothing is in flight yet.
        self.peer_epoch: Optional[int] = None
        self.next_seq = 0
        self.unacked: "OrderedDict[int, Frame]" = OrderedDict()
        self.backlog: Deque[Frame] = deque()
        self.retx_timer: Optional[Any] = None
        #: msg_id -> (last_seq, promise) resolved when last frame acked.
        self.msg_done: Dict[int, Tuple[int, Promise]] = {}
        #: Current retransmission timeout (exponential backoff on loss,
        #: reset on ack progress).
        self.rto = base_rto
        #: seq -> time the frame actually reached the wire.  A frame
        #: still queued behind the CPU must never be "retransmitted".
        self.wire_times: Dict[int, float] = {}


class _RecvChannel:
    """Receiver-side state for the current incarnation of one source."""

    __slots__ = ("blind", "expected", "out_of_order")

    def __init__(self, blind: bool) -> None:
        #: The sender's frames are unaddressed (it had not heard from us).
        self.blind = blind
        self.expected = 0
        self.out_of_order: Dict[int, Frame] = {}


class ReliableChannel:
    """One site's reliable ordered byte messages to its peers (no I/O).

    Parameters
    ----------
    sim:
        The driver's scheduler (``now``, ``call_after``, ``trace``).
    config:
        Supplies ``mtu``, ``window`` and the base ``rto``.
    on_message:
        ``on_message(src_site, data)`` invoked, in FIFO-per-source order,
        once a complete message has been reassembled.
    """

    #: Delayed-ACK window; ``0`` acknowledges every delivered batch.
    ack_delay = 0.0
    #: Retransmission backoff ceiling (seconds); set by the shell.
    max_rto: float

    def __init__(self, sim: Any, site_id: int, epoch: int, config: Any,
                 on_message: Callable[[int, bytes], None]):
        self.sim = sim
        self.site_id = site_id
        self.epoch = epoch
        self.config = config
        self.on_message = on_message
        #: Optional handler for unreliable datagrams (heartbeats).
        self.on_raw: Optional[Callable[[int, bytes], None]] = None
        self._send_channels: Dict[int, _SendChannel] = {}
        self._recv_channels: Dict[int, _RecvChannel] = {}
        #: Newest incarnation heard from each peer, on any frame.
        self._peer_epochs: Dict[int, int] = {}
        self._reassembler = Reassembler()
        self._next_msg_id = 0
        self._alive = True
        #: Delayed cumulative ACKs: dst site -> highest ack owed.
        self._ack_pending: Dict[int, int] = {}
        self._ack_timers: Dict[int, Any] = {}
        #: Per-endpoint wire counters (the global trace counters cannot
        #: attribute frames to a site; benchmarks and kernel stats can).
        self.msgs_sent = 0
        self.bytes_sent = 0
        self.frames_sent = 0
        self.frames_received = 0
        self.msgs_received = 0
        self.retransmits = 0
        self.acks_pure = 0          # stand-alone ACK frames sent
        self.acks_coalesced = 0     # data frames whose ACK merged into one
        self.acks_piggybacked = 0   # ACKs that rode reverse data

    # ------------------------------------------------------------------
    # Shell hooks
    # ------------------------------------------------------------------
    def _wire(self, frame: Frame) -> bool:
        """Put ``frame`` on the wire now.  True if it shares a datagram
        with frames already queued (an ACK riding data for free)."""
        raise NotImplementedError

    def _charge_send(self, frame: Optional[Frame], fn: Callable,
                     *args: Any) -> None:
        """Run ``fn(*args)`` once ``frame``'s send cost has been paid."""
        raise NotImplementedError

    def _charge_recv(self, frame: Frame,
                     process: Callable[[Frame], None]) -> None:
        """Pay for an inbound ACK or data frame, then ``process`` it."""
        raise NotImplementedError

    def _detach(self) -> None:
        """Stop receiving (crash or shutdown)."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def send(self, dst_site: int, data: bytes,
             piggyback: bool = False) -> Promise:
        """Queue ``data`` for reliable delivery to ``dst_site``.

        Returns a promise resolved when every fragment has been
        acknowledged (i.e. the message is stable at the destination), or
        rejected if the channel is torn down first.

        ``piggyback=True`` marks a copy that rides a hardware-broadcast
        transmission already paid for (the [Babaoglu] optimization of
        the paper's footnote 1): it is charged a token CPU cost instead
        of a full per-destination send.
        """
        if not self._alive:
            promise = Promise(label="send-on-dead-transport")
            promise.reject(SiteDown(f"site {self.site_id} is down"))
            return promise
        config = self.config
        channel = self._send_channels.get(dst_site)
        if channel is None:
            channel = self._send_channels[dst_site] = _SendChannel(config.rto)
        msg_id = self._next_msg_id
        self._next_msg_id += 1
        chunks = fragment(data, config.mtu)
        frames = []
        for index, chunk in enumerate(chunks):
            frames.append(
                Frame(
                    kind=KIND_DATA,
                    src_site=self.site_id,
                    dst_site=dst_site,
                    epoch=self.epoch,
                    seq=channel.next_seq,
                    msg_id=msg_id,
                    frag_index=index,
                    frag_total=len(chunks),
                    payload=chunk,
                    cheap=piggyback,
                )
            )
            channel.next_seq += 1
        promise = Promise(label=f"send:{self.site_id}->{dst_site}:{msg_id}")
        channel.msg_done[msg_id] = (frames[-1].seq, promise)
        self.sim.trace.bump("transport.messages")
        self.sim.trace.bump("transport.bytes", len(data))
        self.msgs_sent += 1
        self.bytes_sent += len(data)
        for frame in frames:
            if len(channel.unacked) < config.window:
                self._transmit(channel, frame)
            else:
                channel.backlog.append(frame)
        return promise

    def send_raw(self, dst_site: int, payload: bytes) -> None:
        """Fire-and-forget datagram: no ordering, no retransmission.

        Used for heartbeats, where a lost probe *should* look like
        silence rather than be masked by the reliable channel.  Raw
        frames bypass the send cost (the failure detector runs at
        kernel priority): §3.7 requires that an *overloaded* site not be
        mistaken for a dead one, so its probes must not queue behind its
        application traffic.
        """
        if not self._alive:
            return
        self._wire(Frame(
            kind=KIND_RAW,
            src_site=self.site_id,
            dst_site=dst_site,
            epoch=self.epoch,
            payload=payload,
        ))

    def _transmit(self, channel: _SendChannel, frame: Frame) -> None:
        channel.unacked[frame.seq] = frame
        # The retransmission timer arms when the frame actually reaches
        # the wire, not when it enters the send queue — otherwise a busy
        # sender would "time out" frames it has not yet transmitted and
        # melt down in a retransmission storm.
        self._charge_send(frame, self._put_on_wire, channel, frame)

    def _put_on_wire(self, channel: _SendChannel, frame: Frame) -> None:
        dst_site = frame.dst_site
        if not self._alive or self._send_channels.get(dst_site) is not channel:
            return  # crashed or reset while queued: the old seq must not leave
        if channel.peer_epoch is None:
            channel.peer_epoch = self._peer_epochs.get(dst_site, -1)
        frame.dst_epoch = channel.peer_epoch
        if frame.dst_epoch >= 0 and dst_site in self._ack_pending:
            # Reverse-direction data absorbs the delayed ACK entirely.  A
            # blind frame could reach another incarnation than the one
            # the ACK is owed to, so only an addressed one carries it.
            frame.ack = self._ack_pending.pop(dst_site)
            frame.blind = self._recv_channels[dst_site].blind
            self._cancel_ack_timer(dst_site)
            self.acks_piggybacked += 1
            self.sim.trace.bump("transport.acks_piggybacked")
        self._wire(frame)
        channel.wire_times.setdefault(frame.seq, self.sim.now)
        self._arm_retransmit(channel, dst_site)

    def _arm_retransmit(self, channel: _SendChannel, dst_site: int) -> None:
        if channel.retx_timer is not None or not channel.unacked:
            return
        channel.retx_timer = self.sim.call_after(
            channel.rto, self._retransmit, dst_site
        )

    def _retransmit(self, dst_site: int) -> None:
        """Probe with the *oldest transmitted* unacked frame only.

        Frames still queued behind the sender have not been lost — they
        have not even been sent; retransmitting whole windows under load
        is how congestion collapse happens.  A cumulative ack for the
        probe confirms (or advances past) everything behind it.
        """
        channel = self._send_channels.get(dst_site)
        if channel is None:
            return
        channel.retx_timer = None
        if not self._alive or not channel.unacked:
            return
        oldest_seq = next(iter(channel.unacked))
        sent_at = channel.wire_times.get(oldest_seq)
        if sent_at is None:
            # Not on the wire yet: check again once it has left.
            self._charge_send(None, self._arm_retransmit, channel, dst_site)
            return
        age = self.sim.now - sent_at
        if age < channel.rto * 0.9:
            channel.retx_timer = self.sim.call_after(
                channel.rto - age, self._retransmit, dst_site)
            return
        self.sim.trace.bump("transport.retransmits")
        self.retransmits += 1
        channel.rto = min(channel.rto * 2, self.max_rto)
        frame = channel.unacked[oldest_seq]
        channel.wire_times[oldest_seq] = self.sim.now
        # A retransmission is a point-to-point send: full cost, even for
        # a copy that first rode a hardware broadcast.
        frame.cheap = False
        self._charge_send(frame, self._put_on_wire, channel, frame)
        self._arm_retransmit(channel, dst_site)

    # ------------------------------------------------------------------
    # Receiving
    # ------------------------------------------------------------------
    def _on_frame(self, frame: Frame) -> None:
        if not self._alive:
            return
        self.frames_received += 1
        if frame.kind == KIND_RAW:
            self._process_raw(frame)  # kernel priority: see send_raw
        elif frame.kind == KIND_ACK:
            self._charge_recv(frame, self._process_ack)
        else:
            self._charge_recv(frame, self._process_data)

    def _admit(self, frame: Frame) -> bool:
        """Epoch gate for every inbound frame; detects peer restarts.

        Epochs wrap modulo 256 with the incarnation byte, so newness is
        a modular half-window, not ``>``.
        """
        src = frame.src_site
        known = self._peer_epochs.get(src)
        if known == frame.epoch:
            return True
        if known is None or modular_newer(frame.epoch, known):
            self._peer_epochs[src] = frame.epoch
            if known is not None:
                # The peer restarted.  Traffic to the dead incarnation is
                # abandoned (the fresh one would drop it as misaddressed)
                # and outbound numbering restarts with a new channel.
                self.sim.trace.bump("transport.peer_restarts")
                self.reset_channel(src)
                self._drop_recv(src)
            return True
        self.sim.trace.bump("transport.stale_epoch")
        return False

    def _drop_recv(self, src: int) -> None:
        """Forget a finished inbound stream, including any ACK still owed
        to it — replaying that against a newer stream's send channel
        would silently "acknowledge" frames we never received."""
        self._recv_channels.pop(src, None)
        self._reassembler.forget((src,))
        self._ack_pending.pop(src, None)
        self._cancel_ack_timer(src)

    def _process_raw(self, frame: Frame) -> None:
        if self._admit(frame) and self.on_raw is not None:
            self.on_raw(frame.src_site, frame.payload)

    def _process_ack(self, frame: Frame) -> None:
        if not self._admit(frame) or frame.dst_epoch != self.epoch:
            return  # from, or owed to, another incarnation
        self._apply_ack(frame)

    def _apply_ack(self, frame: Frame) -> None:
        """Apply an admitted ACK to the send channel it acknowledges."""
        channel = self._send_channels.get(frame.src_site)
        if channel is None or channel.peer_epoch != (
                -1 if frame.blind else frame.epoch):
            return
        ack = frame.ack
        progressed = any(s <= ack for s in channel.unacked)
        if progressed:
            channel.rto = self.config.rto  # backoff resets on progress
        for seq in [s for s in channel.unacked if s <= ack]:
            del channel.unacked[seq]
            channel.wire_times.pop(seq, None)
        for msg_id in [
            m for m, (last_seq, _) in channel.msg_done.items() if last_seq <= ack
        ]:
            _, promise = channel.msg_done.pop(msg_id)
            promise.resolve(None)
        while channel.backlog and len(channel.unacked) < self.config.window:
            self._transmit(channel, channel.backlog.popleft())
        if channel.retx_timer is not None and not channel.unacked:
            channel.retx_timer.cancel()
            channel.retx_timer = None

    def _process_data(self, frame: Frame) -> None:
        if not self._admit(frame):
            return
        src = frame.src_site
        blind = frame.dst_epoch < 0
        if not blind and frame.dst_epoch != self.epoch:
            # Sent to a previous incarnation of this site: never deliver
            # it.  The reply names our epoch, which the sender takes as
            # the restart it had not noticed.
            self.sim.trace.bump("transport.misaddressed")
            self._send_ack(src, -1)
            return
        channel = self._recv_channels.get(src)
        if channel is None or (channel.blind and not blind):
            # A new stream: the source's first frame to this incarnation,
            # or its first addressed channel after a blind one.
            self._drop_recv(src)
            channel = self._recv_channels[src] = _RecvChannel(blind)
        elif blind and not channel.blind:
            self.sim.trace.bump("transport.stale_channel")
            return
        if frame.ack >= 0:
            # A delayed ACK rode this reverse-direction data frame.
            # Processed only after the checks above: an ACK owed to
            # another incarnation must not touch the live send channel.
            self._apply_ack(frame)
        if frame.seq < channel.expected:
            # A duplicate means the sender timed out: answer right away
            # (an ACK delayed here would only invite more retransmits).
            self.sim.trace.bump("transport.duplicates")
            self._note_ack(src, channel.expected - 1, urgent=True)
            return
        channel.out_of_order.setdefault(frame.seq, frame)
        delivered = False
        while channel.expected in channel.out_of_order:
            ready = channel.out_of_order.pop(channel.expected)
            channel.expected += 1
            delivered = True
            whole = self._reassembler.add(
                (src, ready.msg_id),
                ready.frag_index,
                ready.frag_total,
                ready.payload,
            )
            if whole is not None:
                self.msgs_received += 1
                self.on_message(src, whole)
        if delivered or frame.seq >= channel.expected:
            # Gaps (nothing delivered) signal loss: ACK those urgently.
            self._note_ack(src, channel.expected - 1, urgent=not delivered)

    def _note_ack(self, dst_site: int, cumulative: int,
                  urgent: bool = False) -> None:
        """Owe ``dst_site`` a cumulative ACK; send now or batch it.

        With ``ack_delay == 0`` (the default) every ACK goes out
        immediately as its own frame.  With a window, in-order ACKs
        coalesce: one timer per source, the owed value monotonically
        maxed, flushed by the timer or absorbed by the next
        reverse-direction data frame (see ``_put_on_wire``).
        """
        if not self._alive:
            return  # a queued frame processed post-crash: stay silent
        delay = self.ack_delay
        if delay <= 0:
            self._send_ack(dst_site, cumulative)
            return
        pending = self._ack_pending.get(dst_site)
        if urgent:
            self._ack_pending.pop(dst_site, None)
            self._cancel_ack_timer(dst_site)
            if pending is not None:
                cumulative = max(cumulative, pending)
            self._send_ack(dst_site, cumulative)
            return
        if pending is not None:
            self._ack_pending[dst_site] = max(pending, cumulative)
            self.acks_coalesced += 1
            self.sim.trace.bump("transport.acks_coalesced")
        else:
            self._ack_pending[dst_site] = cumulative
        if dst_site not in self._ack_timers:
            self._ack_timers[dst_site] = self.sim.call_after(
                delay, self._flush_ack, dst_site)

    def _flush_ack(self, dst_site: int) -> None:
        self._ack_timers.pop(dst_site, None)
        cumulative = self._ack_pending.pop(dst_site, None)
        if cumulative is not None and self._alive:
            self._send_ack(dst_site, cumulative)

    def _cancel_ack_timer(self, dst_site: int) -> None:
        timer = self._ack_timers.pop(dst_site, None)
        if timer is not None:
            timer.cancel()

    def _send_ack(self, dst_site: int, cumulative: int) -> None:
        channel = self._recv_channels.get(dst_site)
        ack = Frame(
            kind=KIND_ACK,
            src_site=self.site_id,
            dst_site=dst_site,
            epoch=self.epoch,
            ack=cumulative,
            dst_epoch=self._peer_epochs[dst_site],
            blind=channel is not None and channel.blind,
        )
        if self._wire(ack):
            self.acks_piggybacked += 1
        else:
            self.acks_pure += 1

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        """Wire activity of this endpoint since boot."""
        return {
            "msgs_sent": self.msgs_sent,
            "bytes_sent": self.bytes_sent,
            "frames_sent": self.frames_sent,
            "frames_received": self.frames_received,
            "msgs_received": self.msgs_received,
            "retransmits": self.retransmits,
            "acks_pure": self.acks_pure,
            "acks_coalesced": self.acks_coalesced,
            "acks_piggybacked": self.acks_piggybacked,
        }

    def outbound_idle(self) -> bool:
        """True once every frame sent so far is acked and nothing queued.

        Lets a departing site linger until its peers hold everything it
        said — exiting with unacked frames kills their retransmit path.
        """
        return all(not ch.unacked and not ch.backlog
                   for ch in self._send_channels.values())

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def reset_channel(self, dst_site: int) -> None:
        """Abandon traffic to a (failed) site; reject its pending sends."""
        channel = self._send_channels.pop(dst_site, None)
        if channel is None:
            return
        if channel.retx_timer is not None:
            channel.retx_timer.cancel()
            channel.retx_timer = None
        for _, promise in channel.msg_done.values():
            promise.reject(SiteDown(f"site {dst_site} declared down"))

    def shutdown(self) -> None:
        """Crash: stop receiving, cancel timers, reject pending sends."""
        if not self._alive:
            return
        self._alive = False
        self._detach()
        for dst_site in list(self._ack_timers):
            self._cancel_ack_timer(dst_site)
        self._ack_pending.clear()
        for dst_site in list(self._send_channels):
            self.reset_channel(dst_site)

    @property
    def alive(self) -> bool:
        return self._alive


class Transport(ReliableChannel):
    """The simulator shell: frames cost CPU and cross the modeled LAN.

    Each data frame is charged to the site's :class:`Cpu` before it
    reaches the wire, and each inbound ACK or data frame before it is
    processed.  The backoff ceiling is ``8 × rto``.
    """

    def __init__(
        self,
        sim: Simulator,
        lan: Lan,
        site_id: int,
        epoch: int,
        cpu: Cpu,
        on_message: Callable[[int, bytes], None],
    ):
        super().__init__(sim, site_id, epoch, lan.config, on_message)
        self.lan = lan
        self.cpu = cpu
        lan.attach(site_id, self._on_frame)

    @property
    def ack_delay(self) -> float:  # type: ignore[override]
        return self.config.ack_delay

    @property
    def max_rto(self) -> float:  # type: ignore[override]
        return 8 * self.config.rto

    def _wire(self, frame: Frame) -> bool:
        self.lan.send(frame)
        if frame.kind == KIND_DATA:
            self.frames_sent += 1
        return False

    def _charge_send(self, frame: Optional[Frame], fn: Callable,
                     *args: Any) -> None:
        if frame is None:
            cost = 0.0
        elif frame.cheap:
            cost = self.config.ack_cpu
        else:
            cost = self.lan.send_cpu_cost(frame)
        self.cpu.submit(cost, fn, *args)

    def _charge_recv(self, frame: Frame,
                     process: Callable[[Frame], None]) -> None:
        cost = (self.config.ack_cpu if frame.kind == KIND_ACK
                else self.lan.recv_cpu_cost(frame))
        self.cpu.submit(cost, process, frame)

    def _detach(self) -> None:
        self.lan.detach(self.site_id)
