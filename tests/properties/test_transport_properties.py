"""Property-based tests: the transport is reliable-FIFO over lossy links."""

import random
from dataclasses import replace
from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import Lan, LanConfig, Transport
from repro.net.transport import ReliableChannel
from repro.sim import Cpu, Simulator


@given(
    seed=st.integers(0, 2**16),
    loss=st.floats(0.0, 0.45),
    messages=st.lists(st.binary(min_size=0, max_size=6000), min_size=1, max_size=12),
)
@settings(max_examples=40, deadline=None)
def test_lossy_link_delivers_everything_in_order_exactly_once(seed, loss, messages):
    sim = Simulator(seed=seed)
    lan = Lan(sim, LanConfig(loss_rate=loss))
    got = []
    Transport(sim, lan, 1, 0, Cpu(sim), lambda src, data: got.append(data))
    sender = Transport(sim, lan, 0, 0, Cpu(sim), lambda src, data: None)
    for message in messages:
        sender.send(1, message)
    sim.run(until=300.0)
    assert got == messages


@given(
    seed=st.integers(0, 2**16),
    sizes=st.lists(st.integers(0, 20_000), min_size=1, max_size=8),
)
@settings(max_examples=30, deadline=None)
def test_fragmentation_is_invisible_to_receiver(seed, sizes):
    sim = Simulator(seed=seed)
    lan = Lan(sim, LanConfig(loss_rate=0.1))
    rng = sim.rng("testdata")
    messages = [bytes(rng.randrange(256) for _ in range(n)) for n in sizes]
    got = []
    Transport(sim, lan, 1, 0, Cpu(sim), lambda src, data: got.append(data))
    sender = Transport(sim, lan, 0, 0, Cpu(sim), lambda src, data: None)
    for message in messages:
        sender.send(1, message)
    sim.run(until=600.0)
    assert got == messages


# ----------------------------------------------------------------------
# The shared channel over a fair-loss link with restarting peers
# ----------------------------------------------------------------------
# ``ReliableChannel`` is tested here through a test-only shell over a
# seeded fake link that loses, duplicates and reorders frames, while
# sites crash and come back as new incarnations.  Fair loss plus
# retransmission plus deduplication must give reliable FIFO channels per
# (sender incarnation, receiver incarnation) pair.

_LINK_CONFIG = SimpleNamespace(mtu=64, window=4, rto=0.05)


class FakeLink:
    """Fair-loss link: each frame is lost, duplicated or delayed past its
    successors at random; every copy is a snapshot, as on a real wire."""

    def __init__(self, sim, rng, loss, dup, spread):
        self.sim = sim
        self.rng = rng
        self.loss = loss
        self.dup = dup
        self.spread = spread
        self.endpoints = {}

    def carry(self, frame):
        rng = self.rng
        if rng.random() < self.loss:
            return
        for _ in range(2 if rng.random() < self.dup else 1):
            self.sim.call_after(0.005 + rng.random() * self.spread,
                                self._arrive, replace(frame))

    def _arrive(self, frame):
        endpoint = self.endpoints.get(frame.dst_site)
        if endpoint is not None:
            endpoint(frame)


class LinkShell(ReliableChannel):
    """Test-only shell: a serial CPU queue on each side, the fake link
    as the wire."""

    max_rto = 0.4

    def __init__(self, sim, link, site_id, epoch, ack_delay, on_message):
        super().__init__(sim, site_id, epoch, _LINK_CONFIG, on_message)
        self.link = link
        self.cpu = Cpu(sim, f"cpu{site_id}.{epoch}")
        self.ack_delay = ack_delay
        link.endpoints[site_id] = self._on_frame

    def _wire(self, frame):
        self.link.carry(frame)
        return False

    def _charge_send(self, frame, fn, *args):
        self.cpu.submit(0.0 if frame is None else 0.001, fn, *args)

    def _charge_recv(self, frame, process):
        self.cpu.submit(0.001, process, frame)

    def _detach(self):
        del self.link.endpoints[self.site_id]


class Cluster:
    """Sites on the fake link, with a record of every send and delivery."""

    def __init__(self, seed, n_sites, loss, dup, spread, ack_delay):
        self.sim = Simulator(seed=seed)
        self.link = FakeLink(self.sim, random.Random(seed), loss, dup, spread)
        self.ack_delay = ack_delay
        self.sites = {}
        #: (site, epoch) -> [(src site, payload)] in delivery order.
        self.delivered = {}
        #: payload -> (sender (site, epoch), dst, promise, acker epoch).
        self.sent = {}
        self.counter = 0
        for site in range(n_sites):
            self.boot(site, 0)

    def boot(self, site, epoch):
        inbox = self.delivered.setdefault((site, epoch), [])

        def on_message(src, data):
            if transport.alive:  # work queued before a crash is not delivery
                inbox.append((src, data))

        transport = LinkShell(self.sim, self.link, site, epoch,
                              self.ack_delay, on_message)
        self.sites[site] = transport

    def restart(self, site, downtime):
        old = self.sites[site]
        if not old.alive:
            return  # still down from an earlier crash
        old.shutdown()
        self.sim.call_after(downtime, self.boot, site, (old.epoch + 1) % 256)

    def send(self, src, dst, size):
        sender = self.sites[src]
        if not sender.alive:
            return None
        self.counter += 1
        payload = b"%d:%d:%d:" % (src, sender.epoch, self.counter)
        payload += b"x" * max(0, size - len(payload))
        promise = sender.send(dst, payload)
        record = [(src, sender.epoch), dst, promise, None]
        self.sent[payload] = record

        def on_done(p):
            if not p.rejected:
                # Only the peer incarnation the sender knows is admitted:
                # that is the one whose ACK resolved the promise.
                record[3] = sender._peer_epochs[dst]

        promise.add_done_callback(on_done)
        return promise

    def heartbeats(self, until):
        for transport in self.sites.values():
            for dst in self.sites:
                if dst != transport.site_id:
                    transport.send_raw(dst, b"hb")
        if self.sim.now + 0.1 < until:
            self.sim.call_after(0.1, self.heartbeats, until)


@given(
    seed=st.integers(0, 2**16),
    n_sites=st.integers(2, 3),
    loss=st.floats(0.0, 0.3),
    dup=st.floats(0.0, 0.3),
    spread=st.sampled_from([0.0, 0.05, 0.3]),
    ack_delay=st.sampled_from([0.0, 0.02]),
    restarts=st.integers(0, 3),
    chaos_heartbeats=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_fair_loss_link_with_restarts_gives_reliable_fifo_channels(
        seed, n_sites, loss, dup, spread, ack_delay, restarts,
        chaos_heartbeats):
    cluster = Cluster(seed, n_sites, loss, dup, spread, ack_delay)
    sim = cluster.sim
    rng = random.Random(seed ^ 0x5EED)
    chaos_end, calm = 2.0, 2.5
    for _ in range(12 * n_sites):
        src = rng.randrange(n_sites)
        dst = rng.choice([s for s in range(n_sites) if s != src])
        sim.call_at(rng.uniform(0.0, chaos_end), cluster.send, src, dst,
                    rng.randrange(0, 200))
    for _ in range(restarts):
        sim.call_at(rng.uniform(0.1, chaos_end - 0.2), cluster.restart,
                    rng.randrange(n_sites), rng.choice([0.0, 0.05, 0.2]))
    # Heartbeats during the chaos are optional, so restarts must also be
    # detected from data and ACK frames alone; afterwards they run, as in
    # the full system, and every site learns every peer's incarnation.
    sim.call_at(0.0 if chaos_heartbeats else calm, cluster.heartbeats, 60.0)
    markers = []

    def send_markers():
        for src in range(n_sites):
            for dst in range(n_sites):
                if src != dst:
                    markers.append(cluster.send(src, dst, 100))

    sim.call_at(calm + 0.5, send_markers)
    sim.run(until=60.0)

    # Exactly once and FIFO per (sender incarnation, receiver incarnation).
    for (site, epoch), inbox in cluster.delivered.items():
        order = {}
        for src, payload in inbox:
            sender = cluster.sent[payload][0]
            assert cluster.sent[payload][1] == site
            order.setdefault(sender, []).append(int(payload.split(b":")[2]))
        for sender, counters in order.items():
            assert counters == sorted(set(counters)), (
                f"{sender} -> {(site, epoch)}: {counters}")
    # A promise resolves only if its message reached the incarnation
    # that acknowledged it; every promise settles, and after the chaos
    # every channel delivers.
    for payload, (sender, dst, promise, acker) in cluster.sent.items():
        assert promise.done, payload
        if not promise.rejected:
            assert (sender[0], payload) in [
                (src, data) for src, data in cluster.delivered[(dst, acker)]
            ], payload
    assert all(m is not None and m.done and not m.rejected for m in markers)
