"""The three benchmark workloads.

Each workload builds a cluster from the seed, forms one process group
with one member per site, offers multicasts, and keeps the delivery
history the correctness gate reads (:mod:`history`).  ``setup()`` ends
when the first multicast is about to be offered.  ``measure()`` runs the
measured window, then a crash phase that measures the outage, drains to
exact convergence and returns a :class:`Result`.

* ``sim_stream`` -- simulator, closed loop, steady data path; after the
  window the coordinator site (also the ABCAST leader) crashes.
* ``sim_churn`` -- simulator, open loop in simulated time, crash, restart
  and rejoin cycles with the write-ahead log on.
* ``net_open`` -- asyncio driver on localhost sockets, open loop in wall
  time; after the window the coordinator site crashes.

``phase_hook(name)`` is called at ``"start"`` (measured window opens),
after each sub-window (``"window"``), at ``"steady"`` (steady window
closes, crash phase begins) and at ``"end"`` (outage measured, drain
begins); the traced run snapshots its spans there.  Workload parameters
live in :mod:`spec`.
"""

from __future__ import annotations

import random
import socket
import time
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro import IsisCluster, IsisConfig
from repro.runtime.asyncio_driver import AsyncioCluster
from repro.sim.tasks import Promise, sleep

import hostspeed
import spec
from history import ABCAST_KIND, KIND_NAMES, Incarnation, Mid, check

SINK = 17
GROUP = "bench"


class BenchFailure(Exception):
    """The workload could not run to completion."""


class Result:
    """What one measured run produced."""

    def __init__(self) -> None:
        #: Steady window, per sub-window: (wall s, cpu s, deliveries,
        #: host speed factor, see :mod:`hostspeed`).
        self.windows: List[Tuple[float, float, int, float]] = []
        #: Latency samples (ms, workload clock) per sub-window.
        self.latency_ms: List[List[float]] = []
        self.outage_ms: List[float] = []
        self.gen_lag_ms: List[float] = []
        #: Wire frames and bytes sent in the steady window.
        self.frames = 0
        self.bytes = 0
        self.attempted = 0
        self.failed: Set[Mid] = set()
        self.problems: List[str] = []
        #: Deterministic counters (simulator workloads).
        self.counters: Dict[str, object] = {}
        #: Workload-clock time of each phase.
        self.phase_at: Dict[str, float] = {}
        #: Rejoins: (restart time, join done time) in the workload clock.
        self.rejoins: List[Tuple[float, float]] = []

    @property
    def deliveries(self) -> int:
        return sum(w[2] for w in self.windows)


def _payload(seed: int, site: int, size: int) -> bytes:
    return random.Random(f"payload:{seed}:{site}").randbytes(size)


class Arrivals:
    """Offer times of one open-loop sender, from the seed: the n-th offer
    is due at a uniformly random point of the n-th period.  The rate is
    exact, bursts are bounded, and no one alignment of the senders
    lasts a whole run and decides its latency."""

    def __init__(self, seed: int, site: int, gen: int, rate: float,
                 start: float):
        self.rng = random.Random(f"arrivals:{seed}:{site}:{gen}")
        self.gap = 1.0 / rate
        self.start = start
        self.n = 0
        self.due = start + self.rng.random() * self.gap

    def pop(self) -> float:
        due = self.due
        self.n += 1
        self.due = self.start + (self.n + self.rng.random()) * self.gap
        return due


class Group:
    """Members of the benchmark group, one per site, on either driver."""

    def __init__(self, system, clock: Callable[[], float], xfer: bool):
        self.system = system
        self.clock = clock
        self.xfer = xfer
        self.incs: List[Incarnation] = []
        self.current: Dict[int, Incarnation] = {}
        self.handles: Dict[int, tuple] = {}
        self.gid = None
        #: Called with (incarnation, mid, time) on every direct delivery.
        self.listeners: List[Callable[[Incarnation, Mid, float], None]] = []

    def attach(self, site: int, gen: int = 0):
        proc, isis = self.system.spawn(site, f"m{site}.{gen}")
        inc = Incarnation(site, gen, self.clock)
        inc.on_direct = lambda mid, now: [
            listener(inc, mid, now) for listener in self.listeners]
        proc.bind(SINK, inc.deliver)
        if self.xfer:
            proc.xfer_segments["bench"] = (inc.encode_state, inc.decode_state)
        self.incs.append(inc)
        self.current[site] = inc
        self.handles[site] = (proc, isis)
        return proc, isis, inc

    def watch(self, site: int) -> None:
        _proc, isis = self.handles[site]
        isis.pg_monitor(self.gid, self.current[site].on_view)

    def form(self, sites: List[int],
             wait: Callable[[Callable[[], bool], float], bool]) -> None:
        """Create the group on the first site and join the rest."""
        box: Dict[str, object] = {}
        _p, isis, _i = self.attach(sites[0])
        isis.pg_create(GROUP).add_done_callback(
            lambda p: box.__setitem__("gid", p.value))
        if not wait(lambda: "gid" in box, 30.0):
            raise BenchFailure("group create stalled")
        self.gid = box["gid"]
        self.watch(sites[0])
        joined: Set[int] = set()
        for site in sites[1:]:
            _p, isis, _i = self.attach(site)
            isis.pg_join(self.gid).add_done_callback(
                lambda p, site=site: None if p.rejected else joined.add(site))
        if not wait(lambda: len(joined) == len(sites) - 1, 120.0):
            raise BenchFailure(f"joins stalled: {sorted(joined)}")
        for site in sites[1:]:
            self.watch(site)
        if not wait(lambda: all(self.view_size(s) == len(sites)
                                for s in sites), 60.0):
            raise BenchFailure("views did not converge after joins")

    def view_size(self, site: int) -> int:
        engine = self.system.kernel(site).engines.get(self.gid.process())
        return len(engine.view.members) if engine and engine.view else 0

    def delivered_total(self) -> int:
        return sum(len(inc.delivered) for inc in self.incs)

    def survivors(self) -> List[Incarnation]:
        return [inc for inc in self.incs if inc.alive]

    def converged(self, owed: Set[Mid]) -> bool:
        """Survivors hold equal state, and every never-restarted survivor
        delivered everything in ``owed``."""
        if len({inc.state() for inc in self.survivors()}) != 1:
            return False
        return all(owed <= {mid for _v, mid, _t in inc.delivered}
                   for inc in self.survivors() if inc.gen == 0)


class Issuer:
    """Assigns multicast ids and remembers when each was issued or due."""

    def __init__(self, group: Group, payloads: Dict[int, bytes]):
        self.group = group
        self.payloads = payloads
        self.next_k: Dict[Tuple[int, int, int], int] = {}
        self.issued_at: Dict[Mid, float] = {}

    def next_mid(self, site: int, kind: int) -> Mid:
        """The id the next multicast of this kind from ``site`` gets."""
        gen = self.group.current[site].gen
        return (site, gen, kind, self.next_k.get((site, gen, kind), 0))

    def issue(self, site: int, kind: int, at: float):
        mid = self.next_mid(site, kind)
        self.next_k[mid[:3]] = mid[3] + 1
        self.issued_at[mid] = at
        _proc, isis = self.group.handles[site]
        return isis.bcast(self.group.gid, SINK, 0, KIND_NAMES[kind],
                          o=site, g=mid[1], c=kind, k=mid[3],
                          p=self.payloads[site])

    def owed(self, live_senders: Set[Tuple[int, int]]) -> Set[Mid]:
        return {mid for mid in self.issued_at if mid[:2] in live_senders}


class OutageProbe:
    """Time from a crash until every survivor delivered one ABCAST
    issued (or due) after it, in ms of the workload clock.

    ABCAST is the kind a crash blocks: two-phase ordering waits on every
    member, the leader engine on the leader.  CBCASTs between survivors
    keep flowing meanwhile.
    """

    def __init__(self, group: Group, issued_at: Dict[Mid, float],
                 t_crash: float, victim: int):
        self.issued_at = issued_at
        self.t_crash = t_crash
        self.watchers = [inc for inc in group.incs
                         if inc.alive and inc.gen == 0 and inc.site != victim]
        self.holders: Dict[Mid, int] = {}
        self.outage_ms: Optional[float] = None

    def note(self, inc: Incarnation, mid: Mid, t: float) -> None:
        if (mid[2] != ABCAST_KIND or self.outage_ms is not None
                or self.issued_at[mid] < self.t_crash
                or inc not in self.watchers):
            return
        held = self.holders.get(mid, 0) + 1
        self.holders[mid] = held
        if held == len(self.watchers):
            self.outage_ms = (t - self.t_crash) * 1000.0

    def replay(self) -> Optional[float]:
        """Note the deliveries already recorded, in time order."""
        seen = sorted((t, i, mid) for i, inc in enumerate(self.watchers)
                      for _v, mid, t in inc.delivered if t >= self.t_crash)
        for t, i, mid in seen:
            self.note(self.watchers[i], mid, t)
        return self.outage_ms


def latency_by_window(group: Group, issued_at: Dict[Mid, float],
                      start: float, span: float, windows: int
                      ) -> List[List[float]]:
    """Delivery latency samples (ms) of the multicasts issued or due in
    each of ``windows`` sub-windows of ``span`` from ``start``."""
    out: List[List[float]] = [[] for _ in range(windows)]
    end = start + span * windows
    for inc in group.incs:
        for _v, mid, t in inc.delivered:
            due = issued_at[mid]
            if start <= due < end:
                out[min(windows - 1, int((due - start) / span))].append(
                    (t - due) * 1000.0)
    return out


class _Workload:
    """What the workloads of both drivers share: parameters, the group,
    the phases, and the crash that measures the outage."""

    name = ""
    xfer = False

    def __init__(self, seed: int, seconds: float):
        self.seed = seed
        self.seconds = seconds
        self.params = spec.WORKLOADS[self.name]
        self.sites = self.params["sites"]
        self.result = Result()
        self.phase_hook: Callable[[str], None] = lambda name: None
        self.system = None
        #: Every kernel that ran (restarts add one); the traced run reads
        #: their stats, crashed ones included.
        self.kernels: list = []

    def clock(self) -> float:
        raise NotImplementedError

    def _build(self):
        raise NotImplementedError

    def _wait(self, pred: Callable[[], bool], timeout: float) -> bool:
        raise NotImplementedError

    def _phase(self, name: str) -> None:
        self.result.phase_at[name] = self.clock()
        self.phase_hook(name)

    def setup(self) -> None:
        self.system = self._build()
        self.kernels = [self.system.kernel(s) for s in range(self.sites)]
        self.group = Group(self.system, self.clock, self.xfer)
        self.group.form(list(range(self.sites)), self._wait)
        self.issuer = Issuer(self.group, {
            s: _payload(self.seed, s, self.params["payload"])
            for s in range(self.sites)})

    def _crash_for_outage(self, victim: int) -> None:
        """Crash ``victim`` and run until every survivor delivered an
        ABCAST issued after the crash."""
        t_crash = self.clock()
        self.system.crash_site(victim)
        self.group.current[victim].alive = False
        probe = OutageProbe(self.group, self.issuer.issued_at, t_crash,
                            victim)
        self.group.listeners.append(probe.note)
        if self._wait(lambda: probe.outage_ms is not None,
                      self.params["outage_timeout"]):
            self.result.outage_ms = [probe.outage_ms]
        else:
            self.result.problems.append("no ABCAST completed after the crash")

    def close(self) -> None:
        """Release what the workload holds (sockets, the event loop)."""


# ----------------------------------------------------------------------
# Simulator workloads
# ----------------------------------------------------------------------
class _SimWorkload(_Workload):

    def clock(self) -> float:
        return self.system.now

    def _build(self) -> IsisCluster:
        return IsisCluster(n_sites=self.sites, seed=self.seed,
                           isis_config=IsisConfig(**self.params["config"]))

    def _wait(self, pred: Callable[[], bool], timeout: float) -> bool:
        deadline = self.system.now + timeout
        while not pred() and self.system.now < deadline:
            self.system.run_for(0.25)
        return pred()

    def _wire(self) -> Tuple[int, int]:
        trace = self.system.sim.trace
        return trace.value("lan.frames"), trace.value("lan.bytes")

    def _run_windows(self, until: float, window: float) -> None:
        """Advance simulated time to ``until`` in timed sub-windows."""
        system = self.system
        f0, b0 = self._wire()
        probe_s = hostspeed.probe()
        while system.now < until - 1e-9:
            before = self.group.delivered_total()
            w0, c0 = time.perf_counter(), time.process_time()
            system.run_for(min(window, until - system.now))
            wall, cpu = time.perf_counter() - w0, time.process_time() - c0
            after = hostspeed.probe()
            self.result.windows.append((
                wall, cpu, self.group.delivered_total() - before,
                hostspeed.factor(probe_s, after)))
            probe_s = after
            self.phase_hook("window")
        f1, b1 = self._wire()
        self.result.frames, self.result.bytes = f1 - f0, b1 - b0

    def _finish(self, live_senders: Set[Tuple[int, int]]) -> Result:
        res = self.result
        issued = self.issuer.issued_at
        if not self._wait(lambda: self.group.converged(
                self.issuer.owed(live_senders)), 300.0):
            res.problems.append("did not converge after the run")
        res.attempted = len(issued)
        res.failed, problems = check(self.group.incs, issued, live_senders)
        res.problems += problems
        trace = self.system.sim.trace
        for name in spec.SIM_COUNTERS:
            res.counters[name] = trace.value(name)
        res.counters["deliveries"] = self.group.delivered_total()
        res.counters["issued"] = res.attempted
        res.counters["latency_ms_sum"] = round(
            sum(sum(w) for w in res.latency_ms), 6)
        res.counters["outage_ms"] = [round(x, 6) for x in res.outage_ms]
        return res


class SimStream(_SimWorkload):
    """Closed-loop CBCAST/ABCAST streams on a 4-site group."""

    name = "sim_stream"

    def measure(self) -> Result:
        system = self.system
        p = self.params
        res = self.result
        stop = {"done": False}
        waiting: Dict[Mid, Promise] = {}

        def delivered(inc: Incarnation, mid: Mid, _now: float) -> None:
            if mid[0] == inc.site and mid in waiting:
                waiting.pop(mid).resolve()

        self.group.listeners.append(delivered)

        def stream(site: int, kind: int, rng: random.Random):
            # Closed loop: the next multicast goes out a random think
            # time after the sender itself delivered the last one.
            while not stop["done"] and self.group.current[site].alive:
                mid = self.issuer.next_mid(site, kind)
                waiting[mid] = Promise(label="bench.stream")
                self.issuer.issue(site, kind, system.now)
                yield waiting[mid]
                yield sleep(system.sim, rng.expovariate(1.0 / p["think"]))
                kind ^= 1

        for site in range(self.sites):
            proc, _isis = self.group.handles[site]
            for j in range(p["streams_per_site"]):
                rng = random.Random(f"stream:{self.seed}:{site}:{j}")
                proc.spawn(stream(site, j % 2, rng), f"stream{j}")
        system.run_for(p["warmup"])
        self._phase("start")
        start = system.now
        sim_seconds = self.seconds * p["sim_per_wall"]
        self._run_windows(start + sim_seconds, p["window"])
        res.latency_ms = latency_by_window(
            self.group, self.issuer.issued_at, start, sim_seconds, 1)

        # Crash the coordinator, which is also the ABCAST leader.
        self._phase("steady")
        self._crash_for_outage(0)
        self._phase("end")
        stop["done"] = True
        return self._finish({(s, 0) for s in range(1, self.sites)})


class SimChurn(_SimWorkload):
    """Open loop in simulated time with crash/restart/rejoin cycles."""

    name = "sim_churn"
    xfer = True

    def setup(self) -> None:
        super().setup()
        p = self.params
        cycles = max(1, round(self.seconds / p["wall_per_cycle"]))
        # Every non-coordinator site in turn, from a seeded first one, so
        # that no run's cost hangs on which sites it happened to crash.
        first = random.Random(f"churn:{self.seed}").randrange(self.sites - 1)
        self.victims = [1 + (first + i) % (self.sites - 1)
                        for i in range(cycles)]

    def measure(self) -> Result:
        system = self.system
        sim = system.sim
        res = self.result
        p = self.params
        start = system.now + p["warmup"]
        end = start + p["cycle"] * len(self.victims)
        crashes: List[Tuple[float, int]] = []
        live = {(s, 0) for s in range(self.sites)}

        def offer(site: int, gen: int, arrivals: Arrivals, n: int) -> None:
            inc = self.group.current[site]
            if inc.gen != gen or not inc.alive or arrivals.due >= end:
                return
            due = arrivals.pop()
            res.gen_lag_ms.append((sim.now - due) * 1000.0)
            self.issuer.issue(site, n % 2, due)
            sim.call_at(max(sim.now, arrivals.due), offer, site, gen,
                        arrivals, n + 1)

        def begin_offering(site: int, gen: int) -> None:
            arrivals = Arrivals(self.seed, site, gen, p["rate"],
                                max(start, sim.now))
            sim.call_at(arrivals.due, offer, site, gen, arrivals, 0)

        def crash(site: int) -> None:
            crashes.append((sim.now, site))
            inc = self.group.current[site]
            inc.alive = False
            live.discard((site, inc.gen))
            system.crash_site(site)

        def restart(site: int) -> None:
            system.restart_site(site)
            self.kernels.append(system.kernel(site))

        def rejoin(site: int, gen: int, t_restart: float) -> None:
            proc, isis, _inc = self.group.attach(site, gen)
            system.kernel(site).wal.replay_to(self.group.gid, proc)
            live.add((site, gen))

            def joined(promise) -> None:
                if promise.rejected:
                    res.problems.append(f"rejoin of site {site} failed")
                    return
                res.rejoins.append((t_restart, sim.now))
                self.group.watch(site)
                begin_offering(site, gen)

            isis.pg_join_by_name(GROUP).add_done_callback(joined)

        for site in range(self.sites):
            begin_offering(site, 0)
        gens = {s: 0 for s in range(self.sites)}
        for i, victim in enumerate(self.victims):
            t = start + i * p["cycle"] + p["crash_at"]
            gens[victim] += 1
            sim.call_at(t, crash, victim)
            sim.call_at(t + p["down"], restart, victim)
            sim.call_at(t + p["down"] + p["rejoin_after"], rejoin, victim,
                        gens[victim], t + p["down"])

        system.run_for(start - system.now)
        self._phase("start")
        self._run_windows(end, p["window"])
        self._phase("steady")
        self._phase("end")
        res.latency_ms = latency_by_window(
            self.group, self.issuer.issued_at, start, end - start, 1)
        for t_crash, victim in crashes:
            got = OutageProbe(self.group, self.issuer.issued_at, t_crash,
                              victim).replay()
            if got is None:
                res.problems.append(f"no ABCAST completed after the crash "
                                    f"at {t_crash:.3f}")
            else:
                res.outage_ms.append(got)
        return self._finish(live)


# ----------------------------------------------------------------------
# asyncio driver workload
# ----------------------------------------------------------------------
def sockets_available() -> bool:
    try:
        probe = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        try:
            probe.bind(("127.0.0.1", 0))
        finally:
            probe.close()
        return True
    except OSError:
        return False


class NetOpen(_Workload):
    """Open loop in wall time over real localhost UDP/TCP."""

    name = "net_open"

    def clock(self) -> float:
        return self.system.runtime.scheduler.now

    def _build(self) -> AsyncioCluster:
        if not sockets_available():
            raise BenchFailure("cannot bind localhost sockets")
        return AsyncioCluster(n_sites=self.sites, seed=self.seed,
                              isis_config=IsisConfig(**self.params["config"]))

    def _wait(self, pred: Callable[[], bool], timeout: float) -> bool:
        return self.system.run_until(pred, timeout=timeout, poll=0.02)

    def _wire(self) -> Tuple[int, int]:
        frames = bytes_ = 0
        for site in self.system.runtime.sites.values():
            if site.transport is not None:
                stats = site.transport.stats()
                frames += stats["frames_sent"]
                bytes_ += stats["datagram_bytes_sent"]
        return frames, bytes_

    def measure(self) -> Result:
        loop = self.system.runtime.loop
        res = self.result
        p = self.params
        windows = max(1, int(round(self.seconds / p["window"])))
        span = self.seconds / windows
        marks: List[Tuple[float, float, int, int, int]] = []
        stop = {"done": False}

        def at(t: float, fn, *args) -> None:
            loop.call_at(loop.time() + (t - self.clock()), fn, *args)

        def offer(site: int, arrivals: Arrivals, n: int) -> None:
            now = self.clock()
            while not stop["done"] and self.group.current[site].alive:
                if arrivals.due > now:
                    at(arrivals.due, offer, site, arrivals, n)
                    return
                due = arrivals.pop()
                res.gen_lag_ms.append((now - due) * 1000.0)
                self.issuer.issue(site, n % 2, due)
                n += 1

        def mark() -> None:
            if not marks:
                self._phase("start")
            marks.append((time.perf_counter(), time.process_time(),
                          self.group.delivered_total(), *self._wire()))
            self.phase_hook("window")

        start = self.clock() + 0.05
        end = start + self.seconds
        for site in range(self.sites):
            arrivals = Arrivals(self.seed, site, 0, p["rate"], start)
            at(arrivals.due, offer, site, arrivals, 0)
        for i in range(windows + 1):
            at(start + i * span, mark)
        self.system.run_for(end - self.clock() + 0.001)
        res.frames = marks[-1][3] - marks[0][3]
        res.bytes = marks[-1][4] - marks[0][4]

        # Crash the coordinator (the ABCAST leader) just after its next
        # heartbeat probe went out, so that the detection timeout, not
        # where the crash fell in the probe period, sets the outage.
        # Offers go on.
        self._phase("steady")
        tick = self.system.kernel(0).heartbeat._timer._handle.when()
        self.system.run_for(max(0.0, tick + p["crash_after_probe"]
                                - loop.time()))
        self._crash_for_outage(0)
        self._phase("end")
        stop["done"] = True
        live = {(s, 0) for s in range(1, self.sites)}
        if not self._wait(lambda: self.group.converged(
                self.issuer.owed(live)), p["drain_timeout"]):
            res.problems.append("did not converge after the run")
        # Unscaled: a host speed probe inside the window would stall the
        # loop, and one run-level probe pair scattered the CPU cost more
        # than it steadied it.
        for (w0, c0, d0, _f0, _b0), (w1, c1, d1, _f1, _b1) in zip(
                marks, marks[1:]):
            res.windows.append((w1 - w0, c1 - c0, d1 - d0, 1.0))
        res.latency_ms = latency_by_window(
            self.group, self.issuer.issued_at, start, span, windows)
        res.attempted = len(self.issuer.issued_at)
        res.failed, problems = check(self.group.incs, self.issuer.issued_at,
                                     live)
        res.problems += problems
        return res

    def close(self) -> None:
        if self.system is not None:
            self.system.shutdown()
