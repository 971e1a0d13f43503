"""One benchmark process: set up one workload, and measure, trace or
profile it.  ``run.py`` starts each in a fresh interpreter, so set-up
time and peak memory are the process's own, and reads the JSON object
it prints as its last line.

Modes:

* ``setup`` -- set up only; reports ``setup_s``.
* ``measure`` -- set up and measure with tracing off; reports the
  end-to-end metrics, the correctness gate and the deterministic
  counters.  ``--lag-probe`` adds the asyncio loop-lag probe.
* ``trace`` -- the same run with per-layer spans on; reports the layer
  budget.
* ``profile`` -- the same run under cProfile; reports self time by
  layer, attributed by module.

``--started`` is the ``time.monotonic()`` reading of the parent just
before it started this interpreter; set-up time counts from there.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import spec  # noqa: E402


def pct(samples: List[float], p: int) -> float:
    """The p-th percentile (statistics.quantiles, exclusive method)."""
    if len(samples) < 2:
        return samples[0] if samples else 0.0
    return statistics.quantiles(samples, n=100)[p - 1]


def make(name: str, seed: int, seconds: float):
    import workloads
    cls = {"sim_stream": workloads.SimStream,
           "sim_churn": workloads.SimChurn,
           "net_open": workloads.NetOpen}[name]
    return cls(seed, seconds)


def host_cost(wl, res, scaled: bool = True) -> Dict[str, float]:
    """Wall and CPU us per delivery over the measured window's
    sub-windows, each scaled by its host speed factor when ``scaled``:
    the median sub-window, or the whole window (``spec`` ``cost``)."""
    windows = [w for w in res.windows if w[2]]
    scale = [w[3] if scaled else 1.0 for w in windows]
    if wl.params["cost"] == "median":
        wall = statistics.median(
            w[0] / w[2] * k for w, k in zip(windows, scale))
        cpu = statistics.median(
            w[1] / w[2] * k for w, k in zip(windows, scale))
    else:
        deliveries = sum(w[2] for w in windows)
        wall = sum(w[0] * k for w, k in zip(windows, scale)) / deliveries
        cpu = sum(w[1] * k for w, k in zip(windows, scale)) / deliveries
    return {"wall_us_per_delivery": wall * 1e6,
            "cpu_us_per_delivery": cpu * 1e6}


def end_to_end(wl, res) -> Dict[str, float]:
    """The end-to-end metrics of one untraced run."""
    lat = [w for w in res.latency_ms if w]
    return {
        **host_cost(wl, res),
        "latency_p50_ms": statistics.median(pct(w, 50) for w in lat),
        "latency_p90_ms": statistics.median(pct(w, 90) for w in lat),
        "outage_ms": statistics.median(res.outage_ms),
        "wire_frames_per_delivery": res.frames / res.deliveries,
        "wire_bytes_per_delivery": res.bytes / res.deliveries,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


class LoopLagProbe:
    """How late a 1 ms callback fires on the asyncio loop."""

    def __init__(self, loop) -> None:
        self.loop = loop
        self.lag_ms: List[float] = []
        self.handle = None

    def start(self) -> None:
        self._arm()

    def _arm(self) -> None:
        due = self.loop.time() + 0.001
        self.handle = self.loop.call_at(due, self._fire, due)

    def _fire(self, due: float) -> None:
        self.lag_ms.append((self.loop.time() - due) * 1000.0)
        self._arm()

    def stop(self) -> None:
        if self.handle is not None:
            self.handle.cancel()


class Budget:
    """Snapshots at the phase hooks, and the per-layer metrics."""

    def __init__(self, wl, tracer) -> None:
        self.wl = wl
        self.tracer = tracer
        self.snaps: Dict[str, dict] = {}
        self.transports: Dict[int, object] = {}
        self.buffered_peak = 0

    def trace(self):
        system = self.wl.system
        return (system.sim.trace if hasattr(system, "sim")
                else system.runtime.scheduler.trace)

    def _kernel_sum(self, key: str) -> float:
        return sum(k.stats()[key] for k in self.wl.kernels)

    def hook(self, phase: str) -> None:
        for site in self._sites():
            if site.up and site.transport is not None:
                self.transports[id(site.transport)] = site.transport
        buffered = sum(k.stats()["buffered_messages"]
                       for k in self.wl.kernels if k.alive)
        self.buffered_peak = max(self.buffered_peak, buffered)
        if phase not in ("start", "end"):
            return
        self_s, calls = self.tracer.snapshot()
        self.snaps[phase] = {
            "cpu": time.process_time(),
            "self": self_s,
            "calls": calls,
            "counters": dict(self.trace().counters),
            "wedged": self._kernel_sum("flush.wedged_seconds"),
            "transports": {key: t.stats() for key, t in
                           self.transports.items()},
            "transfer": self.tracer.transfer_bytes,
            "timers": self._timers_fired(),
        }

    def _sites(self):
        system = self.wl.system
        if hasattr(system, "cluster"):
            return system.cluster.sites.values()
        return system.runtime.sites.values()

    def _timers_fired(self) -> int:
        system = self.wl.system
        if hasattr(system, "runtime"):
            return system.runtime.scheduler.stats()["timers.fired"]
        return 0

    def metrics(self, res, untraced: Dict[str, float],
                lag: Dict[str, float]) -> Dict[str, float]:
        from tracing import layer_of

        a, b = self.snaps["start"], self.snaps["end"]
        t0, t1 = res.phase_at["start"], res.phase_at["end"]
        incs = self.wl.group.incs
        d = sum(1 for inc in incs for _v, _m, t in inc.delivered
                if t0 <= t < t1) or 1
        issued = self.wl.issuer.issued_at
        offered = [0, 0]
        for mid, at in issued.items():
            if t0 <= at < t1:
                offered[mid[2]] += 1
        n_cb, n_ab = max(offered[0], 1), max(offered[1], 1)

        def self_us(*spans: str) -> float:
            return sum(b["self"].get(s, 0.0) - a["self"].get(s, 0.0)
                       for s in spans) * 1e6

        def calls(*spans: str) -> int:
            return sum(b["calls"].get(s, 0) - a["calls"].get(s, 0)
                       for s in spans)

        def counter(*names: str) -> float:
            return sum(b["counters"].get(n, 0) - a["counters"].get(n, 0)
                       for n in names)

        def transport(key: str) -> float:
            total = 0
            for tid, stats in b["transports"].items():
                total += stats.get(key, 0) - a["transports"].get(
                    tid, {}).get(key, 0)
            return total

        views = counter("flush.runs") or 1
        crashes = max(1, len(res.outage_ms))
        rejoins = len([r for r in res.rejoins if t0 <= r[0] < t1])
        spans = set(b["self"])
        layer_us: Dict[str, float] = {}
        for span in spans:
            layer = layer_of(span)
            if layer is not None:
                layer_us[layer] = layer_us.get(layer, 0.0) + self_us(span)
        # Busy time, not wall (the asyncio loop also sits idle), less
        # the host speed probes between sub-windows.
        busy_us = (b["cpu"] - a["cpu"]) * 1e6 - self_us("probe")
        is_net = self.wl.name == "net_open"
        if is_net:
            frames = transport("frames_sent")
            wire_bytes = transport("datagram_bytes_sent")
            datagrams = transport("datagrams_sent")
            per_datagram = frames / max(datagrams, 1)
        else:
            frames = counter("lan.frames")
            wire_bytes = counter("lan.bytes")
            per_datagram = 1.0
        batches = counter("batch.sent")
        data_msgs = batches or 1
        envelopes = counter("batch.envelopes") if batches else 1
        cost = "cpu_us_per_delivery" if is_net else "wall_us_per_delivery"
        traced_cost = self.traced_cost(res)
        gen_lag = lag.get("gen_lag_p99_ms", 0.0)
        out = {
            "msg.encode_us": self_us("msg.encode") / d,
            "msg.decode_us": self_us("msg.decode") / d,
            "msg.address_us": self_us("msg.address") / d,
            "msg.calls": calls("msg.encode", "msg.decode",
                               "msg.address") / d,
            "sim.sched_us": self_us("sim.sched", "sim.cpu") / d,
            "sim.events": calls("other.sim_event") / d,
            "sim.cpu_submits": calls("sim.cpu") / d,
            "net.send_us": self_us("net.send") / d,
            "net.recv_us": self_us("net.recv") / d,
            "net.frames": frames / d,
            "net.bytes": wire_bytes / d,
            "net.acks_pure": transport("acks_pure") / d,
            "net.retransmits_per_k": transport("retransmits") * 1000.0 / d,
            "net.frames_per_datagram": per_datagram,
            "pipeline.fanout_us": self_us("pipeline.fanout") / d,
            "pipeline.stability_us": self_us("pipeline.stability") / d,
            "pipeline.envelopes_per_batch": envelopes / data_msgs,
            "pipeline.buffered_peak": self.buffered_peak,
            "ordering.us_per_abcast": self_us("ordering") / n_ab,
            "ordering.proto_msgs_per_abcast": counter(
                "abcast.proposals", "abcast.finals",
                "abcast.seq_stamps") / n_ab,
            "causal.us_per_cbcast": self_us("causal") / n_cb,
            "causal.pending_peak": max(
                k.stats()["causal.peak_pending"] for k in self.wl.kernels),
            "engine.handle_us": self_us("engine") / d,
            "flush.host_ms": self_us("flush") / 1000.0 / views,
            "flush.wire_msgs": counter("flush.wire_msgs") / views,
            "flush.wedged_ms": (b["wedged"] - a["wedged"]) * 1000.0 / views,
            "fd.us": self_us("fd") / d,
            "fd.suspicions": counter("fd.suspicions") / crashes,
            "recovery.rejoin_ms": (statistics.mean(
                (r[1] - r[0]) * 1000.0 for r in res.rejoins)
                if rejoins else 0.0),
            "recovery.transfer_bytes": ((b["transfer"] - a["transfer"])
                                        / rejoins if rejoins else 0.0),
            "wal.us": self_us("wal") / d,
            "wal.appends": counter("wal.appends") / d,
            "wal.bytes": counter("wal.bytes") / d,
            "wal.checkpoint_bytes": counter("checkpoint.bytes") / d,
            "asyncio.sched_us": self_us("asyncio") / d,
            "asyncio.timers_fired": (b["timers"] - a["timers"]) / d,
            "asyncio.loop_lag_p99_ms": lag.get("loop_lag_p99_ms", 0.0),
            "bench.app_us": self_us("bench.app") / d,
            "bench.gen_lag_p99_ms": gen_lag,
            "bench.unattributed_frac": max(
                0.0, 1.0 - sum(layer_us.values()) / busy_us),
            "bench.trace_overhead": traced_cost / untraced[cost],
        }
        self.layer_us = {k: v / d for k, v in sorted(layer_us.items())}
        self.other_us = {
            s: self_us(s) / d for s in sorted(spans)
            if s.startswith("other")}
        self.busy_us_per_delivery = busy_us / d
        return out

    def traced_cost(self, res) -> float:
        """The traced run's cost per delivery, as the untraced run's
        ``wall_us_per_delivery`` (simulator) or ``cpu_us_per_delivery``
        (net_open) computes it."""
        key = ("cpu_us_per_delivery" if self.wl.name == "net_open"
               else "wall_us_per_delivery")
        return host_cost(self.wl, res)[key]


def _module_layer(filename: str) -> Optional[str]:
    """Layer of a source file: a ``spec.PROFILE_LAYERS`` layer,
    ``other.kernel`` for the rest of ``repro``, ``probe`` for the host
    speed probe, ``bench`` for the rest of this directory, None for
    anything else (stdlib, builtins)."""
    norm = filename.replace(os.sep, "/")
    if norm.endswith("/hostspeed.py"):
        return "probe"
    if "/repro/" in norm:
        dotted = "repro." + norm.split("/repro/", 1)[1][:-3].replace("/", ".")
        for prefix, layer in spec.PROFILE_LAYERS.items():
            if dotted == prefix or dotted.startswith(prefix + "."):
                return layer
        return "other.kernel"
    if norm.startswith(HERE.replace(os.sep, "/") + "/"):
        return "bench"
    return None


def profile_by_layer(profiler) -> Dict[str, float]:
    """Self time share per layer, attributed by module file.

    Time in builtins and the standard library goes to the layer of the
    caller, split by the time each call edge accounts for, as the span
    budget counts it inside the calling span.
    """
    import pstats

    stats = pstats.Stats(profiler).stats
    totals: Dict[str, float] = {}
    for (filename, _line, _func), (_cc, _nc, tottime, _ct, callers) in \
            stats.items():
        layer = _module_layer(filename)
        if layer is not None:
            totals[layer] = totals.get(layer, 0.0) + tottime
            continue
        for (caller_file, _l, _f), edge in callers.items():
            owner = _module_layer(caller_file) or "other"
            totals[owner] = totals.get(owner, 0.0) + edge[2]
    totals.pop("probe", None)  # runs between sub-windows
    whole = sum(totals.values()) or 1.0
    return {k: v / whole for k, v in sorted(totals.items())}


def run(args) -> dict:
    out: dict = {"workload": args.workload, "mode": args.mode}
    tracer = None
    if args.mode == "trace":
        import history
        import hostspeed
        import tracing
        import workloads
        tracer = tracing.Tracer()
        tracing.install(tracer, [(history.Incarnation, "deliver"),
                                 (workloads.Issuer, "issue")])
        # The host speed probe runs between sub-windows: time it, to
        # leave it out of the busy time the budget divides.
        hostspeed.probe = tracer.wrap("probe", hostspeed.probe)
    seconds = args.seconds
    if args.mode == "profile":
        seconds = args.seconds * spec.PROFILE_SHARE
    from workloads import BenchFailure
    wl = make(args.workload, args.seed, seconds)
    try:
        wl.setup()
        out["setup_s"] = time.monotonic() - args.started
        if args.mode == "setup":
            return out
        probe = None
        if args.lag_probe and args.workload == "net_open":
            probe = LoopLagProbe(wl.system.runtime.loop)
            wl.phase_hook = (lambda phase: probe.start()
                             if phase == "start" else
                             probe.stop() if phase == "end" else None)
        budget = None
        if tracer is not None:
            budget = Budget(wl, tracer)
            wl.phase_hook = budget.hook
        profiler = None
        if args.mode == "profile":
            import cProfile
            profiler = cProfile.Profile()

            def toggle(phase: str) -> None:
                if phase == "start":
                    profiler.enable()
                elif phase == "end":
                    profiler.disable()
            wl.phase_hook = toggle
        res = wl.measure()
    except BenchFailure as err:
        out["problems"] = [str(err)]
        return out
    finally:
        wl.close()
    out["attempted"] = res.attempted
    out["failed"] = len(res.failed)
    out["problems"] = res.problems
    out["counters"] = res.counters
    out["deliveries"] = res.deliveries
    out["samples"] = {
        "latency": sum(len(w) for w in res.latency_ms),
        "latency_windows": len([w for w in res.latency_ms if w]),
        "outages": len(res.outage_ms),
        "windows": len(res.windows),
    }
    if not res.outage_ms or not res.deliveries:
        out["problems"].append("the run measured nothing")
        return out
    out["metrics"] = end_to_end(wl, res)
    out["unscaled"] = host_cost(wl, res, scaled=False)
    out["latency_p99_ms"] = pct([x for w in res.latency_ms for x in w], 99)
    out["host_speed"] = statistics.median(w[3] for w in res.windows)
    lag = {"gen_lag_p99_ms": pct(res.gen_lag_ms, 99) if res.gen_lag_ms
           else 0.0}
    if probe is not None and probe.lag_ms:
        lag["loop_lag_p99_ms"] = pct(probe.lag_ms, 99)
    out["lag"] = lag
    if budget is not None:
        out["layers"] = budget.metrics(res, json.loads(args.untraced),
                                       json.loads(args.lag or "{}"))
        out["layer_us"] = budget.layer_us
        out["other_us"] = budget.other_us
        out["traced_busy_us_per_delivery"] = budget.busy_us_per_delivery
    if profiler is not None:
        out["profile"] = profile_by_layer(profiler)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", required=True,
                        choices=("setup", "measure", "trace", "profile"))
    parser.add_argument("--started", type=float, default=None)
    parser.add_argument("--lag-probe", action="store_true")
    parser.add_argument("--untraced", default="",
                        help="JSON metrics of the untraced run (trace mode)")
    parser.add_argument("--lag", default="",
                        help="JSON lag figures of the untraced run")
    args = parser.parse_args(argv)
    if args.mode == "trace" and not args.untraced:
        parser.error("--mode trace needs --untraced")
    if args.started is None:
        args.started = time.monotonic()
    out = run(args)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
