"""What the benchmark runs and reports: workloads, metrics, predictions.

``BENCHMARK.json`` at the repository root names the same workloads and
metrics (its ``why`` lines are the ``summary`` lines here);
``test_perfbench.py`` checks that the two agree.  The sentences each
workload was chosen for are its ``why`` here, and each per-layer metric
names the end-to-end metric and workload it should move.

Out of scope: network partitions and composed faults.  They belong to a
fault-injection checker of their own, so this benchmark does not check
membership safety (at most one committing component, majority
liveness).  The ``BENCH_*.json`` ablations at the repository root stay
what they are, simulated-time protocol-cost results, and are not part
of this benchmark.
"""

from __future__ import annotations

#: Workload name -> definition.  ``config`` lists the ``IsisConfig``
#: fields that differ from the defaults; the remaining keys are the
#: workload's parameters.
WORKLOADS = {
    "sim_stream": {
        "driver": "simulator (IsisCluster), one process",
        "sites": 4,
        "config": {"abcast_mode": "leader", "batch_window": 0.010},
        "loop": "closed: 4 streams per site, each alternating CBCAST and "
                "ABCAST, 200 B payloads; a stream offers its next "
                "multicast an exponential think time (mean 20 ms) after "
                "its own site delivered the last",
        "delay": "simulator LanConfig defaults",
        "faults": "none in the measured window; after it the coordinator "
                  "site (also the ABCAST leader) crashes for the outage",
        "summary": "Simulator, 4 sites, leader ABCAST, 10 ms batching, "
                   "closed-loop CBCAST/ABCAST streams: the steady data "
                   "path (codec, heap, transport, batching, stamps, "
                   "causal).",
        "why": "The steady data path: codec, event heap, transport, "
               "batching, stamp ordering and causal delivery do nearly "
               "all the work, and flush, failure detection and the WAL do "
               "none. A hot-envelope codec or a heap change shows here.",
        "payload": 200,
        #: Host cost: the median sub-window (``cost``).
        "cost": "median",
        "streams_per_site": 4,
        #: Mean of the exponential think time (seeded) between a stream's
        #: delivery of its last multicast and its next offer.
        "think": 0.02,
        "warmup": 2.0,
        #: Simulated seconds per sub-window of the measured window.
        "window": 1.0,
        #: Simulated seconds measured per requested wall second.
        "sim_per_wall": 5.0,
        "outage_timeout": 30.0,
    },
    "sim_churn": {
        "driver": "simulator (IsisCluster), one process",
        "sites": 5,
        "config": {"durability": True},
        "loop": "open, in simulated time: every live site offers "
                "10 multicasts/s alternating CBCAST and ABCAST, 64 B "
                "payloads, each due at a seeded random point of its "
                "period",
        "delay": "simulator LanConfig defaults",
        "faults": "every 25 simulated s the next non-coordinator site, "
                  "in turn from a seeded first one, crashes, restarts 10 s "
                  "later, replays its WAL and rejoins with state transfer",
        "summary": "Simulator, 5 sites, WAL on, open loop 10/s per site "
                   "with crash-restart-rejoin cycles: view change, fd, "
                   "state transfer and WAL beside delivery; no batching.",
        "why": "View change, failure detection, state transfer and WAL "
               "writes beside the delivery path, with control traffic on "
               "the codec. Batching and the stamp engine do nothing, so a "
               "delivery-path gain that costs the WAL or flush shows here.",
        "payload": 64,
        #: Host cost over the whole window: its sub-windows differ by
        #: where they fall in the crash cycle.
        "cost": "total",
        "rate": 10.0,
        "warmup": 2.0,
        "cycle": 25.0,
        "crash_at": 5.0,
        "down": 10.0,
        "rejoin_after": 2.0,
        #: Wall seconds one cycle takes; sets the cycle count.
        "wall_per_cycle": 3.7,
        #: Simulated seconds per sub-window of the measured window.
        "window": 2.5,
    },
    "net_open": {
        "driver": "asyncio/UDP (AsyncioCluster), all sites on one event "
                  "loop in one process",
        "sites": 4,
        "config": {"abcast_mode": "leader"},
        "loop": "open, in wall time: every site offers 40 "
                "multicasts/s alternating CBCAST and ABCAST, 64 B "
                "payloads, each due at a seeded random point of its "
                "period; latency counts from each multicast's due time",
        "delay": "none injected (real localhost sockets)",
        "faults": "none in the measured window; after it the coordinator "
                  "site (also the ABCAST leader) crashes for the outage",
        "summary": "asyncio driver, 4 sites on localhost UDP, leader "
                   "ABCAST, open loop 40/s per site: reliable channel, "
                   "coalescing, RTO timers and event loop; no simulator.",
        "why": "Real sockets: the UDP reliable channel, datagram "
               "coalescing, RTO timers and event-loop scheduling set the "
               "latency, and the simulator does nothing, so a "
               "simulator-only change must not move it.",
        "payload": 64,
        "cost": "total",
        #: Multicasts per second per site.  75/s kept the loop 70-80%
        #: busy on a shared 2-vCPU host and its latency rode the host's
        #: contention; 40/s keeps it near half busy.
        "rate": 40.0,
        #: Wall seconds per sub-window; latency percentiles are medians
        #: of the sub-windows' percentiles.
        "window": 1.0,
        #: Seconds after the coordinator's heartbeat probe that it
        #: crashes.
        "crash_after_probe": 0.01,
        "outage_timeout": 20.0,
        "drain_timeout": 30.0,
    },
}

#: Share of the run length the cProfile cross-check measures (cProfile
#: slows the run several times over).
PROFILE_SHARE = 1.0 / 3.0

#: Fresh interpreters that only set up, per run, beside the measured one;
#: ``setup_s`` is the median of all of them.
SETUP_REPEATS = 4

#: End-to-end metrics: name -> (unit, better, bound, definition).
END_TO_END = {
    "setup_s": ("s", "lower", 0.25,
                "wall time from interpreter start to the first offered "
                "multicast (imports, boot, genesis, group formation); "
                "median of 5 fresh interpreters"),
    "wall_us_per_delivery": ("us", "lower", 0.25,
                             "host wall us per application delivery in "
                             "the measured window: the median sub-window "
                             "(1 simulated s) on sim_stream, the whole "
                             "window otherwise; on the simulator scaled "
                             "to the reference host speed (hostspeed.py), "
                             "on net_open unscaled (there the offered "
                             "rate sets it)"),
    "cpu_us_per_delivery": ("us", "lower", 0.25,
                            "process CPU us per application delivery over "
                            "the same windows, scaled the same way"),
    "latency_p50_ms": ("ms", "lower", 0.25,
                       "median delivery latency in the workload's clock: "
                       "simulated ms from send (closed loop) or due time "
                       "(open loop) to each member's delivery on the "
                       "simulator; wall ms from due time on net_open, the "
                       "median over 1 s sub-windows of their medians"),
    "latency_p90_ms": ("ms", "lower", 0.25,
                       "90th percentile of the same samples (on net_open "
                       "the median over sub-windows of their p90); the "
                       "p99 is printed but not gated, as it did not hold "
                       "steady on net_open on a shared host"),
    "outage_ms": ("ms", "lower", 0.15,
                  "per crash, ms in the workload's clock until every "
                  "survivor has delivered an ABCAST issued after the "
                  "crash; median over the run's crashes"),
    "wire_frames_per_delivery": ("count", "lower", 0.1,
                                 "frames the transports sent (data, "
                                 "acks, retransmits, heartbeats) per "
                                 "delivery in the measured window"),
    "wire_bytes_per_delivery": ("bytes", "lower", 0.1,
                                "bytes of those frames per delivery"),
    "peak_rss_mb": ("MB", "lower", 0.1,
                    "peak resident memory of the measured process"),
}

#: Per-layer metrics: name -> (unit, better, definition, what it moves).
#: Times are self time (span minus enclosed spans); ``per delivery``
#: unless the definition says otherwise.  The traced window is the
#: measured window plus the crash phase.
PER_LAYER = {
    "msg.encode_us": ("us", "lower",
                      "Message.encode, pack_batch, have-vector encoders",
                      "wall_us_per_delivery on sim_stream (about a third "
                      "of its profile), less on sim_churn; "
                      "cpu_us_per_delivery on net_open"),
    "msg.decode_us": ("us", "lower",
                      "Message.decode, unpack_batch, have-vector decoders",
                      "as msg.encode_us"),
    "msg.address_us": ("us", "lower",
                       "Address pack/unpack/process/with_entry/validation",
                       "as msg.encode_us"),
    "msg.calls": ("count", "lower", "calls into the msg spans",
                  "as msg.encode_us"),
    "sim.sched_us": ("us", "lower",
                     "Simulator.step/call_at and Cpu.submit self time",
                     "wall_us_per_delivery on both sim workloads; nothing "
                     "on net_open"),
    "sim.events": ("count", "lower", "simulator events dispatched",
                   "as sim.sched_us"),
    "sim.cpu_submits": ("count", "lower", "simulated CPU submits",
                        "as sim.sched_us"),
    "net.send_us": ("us", "lower", "transport, LAN and packet send path",
                    "latency_p90_ms and cpu_us_per_delivery on net_open; "
                    "wall_us_per_delivery on the sims"),
    "net.recv_us": ("us", "lower", "transport, LAN and packet receive path",
                    "as net.send_us"),
    "net.frames": ("count", "lower", "frames sent",
                   "wire_frames_per_delivery everywhere"),
    "net.bytes": ("bytes", "lower", "bytes sent",
                  "wire_bytes_per_delivery everywhere"),
    "net.acks_pure": ("count", "lower", "stand-alone ACK frames",
                      "wire_frames_per_delivery"),
    "net.retransmits_per_k": ("count", "lower",
                              "retransmits per 1000 deliveries",
                              "latency_p90_ms on net_open (RTO)"),
    "net.frames_per_datagram": ("count", "higher",
                                "frames per UDP datagram (1 on the "
                                "simulator LAN, which carries frames "
                                "alone)",
                                "cpu_us_per_delivery on net_open "
                                "(coalescing)"),
    "pipeline.fanout_us": ("us", "lower",
                           "dissemination, batching and tree stages",
                           "wire_frames_per_delivery and latency_p50_ms on "
                           "sim_stream"),
    "pipeline.stability_us": ("us", "lower", "stability stage",
                              "peak_rss_mb and wall_us_per_delivery"),
    "pipeline.envelopes_per_batch": ("count", "higher",
                                     "data envelopes per g.batch message "
                                     "(1 without batching)",
                                     "wire_frames_per_delivery on "
                                     "sim_stream; about 1 on sim_churn"),
    "pipeline.buffered_peak": ("count", "lower",
                               "peak messages buffered for stability, "
                               "all sites, sampled per sub-window",
                               "peak_rss_mb"),
    "ordering.us_per_abcast": ("us", "lower",
                               "OrderingEngine and ABCAST receivers, per "
                               "ABCAST offered",
                               "wall_us_per_delivery on sim_stream (leader); "
                               "latency_p50_ms on sim_churn (two-phase)"),
    "ordering.proto_msgs_per_abcast": ("count", "lower",
                                       "proposals, finals and stamp "
                                       "messages per ABCAST offered",
                                       "wire_frames_per_delivery and "
                                       "latency_p50_ms on sim_churn"),
    "causal.us_per_cbcast": ("us", "lower",
                             "CausalReceiver, vector clocks, WaitIndex, per "
                             "CBCAST offered",
                             "wall_us_per_delivery and latency_p90_ms on "
                             "sim_stream"),
    "causal.pending_peak": ("count", "lower",
                            "peak CBCASTs pending causal delivery at a site",
                            "latency_p90_ms on sim_stream"),
    "engine.handle_us": ("us", "lower", "GroupEngine self time",
                         "outage_ms and latency_p90_ms on sim_churn"),
    "flush.host_ms": ("ms", "lower",
                      "flush self time per view change", "outage_ms"),
    "flush.wire_msgs": ("count", "lower",
                        "flush protocol messages per view change",
                        "outage_ms"),
    "flush.wedged_ms": ("ms", "lower",
                        "time groups sat wedged, summed over sites, per "
                        "view change (workload clock)",
                        "outage_ms and latency_p90_ms on sim_churn"),
    "fd.us": ("us", "lower", "heartbeat, site view and membership",
              "wall_us_per_delivery on sim_churn"),
    "fd.suspicions": ("count", "lower", "suspicions raised per crash",
                      "outage_ms"),
    "recovery.rejoin_ms": ("ms", "lower",
                           "restart to join complete, mean per rejoin "
                           "(0 without rejoins)",
                           "latency_p90_ms on sim_churn"),
    "recovery.transfer_bytes": ("bytes", "lower",
                                "state-transfer message bytes per rejoin "
                                "(0 without rejoins)",
                                "wire_bytes_per_delivery on sim_churn"),
    "wal.us": ("us", "lower",
               "WalManager and StableStore self time (0 without the WAL)",
               "wall_us_per_delivery on sim_churn only"),
    "wal.appends": ("count", "lower", "log appends", "as wal.us"),
    "wal.bytes": ("bytes", "lower", "log bytes written", "as wal.us"),
    "wal.checkpoint_bytes": ("bytes", "lower", "checkpoint bytes written",
                             "as wal.us"),
    "asyncio.sched_us": ("us", "lower",
                         "asyncio scheduler seam self time (0 on the "
                         "simulator)",
                         "cpu_us_per_delivery on net_open"),
    "asyncio.timers_fired": ("count", "lower",
                             "driver timers fired (0 on the simulator)",
                             "latency_p90_ms and cpu_us_per_delivery on "
                             "net_open"),
    "asyncio.loop_lag_p99_ms": ("ms", "lower",
                                "p99 lateness of a 1 ms probe callback (0 "
                                "on the simulator)",
                                "latency_p90_ms on net_open"),
    "bench.app_us": ("us", "lower",
                     "the benchmark's own delivery and offer callbacks",
                     "none (benchmark overhead)"),
    "bench.gen_lag_p99_ms": ("ms", "lower",
                             "p99 lateness of the open-loop generator "
                             "(0 for the closed loop)",
                             "latency_p90_ms on net_open"),
    "bench.unattributed_frac": ("frac", "lower",
                                "share of the traced run's busy (CPU) time "
                                "in no listed layer (kernel glue, event "
                                "dispatch, the event loop)",
                                "none"),
    "bench.trace_overhead": ("ratio", "lower",
                             "traced over untraced cost per delivery, same "
                             "seed (wall on the simulator, CPU on "
                             "net_open)",
                             "none"),
}

#: Simulator trace counters that must repeat exactly for a fixed seed.
SIM_COUNTERS = (
    "lan.frames", "lan.bytes", "deliver.group", "batch.sent",
    "batch.envelopes", "abcast.proposals", "abcast.finals",
    "abcast.seq_stamps", "flush.runs", "flush.wire_msgs", "wal.appends",
    "wal.bytes", "checkpoint.bytes", "transport.retransmits",
)

#: Modules per layer, for the cProfile cross-check.
PROFILE_LAYERS = {
    "repro.msg": "msg",
    "repro.sim.core": "sim",
    "repro.sim.cpu": "sim",
    "repro.net": "net",
    "repro.core.pipeline": "pipeline",
    "repro.core.tree": "pipeline",
    "repro.core.ordering": "ordering",
    "repro.core.abcast": "ordering",
    "repro.core.cbcast": "causal",
    "repro.core.vectorclock": "causal",
    "repro.core.shards": "causal",
    "repro.core.engine": "engine",
    "repro.core.flush": "flush",
    "repro.fd": "fd",
    "repro.core.wal": "wal",
    "repro.runtime.stable": "wal",
    "repro.runtime.asyncio_driver": "asyncio",
}
