"""Ablation A4 — causal delivery cost against pending depth.

The CBCAST engine is dependency-indexed: (sender, seq)-keyed FIFO
wakeups plus the kernel WaitIndex for cross-group thresholds, so the
host cost of a delivery should not grow with the number of messages
waiting.  This ablation builds that backlog on purpose and checks that
cost per delivered message stays flat as the backlog deepens.

Workload: two groups spanning every site, paced CBCAST streams from all
sites over a lossy LAN; a LAN partition (below the failure-detection
timeout) splits the cluster for a while, so cross-side causal contexts
pile up a deep pending backlog that floods in at heal time.  The
partition length scales the backlog: the 1×/10× depth ablation checks
that cost per message stays flat.

Per configuration (sites × depth) we record: delivered messages, peak
pending depth, WaitIndex peak, wall-clock seconds for the measured
phase, delivered msgs per wall-second, and wall-µs per delivered
message.  Results go to ``BENCH_delivery.json``.

Run under pytest-benchmark::

    PYTHONPATH=src python -m pytest benchmarks/bench_ablation_delivery.py -s

or standalone::

    PYTHONPATH=src python benchmarks/bench_ablation_delivery.py

``DELIVERY_BENCH_SMOKE=1`` runs the CI smoke variant (8 sites, short
partition) and fails unless every site drains the backlog (no pending
CBCAST, empty WaitIndex) and some message waited across groups
(``wait_index.peak > 0``).
"""

from __future__ import annotations

import json
import os
import time
from typing import Dict, List

import pytest

from repro import IsisCluster, LanConfig
from repro.core.kernel import IsisConfig
from repro.fd.heartbeat import HeartbeatConfig

from harness import print_table, run_one

SINK_ENTRY = 17
STREAMS_PER_SITE = 3
SEND_PACE = 0.010          # seconds between sends per stream
LOSS_RATE = 0.12
STEADY_SECONDS = 1.0       # pre-partition warm traffic
BASE_PARTITION = 0.6       # depth 1× partition length (seconds)
DRAIN_SECONDS = 25.0       # post-heal backlog drain
SMOKE = os.environ.get("DELIVERY_BENCH_SMOKE") == "1"

_RESULTS_PATH = os.path.join(os.path.dirname(__file__), os.pardir,
                             "BENCH_delivery.json")


def _build(sites: int) -> Dict:
    """A cluster with two all-site groups and paced CBCAST streams."""
    config = IsisConfig(
        batch_window=0.010,
        # Partitions in this ablation are transient congestion, not
        # failures: keep the detector from evicting the far side.
        heartbeat=HeartbeatConfig(interval=0.5, min_timeout=60.0,
                                  max_timeout=120.0),
    )
    lan = LanConfig(loss_rate=LOSS_RATE, ack_delay=0.010)
    system = IsisCluster(n_sites=sites, seed=808, lan_config=lan,
                         isis_config=config)
    members = []
    for site in range(sites):
        proc, isis = system.spawn(site, f"m{site}")
        proc.bind(SINK_ENTRY, lambda msg: None)
        members.append((proc, isis))

    def create():
        yield members[0][1].pg_create("dla")
        yield members[0][1].pg_create("dlb")

    members[0][0].spawn(create(), "create")
    system.run_for(3.0)
    # Concurrent joins: the coordinator batches them into few flushes.
    for i in range(1, sites):
        def join(isis=members[i][1]):
            for name in ("dla", "dlb"):
                gid = yield isis.pg_lookup(name)
                yield isis.pg_join(gid)

        members[i][0].spawn(join(), f"join{i}")
    system.run_for(10.0 + 3.0 * sites)
    gids = {engine.name: key
            for key, engine in system.kernel(0).engines.items()
            if engine.name in ("dla", "dlb")}
    for name, gid in gids.items():
        for site in range(sites):
            view = system.kernel(site).current_view(gid)
            assert view is not None and len(view.members) == sites, (
                f"join incomplete: site {site} group {name}")
    return {"system": system, "members": members}


def _deep_buffer_run(sites: int, depth: float) -> Dict:
    built = _build(sites)
    system = built["system"]
    members = built["members"]
    stop = {"done": False}
    sent = {"n": 0}

    def stream(proc, isis, idx):
        def gen():
            from repro.sim.tasks import sleep
            ga = yield isis.pg_lookup("dla")
            gb = yield isis.pg_lookup("dlb")
            i = 0
            while not stop["done"]:
                gid = ga if i % 2 else gb
                yield isis.cbcast(gid, SINK_ENTRY, tag=i)
                sent["n"] += 1
                i += 1
                yield sleep(system.sim, SEND_PACE)

        proc.spawn(gen(), f"stream{idx}")

    for site, (proc, isis) in enumerate(members):
        for k in range(STREAMS_PER_SITE):
            stream(proc, isis, f"{site}.{k}")

    trace = system.sim.trace
    half = list(range(sites // 2))
    other = list(range(sites // 2, sites))
    partition_len = BASE_PARTITION * depth

    delivered_before = trace.value("deliver.group")
    wall_start = time.perf_counter()
    system.run_for(STEADY_SECONDS)
    system.cluster.lan.partition([half, other])
    system.run_for(partition_len)
    system.cluster.lan.heal()
    stop["done"] = True
    residual = -1
    for _ in range(12):  # drain adaptively: deep backlogs need window trips
        system.run_for(DRAIN_SECONDS)
        residual = sum(system.kernel(s).stats()["causal.pending"]
                       for s in range(sites))
        if residual == 0:
            break
    wall = time.perf_counter() - wall_start
    delivered = trace.value("deliver.group") - delivered_before

    stats = [system.kernel(s).stats() for s in range(sites)]
    peak_pending = max(st["causal.peak_pending"] for st in stats)
    wait_peak = max(st["wait_index.peak"] for st in stats)
    waiting = sum(st["wait_index.size"] for st in stats)
    assert residual == 0, f"backlog not drained: {residual} still pending"
    assert waiting == 0, f"{waiting} WaitIndex registrations left behind"
    return {
        "sent": sent["n"],
        "delivered": delivered,
        "peak_pending": peak_pending,
        "wait_index_peak": wait_peak,
        "wall_seconds": round(wall, 3),
        "delivered_per_wall_sec": round(delivered / max(wall, 1e-9), 1),
        "wall_us_per_delivered": round(1e6 * wall / max(delivered, 1), 2),
    }


def ablation_workload() -> Dict:
    if SMOKE:
        site_counts: List[int] = [8]
        depths = [1.0, 4.0]
    else:
        site_counts = [8, 16, 32]
        depths = [1.0, 10.0]
    results: Dict[str, Dict] = {}
    for sites in site_counts:
        for depth in depths:
            results[f"{sites}s:depth{depth:g}x"] = _deep_buffer_run(
                sites, depth)

    rows = [
        (key, m["delivered"], m["peak_pending"], m["wait_index_peak"],
         m["wall_seconds"], f"{m['delivered_per_wall_sec']:,.0f}",
         m["wall_us_per_delivered"])
        for key, m in results.items()
    ]
    print_table(
        f"Ablation A4 — causal delivery, {STREAMS_PER_SITE} streams/site, "
        f"loss {LOSS_RATE:.0%}, partition {BASE_PARTITION}s × depth",
        ["config", "delivered", "peak pending", "wait peak", "wall s",
         "delivered/wall-s", "wall µs/msg"],
        rows,
    )

    headline_sites = 16 if 16 in site_counts else site_counts[0]
    deep = depths[-1]
    flat_1x = results[f"{headline_sites}s:depth1x"]["wall_us_per_delivered"]
    flat_deep = results[f"{headline_sites}s:depth{deep:g}x"][
        "wall_us_per_delivered"]
    flatness = flat_deep / max(flat_1x, 1e-9)
    print(f"\n{headline_sites}-site deep buffer: cost/msg {flat_1x} -> "
          f"{flat_deep} µs (x{flatness:.2f}) from 1x to {deep:g}x depth")

    metrics = {
        "abl4:indexed_flatness": round(flatness, 3),
        "abl4:wait_index_peak": min(m["wait_index_peak"]
                                    for m in results.values()),
    }
    for key, m in results.items():
        metrics[f"abl4:{key}:tput"] = m["delivered_per_wall_sec"]
        metrics[f"abl4:{key}:us_per_msg"] = m["wall_us_per_delivered"]
    if SMOKE:
        # Short CI runs must not clobber the canonical results.
        return metrics
    with open(_RESULTS_PATH, "w") as fh:
        json.dump({
            "workload": {
                "streams_per_site": STREAMS_PER_SITE,
                "send_pace": SEND_PACE,
                "loss_rate": LOSS_RATE,
                "base_partition_seconds": BASE_PARTITION,
                "depths": depths,
                "site_counts": site_counts,
            },
            "configs": results,
            "indexed_cost_flatness_1x_to_deep": round(flatness, 3),
        }, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return metrics


@pytest.mark.benchmark(group="ablation")
def test_delivery_ablation(benchmark):
    metrics = run_one(benchmark, ablation_workload)
    # Every run drained its backlog (asserted per config) and exercised
    # cross-group waits.
    assert metrics["abl4:wait_index_peak"] > 0
    if SMOKE:
        return
    # Acceptance: cost per message flat (+-25% wall-clock noise band;
    # loss/retransmit work per message also rises with depth) from 1x to
    # 10x pending depth.
    assert 0.75 <= metrics["abl4:indexed_flatness"] <= 1.25


if __name__ == "__main__":
    ablation_workload()
    if not SMOKE:
        print(f"\nresults written to {os.path.abspath(_RESULTS_PATH)}")
