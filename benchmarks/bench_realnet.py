"""Wall-clock benchmark of the asyncio/UDP driver (real sockets).

Every other benchmark in this suite reports *simulated*-time metrics;
this one measures the real thing: N OS processes (one ISIS site each,
spawned via ``scripts/run_cluster.py``) on localhost UDP/TCP, driving
CBCAST and ABCAST (sequencer mode) workloads and reporting wall-clock
delivered throughput per site plus the delivery-latency distribution
(p50/p99 and a 33-point per-config CDF).

It also reports the datagram bundling the real driver does (syscall
counts are invisible to the simulator): frames queued to a destination
within one event-loop tick share datagrams, so ``frames_per_datagram``
above 1 means fewer ``sendto`` calls and fewer per-datagram header
bytes for the same frame stream.

Run directly (``python benchmarks/bench_realnet.py``) to write
``BENCH_realnet.json``; ``REALNET_BENCH_SMOKE=1`` runs a single short
config as the CI gate.  Requires working localhost sockets.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import socket

import pytest

SMOKE = os.environ.get("REALNET_BENCH_SMOKE") == "1"
_RESULTS_PATH = os.path.join(os.path.dirname(__file__), os.pardir,
                             "BENCH_realnet.json")
_RUN_CLUSTER = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            os.pardir, "scripts", "run_cluster.py")

DURATION = 1.5 if SMOKE else 4.0
PAYLOAD = 64
INFLIGHT = 32


def _sockets_available() -> bool:
    try:
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        sock.bind(("127.0.0.1", 0))
        sock.close()
        return True
    except OSError:
        return False


def _load_run_cluster():
    spec = importlib.util.spec_from_file_location("run_cluster", _RUN_CLUSTER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_config(workload: str, n_sites: int,
               duration: float = DURATION) -> dict:
    """One cluster run; returns the launcher's aggregate summary."""
    module = _load_run_cluster()
    args = argparse.Namespace(
        n_sites=n_sites, base_port=None, host="127.0.0.1", seed=0,
        workload=workload, duration=duration, payload_bytes=PAYLOAD,
        inflight=INFLIGHT, abcast_mode="sequencer",
        timeout=duration + 60.0, out=None)
    summary = module.run_cluster(args)
    summary.pop("reports", None)
    return summary


def _metrics(summary: dict) -> dict:
    datagrams = summary["datagrams_sent"]
    return {
        "n_sites": summary["n_sites"],
        "workload": summary["workload"],
        "ok": summary["ok"],
        "total_sent": summary["total_sent"],
        "delivered_per_site_per_sec": round(
            summary["delivered_per_site_per_sec"], 1),
        "latency_p50_ms": round(summary["latency_p50"] * 1e3, 3),
        "latency_p99_ms": round(summary["latency_p99"] * 1e3, 3),
        # Worst-site delivery-latency CDF at 33 evenly spaced quantiles
        # (0, 1/32 … 1) in ms — the full distribution, not two points.
        "latency_cdf_ms": [
            round(v * 1e3, 3) for v in summary.get("latency_cdf", [])],
        "datagrams_sent": datagrams,
        "frames_sent": summary["frames_sent"],
        "frames_per_datagram": round(
            summary["frames_sent"] / max(1, datagrams), 2),
        "retransmits": summary["retransmits"],
    }


def realnet_workload() -> dict:
    results: dict = {}
    configs = ([("cbcast", 4)] if SMOKE else
               [("cbcast", 4), ("cbcast", 8), ("abcast", 4), ("abcast", 8)])
    for workload, n_sites in configs:
        summary = run_config(workload, n_sites)
        metrics = _metrics(summary)
        results[f"{workload}:{n_sites}p"] = metrics
        print(f"{workload} @ {n_sites} procs: "
              f"{metrics['delivered_per_site_per_sec']:.0f} "
              f"delivered/site/s, p50 {metrics['latency_p50_ms']:.1f} ms, "
              f"p99 {metrics['latency_p99_ms']:.1f} ms, "
              f"{metrics['frames_per_datagram']:.2f} frames/datagram, "
              f"ok={metrics['ok']}")

    payload = {
        "driver": "asyncio_udp",
        "workload": {
            "duration_seconds": DURATION,
            "payload_bytes": PAYLOAD,
            "inflight_per_sender": INFLIGHT,
            "abcast_mode": "sequencer",
        },
        "configs": results,
    }
    if not SMOKE:
        with open(_RESULTS_PATH, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return payload


@pytest.mark.skipif(not _sockets_available(),
                    reason="localhost sockets unavailable")
def test_realnet_bench():
    payload = realnet_workload()
    for name, metrics in payload["configs"].items():
        assert metrics["ok"], f"{name} diverged or failed"
        assert metrics["delivered_per_site_per_sec"] > 0
    # Bundling must cut datagrams (syscalls) below one per frame.
    assert payload["configs"]["cbcast:4p"]["frames_per_datagram"] > 1.1


if __name__ == "__main__":
    realnet_workload()
    if not SMOKE:
        print(f"\nresults written to {os.path.abspath(_RESULTS_PATH)}")
