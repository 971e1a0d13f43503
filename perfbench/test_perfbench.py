"""Tests of the benchmark itself: its description, its determinism, its
correctness gate and its refusal to run without the program.

Run with ``python -m pytest perfbench -q`` from the repository root.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import spec  # noqa: E402
from history import ABCAST_KIND, CBCAST_KIND, Incarnation, check  # noqa: E402


def _benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_benchmark_json_matches_spec():
    bench = _benchmark_json()
    assert bench["command"] == ["python3", "perfbench/run.py"]
    assert bench["paths"] == ["perfbench"]
    assert [w["name"] for w in bench["workloads"]] == list(spec.WORKLOADS)
    for entry in bench["workloads"]:
        assert entry["why"] == spec.WORKLOADS[entry["name"]]["summary"]
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
    assert {m["name"]: (m["unit"], m["better"], m["bound"])
            for m in bench["end_to_end"]} == {
        name: meta[:3] for name, meta in spec.END_TO_END.items()}
    assert {m["name"]: (m["unit"], m["better"])
            for m in bench["per_layer"]} == {
        name: meta[:2] for name, meta in spec.PER_LAYER.items()}
    assert all(m["bound"] <= 0.25 for m in bench["end_to_end"])


def _measure(workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--mode", "measure"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["problems"] == [] and out["failed"] == 0, out["problems"]
    return out["counters"]


@pytest.mark.parametrize("workload,seconds",
                         [("sim_stream", 0.6), ("sim_churn", 1.0)])
def test_sim_counters_repeat_per_seed(workload, seconds):
    """Same seed, fresh interpreters (so other hash seeds): identical
    delivery counts, wire frames and bytes, latencies, outages and WAL
    bytes.  Another seed changes them."""
    first = _measure(workload, 1, seconds)
    assert _measure(workload, 1, seconds) == first
    other = _measure(workload, 2, seconds)
    for key in ("deliveries", "lan.frames", "lan.bytes", "latency_ms_sum",
                "outage_ms"):
        assert other[key] != first[key], key
    if workload == "sim_churn":
        assert first["wal.bytes"] > 0
        assert other["wal.bytes"] != first["wal.bytes"]


class _Msg(dict):
    """A delivered message as the toolkit hands it to the application."""

    def __init__(self, mid, view):
        super().__init__(o=mid[0], g=mid[1], c=mid[2], k=mid[3])
        self.view_id = view


def _member(site, deliveries, views=(1,)):
    inc = Incarnation(site, 0, clock=lambda: 0.0)
    inc.views = list(views)
    for mid in deliveries:
        inc.deliver(_Msg(mid, views[0]))
    return inc


def test_gate_accepts_agreement_and_catches_divergence():
    a1, a2 = (0, 0, ABCAST_KIND, 0), (1, 0, ABCAST_KIND, 0)
    c1, c2 = (0, 0, CBCAST_KIND, 0), (0, 0, CBCAST_KIND, 1)
    issued = [a1, a2, c1, c2]
    live = {(0, 0), (1, 0)}
    good = [_member(0, [c1, a1, c2, a2]), _member(1, [a1, c1, c2, a2])]
    assert check(good, issued, live) == (set(), [])

    cases = {
        "missed": [_member(0, [c1, a1, c2, a2]), _member(1, [a1, c1, a2])],
        "twice": [_member(0, [c1, a1, c2, a2]),
                  _member(1, [a1, c1, c2, a2, c2])],
        "fifo": [_member(0, [c1, a1, c2, a2]), _member(1, [a1, c2, c1, a2])],
        "order": [_member(0, [c1, a1, c2, a2]), _member(1, [c1, a2, c2, a1])],
    }
    for name, members in cases.items():
        failed, problems = check(members, issued, live)
        assert failed and problems, name


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sim_stream",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
