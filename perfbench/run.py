"""The repository benchmark: host cost, latency and outage of virtually
synchronous multicast on both drivers, with a per-layer budget.

Run from the repository root::

    python3 perfbench/run.py --workload sim_stream --seed 1 --seconds 20
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

Every measured run happens in a fresh interpreter (``worker.py``), so
set-up time and peak memory are its own.  ``--trace 0`` sets up
``spec.SETUP_REPEATS`` more times in fresh interpreters, measures once
with tracing off, and reports the end-to-end metrics.  ``--trace 1``
measures once untraced and once traced with the same seed, and reports
the per-layer budget; on ``sim_stream`` it also prints a cProfile
attribution by module beside the span budget.  Every run checks the
delivered histories (``history.check``); a divergence makes
``correct`` false.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A run that
cannot finish (no ``src/`` beside this directory, sockets that cannot
be bound, a stalled workload) prints no result and exits non-zero.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import spec  # noqa: E402

#: Every invocation must end well inside the 180 s a run may take.
DEADLINE_S = 170.0


class RunFailed(Exception):
    """A worker failed or timed out: no result can be reported."""


class Runner:
    def __init__(self, args) -> None:
        self.args = args
        self.deadline = time.monotonic() + DEADLINE_S

    def worker(self, workload: str, mode: str, *extra: str) -> dict:
        remaining = self.deadline - time.monotonic()
        if remaining <= 1.0:
            raise RunFailed(f"out of time before the {mode} run")
        started = time.monotonic()
        cmd = [sys.executable, os.path.join(HERE, "worker.py"),
               "--workload", workload, "--seed", str(self.args.seed),
               "--seconds", str(self.args.seconds), "--mode", mode,
               "--started", repr(started), *extra]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, timeout=remaining)
        except subprocess.TimeoutExpired:
            raise RunFailed(f"{workload} {mode} run timed out") from None
        if proc.returncode != 0 or not proc.stdout.strip():
            raise RunFailed(f"{workload} {mode} run failed (exit "
                            f"{proc.returncode}):\n{proc.stderr[-4000:]}")
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        if out.get("problems") and "metrics" not in out:
            raise RunFailed(f"{workload} {mode} run could not finish: "
                            + "; ".join(out["problems"]))
        return out


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def end_to_end(runner: Runner, workload: str) -> dict:
    setups = [runner.worker(workload, "setup")["setup_s"]
              for _ in range(spec.SETUP_REPEATS)]
    measured = runner.worker(workload, "measure")
    setups.append(measured["setup_s"])
    metrics = dict(measured["metrics"])
    metrics["setup_s"] = statistics.median(setups)
    samples = measured["samples"]
    unscaled = measured["unscaled"]
    notes = {
        "setup_s": f"median of {len(setups)} fresh interpreters",
        "wall_us_per_delivery": f"{measured['deliveries']} deliveries, "
                                f"{samples['windows']} sub-windows; "
                                f"unscaled "
                                f"{unscaled['wall_us_per_delivery']:.5g} at "
                                f"host speed x{measured['host_speed']:.2f}",
        "cpu_us_per_delivery": f"unscaled "
                               f"{unscaled['cpu_us_per_delivery']:.5g}",
        "latency_p50_ms": f"n={samples['latency']} in "
                          f"{samples['latency_windows']} window(s)",
        "latency_p90_ms": f"n={samples['latency']} in "
                          f"{samples['latency_windows']} window(s); p99 of "
                          f"all samples {measured['latency_p99_ms']:.5g}",
        "outage_ms": f"{samples['outages']} crash(es)",
    }
    print(f"== {workload}: end-to-end (seed {runner.args.seed}, "
          f"{runner.args.seconds:g} s)")
    for name, (unit, _better, _bound, _def) in spec.END_TO_END.items():
        note = notes.get(name, "")
        print(f"  {name:28s} {_fmt(metrics[name]):>12s} {unit:6s} {note}")
    return _verdict(measured, metrics, [])


def per_layer(runner: Runner, workload: str) -> dict:
    untraced = runner.worker(workload, "measure", "--lag-probe")
    traced = runner.worker(
        workload, "trace",
        "--untraced", json.dumps(untraced["metrics"]),
        "--lag", json.dumps(untraced["lag"]))
    problems = []
    if workload.startswith("sim_") and traced["counters"] != \
            untraced["counters"]:
        problems.append("the traced run diverged from the untraced run: "
                        "deterministic counters differ")
    profile: Optional[Dict[str, float]] = None
    if workload == "sim_stream":
        profile = runner.worker(workload, "profile")["profile"]
    layers = traced["layers"]
    layer_us = traced["layer_us"]
    busy = traced["traced_busy_us_per_delivery"]
    print(f"== {workload}: per-layer budget (seed {runner.args.seed}, "
          f"traced run busy {busy:.1f} us CPU per delivery, trace overhead "
          f"x{layers['bench.trace_overhead']:.2f})")
    head = f"  {'layer':15s} {'self us/dlv':>12s} {'share':>7s}"
    print(head + (f" {'cProfile':>9s}" if profile else ""))
    rows = dict(layer_us)
    for name, value in traced["other_us"].items():
        rows[name] = value
    rows["(outside)"] = max(0.0, busy - sum(rows.values()))
    for name, value in rows.items():
        line = f"  {name:15s} {value:12.2f} {value / busy:7.1%}"
        if profile is not None:
            key = name if name != "(outside)" else "other"
            share = profile.get(key)
            line += f" {share:9.1%}" if share is not None else f" {'':9s}"
        print(line)
    print(f"  unattributed {layers['bench.unattributed_frac']:.1%} of "
          f"traced busy time")
    for name, (unit, *_rest) in spec.PER_LAYER.items():
        print(f"  {name:32s} {_fmt(layers[name]):>12s} {unit}")
    return _verdict(untraced, layers, problems,
                    traced["problems"] + ([f"traced run failed "
                                           f"{traced['failed']} multicasts"]
                                          if traced["failed"] else []))


def _verdict(measured: dict, metrics: Dict[str, float],
             problems: List[str], more: List[str] = ()) -> dict:
    problems = list(measured["problems"]) + list(problems) + list(more)
    correct = not problems and measured["failed"] == 0
    attempted = measured["attempted"]
    print(f"  correctness: {'ok' if correct else 'FAILED'}; attempted "
          f"{attempted}, failed {measured['failed']} (failed_frac "
          f"{measured['failed'] / max(attempted, 1):.6g})")
    for problem in problems:
        print(f"    {problem}")
    return {"correct": correct, "attempted": attempted,
            "failed": measured["failed"], "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run the repository benchmark.")
    parser.add_argument("--workload", required=True,
                        choices=sorted(spec.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: src/repro not found beside perfbench/; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    units = {name: meta[0] for name, meta in
             (spec.PER_LAYER if args.trace else spec.END_TO_END).items()}
    names = sorted(spec.WORKLOADS) if args.workload == "all" \
        else [args.workload]
    results = []
    try:
        for workload in names:
            runner = Runner(args)
            step = per_layer if args.trace else end_to_end
            results.append((workload, step(runner, workload)))
    except RunFailed as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    metrics = {}
    for workload, result in results:
        prefix = f"{workload}." if len(results) > 1 else ""
        for name, unit in units.items():
            metrics[prefix + name] = {"value": result["metrics"][name],
                                      "unit": unit}
    print(json.dumps({
        "correct": all(r["correct"] for _w, r in results),
        "attempted": sum(r["attempted"] for _w, r in results),
        "failed": sum(r["failed"] for _w, r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
