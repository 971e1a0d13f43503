"""Golden trajectory: a fixed-seed run must replay byte for byte.

The simulator is deterministic per seed, so a change that only makes the
host faster (cheaper addresses, a cheaper event heap, a faster codec)
must leave every simulated event where it was.  This test pins one
4-site run with concurrent CBCAST and leader-ABCAST streams to numbers
recorded before such changes: the LAN's total frames and bytes, how many
messages every site delivered, and a digest of each site's delivery
order.  If a refactor moves any of them, it changed the protocol's
behaviour (set or dict iteration order, timer tie-breaking, wire
bytes), not just its speed.

When a change moves the trajectory on purpose (a new wire format, a
different timer), re-record the constants below and say why in
CHANGES.md.
"""

from __future__ import annotations

import hashlib

from repro import IsisCluster, IsisConfig
from repro.sim.tasks import sleep

SINK = 16
N_SITES = 4
ROUNDS = 80

#: Recorded on the simulator before the slot-class ``Address`` and the
#: tuple-keyed event heap; every later host-cost change must match.
GOLDEN_FRAMES = 5670
GOLDEN_BYTES = 845679
GOLDEN_DELIVERED = [480, 480, 480, 480]
GOLDEN_ORDER = ["c9cfb70d5ae9b743", "e3bc4291596aaddb", "3416af2064e6d16d",
                "3f94be576252a158"]


def _run():
    system = IsisCluster(n_sites=N_SITES, seed=5,
                         isis_config=IsisConfig(abcast_mode="leader",
                                                batch_window=0.010))
    delivered = {site: [] for site in range(N_SITES)}
    members = []
    for site in range(N_SITES):
        proc, isis = system.spawn(site, f"m{site}")
        proc.bind(SINK, lambda msg, site=site: delivered[site].append(
            (msg["t"], msg["o"], msg["k"])))
        members.append((proc, isis))

    box = {}

    def create(isis=members[0][1]):
        box["gid"] = yield isis.pg_create("golden")

    members[0][0].spawn(create(), "create")
    system.run_for(5.0)
    for site in range(1, N_SITES):
        proc, isis = members[site]

        def join(isis=isis):
            yield isis.pg_join(box["gid"])

        proc.spawn(join(), f"join{site}")
        system.run_for(20.0)

    def stream(site, isis):
        for k in range(ROUNDS):
            yield isis.cbcast(box["gid"], SINK, 0, t="cb", o=site, k=k)
            if k % 2 == site % 2:
                yield isis.abcast(box["gid"], SINK, 0, t="ab", o=site,
                                  k=k)
            yield sleep(system.sim, 0.015 + 0.005 * site)

    tasks = [proc.spawn(stream(site, isis), f"stream{site}")
             for site, (proc, isis) in enumerate(members)]
    system.run_for(8.0)
    assert all(task.done and not task.rejected for task in tasks)
    frames = system.sim.trace.value("lan.frames")
    wire_bytes = system.sim.trace.value("lan.bytes")
    return frames, wire_bytes, delivered


def _digest(order) -> str:
    return hashlib.sha256(repr(order).encode()).hexdigest()[:16]


def test_fixed_seed_run_replays_the_recorded_trajectory():
    frames, wire_bytes, delivered = _run()
    counts = [len(delivered[site]) for site in range(N_SITES)]
    # Sanity: the run did what it is meant to pin.
    expected = N_SITES * ROUNDS + N_SITES * ROUNDS // 2
    assert counts == [expected] * N_SITES
    assert (frames, wire_bytes) == (GOLDEN_FRAMES, GOLDEN_BYTES)
    assert counts == GOLDEN_DELIVERED
    assert [_digest(delivered[site]) for site in range(N_SITES)] \
        == GOLDEN_ORDER
