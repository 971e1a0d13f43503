"""Differential properties: fast-flush vs the legacy 4-phase flush.

``IsisConfig.fast_flush`` replaces the flush *wire protocol* (pre-
reports instead of a begin round, delta/pruned reports, report reuse on
restart, streaming join transfer) but must preserve every virtual
synchrony guarantee.  Unlike the indexed-delivery differential (same
wire bytes, byte-identical trajectories), the two flush engines send
*different* traffic, so arrival timing — and therefore the interleaving
of concurrent messages — legitimately differs.  What must match:

* each mode independently satisfies the history checker
  (:mod:`.history`): one ABCAST order, per-sender FIFO, exactly-once,
  the same set per view among survivors, causal order;
* both modes converge to the same final membership for the same
  scripted churn (joins, kills, site crashes, GBCASTs, partitions);
* messages from senders on *surviving sites* are delivered (to the
  same set of tags) in both modes — a survivor's sends are always in
  its own flush report, so no cut may drop them.

Runs in both ``abcast_mode`` settings.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import IsisCluster, IsisConfig, LanConfig

from .history import GBCAST, History

ENTRY = 16
N_SITES = 4


def _churn_run(fast, seed, mode, script):
    """One scripted churn workload; returns its history, views and trace."""
    system = IsisCluster(
        n_sites=N_SITES, seed=seed,
        isis_config=IsisConfig(fast_flush=fast, abcast_mode=mode),
    )
    history = History()
    members = []
    for site in range(N_SITES):
        proc, isis = system.spawn(site, f"m{site}")
        proc.bind(ENTRY, history.on_delivery(f"m{site}"))
        members.append((proc, isis))

    def create():
        yield members[0][1].pg_create("ff")

    members[0][0].spawn(create(), "create")
    system.run_for(3.0)
    for i in range(1, N_SITES):
        def join(isis=members[i][1], name=f"m{i}"):
            gid = yield isis.pg_lookup("ff")
            view = yield isis.pg_join(gid)
            history.joined(name, gid.process(), view.view_id)

        members[i][0].spawn(join(), f"j{i}")
        system.run_for(15.0)

    # Paced traffic from every original member.
    for idx, (proc, isis) in enumerate(members):
        def gen(isis=isis, idx=idx):
            from repro.sim.tasks import sleep
            gid = yield isis.pg_lookup("ff")
            for i in range(14):
                kind = "abcast" if (idx + i) % 2 else "cbcast"
                yield from history.bcast(f"m{idx}", isis, gid, ENTRY, kind,
                                         f"s{idx}:{kind[:2]}:{i}")
                yield sleep(system.sim, 0.11)

        proc.spawn(gen(), f"t{idx}")

    crashed_sites = set()
    late = []
    for step, (kind, arg) in enumerate(script):
        system.run_for(1.2)
        if kind == "kill" and members[arg][0].alive:
            members[arg][0].kill()
        elif kind == "crash" and arg not in crashed_sites:
            crashed_sites.add(arg)
            system.crash_site(arg)
        elif kind == "gbcast":
            def gb(step=step):
                gid = yield members[0][1].pg_lookup("ff")
                yield from history.bcast("m0", members[0][1], gid, ENTRY,
                                         GBCAST, f"gb:{step}")

            members[0][0].spawn(gb(), f"gb{step}")
        elif kind == "partition":
            system.cluster.lan.partition([[0, 1], [2, 3]])
            system.run_for(0.8)  # below the failure-detection timeout
            system.cluster.lan.heal()
        elif kind == "join":
            joiner, joiner_isis = system.spawn(arg, f"late{step}")
            joiner.bind(ENTRY, history.on_delivery(f"late{step}"))

            def jn(joiner_isis=joiner_isis, name=f"late{step}"):
                gid = yield joiner_isis.pg_lookup("ff")
                view = yield joiner_isis.pg_join(gid)
                history.joined(name, gid.process(), view.view_id)

            joiner.spawn(jn(), f"late{step}")
            late.append((f"late{step}", joiner))
    system.run_for(120.0)

    survivors = [s for s in range(N_SITES) if s not in crashed_sites]
    views = {}
    for s in survivors:
        for engine in system.kernel(s).engines.values():
            if engine.installed and engine.view is not None:
                views[s] = tuple(sorted(str(m) for m in engine.view.members))
    procs = [(f"m{s}", proc) for s, (proc, _) in enumerate(members)] + late
    return {
        "history": history,
        "final": [name for name, proc in procs if proc.alive],
        "survivor_sites": survivors,
        "views": views,
        "trace": system.sim.trace,
    }


def _surviving_sender_tags(result):
    """Tags the original members on surviving sites delivered,
    restricted to senders on surviving sites (their kernels' reports
    always cover their own sends), plus GBCASTs."""
    out = set()
    history = result["history"]
    for s in result["survivor_sites"]:
        for t in history.delivered_mids(f"m{s}"):
            if t.startswith("s"):
                sender = int(t.split(":")[0][1:])
                if sender in result["survivor_sites"]:
                    out.add(t)
            elif t.startswith("gb:"):
                out.add(t)
    return out


SCRIPT_STEP = st.one_of(
    st.tuples(st.just("kill"), st.integers(1, 3)),
    st.tuples(st.just("gbcast"), st.just(0)),
    st.tuples(st.just("partition"), st.just(0)),
    st.tuples(st.just("join"), st.integers(1, 3)),
)


@given(
    seed=st.integers(0, 300),
    mode=st.sampled_from(["two_phase", "sequencer"]),
    script=st.lists(SCRIPT_STEP, min_size=1, max_size=3),
)
@settings(max_examples=6, deadline=None)
def test_fast_flush_matches_legacy_under_churn(seed, mode, script):
    fast = _churn_run(True, seed, mode, script)
    legacy = _churn_run(False, seed, mode, script)
    for result in (fast, legacy):
        result["history"].check(result["final"])
    # Same final membership in both modes.
    fast_views = set(fast["views"].values())
    legacy_views = set(legacy["views"].values())
    assert len(fast_views) <= 1 and len(legacy_views) <= 1, (
        "sites disagree on the final view within one mode")
    assert fast_views == legacy_views, (
        f"final membership diverged: {fast_views} vs {legacy_views}")
    # Survivor-sent messages delivered identically across modes.
    assert _surviving_sender_tags(fast) == _surviving_sender_tags(legacy)


@given(
    seed=st.integers(0, 300),
    mode=st.sampled_from(["two_phase", "sequencer"]),
    crash_site=st.integers(1, 3),
)
@settings(max_examples=4, deadline=None)
def test_fast_flush_matches_legacy_across_site_crash(seed, mode, crash_site):
    """A site crash mid-traffic: the case the pre-report path serves."""
    script = [("gbcast", 0), ("crash", crash_site), ("kill", crash_site)]
    fast = _churn_run(True, seed, mode, script)
    legacy = _churn_run(False, seed, mode, script)
    for result in (fast, legacy):
        result["history"].check(result["final"])
    assert set(fast["views"].values()) == set(legacy["views"].values())
    assert _surviving_sender_tags(fast) == _surviving_sender_tags(legacy)
    # The crash actually exercised the fast path in fast mode.
    assert fast["trace"].value("flush.prereports_sent") >= 1


def test_fast_flush_deterministic_loss_sweep():
    """Deterministic lossy-LAN churn: both modes drain to agreement."""
    for mode in ("two_phase", "sequencer"):
        results = {}
        for fast in (True, False):
            system = IsisCluster(
                n_sites=3, seed=99,
                lan_config=LanConfig(loss_rate=0.05),
                isis_config=IsisConfig(fast_flush=fast, abcast_mode=mode),
            )
            deliveries = {s: [] for s in range(3)}
            members = []
            for site in range(3):
                proc, isis = system.spawn(site, f"m{site}")
                proc.bind(ENTRY, lambda msg, s=site: deliveries[s].append(
                    msg["tag"]))
                members.append((proc, isis))

            def create():
                yield members[0][1].pg_create("sw")

            members[0][0].spawn(create(), "create")
            system.run_for(3.0)
            for i in (1, 2):
                def join(isis=members[i][1]):
                    gid = yield isis.pg_lookup("sw")
                    yield isis.pg_join(gid)

                members[i][0].spawn(join(), f"j{i}")
                system.run_for(20.0)
            for idx in range(3):
                def gen(isis=members[idx][1], idx=idx):
                    gid = yield isis.pg_lookup("sw")
                    for i in range(10):
                        yield isis.bcast(
                            gid, ENTRY,
                            kind="abcast" if i % 2 else "cbcast",
                            tag=f"s{idx}:{'ab' if i % 2 else 'cb'}:{i}")

                members[idx][0].spawn(gen(), f"g{idx}")
            system.run_for(2.0)
            members[2][0].kill()
            system.run_for(120.0)
            results[fast] = {s: set(deliveries[s]) for s in range(3)}
            assert results[fast][0] == results[fast][1], (
                f"{mode} fast={fast}: survivors diverged")
        # Site 2's kernel survives (only the member died), so both
        # modes deliver exactly the same tag sets.
        assert results[True][0] == results[False][0], (
            f"{mode}: delivered sets diverged between flush engines")
