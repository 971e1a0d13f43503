"""Differential properties: tree dissemination vs the flat oracle.

``IsisConfig.dissemination = "tree"`` replaces the *wire topology* —
envelopes, sequencer stamps, and stability traffic relay along a k-ary
spanning tree instead of every sender paying O(n) sends — but must
preserve every virtual synchrony guarantee.  Like the fast-flush
differential, the two modes send different traffic, so arrival timing
(and therefore the interleaving of concurrent multicasts) legitimately
differs.  What must match:

* each mode independently satisfies the history checker
  (:mod:`.history`): one ABCAST order, per-sender FIFO, exactly-once,
  the same set per view among survivors, causal order;
* both modes converge to the same final membership for the same
  scripted churn, under both abcast modes and both flush engines;
* messages from senders on surviving sites are delivered identically
  in both modes — including when an *interior relay* of the tree dies
  mid-multicast, the case where the subtree behind it sees nothing
  until the view-change flush refills the hole.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import IsisCluster, IsisConfig

from .history import GBCAST, History

ENTRY = 16
N_SITES = 5


def _churn_run(dissemination, seed, mode, fast, script):
    """One scripted churn workload; returns history/views/trace."""
    system = IsisCluster(
        n_sites=N_SITES, seed=seed,
        isis_config=IsisConfig(dissemination=dissemination, tree_fanout=2,
                               abcast_mode=mode, fast_flush=fast),
    )
    history = History()
    members = []
    for site in range(N_SITES):
        proc, isis = system.spawn(site, f"m{site}")
        proc.bind(ENTRY, history.on_delivery(f"m{site}"))
        members.append((proc, isis))

    def create():
        yield members[0][1].pg_create("td")

    members[0][0].spawn(create(), "create")
    system.run_for(3.0)
    for i in range(1, N_SITES):
        def join(isis=members[i][1], name=f"m{i}"):
            gid = yield isis.pg_lookup("td")
            view = yield isis.pg_join(gid)
            history.joined(name, gid.process(), view.view_id)

        members[i][0].spawn(join(), f"j{i}")
        system.run_for(15.0)

    for idx, (proc, isis) in enumerate(members):
        def gen(isis=isis, idx=idx):
            from repro.sim.tasks import sleep
            gid = yield isis.pg_lookup("td")
            for i in range(12):
                kind = "abcast" if (idx + i) % 2 else "cbcast"
                yield from history.bcast(f"m{idx}", isis, gid, ENTRY, kind,
                                         f"s{idx}:{kind[:2]}:{i}")
                yield sleep(system.sim, 0.11)

        proc.spawn(gen(), f"t{idx}")

    crashed_sites = set()
    for step, (kind, arg) in enumerate(script):
        system.run_for(1.2)
        if kind == "kill" and members[arg][0].alive:
            members[arg][0].kill()
        elif kind == "crash" and arg not in crashed_sites:
            crashed_sites.add(arg)
            system.crash_site(arg)
        elif kind == "gbcast":
            def gb(step=step):
                gid = yield members[0][1].pg_lookup("td")
                yield from history.bcast("m0", members[0][1], gid, ENTRY,
                                         GBCAST, f"gb:{step}")

            members[0][0].spawn(gb(), f"gb{step}")
    system.run_for(120.0)

    survivors = [s for s in range(N_SITES) if s not in crashed_sites]
    views = {}
    for s in survivors:
        for engine in system.kernel(s).engines.values():
            if engine.installed and engine.view is not None:
                views[s] = tuple(sorted(str(m) for m in engine.view.members))
    return {
        "history": history,
        "final": [f"m{s}" for s, (proc, _) in enumerate(members)
                  if proc.alive],
        "survivor_sites": survivors,
        "views": views,
        "trace": system.sim.trace,
        "stats": {s: system.kernel(s).stats() for s in survivors},
    }


def _surviving_sender_tags(result):
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
    st.tuples(st.just("kill"), st.integers(1, 4)),
    st.tuples(st.just("gbcast"), st.just(0)),
    st.tuples(st.just("crash"), st.integers(1, 4)),
)


@given(
    seed=st.integers(0, 300),
    mode=st.sampled_from(["two_phase", "sequencer"]),
    fast=st.booleans(),
    script=st.lists(SCRIPT_STEP, min_size=1, max_size=2),
)
@settings(max_examples=6, deadline=None)
def test_tree_matches_flat_under_churn(seed, mode, fast, script):
    tree = _churn_run("tree", seed, mode, fast, script)
    flat = _churn_run("flat", seed, mode, fast, script)
    for result in (tree, flat):
        result["history"].check(result["final"])
    tree_views = set(tree["views"].values())
    flat_views = set(flat["views"].values())
    assert len(tree_views) <= 1 and len(flat_views) <= 1, (
        "sites disagree on the final view within one mode")
    assert tree_views == flat_views, (
        f"final membership diverged: {tree_views} vs {flat_views}")
    assert _surviving_sender_tags(tree) == _surviving_sender_tags(flat)
    # The tree actually carried traffic (not a silent flat fallback).
    assert tree["trace"].value("tree.relayed") > 0


@pytest.mark.parametrize("mode", ["two_phase", "sequencer"])
@pytest.mark.parametrize("fast", [True, False])
def test_tree_ancestor_crash_mid_multicast(mode, fast):
    """Kill an interior relay while its subtree depends on it.

    Sites sorted [0..4] with fanout 2: in the tree rooted at site 0,
    site 1 relays to sites 3 and 4.  Crashing site 1 mid-burst from
    site 0 loses the subtree's copies until the removal flush runs; the
    union cut + refill must deliver every survivor-sent message to every
    survivor anyway, identically to flat mode.
    """
    script = [("crash", 1)]
    tree = _churn_run("tree", 42, mode, fast, script)
    flat = _churn_run("flat", 42, mode, fast, script)
    for result in (tree, flat):
        result["history"].check(result["final"])
    assert set(tree["views"].values()) == set(flat["views"].values())
    assert len(set(tree["views"].values())) == 1
    tags = _surviving_sender_tags(tree)
    assert tags == _surviving_sender_tags(flat)
    # Site 0 sent 12 messages and survived: subtree sites 3 and 4 must
    # have received all of them despite losing their relay.
    for i in range(12):
        kind = "ab" if i % 2 else "cb"
        assert f"s0:{kind}:{i}" in tags
    for s in (3, 4):
        got = {t for t in tree["history"].delivered_mids(f"m{s}")
               if t.startswith("s0:")}
        assert len(got) == 12, f"site {s} missed relayed traffic: {got}"


def test_tree_trims_buffers_and_counts():
    """Aggregated stability must actually reclaim buffers in tree mode,
    and the new observability counters must be live."""
    result = _churn_run("tree", 11, "sequencer", True, [("gbcast", 0)])
    trace = result["trace"]
    assert trace.value("stab.up_sent") > 0
    assert trace.value("stab.dn_sent") > 0
    assert trace.value("tree.relayed") > 0
    for s, stats in result["stats"].items():
        assert stats["buffered_messages"] == 0, (
            f"site {s} still buffers {stats['buffered_messages']}")
        assert stats["kernel.shards"] >= 1
        assert stats["kernel.peak_groups_per_shard"] >= 1
        assert stats["tree.fanout"] == 2
        assert stats["tree.depth"] >= 1
        assert stats["fd.buckets"] >= 1
