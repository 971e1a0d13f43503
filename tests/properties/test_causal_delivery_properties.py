"""Causal delivery, checked against the happens-before specification.

Randomized multi-group workloads under loss, a mid-stream crash, and a
deterministic partition-heal backlog drive the dependency-indexed CBCAST
engine through FIFO wakeups, cross-group WaitIndex thresholds,
view-change wakes and flush leftovers.  Every run is checked with the
history checker (:mod:`.history`: exactly-once, FIFO, ABCAST total
order, same set per view, causal order) and must leave no pending CBCAST
and no WaitIndex registration behind once it is quiescent.

The mutation test shows the checker has teeth: with the kernel's
context check stubbed to always pass, delivery degrades to per-sender
FIFO and the checker reports a causal violation on a fixed seed.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import IsisCluster, LanConfig
from repro.core.kernel import ProtocolsProcess

from .history import CBCAST, History

ENTRY = 16


def _assert_quiescent(system, sites):
    for site in sites:
        stats = system.kernel(site).stats()
        assert stats["causal.pending"] == 0, f"site {site}: {stats}"
        assert stats["wait_index.size"] == 0, f"site {site}: {stats}"


def _run_workload(seed, plan, loss, crash_site=None, crash_after=None,
                  n_sites=3):
    system = IsisCluster(n_sites=n_sites, seed=seed,
                         lan_config=LanConfig(loss_rate=loss))
    history = History()
    members = []
    for site in range(n_sites):
        proc, isis = system.spawn(site, f"m{site}")
        proc.bind(ENTRY, history.on_delivery(f"m{site}"))
        members.append((proc, isis))

    def create():
        yield members[0][1].pg_create("da")
        yield members[0][1].pg_create("db")

    members[0][0].spawn(create(), "create")
    system.run_for(3.0)
    for i in range(1, n_sites):
        if not members[i][0].alive:
            # Loss can (deterministically) evict a site during setup.
            continue

        def join(isis=members[i][1], name=f"m{i}"):
            for group in ("da", "db"):
                gid = yield isis.pg_lookup(group)
                view = yield isis.pg_join(gid)
                history.joined(name, gid.process(), view.view_id)

        members[i][0].spawn(join(), f"join{i}")
        system.run_for(25.0)

    for task_id, (sender_idx, group_pattern, kind, burst) in enumerate(plan):
        proc, isis = members[sender_idx]
        if not proc.alive:
            continue

        def blast(isis=isis, task_id=task_id, pattern=group_pattern,
                  kind=kind, burst=burst, name=f"m{sender_idx}"):
            ga = yield isis.pg_lookup("da")
            gb = yield isis.pg_lookup("db")
            groups = {"a": [ga], "b": [gb], "ab": [ga, gb]}[pattern]
            for i in range(burst):
                yield from history.bcast(
                    name, isis, groups[i % len(groups)], ENTRY, kind,
                    f"{kind[:2]}:{task_id}:{i}")

        proc.spawn(blast(), f"blast{task_id}")
    if crash_site is not None:
        system.run_for(crash_after)
        system.crash_site(crash_site)
    system.run_for(250.0)
    alive = [s for s in range(n_sites) if members[s][0].alive]
    return system, history, [f"m{s}" for s in alive], alive


@given(
    seed=st.integers(0, 500),
    loss=st.sampled_from([0.0, 0.03, 0.08]),
    plan=st.lists(
        st.tuples(st.integers(0, 2),                    # sender index
                  st.sampled_from(["a", "b", "ab"]),    # group pattern
                  st.sampled_from(["cbcast", "abcast"]),
                  st.integers(1, 5)),                   # burst length
        min_size=1, max_size=4,
    ),
)
@settings(max_examples=10, deadline=None)
def test_multi_group_runs_satisfy_spec(seed, loss, plan):
    system, history, final, alive = _run_workload(seed, plan, loss)
    history.check(final)
    _assert_quiescent(system, alive)


@given(
    seed=st.integers(0, 500),
    crash_site=st.integers(1, 2),
    crash_after=st.floats(0.05, 1.5),
)
@settings(max_examples=6, deadline=None)
def test_crash_mid_stream_satisfies_spec(seed, crash_site, crash_after):
    plan = [(i, "ab", "cbcast", 6) for i in range(3)]
    system, history, final, alive = _run_workload(
        seed, plan, 0.05, crash_site=crash_site, crash_after=crash_after)
    history.check(final)
    _assert_quiescent(system, alive)


def _partition_heal_run():
    """A partition builds a causal backlog; the heal floods it in."""
    system = IsisCluster(n_sites=4, seed=77,
                         lan_config=LanConfig(loss_rate=0.02))
    history = History()
    members = []
    for site in range(4):
        proc, isis = system.spawn(site, f"m{site}")
        proc.bind(ENTRY, history.on_delivery(f"m{site}"))
        members.append((proc, isis))

    def create():
        yield members[0][1].pg_create("ph")

    members[0][0].spawn(create(), "create")
    system.run_for(3.0)
    for i in range(1, 4):
        def join(isis=members[i][1], name=f"m{i}"):
            gid = yield isis.pg_lookup("ph")
            view = yield isis.pg_join(gid)
            history.joined(name, gid.process(), view.view_id)

        members[i][0].spawn(join(), f"j{i}")
        system.run_for(20.0)
    for idx in range(4):
        proc, isis = members[idx]

        def gen(isis=isis, idx=idx):
            gid = yield isis.pg_lookup("ph")
            for i in range(25):
                yield from history.bcast(f"m{idx}", isis, gid, ENTRY,
                                         CBCAST, f"d{idx}:{i}")

        proc.spawn(gen(), f"d{idx}")
    system.run_for(0.3)
    # Short split (below failure-detection timeouts): traffic queues.
    system.cluster.lan.partition([[0, 1], [2, 3]])
    system.run_for(1.0)
    system.cluster.lan.heal()
    system.run_for(120.0)
    return system, history


def test_deep_backlog_partition_heal_satisfies_spec():
    system, history = _partition_heal_run()
    names = [f"m{s}" for s in range(4)]
    history.check(names)
    _assert_quiescent(system, range(4))
    # Everyone got all 100 messages.
    for name in names:
        assert len(history.delivered_mids(name)) == 100


def test_checker_flags_fifo_only_delivery(monkeypatch):
    """Mutation: with the context check stubbed out, CBCAST delivery is
    FIFO-only, and the checker must name a causal violation."""
    _, history = _partition_heal_run()
    assert history.violations([f"m{s}" for s in range(4)]) == []

    monkeypatch.setattr(ProtocolsProcess, "check_context_and_register",
                        lambda self, context, waiter: True)
    _, history = _partition_heal_run()
    found = history.violations([f"m{s}" for s in range(4)])
    assert any(v.startswith("causal order:") for v in found), found


# Counterexamples the checker found, each replayed from its seed.
REGRESSIONS = {
    # Group a's flush cut delivered a leftover CBCAST before its
    # predecessor in group b, which b's own flush delivered later.
    "cut_waits_for_cross_group_predecessor": dict(
        seed=353, plan=[(i, "ab", "cbcast", 6) for i in range(3)],
        loss=0.05, crash_site=2, crash_after=0.139),
    # A flush cut delivered a leftover CBCAST ahead of a causal
    # predecessor (same sender, other group) without any commit held.
    "cut_keeps_sender_order_across_groups": dict(
        seed=304, plan=[(i, "ab", "cbcast", 6) for i in range(3)],
        loss=0.05, crash_site=1, crash_after=0.096),
    # A wake marked on the group that triggered a recheck pass was
    # left for a later pass that never came: a CBCAST stayed pending.
    "recheck_drains_wakes_it_leaves": dict(
        seed=397, plan=[(0, "b", "abcast", 5), (0, "ab", "abcast", 1),
                        (0, "b", "cbcast", 1), (1, "ab", "cbcast", 4)],
        loss=0.03),
    # A join from a site the site view had removed was admitted; no
    # flush ever removed the dead member, and an ABCAST never finished.
    "join_from_departed_site_is_dropped": dict(
        seed=448, plan=[(2, "b", "cbcast", 5), (1, "ab", "abcast", 4),
                        (0, "a", "cbcast", 5)], loss=0.08),
    # Loss split a two-site view in halves and both halves went on
    # (primary partition rule without a tie-break): split brain.
    "even_split_keeps_one_side": dict(
        seed=248, plan=[(0, "a", "abcast", 5), (2, "ab", "cbcast", 2)],
        loss=0.08),
}


@pytest.mark.parametrize("case", sorted(REGRESSIONS))
def test_regression_satisfies_spec(case):
    system, history, final, alive = _run_workload(**REGRESSIONS[case])
    history.check(final)
    _assert_quiescent(system, alive)
