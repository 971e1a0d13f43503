"""Unit tests for the discrete-event kernel (repro.sim.core)."""

import pytest

from repro.errors import SimulationError
from repro.sim import Simulator


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_call_after_orders_by_time():
    sim = Simulator()
    seen = []
    sim.call_after(2.0, seen.append, "b")
    sim.call_after(1.0, seen.append, "a")
    sim.call_after(3.0, seen.append, "c")
    sim.run()
    assert seen == ["a", "b", "c"]
    assert sim.now == 3.0


def test_ties_break_by_schedule_order():
    sim = Simulator()
    seen = []
    for tag in ("first", "second", "third"):
        sim.call_after(1.0, seen.append, tag)
    sim.run()
    assert seen == ["first", "second", "third"]


def test_call_soon_runs_at_current_time():
    sim = Simulator()
    times = []
    sim.call_after(5.0, lambda: sim.call_soon(lambda: times.append(sim.now)))
    sim.run()
    assert times == [5.0]


def test_scheduling_in_the_past_raises():
    sim = Simulator()
    sim.call_after(1.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.call_at(0.5, lambda: None)


def test_negative_delay_raises():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.call_after(-0.1, lambda: None)


def test_cancelled_timer_does_not_fire():
    sim = Simulator()
    seen = []
    timer = sim.call_after(1.0, seen.append, "nope")
    timer.cancel()
    sim.call_after(2.0, seen.append, "yes")
    sim.run()
    assert seen == ["yes"]


def test_cancel_is_idempotent():
    sim = Simulator()
    timer = sim.call_after(1.0, lambda: None)
    timer.cancel()
    timer.cancel()
    sim.run()


def test_run_until_stops_before_later_events():
    sim = Simulator()
    seen = []
    sim.call_after(1.0, seen.append, "early")
    sim.call_after(10.0, seen.append, "late")
    sim.run(until=5.0)
    assert seen == ["early"]
    assert sim.now == 5.0
    sim.run()
    assert seen == ["early", "late"]


def test_run_until_advances_clock_even_with_no_events():
    sim = Simulator()
    sim.run(until=42.0)
    assert sim.now == 42.0


def test_max_events_limits_execution():
    sim = Simulator()
    seen = []
    for i in range(10):
        sim.call_after(float(i), seen.append, i)
    sim.run(max_events=3)
    assert seen == [0, 1, 2]


def test_nested_scheduling_during_run():
    sim = Simulator()
    seen = []

    def outer():
        seen.append("outer")
        sim.call_after(1.0, seen.append, "inner")

    sim.call_after(1.0, outer)
    sim.run()
    assert seen == ["outer", "inner"]
    assert sim.now == 2.0


def test_reentrant_run_rejected():
    sim = Simulator()
    errors = []

    def nested():
        try:
            sim.run()
        except SimulationError as err:
            errors.append(err)

    sim.call_after(1.0, nested)
    sim.run()
    assert len(errors) == 1


def test_pending_events_counts_only_live_timers():
    sim = Simulator()
    t1 = sim.call_after(1.0, lambda: None)
    sim.call_after(2.0, lambda: None)
    t1.cancel()
    assert sim.pending_events == 1


def test_rng_streams_are_deterministic_and_independent():
    sim_a = Simulator(seed=7)
    sim_b = Simulator(seed=7)
    draws_a = [sim_a.rng("x").random() for _ in range(5)]
    draws_b = [sim_b.rng("x").random() for _ in range(5)]
    assert draws_a == draws_b
    # A different stream name gives a different sequence.
    assert draws_a != [Simulator(seed=7).rng("y").random() for _ in range(5)]


def test_rng_stream_isolation_from_creation_order():
    sim_a = Simulator(seed=3)
    sim_a.rng("first").random()
    value_a = sim_a.rng("second").random()
    sim_b = Simulator(seed=3)
    value_b = sim_b.rng("second").random()
    assert value_a == value_b


class TestTimerHeapCompaction:
    def test_cancel_tracks_dead_heap_entries(self):
        sim = Simulator()
        timers = [sim.call_after(10.0, lambda: None) for _ in range(10)]
        for t in timers[:4]:
            t.cancel()
        stats = sim.stats()
        assert stats["timers.cancelled_pending"] == 4
        assert stats["timers.heap_size"] == 10
        assert sim.pending_events == 6

    def test_compaction_when_majority_dead(self):
        sim = Simulator()
        n = Simulator.COMPACT_MIN_HEAP * 2
        timers = [sim.call_after(10.0, lambda: None) for _ in range(n)]
        for t in timers[:-1]:
            t.cancel()
        stats = sim.stats()
        assert stats["timers.compactions"] >= 1
        # Post-compaction the heap is too small to compact again; what
        # remains dead is bounded by the compaction floor.
        assert stats["timers.heap_size"] < Simulator.COMPACT_MIN_HEAP
        assert sim.pending_events == 1
        # The surviving timer still fires.
        fired = []
        timers[-1].fn = fired.append  # type: ignore[assignment]
        timers[-1].args = (1,)
        sim.run()
        assert fired == [1]

    def test_small_heaps_never_compact(self):
        sim = Simulator()
        timers = [sim.call_after(10.0, lambda: None) for _ in range(8)]
        for t in timers:
            t.cancel()
        assert sim.stats()["timers.compactions"] == 0
        sim.run()
        assert sim.stats()["timers.cancelled_pending"] == 0

    def test_executed_timer_not_counted_as_cancelled(self):
        sim = Simulator()
        sim.call_after(1.0, lambda: None)
        sim.run()
        stats = sim.stats()
        assert stats["timers.cancelled_pending"] == 0
        assert stats["timers.heap_size"] == 0

    def test_compaction_preserves_firing_order(self):
        sim = Simulator()
        fired = []
        keep = []
        for i in range(Simulator.COMPACT_MIN_HEAP * 2):
            t = sim.call_after(1.0 + i * 0.001, fired.append, i)
            if i % 7:
                t.cancel()
            else:
                keep.append(i)
        sim.run()
        assert fired == keep


class TestTupleHeap:
    """The heap holds ``(time, seq, timer)`` entries: order is decided by
    time, then by ``call_at`` order, and never by the timer object."""

    def test_equal_time_events_run_in_call_at_order(self):
        sim = Simulator()
        seen = []
        # Interleave two absolute times; schedule from inside callbacks
        # too, so the sequence numbers do not follow the heap layout.
        for i in range(50):
            sim.call_at(2.0 if i % 3 else 1.0, seen.append, i)
        sim.call_at(1.0, lambda: [sim.call_soon(seen.append, f"soon{j}")
                                  for j in range(5)])
        sim.run()
        ones = [i for i in range(50) if i % 3 == 0]
        twos = [i for i in range(50) if i % 3]
        assert seen == ones + [f"soon{j}" for j in range(5)] + twos

    def test_heap_entries_are_time_seq_timer_tuples(self):
        sim = Simulator()
        timers = [sim.call_at(1.0, lambda: None) for _ in range(3)]
        entries = sorted(sim._heap)
        assert [(t, s) for t, s, _timer in entries] == [(1.0, 0), (1.0, 1),
                                                       (1.0, 2)]
        assert [timer for _t, _s, timer in entries] == timers

    def test_cancelled_entries_compact_past_half_dead(self):
        sim = Simulator()
        n = Simulator.COMPACT_MIN_HEAP * 2
        timers = [sim.call_at(5.0, lambda: None) for _ in range(n)]
        # Exactly half dead is not a majority: nothing is rebuilt yet.
        for timer in timers[:n // 2]:
            timer.cancel()
        assert sim.stats()["timers.compactions"] == 0
        assert len(sim._heap) == n
        timers[n // 2].cancel()
        assert sim.stats()["timers.compactions"] == 1
        survivors = [timer for _t, _s, timer in sim._heap]
        assert survivors and not any(t.cancelled for t in survivors)
        assert sorted(t.seq for t in survivors) == list(range(n // 2 + 1, n))

    def test_timer_stats_follow_a_scripted_run(self):
        sim = Simulator()
        fired = []
        timers = [sim.call_at(1.0 + (i % 10) * 0.1, fired.append, i)
                  for i in range(200)]
        for timer in timers[::3]:
            timer.cancel()
        # 67 of 200 dead: no majority, no rebuild.
        assert sim.stats() == {"timers.scheduled": 200,
                               "timers.heap_size": 200,
                               "timers.cancelled_pending": 67,
                               "timers.compactions": 0}
        sim.run(until=1.45)
        # The 100 entries due by t=1.4 are gone, 33 of them dead.
        assert sim.stats() == {"timers.scheduled": 200,
                               "timers.heap_size": 100,
                               "timers.cancelled_pending": 34,
                               "timers.compactions": 0}
        for timer in timers[1::3]:
            timer.cancel()
        # The 17th late cancel makes 51 of 100 dead: one rebuild to the
        # 49 live entries; the last 16 cancels stay below the floor.
        assert sim.stats() == {"timers.scheduled": 200,
                               "timers.heap_size": 49,
                               "timers.cancelled_pending": 16,
                               "timers.compactions": 1}
        sim.run()
        assert sim.stats() == {"timers.scheduled": 200,
                               "timers.heap_size": 0,
                               "timers.cancelled_pending": 0,
                               "timers.compactions": 1}
        assert len(fired) == 100
