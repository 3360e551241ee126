"""Unit tests for the discrete-event loop."""

import pytest

from repro.sim.event_loop import EventLoop


def test_runs_in_time_order():
    loop = EventLoop()
    seen = []
    loop.schedule(0.3, lambda: seen.append("c"))
    loop.schedule(0.1, lambda: seen.append("a"))
    loop.schedule(0.2, lambda: seen.append("b"))
    loop.run()
    assert seen == ["a", "b", "c"]


def test_fifo_tie_break_at_same_instant():
    loop = EventLoop()
    seen = []
    for i in range(10):
        loop.schedule(0.5, lambda i=i: seen.append(i))
    loop.run()
    assert seen == list(range(10))


def test_now_advances_to_event_time():
    loop = EventLoop()
    times = []
    loop.schedule(1.5, lambda: times.append(loop.now))
    loop.schedule(2.5, lambda: times.append(loop.now))
    loop.run()
    assert times == [1.5, 2.5]


def test_zero_delay_runs_after_current_instant_events():
    loop = EventLoop()
    seen = []

    def first():
        seen.append("first")
        loop.schedule(0.0, lambda: seen.append("nested"))

    loop.schedule(0.0, first)
    loop.schedule(0.0, lambda: seen.append("second"))
    loop.run()
    assert seen == ["first", "second", "nested"]


def test_negative_delay_rejected():
    loop = EventLoop()
    with pytest.raises(ValueError):
        loop.schedule(-0.1, lambda: None)


def test_schedule_in_past_rejected():
    loop = EventLoop()
    loop.schedule(1.0, lambda: None)
    loop.run()
    with pytest.raises(ValueError):
        loop.schedule_at(0.5, lambda: None)


def test_cancelled_event_does_not_run():
    loop = EventLoop()
    seen = []
    event = loop.schedule(0.1, lambda: seen.append("cancelled"))
    loop.schedule(0.2, lambda: seen.append("kept"))
    event.cancel()
    loop.run()
    assert seen == ["kept"]


def test_cancel_is_idempotent():
    loop = EventLoop()
    event = loop.schedule(0.1, lambda: None)
    event.cancel()
    event.cancel()
    loop.run()


def test_run_until_stops_at_deadline():
    loop = EventLoop()
    seen = []
    loop.schedule(1.0, lambda: seen.append(1))
    loop.schedule(2.0, lambda: seen.append(2))
    loop.run_until(1.5)
    assert seen == [1]
    assert loop.now == 1.5
    loop.run_until(3.0)
    assert seen == [1, 2]


def test_run_until_advances_clock_even_when_idle():
    loop = EventLoop()
    loop.run_until(5.0)
    assert loop.now == 5.0


def test_stop_interrupts_run():
    loop = EventLoop()
    seen = []
    loop.schedule(0.1, lambda: (seen.append(1), loop.stop()))
    loop.schedule(0.2, lambda: seen.append(2))
    loop.run()
    assert seen == [(1, None)] or seen[0] is not None  # stop fired
    assert len(seen) == 1
    loop.run()  # resumes
    assert len(seen) == 2


def test_max_events_bound():
    loop = EventLoop()
    seen = []
    for i in range(5):
        loop.schedule(0.1 * (i + 1), lambda i=i: seen.append(i))
    loop.run(max_events=2)
    assert seen == [0, 1]


def test_pending_counts_only_live_events():
    loop = EventLoop()
    live = loop.schedule(1.0, lambda: None)
    dead = loop.schedule(2.0, lambda: None)
    dead.cancel()
    assert loop.pending() == 1
    live.cancel()
    assert loop.pending() == 0


def test_events_scheduled_during_run_execute():
    loop = EventLoop()
    seen = []

    def chain(n):
        seen.append(n)
        if n < 5:
            loop.schedule(0.1, lambda: chain(n + 1))

    loop.schedule(0.0, lambda: chain(0))
    loop.run()
    assert seen == [0, 1, 2, 3, 4, 5]


def test_determinism_across_runs():
    def trace():
        loop = EventLoop()
        seen = []
        for i in range(50):
            loop.schedule((i * 7919 % 13) / 10.0, lambda i=i: seen.append(i))
        loop.run()
        return seen

    assert trace() == trace()


def test_compaction_purges_cancelled_tombstones():
    """Once cancelled entries outnumber live ones (past the floor), the
    heap is rebuilt without them; pop order is unchanged."""
    loop = EventLoop()
    live = [loop.schedule(1.0 + i, lambda: None) for i in range(40)]
    dead = [loop.schedule(100.0 + i, lambda: None) for i in range(60)]
    assert len(loop._heap) == 100
    for event in dead:
        event.cancel()
    # Compaction fired as soon as tombstones crossed half the heap
    # (51 of 100), so the rebuilt heap is well under the original 100
    # and pending() stays exact.
    assert len(loop._heap) < 100
    assert loop.pending() == 40
    assert len(loop._heap) - loop._cancelled_in_heap == 40
    del live


def test_no_compaction_below_floor():
    loop = EventLoop()
    events = [loop.schedule(1.0 + i, lambda: None) for i in range(10)]
    for event in events:
        event.cancel()
    # Tiny heap: tombstones stay (compaction not worth it), but
    # pending() still reports zero live events.
    assert loop.pending() == 0
    assert len(loop._heap) == 10


def test_pending_exact_through_mixed_run():
    """pending() stays exact across schedule / cancel / pop / compact."""
    import random

    rng = random.Random(123)
    loop = EventLoop()
    alive = {}
    for i in range(500):
        if alive and rng.random() < 0.45:
            key = rng.choice(list(alive))
            alive.pop(key).cancel()
        else:
            handle = loop.schedule(rng.random() * 10, lambda: None)
            alive[i] = handle
        assert loop.pending() == len(alive)
    fired = []
    loop.run_until(5.0)
    remaining = {
        k: h for k, h in alive.items() if h.time > 5.0 and not h.cancelled
    }
    assert loop.pending() == len(remaining)
    del fired


def test_cancel_after_fire_does_not_corrupt_count():
    """Cancelling an event that already ran (and left the heap) must not
    decrement the tombstone count below reality."""
    loop = EventLoop()
    first = loop.schedule(0.1, lambda: None)
    second = loop.schedule(1.0, lambda: None)
    loop.run_until(0.5)
    first.cancel()  # already fired and popped
    assert loop.pending() == 1
    second.cancel()
    assert loop.pending() == 0


def test_arguments_ride_on_the_entry_and_keep_fifo_tie_break():
    """``schedule``/``schedule_at``/``post_at`` with arguments and
    closure-scheduled callbacks share one ``seq`` counter: at the same
    instant they run in the order they were scheduled."""
    loop = EventLoop()
    seen = []
    loop.schedule(0.5, seen.append, "args-0")
    loop.schedule(0.5, lambda: seen.append("closure-1"))
    loop.post_at(0.5, seen.append, "post-2")
    loop.schedule_at(0.5, lambda tag: seen.append(tag), "args-3")
    loop.post_at(0.5, lambda: seen.append("post-4"))
    loop.post_at(0.25, seen.extend, ("early-a", "early-b"))
    loop.run()
    assert seen == [
        "early-a", "early-b",
        "args-0", "closure-1", "post-2", "args-3", "post-4",
    ]
    assert loop.processed_events == 6


def test_post_at_rejects_the_past_and_counts_as_pending():
    loop = EventLoop()
    loop.post_at(1.0, lambda: None)
    assert loop.pending() == 1
    loop.run()
    assert loop.pending() == 0
    with pytest.raises(ValueError):
        loop.post_at(0.5, lambda: None)


def test_cancelled_timers_among_handle_free_entries():
    """Tombstones are skipped and compacted while entries without an
    ``Event`` (which can never be tombstones) all survive, in order --
    including a compaction triggered from inside a running callback,
    when the dispatch loop holds the heap."""
    loop = EventLoop()
    seen = []
    timers = [loop.schedule(2.0 + i, seen.append, ("timer", i)) for i in range(70)]
    for i in range(40):
        loop.post_at(1.0 + i, seen.append, ("post", i))

    def cancel_most():
        for timer in timers[5:]:
            timer.cancel()

    probes = []
    loop.post_at(0.5, cancel_most)
    loop.post_at(0.75, lambda: probes.append((loop.pending(), len(loop._heap))))
    assert loop.pending() == 112
    loop.run()
    # Compacted inside cancel_most, as soon as tombstones passed half
    # the heap; the running loop went on with the compacted heap.
    (pending, heap_size), = probes
    assert pending == 45 and heap_size < 110
    # Timers were scheduled first, so they win ties against the posts.
    expected = [(2.0 + i, 0, ("timer", i)) for i in range(5)]
    expected += [(1.0 + i, 1, ("post", i)) for i in range(40)]
    assert seen == [tag for _time, _order, tag in sorted(expected)]
    assert loop.pending() == 0 and loop._cancelled_in_heap == 0
    assert loop.processed_events == 47
