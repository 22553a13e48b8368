"""EventQueue internals: lazy cancellation, compaction, and edge cases.

Regression focus: the compaction sweep (rebuild-and-heapify once cancelled
entries outnumber live ones) interacting with the drain loop when *every*
queued event has been cancelled — the empty-heap edge case — plus the
record-reuse guarantees of the queue: a handle for an event that already
fired, or that a ``reset()`` dropped, must be inert (cancel is a no-op, no
state leaks through the record's slots). The queue has no pop of its own
(``Simulator._drain`` is the one consumer), so every case that dispatches
drives a ``Simulator``.
"""

from repro.sim.events import COMPACT_MIN_SIZE, EventQueue
from repro.sim.simulator import Simulator
from repro.sim.timers import Timer


def _noop():
    return None


class TestAllCancelled:
    def test_drain_of_fully_cancelled_queue_empties_the_heap(self):
        sim = Simulator(seed=0)
        queue = sim._queue
        handles = [
            sim.schedule(0.001 * i, _noop) for i in range(COMPACT_MIN_SIZE * 2)
        ]
        for handle in handles:
            sim.cancel(handle)
        # Compaction fired at some point (dead > live at size >= floor),
        # leaving at most the post-compaction cancellations in the heap.
        assert len(queue) == 0
        assert not queue
        assert 0 < len(queue._heap) == queue._dead < COMPACT_MIN_SIZE
        assert not sim.run_until(lambda: False, timeout=1e9)
        # The dead entries were drained on the way to the deadline;
        # internals agree the heap is empty and nothing ran.
        assert queue._heap == [] and queue._dead == 0
        assert sim.events_processed == 0

    def test_compaction_sweep_ran_during_mass_cancel(self):
        queue = EventQueue()
        handles = [
            queue.push(0.001 * i, _noop, ()) for i in range(COMPACT_MIN_SIZE * 2)
        ]
        # Cancel just over half: the sweep triggers when dead > live.
        for handle in handles[: COMPACT_MIN_SIZE + 1]:
            queue.cancel(handle)
        assert queue._dead == 0  # sweep rebuilt the heap
        assert len(queue._heap) == len(queue)
        assert len(queue) == COMPACT_MIN_SIZE - 1

    def test_step_on_fully_cancelled_queue_returns_false(self):
        sim = Simulator(seed=0)
        handles = [sim.schedule(float(i), _noop) for i in range(8)]
        for handle in handles:
            sim.cancel(handle)
        assert sim.step() is False
        assert sim._queue._heap == [] and sim._queue._dead == 0

    def test_queue_usable_after_full_cancellation(self):
        sim = Simulator(seed=0)
        handles = [
            sim.schedule(0.001 * i, _noop) for i in range(COMPACT_MIN_SIZE * 2)
        ]
        for handle in handles:
            sim.cancel(handle)
        fired = []
        sim.schedule(0.5, fired.append, "fresh")
        assert sim.pending_events == 1
        sim.run()
        assert fired == ["fresh"] and sim.now == 0.5
        assert sim.pending_events == 0

    def test_simulator_run_with_everything_cancelled(self):
        sim = Simulator(seed=0)
        handles = [
            sim.schedule(0.001 * (i + 1), _noop)
            for i in range(COMPACT_MIN_SIZE * 2)
        ]
        for handle in handles:
            sim.cancel(handle)
        sim.run()  # must terminate immediately, executing nothing
        assert sim.events_processed == 0
        assert sim.now == 0.0
        assert sim.pending_events == 0

    def test_run_until_predicate_with_everything_cancelled(self):
        sim = Simulator(seed=0)
        handles = [
            sim.schedule(0.001 * (i + 1), _noop)
            for i in range(COMPACT_MIN_SIZE * 2)
        ]
        for handle in handles:
            sim.cancel(handle)
        # Queue exhausts without the predicate firing; deadline branch
        # must not trip over the drained heap.
        assert sim.run_until(lambda: False, timeout=10.0) is False


class TestRecordLifecycle:
    def test_fired_handle_is_inert(self):
        # A handle whose event already fired: cancel must be a no-op and
        # must not corrupt later events.
        sim = Simulator(seed=0)
        fired = []
        stale = sim.schedule(0.1, fired.append, "stale")
        assert sim.step()
        sim.schedule(0.2, fired.append, "successor")
        assert sim._queue.cancel(stale) is False
        assert sim.pending_events == 1  # successor still live
        sim.run()
        assert fired == ["stale", "successor"]

    def test_firing_releases_callback_and_args(self):
        # The record's slots are nulled before the callback runs, so a
        # retained handle cannot keep payloads (packets, closures) alive.
        sim = Simulator(seed=0)
        seen = []
        handle = sim.schedule(
            0.1, lambda payload: seen.append(tuple(handle)), object()
        )
        sim.run()
        assert seen == [(0.1, 0, None, None)]

    def test_double_cancel_reports_noop(self):
        queue = EventQueue()
        handle = queue.push(0.1, _noop, ())
        assert queue.cancel(handle) is True
        assert queue.cancel(handle) is False
        assert len(queue) == 0

    def test_same_instant_pushes_fire_in_seq_order(self):
        # The three spellings of "now" are one push: ties break on seq,
        # whichever entry point scheduled them and whatever is queued
        # around them.
        sim = Simulator(seed=0)
        fired = []
        sim.schedule(0.1, fired.append, "later")  # seq 0
        sim.schedule(0.0, fired.append, "now-a")  # seq 1
        sim.call_soon(fired.append, "now-b")  # seq 2
        sim.schedule_at(sim.now, fired.append, "now-c")  # seq 3
        sim.schedule(0.05, fired.append, "between")  # seq 4
        sim.schedule(0.0, fired.append, "now-d")  # seq 5
        sim.run()
        assert fired == ["now-a", "now-b", "now-c", "now-d", "between", "later"]

    def test_zero_delay_event_scheduled_mid_run_fires_same_instant(self):
        sim = Simulator(seed=0)
        fired = []

        def chain():
            fired.append(sim.now)
            if len(fired) < 3:
                sim.schedule(0.0, chain)

        sim.schedule(0.5, chain)
        sim.run()
        assert fired == [0.5, 0.5, 0.5]

    def test_zero_delay_after_future_tail_entry_stays_ordered(self):
        # A later-scheduled zero-delay event must still fire before an
        # earlier-scheduled future event: time orders before seq.
        sim = Simulator(seed=0)
        fired = []

        def at_half():
            fired.append("t=0.5")

        def zero():
            fired.append("t=0")

        sim.schedule(0.5, at_half)
        sim.schedule(0.0, zero)  # must fire first
        sim.run()
        assert fired == ["t=0", "t=0.5"]

    def test_cancel_tail_entry(self):
        sim = Simulator(seed=0)
        fired = []
        doomed = sim.call_soon(fired.append, "doomed")
        sim.call_soon(fired.append, "kept")
        sim.cancel(doomed)
        sim.run()
        assert fired == ["kept"]

    def test_handle_outliving_reset_is_inert(self):
        # reset() drops the records; a handle kept across it must not be
        # able to cancel "again" and drive the live count negative.
        sim = Simulator(seed=0)
        fired = []
        timer = Timer(sim, lambda: fired.append("timer"))
        timer.start(1.0)
        plain = sim.schedule(2.0, fired.append, "plain")
        sim.reset()
        timer.stop()
        sim.cancel(plain)
        sim.cancel(plain)
        assert plain[2] is None and plain[3] is None
        assert sim.pending_events == 0
        assert sim._queue._dead == 0
        sim.schedule(0.5, fired.append, "fresh")
        sim.run()
        assert fired == ["fresh"]
        assert sim.events_processed == 1


class TestCompactionCorrectness:
    def test_order_preserved_across_compaction(self):
        sim = Simulator(seed=0)
        fired = []
        keep = []
        for i in range(COMPACT_MIN_SIZE * 2):
            handle = sim.schedule(0.001 * (i + 1), fired.append, i)
            if i % 2:
                keep.append(i)
            else:
                sim.cancel(handle)  # cancels half -> triggers sweeps
        sim.run()
        assert fired == keep

    def test_compaction_preserves_ties_and_far_future(self):
        # Same-instant ties and a far-future record around a swept middle:
        # the rebuilt heap still pops in (time, seq) order.
        sim = Simulator(seed=0)
        fired = []
        sim.set_trace(lambda time, seq, callback: fired.append(seq))
        kept_now = sim.call_soon(_noop)
        doomed_now = sim.call_soon(_noop)
        tied_now = sim.call_soon(_noop)
        doomed_far = sim.schedule(1e6, _noop)
        kept_far = sim.schedule(1e6, _noop)
        handles = [
            sim.schedule(0.001 * (i + 1), _noop)
            for i in range(COMPACT_MIN_SIZE * 2)
        ]
        sim.cancel(doomed_now)
        sim.cancel(doomed_far)
        for handle in handles[: COMPACT_MIN_SIZE + 1]:
            sim.cancel(handle)
        assert sim._queue._dead == 0  # sweep ran, heap rebuilt
        survivors = [
            kept_now, tied_now, *handles[COMPACT_MIN_SIZE + 1 :], kept_far
        ]
        expected = [entry[1] for entry in survivors]
        sim.run()
        assert fired == expected


class TestTraceHook:
    def test_hook_sees_every_executed_event_in_order(self):
        sim = Simulator(seed=0)
        seen = []
        sim.set_trace(lambda time, seq, callback: seen.append((time, seq)))
        sim.schedule(0.2, _noop)
        sim.schedule(0.1, _noop)
        sim.run()
        assert seen == [(0.1, 1), (0.2, 0)]

    def test_hook_skips_cancelled_events(self):
        sim = Simulator(seed=0)
        seen = []
        sim.set_trace(lambda time, seq, callback: seen.append(seq))
        sim.schedule(0.2, _noop)
        doomed = sim.schedule(0.1, _noop)
        sim.cancel(doomed)
        sim.run()
        assert seen == [0]

    def test_hook_fires_in_step_and_run_until(self):
        sim = Simulator(seed=0)
        seen = []
        sim.set_trace(lambda time, seq, callback: seen.append(seq))
        sim.schedule(0.1, _noop)
        sim.schedule(0.2, _noop)
        assert sim.step()
        assert sim.run_until(lambda: len(seen) == 2, timeout=1.0)
        assert seen == [0, 1]

    def test_hook_removable(self):
        sim = Simulator(seed=0)
        seen = []
        sim.set_trace(lambda time, seq, callback: seen.append(seq))
        sim.schedule(0.1, _noop)
        sim.run()
        sim.set_trace(None)
        sim.schedule(0.1, _noop)
        sim.run()
        assert seen == [0]

    def test_hook_runs_before_callback(self):
        sim = Simulator(seed=0)
        order = []
        sim.set_trace(lambda time, seq, callback: order.append("trace"))
        sim.schedule(0.1, order.append, "callback")
        sim.run()
        assert order == ["trace", "callback"]

    def test_hook_receives_the_callback_object(self):
        sim = Simulator(seed=0)
        seen = []
        sim.set_trace(lambda time, seq, callback: seen.append(callback))
        sim.schedule(0.1, _noop)
        sim.run()
        assert seen == [_noop]
