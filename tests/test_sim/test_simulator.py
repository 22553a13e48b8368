"""Unit tests for the discrete-event kernel."""

import pytest

from repro.errors import ClockError, SimulationError
from repro.sim import Simulator, Timer


class TestVirtualClock:
    """The simulator's clock: starts at zero, advances only forward."""

    def test_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_advance(self):
        sim = Simulator()
        sim.run(until=3.5)
        assert sim.now == 3.5

    def test_advance_backwards_rejected(self):
        sim = Simulator()
        sim.run(until=2.0)
        sim.schedule(1.0, lambda: None)
        with pytest.raises(ClockError):
            sim.run_until(lambda: False, timeout=-1.0)
        assert sim.now == 2.0

    def test_advance_to_same_time_ok(self):
        sim = Simulator()
        sim.run(until=2.0)
        sim.run(until=2.0)
        assert sim.now == 2.0


class TestScheduling:
    def test_schedule_and_run(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(0.5, fired.append, "b")
        sim.run()
        assert fired == ["b", "a"]
        assert sim.now == 1.0

    def test_same_time_fifo_order(self):
        sim = Simulator()
        fired = []
        for tag in range(20):
            sim.schedule(1.0, fired.append, tag)
        sim.run()
        assert fired == list(range(20))

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-0.1, lambda: None)

    def test_schedule_at_past_rejected(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(0.5, lambda: None)

    def test_call_soon_runs_at_current_time(self):
        sim = Simulator()
        times = []
        sim.schedule(2.0, lambda: sim.call_soon(lambda: times.append(sim.now)))
        sim.run()
        assert times == [2.0]

    def test_cancel(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(1.0, fired.append, "x")
        sim.cancel(handle)
        sim.run()
        assert fired == []
        assert sim.pending_events == 0

    def test_double_cancel_is_noop(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        sim.cancel(handle)
        sim.cancel(handle)
        assert sim.pending_events == 0

    def test_events_chain(self):
        sim = Simulator()
        fired = []

        def first():
            fired.append(("first", sim.now))
            sim.schedule(0.5, second)

        def second():
            fired.append(("second", sim.now))

        sim.schedule(1.0, first)
        sim.run()
        assert fired == [("first", 1.0), ("second", 1.5)]


class TestRunVariants:
    def test_run_until_time(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "early")
        sim.schedule(3.0, fired.append, "late")
        sim.run(until=2.0)
        assert fired == ["early"]
        assert sim.now == 2.0
        sim.run()
        assert fired == ["early", "late"]

    def test_run_for(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        sim.run_for(4.0)
        assert sim.now == 5.0

    def test_run_until_predicate(self):
        sim = Simulator()
        box = []
        sim.schedule(1.0, box.append, 1)
        sim.schedule(2.0, box.append, 2)
        sim.schedule(3.0, box.append, 3)
        assert sim.run_until(lambda: len(box) >= 2)
        assert sim.now == 2.0
        assert box == [1, 2]

    def test_run_until_predicate_timeout(self):
        sim = Simulator()
        sim.schedule(10.0, lambda: None)
        assert not sim.run_until(lambda: False, timeout=1.0)
        assert sim.now == 1.0

    def test_run_until_queue_exhaustion(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        assert not sim.run_until(lambda: False)

    def test_max_events_guard(self):
        sim = Simulator()

        def loop():
            sim.call_soon(loop)

        sim.call_soon(loop)
        with pytest.raises(SimulationError):
            sim.run(max_events=100)

    def test_step(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "x")
        assert sim.step()
        assert fired == ["x"]
        assert not sim.step()

    def test_counters(self):
        sim = Simulator()
        for delay in (0.1, 0.2, 0.3):
            sim.schedule(delay, lambda: None)
        assert sim.pending_events == 3
        sim.run()
        assert sim.events_processed == 3
        assert sim.pending_events == 0


# --------------------------------------------------------------------- #
# one drain loop: every entry point, traced or not, runs the same stream

def _scripted_world(sim, fired):
    """Same-instant ties, a cancel, a callback that schedules at ``now``
    and a re-armed Timer, between enough ticks for ``check_every`` to
    matter. Callbacks log ``(now, label)`` so an untraced run is
    comparable too."""

    def note(label):
        fired.append((sim.now, label))

    def spawn():
        note("spawn")
        sim.schedule_at(sim.now, note, "spawned-at-now")
        sim.call_soon(note, "spawned-soon")
        sim.schedule(0.0, note, "spawned-zero")

    timer = Timer(sim, lambda: note("timer"))

    def rearm():
        note("rearm")
        timer.start(1.0)

    for tag in "abc":
        sim.schedule(0.1, note, f"tie-{tag}")
    doomed = sim.schedule(0.15, note, "doomed")

    def cancel_doomed():
        note("cancel")
        sim.cancel(doomed)

    sim.schedule(0.12, cancel_doomed)
    sim.schedule(0.2, spawn)
    timer.start(1.0)
    sim.schedule(0.3, rearm)
    sim.schedule(0.6, rearm)
    for tick in range(20):
        sim.schedule(0.05 * tick, note, f"tick-{tick}")


def _run_in_slices(sim):
    for k in range(1, 21):
        sim.run(until=0.1 * k)


def _step_loop(sim):
    while sim.step():
        pass


_ENTRY_POINTS = {
    "run": lambda sim: sim.run(),
    "run-until-slices": _run_in_slices,
    "run-max-events": lambda sim: sim.run(max_events=10_000),
    "run_until-every-1": lambda sim: sim.run_until(lambda: False),
    "run_until-every-7": lambda sim: sim.run_until(lambda: False, check_every=7),
    "step-loop": _step_loop,
}


def _drive(entry_point, traced):
    sim = Simulator(seed=0)
    fired, trace_log = [], []
    _scripted_world(sim, fired)
    if traced:
        def hook(time, seq, callback):
            assert sim.now == time  # the clock has already advanced
            trace_log.append((time, seq, callback.__qualname__))
        sim.set_trace(hook)
    _ENTRY_POINTS[entry_point](sim)
    assert sim.pending_events == 0
    return fired, trace_log, sim.events_processed


class TestOneDrainLoop:
    @pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
    @pytest.mark.parametrize("entry_point", sorted(_ENTRY_POINTS))
    def test_same_stream(self, entry_point, traced):
        want_fired, want_log, want_count = _drive("run", traced=True)
        fired, trace_log, count = _drive(entry_point, traced)
        labels = [label for _, label in fired]
        assert "doomed" not in labels and labels.count("timer") == 1
        assert labels[labels.index("spawn"):][:4] == [
            "spawn", "tick-4", "spawned-at-now", "spawned-soon"]
        assert fired == want_fired
        assert count == want_count == len(want_log) == len(fired)
        assert trace_log == (want_log if traced else [])
        assert [time for time, _, _ in want_log] == [time for time, _ in fired]

    def test_run_until_time_always_advances_the_clock(self):
        sim = Simulator()
        sim.run(until=3.0)  # nothing queued at all
        assert sim.now == 3.0
        sim.schedule(1.0, lambda: None)
        sim.run(until=7.0)  # queue exhausts at t=4
        assert sim.now == 7.0

    def test_run_until_timeout_advances_only_past_live_events(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        assert not sim.run_until(lambda: False, timeout=5.0)
        assert sim.now == 1.0  # exhausted before the deadline: stays put
        doomed = sim.schedule(10.0, lambda: None)
        sim.cancel(doomed)
        assert not sim.run_until(lambda: False, timeout=5.0)
        assert sim.now == 1.0  # only a cancelled record past the deadline
        sim.schedule(10.0, lambda: None)
        assert not sim.run_until(lambda: False, timeout=5.0)
        assert sim.now == 6.0  # a live event remains past the deadline
        assert sim.pending_events == 1
