"""Unit tests for Timer."""

from repro.sim import Simulator, Timer


class TestTimer:
    def test_fires_after_delay(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(2.0)
        sim.run()
        assert fired == [2.0]

    def test_restart_supersedes(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(2.0)
        sim.schedule(1.0, timer.start, 5.0)
        sim.run()
        assert fired == [6.0]

    def test_stop(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(2.0)
        timer.stop()
        sim.run()
        assert fired == []
        assert not timer.armed

    def test_stop_unarmed_is_noop(self):
        sim = Simulator()
        Timer(sim, lambda: None).stop()

    def test_armed_and_deadline(self):
        sim = Simulator()
        timer = Timer(sim, lambda: None)
        assert not timer.armed
        assert timer.deadline is None
        timer.start(3.0)
        assert timer.armed
        assert timer.deadline == 3.0
        sim.run()
        assert not timer.armed

    def test_rearm_from_callback(self):
        sim = Simulator()
        fired = []

        def on_fire():
            fired.append(sim.now)
            if len(fired) < 3:
                timer.start(1.0)

        timer = Timer(sim, on_fire)
        timer.start(1.0)
        sim.run()
        assert fired == [1.0, 2.0, 3.0]
