"""Runtime determinism sanitizer: digesting, diffing, and the fixture."""

import functools
import hashlib
import itertools
import time

import pytest

from repro.analysis.sanitizer import (
    FOLD_BLOCK,
    DeterminismReport,
    EventStreamDigest,
    callback_name,
    check_determinism,
)
from repro.errors import DeterminismError
from repro.sim.simulator import Simulator


def _ping(sink, label):
    sink.append(label)


def clean_scenario(seed: int) -> Simulator:
    """A deterministic scenario: timer chains + seeded random delays."""
    sim = Simulator(seed=seed)
    sink = []
    rng = sim.streams.stream("delays")

    def reschedule(depth=0):
        if depth < 20:
            sim.schedule(0.001 + rng.random() * 0.01, reschedule, depth + 1)
        sim.schedule(0.0005, _ping, sink, depth)

    sim.call_soon(reschedule)
    return sim


class TestEventStreamDigest:
    def test_identical_runs_identical_digests(self):
        digests = []
        for _ in range(2):
            sim = clean_scenario(7)
            digest = EventStreamDigest()
            sim.set_trace(digest)
            sim.run()
            digests.append((digest.hexdigest, digest.events))
        assert digests[0] == digests[1]
        assert digests[0][1] > 0

    def test_different_seeds_different_digests(self):
        results = []
        for seed in (1, 2):
            sim = clean_scenario(seed)
            digest = EventStreamDigest()
            sim.set_trace(digest)
            sim.run()
            results.append(digest.hexdigest)
        assert results[0] != results[1]

    def test_keep_log_records_executed_events(self):
        sim = Simulator(seed=0)
        sim.schedule(0.5, lambda: None)
        sim.schedule(0.25, lambda: None)
        digest = EventStreamDigest(keep_log=True)
        sim.set_trace(digest)
        sim.run()
        assert digest.events == 2
        assert digest.log is not None
        times = [entry[0] for entry in digest.log]
        assert times == [0.25, 0.5]

    def test_recent_window_without_log(self):
        sim = Simulator(seed=0)
        for index in range(10):
            sim.schedule(0.1 * (index + 1), lambda: None)
        digest = EventStreamDigest(keep_log=False, context=3)
        sim.set_trace(digest)
        sim.run()
        assert digest.log is None
        assert len(digest.recent) == 3
        assert digest.events == 10

    @pytest.mark.parametrize("count", [FOLD_BLOCK - 1, FOLD_BLOCK, FOLD_BLOCK + 1])
    def test_block_folding_equals_the_naive_line_hash(self, count):
        # Hashing a block at a time must be invisible: the digest is the
        # hash of the concatenated per-event lines, and the counters and
        # the recent window are right while a block is still open.
        entries = [(0.1 * index, 3 * index, _ping) for index in range(count)]
        name = callback_name(_ping)
        untouched = EventStreamDigest(context=3)  # folds only when full
        peeked = EventStreamDigest(context=3)  # read while a block is open
        for index, (when, seq, callback) in enumerate(entries):
            untouched(when, seq, callback)
            peeked(when, seq, callback)
            if index == FOLD_BLOCK // 2:
                assert untouched.events == peeked.events == index + 1
                assert peeked.recent == [
                    (t, s, name) for t, s, _ in entries[index - 2 : index + 1]
                ]
        naive = hashlib.blake2b(digest_size=16)
        for when, seq, _ in entries:
            naive.update(f"{when!r}|{seq}|{name}\n".encode("utf-8"))
        for digest in (untouched, peeked):
            assert digest.events == count
            assert digest.hexdigest == naive.hexdigest()
            assert digest.recent == [(t, s, name) for t, s, _ in entries[-3:]]

    def test_cancelled_events_do_not_contribute(self):
        def build(seed):
            sim = Simulator(seed=seed)
            sim.schedule(0.5, lambda: None)
            doomed = sim.schedule(0.25, lambda: None)
            sim.cancel(doomed)
            return sim

        report = check_determinism(build, seed=0)
        assert report.events == 1


class TestCallbackName:
    def test_plain_function(self):
        assert callback_name(_ping).endswith("_ping")

    def test_bound_method(self):
        sim = Simulator()
        assert "Simulator" in callback_name(sim.step)

    def test_partial_unwrapped(self):
        wrapped = functools.partial(functools.partial(_ping, []), "x")
        assert callback_name(wrapped).endswith("_ping")

    def test_callable_instance_uses_type(self):
        class Poke:
            def __call__(self):
                return None

        assert "Poke" in callback_name(Poke())

    def test_never_embeds_object_addresses(self):
        class Poke:
            def __call__(self):
                return None

        assert "0x" not in callback_name(Poke())


class TestCheckDeterminism:
    def test_clean_scenario_passes(self):
        report = check_determinism(clean_scenario, seed=3, runs=3)
        assert isinstance(report, DeterminismReport)
        assert report.runs == 3
        assert report.events > 20
        assert "deterministic" in str(report)

    def test_catches_wall_clock_scheduling_bug(self):
        # The injected bug REP001 exists to prevent: a scheduling delay
        # derived from the host's wall clock. perf_counter_ns() is
        # strictly increasing, so two replays MUST schedule differently.
        def buggy(seed):
            sim = Simulator(seed=seed)
            skew = time.perf_counter_ns() * 1e-12  # wall-clock leak
            sim.schedule(0.001 + skew, _ping, [], "late")
            sim.schedule(0.0005, _ping, [], "early")
            return sim

        with pytest.raises(DeterminismError) as excinfo:
            check_determinism(buggy, seed=0)
        message = str(excinfo.value)
        assert "first divergent event" in message
        assert "run 0" in message and "run 1" in message
        assert "_ping" in message  # both sides' context names the callback

    def test_reports_divergence_index_of_extra_events(self):
        # A run-counting global (module state surviving across builds —
        # the REP006 bug class): run 1 schedules one more event.
        counter = itertools.count()

        def growing(seed):
            sim = Simulator(seed=seed)
            sim.schedule(0.001, _ping, [], "base")
            for extra in range(next(counter)):
                sim.schedule(0.002 + extra * 0.001, _ping, [], extra)
            return sim

        with pytest.raises(DeterminismError) as excinfo:
            check_determinism(growing, seed=0)
        message = str(excinfo.value)
        assert "first divergent event: index 1" in message
        assert "event stream ended" in message

    def test_requires_two_runs(self):
        with pytest.raises(ValueError):
            check_determinism(clean_scenario, runs=1)

    def test_rejects_non_simulator_builder(self):
        with pytest.raises(TypeError):
            check_determinism(lambda seed: object(), seed=0)

    def test_seed_is_threaded_to_builder(self):
        seeds = []

        def build(seed):
            seeds.append(seed)
            return clean_scenario(seed)

        check_determinism(build, seed=42)
        assert seeds == [42, 42]


class TestDeterminismFixture:
    def test_fixture_is_the_checker(self, determinism):
        report = determinism(clean_scenario, seed=5)
        assert report.seed == 5
        assert report.runs == 2

    def test_fixture_fails_on_divergence(self, determinism):
        counter = itertools.count()

        def flaky(seed):
            sim = Simulator(seed=seed)
            sim.schedule(0.001 * (next(counter) + 1), _ping, [], "x")
            return sim

        with pytest.raises(DeterminismError):
            determinism(flaky)


class TestSmokeScenario:
    def test_cli_smoke_check_passes(self, capsys):
        from repro.analysis.sanitizer import main

        assert main(["--runs", "2"]) == 0
        out = capsys.readouterr().out
        assert "deterministic" in out

    def test_full_stack_page_load_replays_bit_identically(self, determinism):
        # The end-to-end contract behind Table 1, asserted directly: a
        # whole replay-shell page load (browser, DNS, TCP, link, jitter)
        # is one digest, twice.
        from repro.scenarios import SCENARIOS

        report = determinism(SCENARIOS["smoke"].simulator, seed=1)
        assert report.events > 100


class TestLoadScenario:
    """The mm-load determinism contract, via the sanitizer CLI."""

    def test_cli_load_check_passes(self, capsys):
        from repro.analysis.sanitizer import main

        assert main(["--scenario", "load", "--runs", "2"]) == 0
        assert "deterministic" in capsys.readouterr().out

    def test_cli_load_artifact_check_passes(self, capsys):
        from repro.analysis.sanitizer import main

        assert main([
            "--scenario", "load", "--runs", "2", "--artifact-check",
        ]) == 0
        assert "artifact-deterministic" in capsys.readouterr().out

    def test_artifact_check_unsupported_scenario_exits_2(self, capsys):
        from repro.analysis.sanitizer import main

        assert main(["--scenario", "smoke", "--artifact-check"]) == 2
        assert "artifact" in capsys.readouterr().err

    def test_load_world_replays_bit_identically(self, determinism):
        from repro.scenarios import SCENARIOS

        report = determinism(SCENARIOS["load"].simulator, seed=1)
        assert report.events > 1000
