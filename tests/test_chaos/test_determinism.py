"""Determinism under fault injection: the chaos contract.

Same seed + same FaultPlan => bit-identical event stream, within one
process and across forked workers.
"""

from repro.analysis.sanitizer import (
    EventStreamDigest,
    check_determinism,
    check_observer_effect,
)
from repro.measure import parallel_map
from repro.scenarios import SCENARIOS

chaos_scenario = SCENARIOS["chaos"].simulator


def digest_of(seed):
    sim = chaos_scenario(seed)
    digest = EventStreamDigest()
    sim.set_trace(digest)
    sim.run(max_events=2_000_000)
    return digest.events, digest.hexdigest


class TestChaosDeterminism:
    def test_chaos_scenario_replays_bit_identically(self, determinism):
        report = determinism(chaos_scenario, seed=0, runs=3)
        assert report.events > 0

    def test_different_seeds_diverge(self):
        assert digest_of(0) != digest_of(1)

    def test_observer_effect_is_zero_under_faults(self):
        report = check_observer_effect(chaos_scenario, seed=0)
        assert report.events > 0

    def test_check_determinism_accepts_chaos_scenario(self):
        report = check_determinism(chaos_scenario, seed=5, runs=2)
        assert report.seed == 5


class TestCrossWorkerDeterminism:
    def test_digest_identical_across_fork_workers(self):
        # The acceptance criterion: N workers each replay the same
        # chaos world from the same seed and must agree bit for bit
        # with the in-process run.
        local = digest_of(0)
        remote = parallel_map(lambda __: digest_of(0), 4, workers=4)
        assert all(r == local for r in remote)

    def test_per_trial_seeds_stable_across_worker_counts(self):
        serial = parallel_map(digest_of, 3, workers=1)
        forked = parallel_map(digest_of, 3, workers=3)
        assert serial == forked
