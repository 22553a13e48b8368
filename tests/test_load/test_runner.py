"""The load runner: one shared world, mixed clients, ordered results."""

import pickle

import pytest

from repro.errors import ReproError
from repro.load import LoadScenario, default_population, run_load
from repro.load.arrivals import FixedRate, Poisson
from repro.load.runner import _sum_step_series
from repro.sim import Simulator


@pytest.fixture(scope="module")
def population():
    return default_population(seed=0, n_sites=3, scale=0.2)


@pytest.fixture(scope="module")
def result(population):
    scenario = LoadScenario(
        population, Poisson(8.0), clients=40)
    return run_load(scenario, seed=0, instrument=True, capture_digest=True)


class TestLoadResult:
    def test_every_client_completes_under_light_load(self, result):
        assert result.completed == 40
        assert result.failed == 0
        assert len(result.records) == 40

    def test_records_are_in_client_index_order(self, result):
        assert [r.index for r in result.records] == list(range(40))
        assert all(r.duration > 0.0 for r in result.records)

    def test_quantiles_cover_all_successes(self, result):
        assert len(result.plt) == 40
        assert result.plt.p50 <= result.plt.p99 <= result.plt.maximum
        assert sum(len(acc) for acc in result.per_kind.values()) == 40

    def test_server_side_probes_populate(self, result):
        assert len(result.server_latency) > 0
        assert result.server_latency.minimum >= 0.0
        assert result.peak_occupancy >= 1.0
        assert result.occupancy and result.backlog

    def test_digest_captured(self, result):
        assert result.event_digest and len(result.event_digest) == 32
        assert result.events > 0

    def test_to_dict_is_json_shaped(self, result):
        data = result.to_dict()
        assert data["clients"] == 40
        assert data["plt"]["count"] == 40
        assert set(data["per_kind"]) <= {"browser", "api", "fetch"}
        assert data["server_latency"]["p99"] is not None

    def test_result_is_picklable(self, result):
        back = pickle.loads(pickle.dumps(result))
        assert back.to_dict() == result.to_dict()
        assert back.records == result.records


class TestDeterminism:
    def test_same_seed_same_everything(self, population):
        scenario = LoadScenario(population, Poisson(6.0), clients=20)
        a = run_load(scenario, seed=3, instrument=True, capture_digest=True)
        b = run_load(scenario, seed=3, instrument=True, capture_digest=True)
        assert a.event_digest == b.event_digest
        assert a.records == b.records
        assert a.to_dict() == b.to_dict()

    def test_different_seed_different_world(self, population):
        scenario = LoadScenario(population, Poisson(6.0), clients=20)
        a = run_load(scenario, seed=3, capture_digest=True)
        b = run_load(scenario, seed=4, capture_digest=True)
        assert a.event_digest != b.event_digest

    def test_instrumentation_has_zero_observer_effect(self, population):
        scenario = LoadScenario(population, Poisson(6.0), clients=20)
        bare = run_load(scenario, seed=5, capture_digest=True)
        instrumented = run_load(
            scenario, seed=5, instrument=True, capture_digest=True)
        assert bare.event_digest == instrumented.event_digest


class TestMakespan:
    run_until = Simulator.run_until

    @classmethod
    def run_checking_every(cls, monkeypatch, scenario, every):
        """``run_load`` with the run loop's predicate checked every
        ``every`` events instead of the session's own interval."""
        def forced(sim, predicate, timeout=None, check_every=1):
            return cls.run_until(sim, predicate, timeout, check_every=every)

        monkeypatch.setattr(Simulator, "run_until", forced)
        return run_load(scenario, seed=0)

    def test_makespan_is_the_last_completion(self, population, monkeypatch):
        scenario = LoadScenario(population, Poisson(8.0), clients=20)
        every_event = self.run_checking_every(monkeypatch, scenario, 1)
        sparse = self.run_checking_every(monkeypatch, scenario, 32)
        assert sparse.records == every_event.records
        for result in (every_event, sparse):
            assert result.makespan == max(
                r.arrival + r.duration for r in result.records)
        assert sparse.makespan == every_event.makespan
        assert sparse.throughput == every_event.throughput


class TestTimeout:
    def test_unfinished_clients_recorded_not_lost(self, population):
        # A timeout far too small for anyone to finish: every client is
        # still reported, as a failure, in index order.
        scenario = LoadScenario(
            population, FixedRate(1000.0), clients=5, timeout=0.001)
        result = run_load(scenario, seed=0)
        assert len(result.records) == 5
        assert result.completed == 0
        assert result.failed == 5
        assert all("timeout" in r.detail for r in result.records)
        assert result.makespan == 0.001

    def test_zero_clients_rejected(self, population):
        with pytest.raises(ReproError, match="clients"):
            LoadScenario(population, Poisson(1.0), clients=0)


class TestSumStepSeries:
    def test_single_series_passes_through(self):
        points = [(0.0, 1.0), (1.0, 2.0)]
        assert _sum_step_series([points]) == points

    def test_sums_absolute_step_values(self):
        a = [(0.0, 1.0), (2.0, 0.0)]
        b = [(1.0, 1.0), (3.0, 0.0)]
        assert _sum_step_series([a, b]) == [
            (0.0, 1.0), (1.0, 2.0), (2.0, 1.0), (3.0, 0.0)]

    def test_simultaneous_updates_collapse_to_final_total(self):
        a = [(0.0, 1.0), (1.0, 5.0)]
        b = [(0.0, 2.0), (1.0, 7.0)]
        assert _sum_step_series([a, b]) == [(0.0, 3.0), (1.0, 12.0)]

    def test_empty(self):
        assert _sum_step_series([]) == []
