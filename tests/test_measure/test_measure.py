"""Tests for statistics, the trial runner, and report rendering."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.browser import Browser
from repro.core import HostMachine, ShellStack
from repro.corpus import generate_site
from repro.errors import ReproError
from repro.measure.report import ascii_cdf, format_table, mean_pm_std, percent_diff
from repro.measure.runner import run_page_loads
from repro.measure.stats import Sample, percent_difference
from repro.sim import Simulator


class TestSample:
    def test_basic_stats(self):
        sample = Sample([1.0, 2.0, 3.0, 4.0])
        assert sample.mean == pytest.approx(2.5)
        assert sample.median == pytest.approx(2.5)
        assert sample.minimum == 1.0
        assert sample.maximum == 4.0
        assert len(sample) == 4

    def test_stddev(self):
        sample = Sample([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0])
        assert sample.stddev == pytest.approx(2.138, abs=0.01)

    def test_singleton_stddev_zero(self):
        assert Sample([5.0]).stddev == 0.0

    def test_percentiles(self):
        sample = Sample(range(101))
        assert sample.percentile(0) == 0
        assert sample.percentile(50) == 50
        assert sample.percentile(95) == 95
        assert sample.percentile(100) == 100

    def test_percentile_interpolates(self):
        assert Sample([0.0, 10.0]).percentile(25) == pytest.approx(2.5)

    def test_percentile_out_of_range(self):
        with pytest.raises(ValueError):
            Sample([1.0]).percentile(101)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Sample([])

    def test_cdf_shape(self):
        cdf = Sample([3.0, 1.0, 2.0]).cdf()
        assert cdf == [(1.0, pytest.approx(1 / 3)),
                       (2.0, pytest.approx(2 / 3)),
                       (3.0, pytest.approx(1.0))]

    def test_relative_stddev(self):
        sample = Sample([9.0, 11.0])
        assert sample.relative_stddev() == pytest.approx(
            sample.stddev / 10.0)

    def test_percent_difference(self):
        assert percent_difference(110.0, 100.0) == pytest.approx(10.0)
        with pytest.raises(ValueError):
            percent_difference(1.0, 0.0)

    @given(st.lists(st.floats(min_value=0.001, max_value=1000),
                    min_size=1, max_size=100))
    @settings(max_examples=100, deadline=None)
    def test_percentile_monotonic(self, values):
        sample = Sample(values)
        points = [sample.percentile(p) for p in (0, 25, 50, 75, 95, 100)]
        assert all(a <= b + 1e-9 for a, b in zip(points, points[1:]))
        assert sample.minimum <= sample.median <= sample.maximum


class TestRunner:
    def _factory(self, site):
        def factory(trial):
            sim = Simulator(seed=trial)
            machine = HostMachine(sim)
            stack = ShellStack(machine)
            stack.add_replay(site.to_recorded_site())
            browser = Browser(sim, stack.transport, stack.resolver_endpoint,
                              machine=machine)
            return sim, browser.load(site.page)
        return factory

    def test_collects_plts(self):
        site = generate_site("runner.com", seed=30, n_origins=4, scale=0.5)
        result = run_page_loads(self._factory(site), trials=3)
        assert len(result.plt) == 3
        assert all(v > 0 for v in result.plt.values)
        assert len(result.results) == 3

    def test_trials_vary_with_seed(self):
        site = generate_site("vary.com", seed=31, n_origins=4, scale=0.5)
        result = run_page_loads(self._factory(site), trials=3)
        assert len(set(result.plt.values)) == 3

    def test_failed_resources_raise(self):
        site = generate_site("failing.com", seed=32, n_origins=3, scale=0.5)
        store = site.to_recorded_site()
        from repro.browser.resources import Resource, Url
        site.page.root.children.append(Resource(
            Url.parse("http://unresolvable.example/x.js"), "js", 100))

        def factory(trial):
            sim = Simulator(seed=trial)
            machine = HostMachine(sim)
            stack = ShellStack(machine)
            stack.add_replay(store)
            browser = Browser(sim, stack.transport, stack.resolver_endpoint,
                              machine=machine)
            return sim, browser.load(site.page)

        with pytest.raises(ReproError):
            run_page_loads(factory, trials=1)
        result = run_page_loads(factory, trials=1, allow_failures=True)
        assert result.results[0].resources_failed == 1

    def test_timeout_raises(self):
        site = generate_site("slow.com", seed=33, n_origins=3, scale=0.5)
        with pytest.raises(ReproError):
            run_page_loads(self._factory(site), trials=1, timeout=0.001)

    def test_bad_trial_count(self):
        with pytest.raises(ValueError):
            run_page_loads(lambda t: None, trials=0)


class TestReport:
    def test_format_table(self):
        text = format_table(
            ["config", "50th", "95th"],
            [["1 Mbit/s", "1.6%", "27.6%"], ["14 Mbit/s", "19.3%", "127.3%"]],
            title="Table 2",
        )
        assert "Table 2" in text
        assert "14 Mbit/s" in text
        lines = text.splitlines()
        assert len(lines) == 5

    def test_format_table_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [["only-one"]])

    def test_ascii_cdf_renders_all_series(self):
        plot = ascii_cdf(
            {"fast": Sample([0.1, 0.2, 0.3]), "slow": Sample([0.4, 0.5, 0.6])},
            title="Figure 2",
        )
        assert "Figure 2" in plot
        assert "* = fast" in plot
        assert "o = slow" in plot
        assert "ms" in plot

    def test_ascii_cdf_empty_rejected(self):
        with pytest.raises(ValueError):
            ascii_cdf({})

    def test_mean_pm_std_format(self):
        text = mean_pm_std(Sample([7.584, 7.584]))
        assert text == "7584±0 ms"

    def test_percent_diff(self):
        assert percent_diff(12.0, 10.0) == pytest.approx(20.0)

    def test_percent_diff_is_the_stats_implementation(self):
        # Deduplicated: report re-exports the canonical stats function.
        assert percent_diff is percent_difference

    def test_percent_diff_zero_reference_raises(self):
        with pytest.raises(ValueError):
            percent_diff(1.0, 0.0)

    def test_format_table_golden(self):
        text = format_table(
            ["name", "n"],
            [["uplink", "3"], ["downlink", "12"]],
            title="links",
        )
        assert text == "\n".join([
            "links",
            "name      n ",
            "------------",
            "uplink    3 ",
            "downlink  12",
        ])

    def test_ascii_cdf_golden(self):
        plot = ascii_cdf(
            {"a": Sample([0.0, 1.0])}, width=6, height=3,
            unit="s", scale=1.0,
        )
        assert plot == "\n".join([
            "1.00 |     *",
            "0.50 |*     ",
            "0.00 |      ",
            "     +------",
            "      0s  1s",
            "      * = a",
        ])
