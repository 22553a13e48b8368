"""Arrival processes: determinism, monotonicity, rate, and the CLI map."""

import random

import pytest

from repro.load.arrivals import (
    Diurnal,
    FixedRate,
    Poisson,
    make_process,
)


def test_fixed_rate_is_an_even_grid():
    times = FixedRate(4.0).times(8, random.Random(0))
    assert times == tuple(i / 4.0 for i in range(8))


def test_fixed_rate_draws_nothing():
    rng = random.Random(7)
    FixedRate(2.0).times(100, rng)
    assert rng.random() == random.Random(7).random()


@pytest.mark.parametrize("process", [
    FixedRate(5.0), Poisson(5.0), Diurnal(5.0),
])
def test_schedule_is_a_pure_function_of_the_stream(process):
    first = process.times(200, random.Random(42))
    second = process.times(200, random.Random(42))
    assert first == second
    assert process.times(200, random.Random(43)) != first or isinstance(
        process, FixedRate)


@pytest.mark.parametrize("process", [
    FixedRate(3.0), Poisson(3.0), Diurnal(3.0),
])
def test_times_are_non_decreasing_and_sized(process):
    times = process.times(500, random.Random(1))
    assert len(times) == 500
    assert all(b >= a for a, b in zip(times, times[1:]))
    assert all(t >= 0.0 for t in times)


def test_poisson_mean_rate_converges():
    times = Poisson(10.0).times(5000, random.Random(3))
    observed = len(times) / times[-1]
    assert 9.0 < observed < 11.0


def test_diurnal_profile_normalises_to_mean_rate():
    diurnal = Diurnal(6.0, profile=(1, 2, 3), period=30.0)
    assert sum(diurnal.rates) / len(diurnal.rates) == pytest.approx(6.0)
    # Bucket boundaries: [0,10) -> lowest, [20,30) -> highest.
    assert diurnal.rate_at(0.0) == min(diurnal.rates)
    assert diurnal.rate_at(25.0) == max(diurnal.rates)
    assert diurnal.rate_at(30.0) == diurnal.rate_at(0.0)  # wraps


def test_diurnal_concentrates_arrivals_in_peak_buckets():
    diurnal = Diurnal(4.0, profile=(1, 9), period=10.0)
    times = diurnal.times(2000, random.Random(5))
    in_peak = sum(1 for t in times if (t % 10.0) >= 5.0)
    assert in_peak / len(times) > 0.75  # 9/10 of mass, minus noise


def test_make_process_kinds_and_unknown():
    assert isinstance(make_process("fixed", 1.0), FixedRate)
    assert isinstance(make_process("poisson", 1.0), Poisson)
    assert isinstance(make_process("diurnal", 1.0), Diurnal)
    with pytest.raises(ValueError, match="unknown arrival process"):
        make_process("bursty", 1.0)


@pytest.mark.parametrize("ctor", [FixedRate, Poisson, Diurnal])
def test_non_positive_rate_rejected(ctor):
    with pytest.raises(ValueError):
        ctor(0.0)


@pytest.mark.parametrize("rate", [float("nan"), float("inf")])
@pytest.mark.parametrize("ctor", [FixedRate, Poisson, Diurnal])
def test_non_finite_rate_rejected(ctor, rate):
    with pytest.raises(ValueError, match="rate must be positive and finite"):
        ctor(rate)


def test_describe_is_json_shaped():
    for process in (FixedRate(2.0), Poisson(2.0), Diurnal(2.0)):
        described = process.describe()
        assert described["kind"] == process.kind
        assert described["rate"] == 2.0
