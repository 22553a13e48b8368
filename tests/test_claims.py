"""The paper guards itself: every ``repro.scenarios.CLAIMS`` entry, run at
its tier-1 size through the benches' driver, breaks none of its
statements — and each check reports a statement that is broken."""

import pytest

from benchmarks.knobs import bench_scale, bench_workers, scaled
from repro.errors import ReproError
from repro.measure import Sample
from repro.measure.parallel import default_workers
from repro.scenarios import (
    CLAIMS, T2_DELAYS, T2_RATES, Claim, measure_claim, t2_cell,
)


@pytest.mark.parametrize("name", list(CLAIMS))
def test_claim_holds_at_tier1_size(name):
    claim = CLAIMS[name]
    samples = measure_claim(name, claim, claim.tier1)
    assert [str(miss) for miss in claim.check(samples)] == []


def test_corpus_claim_holds_above_the_paper_size():
    # A scale above 1 runs a larger corpus; the 9-in-500 single-server
    # ratio scales with it.
    claim = CLAIMS["corpus_stats"]
    samples = measure_claim("corpus_stats", claim, 1000)
    assert [str(miss) for miss in claim.check(samples)] == []


def _table2(broken_cell):
    cells = {t2_cell(rate, delay): Sample([0.0, 0.0, 1.0])
             for rate in T2_RATES for delay in T2_DELAYS}
    cells[broken_cell] = Sample([-3.0])
    return cells


#: claim -> (samples breaking exactly one statement, its quantity).
BROKEN = {
    "figure2_overhead": (
        {"ReplayShell": Sample([1.0]), "DelayShell 0 ms": Sample([1.001]),
         "LinkShell 1000 Mbits/s": Sample([1.03])},
        "LinkShell 1000 Mbit/s median overhead"),
    "table1_reproducibility": (
        {"CNBC Machine 1": Sample([7.0, 7.01]),
         "CNBC Machine 2": Sample([7.0, 7.01]),
         "wikiHow Machine 1": Sample([4.0, 4.01]),
         "wikiHow Machine 2": Sample([4.0, 4.02])},
        "CNBC: loads that differ across machines"),
    "table2_multiorigin": (_table2(t2_cell(14.0, 0.120)),
                           "median 14 Mbit/s, 120 ms"),
    "figure3_actual_web": (
        {"Actual Web": Sample([1.0]), "Replay Multi-origin": Sample([1.05]),
         "Replay Single Server": Sample([1.12])},
        "single-server median vs Web %"),
    "corpus_stats": (
        {"origins": Sample([1] * 9 + [20] * 451 + [50] * 40),
         "resources": Sample([30] * 500),
         "bytes": Sample([200_000] * 499 + [50_000])},
        "fewest bytes on a page"),
    "isolation": (
        {"alone": Sample([1.0, 2.0]),
         "with 2 concurrent stacks": Sample([1.0, 2.0]),
         "with host bulk transfer": Sample([1.0, 2.5])},
        "loads that differ from alone, with host bulk transfer"),
}


@pytest.mark.parametrize("name", list(CLAIMS))
def test_check_reports_the_one_broken_statement(name):
    samples, quantity = BROKEN[name]
    assert [miss.quantity for miss in CLAIMS[name].check(samples)] \
        == [quantity]


def _counting_claim(calls, lost=None):
    def build(trials):
        def trial(i):
            calls.append(i)
            if i == lost:
                raise ReproError("boom")
            return {"x": float(i)}
        return trial
    return Claim(build, 3, 3, 3, lambda samples: [], lambda samples: "")


def test_a_lost_trial_fails_the_study_by_name():
    with pytest.raises(ReproError, match="'study' lost 1 of 3 trials: trial 1 quarantined: boom"):
        measure_claim("study", _counting_claim([], lost=1), 3)


def test_a_journaled_rerun_takes_every_trial_from_the_journal(tmp_path):
    calls = []
    journal = str(tmp_path / "study.journal.jsonl")
    first = measure_claim("study", _counting_claim(calls), 3, journal=journal)
    again = measure_claim("study", _counting_claim(calls), 3, journal=journal)
    assert calls == [0, 1, 2]
    assert again["x"].values == first["x"].values == [0.0, 1.0, 2.0]


@pytest.mark.parametrize("value", ["nan", "abc", "-1", "inf", ""])
@pytest.mark.parametrize("knob,read", [
    ("REPRO_BENCH_SCALE", bench_scale),
    ("REPRO_BENCH_WORKERS", bench_workers),
])
def test_a_bad_bench_knob_is_refused_by_name(monkeypatch, knob, read, value):
    monkeypatch.setenv(knob, value)
    with pytest.raises(ReproError, match=knob):
        read()


def test_bench_knob_zero_means_floors_and_all_cores(monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_SCALE", "0")
    monkeypatch.setenv("REPRO_BENCH_WORKERS", "0")
    assert (scaled(500, minimum=30), bench_workers()) == (30, default_workers())
