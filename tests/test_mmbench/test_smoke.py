"""Smoke test of mmbench itself: tiny batches through the real pipeline.

``--quick`` keeps every size at a handful of ops, so this checks shape and
exactness — that the output is what ``BENCHMARK.json`` declares, that the
exact counters repeat and follow the seed, that failures and slowdowns are
caught — and never a timing.
"""

import copy
import json
import re
import subprocess
import sys

import pytest

from benchmarks.mmbench import ROOT, spec, workloads
from benchmarks.mmbench.__main__ import SCRATCH_PARENT, main
from benchmarks.mmbench.compare import compare_main
from repro.errors import ReproError

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def documents(directory, seed, trace):
    """Every workload run once more, in this process, in one mode."""
    found = {}
    for name in spec.WORKLOAD_NAMES:
        out = directory / f"{name}.{seed}.json"
        status = main(["--workload", name, "--quick", "--seed", str(seed),
                       "--trace", str(trace), "--out", str(out)])
        assert status == 0, name
        found[name] = json.loads(out.read_text())
    return found


@pytest.fixture(scope="module")
def full_run(tmp_path_factory):
    """The default command, as a user types it (``--quick`` sizes)."""
    out = tmp_path_factory.mktemp("mmbench") / "full.json"
    done = subprocess.run(
        [sys.executable, "-m", "benchmarks.mmbench", "--quick", "--seed",
         "5", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout + done.stderr
    return out, json.loads(out.read_text()), done.stdout


def test_benchmark_json_is_the_declared_spec():
    document = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert document == spec.benchmark_document()
    assert len(document["workloads"]) == 5
    assert 1 <= len(document["per_layer"]) <= 128
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in document[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for entry in document["end_to_end"] + document["per_layer"]:
        assert UNIT.match(entry["unit"]), entry
        assert entry["better"] in ("higher", "lower")
    assert all(len(entry["why"]) <= 200 for entry in document["workloads"])
    bounds = {e["name"]: e["bound"] for e in document["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    # The fifth end-to-end metric has an absolute bound the driver's file
    # cannot express; it is declared in the spec and checked by compare.
    assert [m.name for m in spec.END_TO_END if m.bound == 0.0] == \
        ["failed_share"]
    assert len(spec.END_TO_END) == 5


def test_output_is_what_benchmark_json_declares(full_run):
    _, document, stdout = full_run
    assert document["correct"]
    end_to_end = {m.name: m.unit for m in spec.END_TO_END}
    per_layer = {m.name: m.unit for m in spec.PER_LAYER}
    assert set(document["workloads"]) == set(spec.WORKLOAD_NAMES)
    for name, runs in document["workloads"].items():
        for mode, declared in (("untraced", end_to_end),
                               ("traced", per_layer)):
            metrics = runs[mode]["metrics"]
            assert {k: v["unit"] for k, v in metrics.items()} == declared
            assert runs[mode]["correct"] and runs[mode]["failed"] == 0
        untraced = dict(runs["untraced"]["metrics"])
        assert untraced.pop("failed_share")["value"] == 0
        assert all(v["value"] > 0 for v in untraced.values()), name
        header = runs["untraced"]["header"]
        assert {"seed", "python", "nproc", "workers", "git_commit",
                "batches", "sizes"} <= set(header)
    for metric in list(end_to_end) + list(per_layer):
        assert metric in stdout


def test_self_shares_sum_to_one(full_run):
    _, document, _ = full_run
    for name, runs in document["workloads"].items():
        shares = [metric["value"]
                  for key, metric in runs["traced"]["metrics"].items()
                  if key.endswith(".self_share")]
        assert sum(shares) == pytest.approx(1.0, abs=0.01), name


def test_exact_counters_repeat_and_follow_the_seed(full_run, tmp_path):
    _, document, _ = full_run
    again = documents(tmp_path, 5, trace=1)
    other = documents(tmp_path, 6, trace=0)
    for name in spec.WORKLOAD_NAMES:
        traced = document["workloads"][name]["traced"]
        untraced = document["workloads"][name]["untraced"]
        assert again[name]["exact"] == traced["exact"], name
        assert again[name]["results_digest"] == traced["results_digest"]
        assert untraced["results_digest"] == traced["results_digest"]
        assert other[name]["results_digest"] != untraced["results_digest"]
        assert other[name]["exact"] != untraced["exact"], name


def test_driver_result_line(capsys):
    status = main(["--workload", "bulk_transfer", "--quick", "--seed", "3",
                   "--seconds", str(spec.RUN_SECONDS), "--trace", "0"])
    assert status == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m.name: m.unit for m in spec.DRIVER_END_TO_END}


def test_run_length_is_not_a_knob():
    with pytest.raises(SystemExit):
        main(["--workload", "bulk_transfer", "--quick", "--seconds", "3",
              "--trace", "0"])


def test_injected_failing_trial_fails_the_run(monkeypatch, tmp_path):
    doomed = workloads.trial_seed(5, 2)
    real = workloads.page_load_world

    def sabotaged(store, page, seed, observer=None):
        if seed == doomed:
            raise ReproError("injected failure")
        return real(store, page, seed, observer)

    monkeypatch.setattr(workloads, "page_load_world", sabotaged)
    out = tmp_path / "failed.json"
    status = main(["--workload", "campaign_supervised", "--quick", "--seed",
                   "5", "--trace", "0", "--out", str(out)])
    document = json.loads(out.read_text())
    assert status != 0
    assert not document["correct"]
    assert document["metrics"]["failed_share"]["value"] > 0


def test_compare_flags_a_slowdown_and_a_changed_simulation(
        full_run, tmp_path, capsys):
    path, document, _ = full_run
    assert compare_main([str(path), str(path)]) == 0
    assert "identical" in capsys.readouterr().out

    slowed = copy.deepcopy(document)
    for runs in slowed["workloads"].values():
        for name, factor in (("ops_per_s", 0.5), ("cpu_ms_per_op", 2.0)):
            metric = runs["untraced"]["metrics"][name]
            metric["value"] *= factor
            metric["samples"] = [v * factor for v in metric["samples"]]
    slow_path = tmp_path / "slowed.json"
    slow_path.write_text(json.dumps(slowed))
    assert compare_main([str(path), str(slow_path)]) == 1
    table = capsys.readouterr().out
    assert table.count("REGRESSION") == 2 * len(spec.WORKLOAD_NAMES)
    assert "simulation changed" not in table

    moved = copy.deepcopy(document)
    moved["workloads"]["bulk_transfer"]["traced"]["exact"][
        "transport.segments_sent"] += 1
    moved_path = tmp_path / "moved.json"
    moved_path.write_text(json.dumps(moved))
    assert compare_main([str(path), str(moved_path)]) == 1
    assert "simulation changed" in capsys.readouterr().out


def test_compare_refuses_what_it_cannot_compare(full_run, tmp_path, capsys):
    path, document, _ = full_run

    def status_of(change):
        changed = copy.deepcopy(document)
        change(changed["workloads"])
        other = tmp_path / "other.json"
        other.write_text(json.dumps(changed))
        return compare_main([str(path), str(other)]), capsys.readouterr().out

    status, out = status_of(lambda runs: runs.pop("load_world"))
    assert status == 1 and "MISSING" in out

    def reseed(runs):
        for modes in runs.values():
            for run in modes.values():
                run["header"]["seed"] += 1
    status, out = status_of(reseed)
    assert status == 1 and "no two runs share a seed" in out

    def resize(runs):
        runs["load_world"]["untraced"]["header"]["sizes"][
            "clients_per_batch"] += 1
    status, out = status_of(resize)
    assert status == 2 and "not the same benchmark" in out


def test_scratch_is_removed():
    assert not SCRATCH_PARENT.exists() or not any(SCRATCH_PARENT.iterdir())
