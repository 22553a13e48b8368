"""Four entry points, one verdict.

``run_supervised(workers=1)``, ``run_supervised(workers=2)``,
``run_fabric(LocalBackend)`` and ``run_fabric(SubprocessBackend)`` are
argument mappings onto one sweep body and one retry loop, so for the
same trials — whatever mix of fates they meet — and the same journal
left behind by a killed sweep, they must agree on every outcome, on the
combined digest, on the sample, and on the bytes of the journal they
leave. Seeded mixes, in the manner of the store-mutation test
(``tests/test_record/test_store_mutations.py``).
"""

import os
import random
import shutil

import pytest

from repro.errors import ReproError
from repro.fabric.backend import LocalBackend, SubprocessBackend
from repro.fabric.coordinator import run_fabric
from repro.scenarios import replay_smoke
from repro.fabric.worker import FactorySpec
from repro.measure.journal import TrialJournal
from repro.measure.parallel import fork_available
from repro.measure.supervise import run_supervised

pytestmark = pytest.mark.skipif(
    not fork_available(), reason="platform lacks the fork start method")

KW = {"name": "onesweep.example", "seed": 5, "n_origins": 2, "scale": 0.3}
RUN_KEY = "one-sweep"
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))

#: What a trial can meet, and the verdict every entry point must reach.
VERDICTS = {
    "ok": ("ok", 1),
    "flaky": ("retried", 2),        # ReproError, then fine
    "broken": ("quarantined", 2),   # ReproError on every attempt
    "bug": ("quarantined", 1),      # not a ReproError: reported once
    "poison": ("ok", 1),            # kills its first holder (never the driver)
}


def mixed_fates(fates, marker_dir, driver_pid):
    """The smoke factory, with trial ``i`` meeting ``fates[i]``.

    Every attempt appends a byte to the trial's marker file, which is
    how a first attempt is told from a retry. A ``poison`` trial only
    ever kills a *worker* (in-process there is no holder to lose, and
    the verdict is the same: a lost holder leaves no trace in a
    successful outcome).
    """
    inner = replay_smoke(**KW)

    def factory(trial):
        fate = fates[trial]
        marker = os.path.join(marker_dir, str(trial))
        first = not os.path.exists(marker)
        with open(marker, "a") as fh:
            fh.write("x")
        if fate == "broken" or (fate == "flaky" and first):
            raise ReproError(f"trial {trial}: injected {fate} failure")
        if fate == "bug":
            raise ValueError(f"trial {trial}: a bug in the factory")
        if fate == "poison" and first and os.getpid() != driver_pid:
            os._exit(9)
        return inner(trial)

    return factory


def _engines(fates, base):
    """name -> callable(journal path) for the four entry points, each
    with its own marker directory."""
    def kwargs(name):
        marker_dir = os.path.join(base, f"markers-{name}")
        os.makedirs(marker_dir)
        return {"fates": fates, "marker_dir": marker_dir,
                "driver_pid": os.getpid()}

    def supervised(name, workers):
        factory = mixed_fates(**kwargs(name))
        return lambda journal: run_supervised(
            factory, len(fates), workers=workers, retries=1,
            journal=journal, run_key=RUN_KEY, capture_digest=True)

    def fabric(name, backend):
        return lambda journal: run_fabric(
            backend, len(fates), shards=2, retries=1, worker_retries=1,
            quarantine_after=99, journal=journal, run_key=RUN_KEY,
            capture_digest=True)

    return {
        "supervised-1": supervised("supervised-1", 1),
        "supervised-2": supervised("supervised-2", 2),
        "fabric-local": fabric("fabric-local", LocalBackend(
            mixed_fates(**kwargs("fabric-local")))),
        "fabric-subprocess": fabric("fabric-subprocess", SubprocessBackend(
            FactorySpec(f"{__name__}:mixed_fates",
                        kwargs("fabric-subprocess")))),
    }


@pytest.fixture
def importable_here(monkeypatch):
    """Spawned workers resolve ``mixed_fates`` by import path."""
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(
        filter(None, [REPO_ROOT, os.environ.get("PYTHONPATH")])))


@pytest.fixture(scope="module")
def clean():
    """Clean outcomes of the smoke trials (fate-independent: a trial
    that succeeds at all succeeds with these bytes)."""
    result = run_supervised(replay_smoke(**KW), 10, workers=1,
                            capture_digest=True)
    assert result.complete
    return result.outcomes


def _killed_sweep_leftovers(directory, clean):
    """What a SIGKILLed journaled sweep leaves: a journal holding trials
    0 and 1 and a damaged record."""
    path = os.path.join(directory, "journal.jsonl")
    with TrialJournal(path, key=RUN_KEY) as journal:
        for outcome in clean[:2]:
            journal.append(outcome.trial, {"status": "ok", "attempts": 1,
                                           "result": outcome.result},
                           digest=outcome.digest)
    with open(path, "a") as fh:
        fh.write('{"kind": "trial", "trial": 2, "payload": "bitrot\n')


@pytest.mark.parametrize("seed", range(3))
def test_four_entry_points_one_verdict(seed, tmp_path, clean,
                                       importable_here):
    rng = random.Random(seed)
    rest = ["ok", "ok", "flaky", "flaky", "broken", "bug", "poison",
            rng.choice(sorted(VERDICTS))]
    rng.shuffle(rest)
    fates = ["ok", "ok"] + rest  # trials 0 and 1 come from the leftovers
    leftovers = tmp_path / "leftovers"
    leftovers.mkdir()
    _killed_sweep_leftovers(str(leftovers), clean)

    seen = {}
    for name, engine in _engines(fates, str(tmp_path)).items():
        directory = tmp_path / name
        shutil.copytree(leftovers, directory)
        journal = directory / "journal.jsonl"
        result = engine(str(journal))
        counter = result.metrics.counter
        assert counter("fabric.journal_records_dropped").value == 1, name
        assert [o.from_journal for o in result.outcomes[:3]] == \
            [True, True, False], name
        seen[name] = (
            [(o.status, o.attempts, o.digest) for o in result.outcomes],
            result.digest,
            list(result.sample.values),
            journal.read_bytes(),
        )

    verdicts, digest, sample, journal_bytes = seen["supervised-1"]
    assert [v[:2] for v in verdicts] == [VERDICTS[fate] for fate in fates]
    # Whoever ran it, a trial that succeeded has its clean digest.
    assert all(v[2] == clean[trial].digest
               for trial, v in enumerate(verdicts) if v[0] != "quarantined")
    assert digest is not None
    for name, other in seen.items():
        assert other[0] == verdicts, name
        assert other[1] == digest, name
        assert other[2] == sample, name
        assert other[3] == journal_bytes, name


def test_a_bug_in_a_trial_is_reported_once_and_costs_no_worker(
        tmp_path, importable_here):
    """A non-``ReproError`` exception: ``quarantined``, one attempt,
    ``TypeName: message`` — the worker kept, no replacement spawned, the
    other trials completed and journaled. Identically on every entry
    point (at the parent: the serial sweep aborted, the dispatched one
    lost a worker per attempt and recorded ``crashed``)."""
    fates = ["ok", "bug", "ok", "ok"]
    for name, engine in _engines(fates, str(tmp_path)).items():
        journal = tmp_path / f"{name}.jsonl"
        result = engine(str(journal))
        bug = result.outcomes[1]
        assert (bug.status, bug.attempts) == ("quarantined", 1), name
        assert "ValueError: trial 1: a bug in the factory" in bug.error, name
        assert [o.status for o in result.outcomes] == \
            ["ok", "quarantined", "ok", "ok"], name
        assert sorted(TrialJournal(str(journal)).completed) == [0, 2, 3], name
        counter = result.metrics.counter
        assert counter("fabric.worker_crashes").value == 0, name
        assert counter("fabric.workers_spawned").value == \
            (0 if name == "supervised-1" else 2), name
        # One attempt, wherever it ran.
        attempts = tmp_path / f"markers-{name}" / "1"
        assert attempts.read_text() == "x", name
