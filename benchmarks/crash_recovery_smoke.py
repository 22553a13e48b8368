"""Crash-recovery smoke: SIGKILL a journaled run mid-flight and resume.

The end-to-end acceptance check for the harness-resilience contract
(DESIGN.md section 9), exercised at CI scale. Two phases:

1. **Supervised sweep.** A journaled page-load sweep is started in a
   child process and SIGKILLed after it has checkpointed at least two
   trials. Every warm worker of the killed driver must be gone within a
   few seconds (no orphans blocked on a pipe). The sweep is then resumed
   from the journal left behind; the merged sample *and* the combined
   event-stream digest must be byte-identical to an uninterrupted
   reference run.

2. **mm-corpus generate.** A corpus generation is started via the real
   CLI, SIGKILLed after at least two sites have been journaled — its
   workers (the same dispatched workers, through ``parallel_map``) must
   be gone within the same few seconds — then finished with
   ``--resume``. The resulting tree (every file under every site
   folder) must hash identically to a corpus generated without
   interruption.

Both phases leave their journals under ``--journal-dir`` (default
``benchmarks/results/crash-recovery``) so CI can upload them as
artifacts. Exit status 0 when both phases hold, 1 otherwise.

Usage::

    PYTHONPATH=src python benchmarks/crash_recovery_smoke.py \
        [--journal-dir DIR]
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import shutil
import signal
import subprocess
import sys

from repro.scenarios import replay_smoke
from repro.measure.journal import TrialJournal
from repro.measure.supervise import run_supervised
from repro.testing import child_pids, pids_alive, wait_for_journal_trials

TRIALS = 6
RUN_KEY = "crash-recovery-smoke"
CORPUS_ARGS = ["--size", "10", "--singles", "2", "--scale", "0.4",
               "--seed", "7", "--workers", "2"]


def _make_factory(pace: float = 0.0, pid_dir: str = ""):
    """The fabric's smoke factory; ``pace`` widens the kill window and
    ``pid_dir`` collects one file per worker pid that ran a trial."""
    inner = replay_smoke(name="crashsmoke.com", pace=pace)

    def factory(trial):
        if pid_dir:
            open(os.path.join(pid_dir, str(os.getpid())), "w").close()
        return inner(trial)

    return factory


def _sweep_driver(journal_path: str, pid_dir: str) -> None:
    """Child-process entry: run the journaled sweep to completion."""
    run_supervised(_make_factory(pace=0.3, pid_dir=pid_dir), trials=TRIALS,
                   workers=2, journal=journal_path, run_key=RUN_KEY,
                   capture_digest=True)


def _tree_digest(root: str) -> str:
    """BLAKE2 over every (relative path, content) pair; dotfiles skipped."""
    digest = hashlib.blake2b(digest_size=16)
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            if name.startswith("."):
                continue
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def run_sweep_phase(journal_dir: str) -> bool:
    journal_path = os.path.join(journal_dir, "sweep.journal.jsonl")
    pid_dir = os.path.join(journal_dir, "sweep-worker-pids")
    shutil.rmtree(pid_dir, ignore_errors=True)
    os.makedirs(pid_dir)
    context = multiprocessing.get_context("fork")
    driver = context.Process(target=_sweep_driver,
                             args=(journal_path, pid_dir))
    driver.start()
    if not wait_for_journal_trials(journal_path, wanted=2, timeout=120):
        driver.kill()
        driver.join()
        print("FAIL sweep: driver never journaled two trials")
        return False
    os.kill(driver.pid, signal.SIGKILL)
    driver.join()
    assert driver.exitcode == -signal.SIGKILL
    workers = [int(name) for name in os.listdir(pid_dir)]
    orphans = sorted(pids_alive(workers, within=5.0))
    shutil.rmtree(pid_dir)
    print(f"sweep: killed driver had {len(workers)} worker(s); still "
          f"alive 5s later: {orphans or 'none'}")
    if orphans or not workers:
        print("FAIL sweep: the killed driver left orphan workers (or "
              "recorded none)")
        return False

    journaled = len(TrialJournal(journal_path, key=RUN_KEY))
    resumed = run_supervised(_make_factory(), trials=TRIALS, workers=2,
                             journal=journal_path, run_key=RUN_KEY,
                             capture_digest=True)
    reference = run_supervised(_make_factory(), trials=TRIALS, workers=2,
                               capture_digest=True)
    replayed = sum(1 for o in resumed.outcomes if o.from_journal)
    samples_equal = (list(resumed.sample.values)
                     == list(reference.sample.values))
    digests_equal = resumed.digest == reference.digest
    ok = (resumed.complete and replayed >= 2
          and samples_equal and digests_equal)
    print(f"sweep: killed with {journaled}/{TRIALS} trials journaled, "
          f"resume replayed {replayed} and ran {TRIALS - replayed}")
    print(f"sweep: samples byte-identical: {samples_equal}; "
          f"event-stream digest identical: {digests_equal} "
          f"({resumed.digest})")
    return ok


def run_corpus_phase(journal_dir: str) -> bool:
    from repro.cli.mm_corpus import JOURNAL_FILE

    killed_dir = os.path.join(journal_dir, "corpus-killed")
    reference_dir = os.path.join(journal_dir, "corpus-reference")
    for directory in (killed_dir, reference_dir):
        shutil.rmtree(directory, ignore_errors=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
    command = [sys.executable, "-m", "repro.cli.mm_corpus", "generate",
               "--out", killed_dir, *CORPUS_ARGS]
    journal_path = os.path.join(killed_dir, JOURNAL_FILE)
    child = subprocess.Popen(command, env=env,
                             stdout=subprocess.DEVNULL,
                             stderr=subprocess.DEVNULL)
    if not wait_for_journal_trials(journal_path, wanted=2, timeout=120):
        child.kill()
        child.wait()
        print("FAIL corpus: generate never journaled two sites")
        return False
    workers = child_pids(child.pid)
    child.send_signal(signal.SIGKILL)
    child.wait()
    orphans = sorted(pids_alive(workers, within=5.0))
    print(f"corpus: killed generate had {len(workers)} worker(s); still "
          f"alive 5s later: {orphans or 'none'}")
    if orphans or not workers:
        print("FAIL corpus: the killed generate left orphan workers (or "
              "had none)")
        return False

    journaled = len(TrialJournal(journal_path))
    # Keep a copy of what the killed run had checkpointed for the
    # artifact upload (mm-corpus removes its journal on success).
    shutil.copy(journal_path,
                os.path.join(journal_dir, "corpus.journal.jsonl"))
    resume = subprocess.run(command + ["--resume"], env=env,
                            capture_output=True, text=True)
    if resume.returncode != 0:
        print(f"FAIL corpus: --resume exited {resume.returncode}: "
              f"{resume.stderr.strip()}")
        return False
    reference = subprocess.run(
        [sys.executable, "-m", "repro.cli.mm_corpus", "generate",
         "--out", reference_dir, *CORPUS_ARGS],
        env=env, capture_output=True, text=True)
    assert reference.returncode == 0, reference.stderr
    resumed_digest = _tree_digest(killed_dir)
    reference_digest = _tree_digest(reference_dir)
    trees_equal = resumed_digest == reference_digest
    print(f"corpus: killed with {journaled} sites journaled; "
          f"{resume.stdout.splitlines()[0] if resume.stdout else ''}")
    print(f"corpus: resumed tree byte-identical to uninterrupted: "
          f"{trees_equal} ({resumed_digest})")
    shutil.rmtree(reference_dir, ignore_errors=True)
    if trees_equal:
        shutil.rmtree(killed_dir, ignore_errors=True)
    return trees_equal


def main(argv) -> int:
    journal_dir = os.path.join("benchmarks", "results", "crash-recovery")
    rest = list(argv)
    while rest:
        flag = rest.pop(0)
        if flag == "--journal-dir":
            journal_dir = rest.pop(0)
        else:
            print(f"unknown option {flag!r}", file=sys.stderr)
            return 2
    os.makedirs(journal_dir, exist_ok=True)
    sweep_ok = run_sweep_phase(journal_dir)
    corpus_ok = run_corpus_phase(journal_dir)
    if sweep_ok and corpus_ok:
        print("crash-recovery smoke: OK")
        return 0
    print("crash-recovery smoke: FAILED")
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
