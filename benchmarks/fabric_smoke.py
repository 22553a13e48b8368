"""Fabric smoke: distributed sweep, worker kill, coordinator kill — all
byte-identical to serial.

The end-to-end acceptance check for the measurement fabric (DESIGN.md
section 13), exercised at CI scale over the *subprocess* backend — real
``mm-fabric worker`` child interpreters wired over pipes, the transport
shape every other backend shares. Two phases:

1. **Worker kill.** A sweep is dispatched to two subprocess workers and
   one of them is SIGKILLed mid-sweep. The coordinator must put the one
   trial the dead worker held back on the queue, spawn a replacement,
   finish the sweep, and produce a PLT sample, a combined event-stream
   digest, *and a journal file* byte-identical to a serial
   ``run_supervised`` of the same sweep.

2. **Coordinator kill.** A journaled fabric run is started in a child
   process and SIGKILLed after it has checkpointed at least two trials.
   Its workers must be gone within a few seconds (they see EOF on their
   pipes; no orphans). ``run_fabric`` is then pointed at the journal
   left behind; it must replay the checkpointed trials, run only the
   rest, and again match the serial reference byte for byte.

Artifacts land under ``--journal-dir`` (default
``benchmarks/results/fabric``) for CI upload. Exit status 0 when both
phases hold, 1 otherwise.

Usage::

    PYTHONPATH=src python benchmarks/fabric_smoke.py [--journal-dir DIR]
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import sys
import threading
import time

from repro.fabric.backend import SubprocessBackend
from repro.fabric.coordinator import run_fabric
from repro.scenarios import replay_smoke
from repro.fabric.worker import FactorySpec
from repro.measure.journal import TrialJournal
from repro.measure.supervise import run_supervised
from repro.testing import (
    kill_mid_journal,
    smoke_journal_dir,
    sweeps_identical,
)

TRIALS = 6
RUN_KEY = "fabric-smoke"
#: One scenario for every run in this file: the serial reference, the
#: sharded subprocess workers, and the killed-and-resumed coordinator.
#: ``pace`` widens kill windows in wall time only — virtual-time results
#: cannot see it.
FACTORY_KW = {"name": "fabricsmoke.com", "seed": 11, "n_origins": 3,
              "scale": 0.4}
SPEC = FactorySpec("repro.scenarios:replay_smoke",
                   {**FACTORY_KW, "pace": 0.3})


class _KillOneWorker(SubprocessBackend):
    """A SubprocessBackend whose first worker is SIGKILLed mid-sweep."""

    def __init__(self, spec, after: float) -> None:
        super().__init__(spec)
        self.after = after
        self.killed: list = []

    def start_worker(self, shard):
        handle = super().start_worker(shard)
        if not self.killed:
            self.killed.append(handle.pid)

            def assassin(pid=handle.pid):
                time.sleep(self.after)
                try:
                    os.kill(pid, signal.SIGKILL)
                except OSError:
                    pass

            threading.Thread(target=assassin, daemon=True).start()
        return handle


def _serial_reference(journal_path: str):
    result = run_supervised(replay_smoke(**FACTORY_KW), trials=TRIALS,
                            workers=1, journal=journal_path,
                            run_key=RUN_KEY, capture_digest=True)
    assert result.complete
    with open(journal_path, "rb") as fh:
        return result, fh.read()


def run_worker_kill_phase(journal_dir: str, reference,
                          reference_bytes: bytes) -> bool:
    journal_path = os.path.join(journal_dir, "worker-kill.journal.jsonl")
    backend = _KillOneWorker(SPEC, after=0.5)
    result = run_fabric(backend, trials=TRIALS, shards=2,
                        journal=journal_path, run_key=RUN_KEY,
                        retries=2, capture_digest=True)
    with open(journal_path, "rb") as fh:
        journal_bytes = fh.read()
    crashes = result.metrics.counter("fabric.worker_crashes").value
    reassigned = result.metrics.counter("fabric.trials_reassigned").value
    identical = sweeps_identical(result, reference)
    journals_equal = journal_bytes == reference_bytes
    print(f"worker-kill: SIGKILLed worker pid {backend.killed[0]}; "
          f"{crashes} crash(es), {reassigned} trial(s) requeued")
    print(f"worker-kill: sample+digest identical to serial: {identical}; "
          f"journal byte-identical: {journals_equal} ({result.digest})")
    return identical and journals_equal and crashes >= 1


def _fabric_driver(journal_path: str) -> None:
    """Child-process entry: run the journaled fabric sweep to completion."""
    run_fabric(SubprocessBackend(SPEC), trials=TRIALS, shards=2,
               journal=journal_path, run_key=RUN_KEY, capture_digest=True)


def run_coordinator_kill_phase(journal_dir: str, reference,
                               reference_bytes: bytes) -> bool:
    journal_path = os.path.join(journal_dir,
                                "coordinator-kill.journal.jsonl")
    driver = multiprocessing.get_context("fork").Process(
        target=_fabric_driver, args=(journal_path,))
    driver.start()
    if not kill_mid_journal(driver, journal_path, "coordinator-kill"):
        return False

    journaled = len(TrialJournal(journal_path, key=RUN_KEY))
    resumed = run_fabric(SubprocessBackend(SPEC), trials=TRIALS, shards=2,
                         journal=journal_path, run_key=RUN_KEY,
                         capture_digest=True)
    with open(journal_path, "rb") as fh:
        journal_bytes = fh.read()
    replayed = resumed.metrics.counter("fabric.trials_from_journal").value
    identical = sweeps_identical(resumed, reference)
    journals_equal = journal_bytes == reference_bytes
    print(f"coordinator-kill: killed with {journaled}/{TRIALS} trials "
          f"journaled; resume replayed {replayed} and ran "
          f"{TRIALS - replayed}")
    print(f"coordinator-kill: sample+digest identical to serial: "
          f"{identical}; journal byte-identical: {journals_equal}")
    return identical and journals_equal and replayed >= 2


def main(argv) -> int:
    journal_dir = smoke_journal_dir(
        argv, os.path.join("benchmarks", "results", "fabric"))
    reference, reference_bytes = _serial_reference(
        os.path.join(journal_dir, "serial.journal.jsonl"))
    worker_ok = run_worker_kill_phase(journal_dir, reference,
                                      reference_bytes)
    coordinator_ok = run_coordinator_kill_phase(journal_dir, reference,
                                                reference_bytes)
    if worker_ok and coordinator_ok:
        print("fabric smoke: OK")
        return 0
    print("fabric smoke: FAILED")
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
