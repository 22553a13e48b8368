"""Fabric chaos soak: every harness-fault class, byte-identical to serial.

The end-to-end acceptance check for the chaos-hardened fabric (DESIGN.md
section 9 failure-mode matrix). One serial ``run_supervised`` reference
is recorded, then the same sweep is run under ``FaultyBackend`` once per
fault class — dropped frames, delayed frames, corrupted frames, a
truncated stream, injected spawn failures, a SIGKILLed worker, and a
wedged (silent but alive) worker — plus two combined scenarios:

* **wedge + speculate**: the trial the wedged worker holds is
  speculatively re-executed by the worker that empties the queue; first
  outcome wins.
* **wedge + slow**: one wedged worker and one slow-but-alive worker in
  the same sweep; heartbeats must keep the watchdog from killing the
  slow one (exactly one watchdog kill).

Every scenario must end complete and byte-identical to the serial
reference (PLT sample, per-trial digests, combined digest), and must
observably deliver its fault (injector counters plus the matching
``fabric.*`` recovery counters). Results and the per-scenario fabric
obs artifacts land under ``--journal-dir`` (default
``benchmarks/results/fabric-chaos``) for CI upload. Exit status 0 when
every scenario holds, 1 otherwise.

Usage::

    PYTHONPATH=src python benchmarks/fabric_chaos_smoke.py \
        [--journal-dir DIR]
"""

from __future__ import annotations

import json
import os
import sys

from repro.fabric.backend import LocalBackend
from repro.fabric.coordinator import run_fabric
from repro.fabric.faults import (
    FabricFaultPlan,
    FaultyBackend,
    FrameFault,
    KillWorker,
    SpawnFault,
    WedgeWorker,
)
from repro.scenarios import replay_smoke
from repro.measure.supervise import run_supervised
from repro.obs import write_artifact
from repro.testing import sweeps_identical

TRIALS = 6
FACTORY_KW = {"name": "fabricchaos.com", "seed": 13, "n_origins": 3,
              "scale": 0.4}


def _scenarios():
    """(name, plan, run_fabric kwargs, factory kwargs, required counters).

    Required counters prove the fault was delivered AND recovered from —
    a vacuous pass (fault never fired) fails the soak.
    """
    return [
        ("drop-frames",
         FabricFaultPlan([FrameFault(action="drop", kinds=("outcome",),
                                     skip=1, count=1)], seed=1),
         {}, {},
         {"fabric.trials_redelivered": 1}),
        ("delay-frames",
         FabricFaultPlan([FrameFault(action="delay", delay=0.3,
                                     kinds=("outcome",), count=2)], seed=2),
         {}, {},
         {}),
        ("corrupt-frames",
         FabricFaultPlan([FrameFault(action="corrupt", kinds=("outcome",),
                                     count=2)], seed=3),
         {}, {},
         {"fabric.frames_resynced": 2}),
        ("truncate-stream",
         FabricFaultPlan([FrameFault(action="truncate", kinds=("outcome",),
                                     skip=1, count=1, shard=0)], seed=4),
         {"worker_retries": 2}, {},
         {"fabric.worker_crashes": 1}),
        ("spawn-failures",
         FabricFaultPlan([SpawnFault(shard=0, fail_first=2)], seed=5),
         {"spawn_retries": 2}, {},
         {"fabric.spawn_retries": 2}),
        ("quarantine-degrade",
         FabricFaultPlan([SpawnFault(shard=1, fail_first=99)], seed=6),
         {"spawn_retries": 1, "quarantine_after": 2}, {},
         {"fabric.hosts_quarantined": 1, "fabric.spawn_failures": 1}),
        ("kill-worker",
         FabricFaultPlan([KillWorker(shard=0, after_outcomes=1)], seed=7),
         {"worker_retries": 2}, {},
         {"fabric.worker_crashes": 1}),
        ("wedge-worker",
         FabricFaultPlan([WedgeWorker(shard=0, after_outcomes=1)], seed=8),
         {"worker_retries": 2, "heartbeat": 0.1,
          "progress_deadline": 0.75}, {},
         {"fabric.watchdog_kills": 1}),
        ("wedge-speculate",
         FabricFaultPlan([WedgeWorker(shard=0, after_outcomes=1)], seed=9),
         {"speculate": True, "heartbeat": 0.2}, {},
         {"fabric.speculative_wins": 1}),
        # The headline liveness scenario: every trial paced slower than
        # the progress deadline, so only heartbeats distinguish the
        # wedged worker from the slow-but-alive one.
        ("wedge-plus-slow",
         FabricFaultPlan([WedgeWorker(shard=0, after_outcomes=1)], seed=10),
         {"worker_retries": 2, "heartbeat": 0.1,
          "progress_deadline": 0.45},
         {"pace": 0.6},
         {"fabric.watchdog_kills": 1, "fabric.heartbeats": 1}),
    ]


def run_scenario(name, plan, kwargs, factory_kw, required, reference,
                 journal_dir):
    factory = replay_smoke(**{**FACTORY_KW, **factory_kw})
    backend = FaultyBackend(LocalBackend(factory), plan)
    result = run_fabric(backend, trials=TRIALS, shards=2,
                        capture_digest=True, **kwargs)
    identical = sweeps_identical(result, reference)
    short = []
    ok = identical
    for counter, floor in required.items():
        value = result.metrics.counter(counter).value
        short.append(f"{counter.split('.', 1)[1]}={value}")
        if value < floor:
            ok = False
    # wedge-plus-slow additionally demands exactly one kill: the wedged
    # worker died, the slow-but-alive one survived on its heartbeats.
    if name == "wedge-plus-slow":
        kills = result.metrics.counter("fabric.watchdog_kills").value
        if kills != 1:
            ok = False
            short.append(f"EXPECTED exactly 1 watchdog kill, got {kills}")
    write_artifact(
        os.path.join(journal_dir, f"{name}.artifact.jsonl"),
        registry=result.metrics,
        meta={"tool": "fabric-chaos-smoke", "scenario": name,
              "plan": json.loads(plan.to_json()), "trials": TRIALS,
              "shards": 2},
    )
    injected = ", ".join(f"{k}={v}" for k, v in
                         sorted(backend.injected.items())) or "none"
    print(f"{name}: identical={identical} complete={result.complete} "
          f"[{' '.join(short) or 'no counter floors'}] injected: {injected}")
    return ok


def main(argv) -> int:
    journal_dir = os.path.join("benchmarks", "results", "fabric-chaos")
    rest = list(argv)
    while rest:
        flag = rest.pop(0)
        if flag == "--journal-dir":
            journal_dir = rest.pop(0)
        else:
            print(f"unknown option {flag!r}", file=sys.stderr)
            return 2
    os.makedirs(journal_dir, exist_ok=True)
    reference = run_supervised(replay_smoke(**FACTORY_KW), trials=TRIALS,
                               workers=1, capture_digest=True)
    assert reference.complete
    print(f"serial reference: {TRIALS} trial(s), digest {reference.digest}")
    failures = []
    for name, plan, kwargs, factory_kw, required in _scenarios():
        if not run_scenario(name, plan, kwargs, factory_kw, required,
                            reference, journal_dir):
            failures.append(name)
    if failures:
        print(f"fabric chaos smoke: FAILED ({', '.join(failures)})")
        return 1
    print("fabric chaos smoke: OK — every fault class byte-identical "
          "to serial")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
