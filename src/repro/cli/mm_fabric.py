"""``mm-fabric`` — run sweeps across the measurement fabric.

Subcommands::

    mm-fabric run --factory MOD:ATTR --trials N [--kwargs JSON]
                  [--shards K] [--backend local|subprocess|remote]
                  [--host H]... [--ssh CMD] [--timeout S] [--retries R]
                  [--worker-retries R] [--journal PATH] [--run-key KEY]
                  [--capture-digest] [--progress-deadline S]
                  [--heartbeat S] [--io-deadline S] [--spawn-retries R]
                  [--quarantine-after K] [--speculate]
                  [--artifact PATH] [--json]
    mm-fabric worker
    mm-fabric ship SRC DEST [--json]

``run`` feeds the sweep's trial indices to ``--shards`` workers, one
trial at a time, and merges the streamed outcomes by trial index — the
output (sample, combined event-stream digest, journal) is byte-identical
to a serial ``run_supervised`` of the same sweep, for any ``--shards``
and any ``--backend``. ``--factory`` names a scenario-factory *builder*
(e.g. ``repro.fabric.scenarios:replay_smoke``); ``--kwargs`` is a JSON
object of its arguments.

Robustness knobs: ``--heartbeat`` turns on worker liveness beats so the
``--progress-deadline`` watchdog kills only wedged workers, never
slow-but-alive ones; ``--io-deadline`` bounds every protocol read/write;
``--spawn-retries`` retries failed spawns with capped seeded backoff and
``--quarantine-after`` benches a host after that many consecutive
crashes (the sweep degrades to the surviving workers); ``--speculate``
has a worker that finds the queue empty duplicate the oldest trial still
in flight, first outcome wins. None of these change results: every knob
preserves byte-identity to serial.

When a run resumes from ``--journal``, corrupt journal lines are dropped
(their trials re-run) and surfaced as the ``journal_records_dropped``
count in both output modes. ``--artifact`` writes the fabric counters
and gauges as a ``repro.obs`` JSONL artifact for ``mm-report fabric``.

Exit codes: ``0`` — sweep complete (every trial produced an outcome);
``1`` — incomplete (crashed trials remain after retries/degradation);
``2`` — usage or toolkit error before/while running.

``worker`` is the fabric worker entry point: it speaks the wire protocol
on stdin/stdout and is what the subprocess and remote backends launch.
Never run it by hand — it expects a coordinator on the other end.

``ship`` copies a recorded corpus to a destination as site manifests
plus the missing-blob delta against the destination's content-addressed
store (``<DEST>/.cas``): blobs the destination already holds are never
re-transferred.
"""

from __future__ import annotations

import json
import os
import sys
from typing import List, Optional

from repro.cli.common import CliError, ShellSpec, main_wrapper
from repro.fabric.backend import (
    LocalBackend,
    RemoteBackend,
    SubprocessBackend,
)
from repro.fabric.coordinator import run_fabric
from repro.fabric.sync import ship_corpus
from repro.fabric.worker import FactorySpec, worker_loop
from repro.measure.journal import run_key as make_run_key
from repro.measure.runner import DEFAULT_TRIAL_TIMEOUT

USAGE = ("usage: mm-fabric run --factory MOD:ATTR --trials N [options] "
         "| mm-fabric worker | mm-fabric ship SRC DEST [--json]")


def run(argv: List[str], specs: List[ShellSpec]) -> int:
    if specs:
        raise CliError("mm-fabric cannot nest inside other shells")
    if not argv:
        raise CliError(USAGE)
    command, rest = argv[0], argv[1:]
    if command == "run":
        return _run(rest)
    if command == "worker":
        return _worker(rest)
    if command == "ship":
        return _ship(rest)
    raise CliError(USAGE)


def _run(argv: List[str]) -> int:
    factory_spec: Optional[str] = None
    kwargs_json = "{}"
    trials: Optional[int] = None
    shards = 2
    backend_name = "subprocess"
    hosts: List[str] = []
    ssh = "ssh"
    timeout = DEFAULT_TRIAL_TIMEOUT
    retries = 1
    worker_retries = 1
    journal: Optional[str] = None
    key: Optional[str] = None
    capture_digest = False
    progress_deadline: Optional[float] = None
    heartbeat: Optional[float] = None
    io_deadline: Optional[float] = None
    spawn_retries = 2
    quarantine_after = 3
    speculate = False
    artifact: Optional[str] = None
    as_json = False
    rest = list(argv)
    while rest:
        flag = rest.pop(0)
        if flag == "--factory":
            factory_spec = rest.pop(0)
        elif flag == "--kwargs":
            kwargs_json = rest.pop(0)
        elif flag == "--trials":
            trials = int(rest.pop(0))
        elif flag == "--shards":
            shards = int(rest.pop(0))
        elif flag == "--backend":
            backend_name = rest.pop(0)
        elif flag == "--host":
            hosts.append(rest.pop(0))
        elif flag == "--ssh":
            ssh = rest.pop(0)
        elif flag == "--timeout":
            timeout = float(rest.pop(0))
        elif flag == "--retries":
            retries = int(rest.pop(0))
        elif flag == "--worker-retries":
            worker_retries = int(rest.pop(0))
        elif flag == "--journal":
            journal = rest.pop(0)
        elif flag == "--run-key":
            key = rest.pop(0)
        elif flag == "--capture-digest":
            capture_digest = True
        elif flag == "--progress-deadline":
            progress_deadline = float(rest.pop(0))
        elif flag == "--heartbeat":
            heartbeat = float(rest.pop(0))
        elif flag == "--io-deadline":
            io_deadline = float(rest.pop(0))
        elif flag == "--spawn-retries":
            spawn_retries = int(rest.pop(0))
        elif flag == "--quarantine-after":
            quarantine_after = int(rest.pop(0))
        elif flag == "--speculate":
            speculate = True
        elif flag == "--artifact":
            artifact = rest.pop(0)
        elif flag == "--json":
            as_json = True
        else:
            raise CliError(f"{USAGE}\nunknown option {flag!r}")
    if factory_spec is None or trials is None:
        raise CliError(USAGE)
    try:
        kwargs = json.loads(kwargs_json)
    except json.JSONDecodeError as exc:
        raise CliError(f"--kwargs is not valid JSON: {exc}")
    if not isinstance(kwargs, dict):
        raise CliError("--kwargs must be a JSON object")
    spec = FactorySpec(factory_spec, kwargs)
    if key is None and journal is not None:
        key = make_run_key(factory=factory_spec, kwargs=kwargs_json,
                           trials=trials, timeout=timeout)

    if backend_name == "local":
        backend = LocalBackend(spec.resolve())
    elif backend_name == "subprocess":
        backend = SubprocessBackend(spec)
    elif backend_name == "remote":
        if not hosts:
            raise CliError("--backend remote needs at least one --host")
        # The SSH-shaped stub drives one host; shard-per-host fan-out
        # rides on the same protocol (DESIGN.md §13).
        backend = RemoteBackend(hosts[0], spec,
                                ssh_command=ssh.split())
    else:
        raise CliError(f"unknown backend {backend_name!r} "
                       f"(expected local, subprocess, or remote)")

    result = run_fabric(
        backend, trials, shards=shards, timeout=timeout,
        retries=retries, worker_retries=worker_retries,
        journal=journal, run_key=key, capture_digest=capture_digest,
        progress_deadline=progress_deadline, heartbeat=heartbeat,
        io_deadline=io_deadline, spawn_retries=spawn_retries,
        quarantine_after=quarantine_after, speculate=speculate,
    )
    counters = {name: c.value
                for name, c in sorted(result.metrics.counters.items())}
    gauges = {name: g.value
              for name, g in sorted(result.metrics.gauges.items())}
    dropped = counters.get("fabric.journal_records_dropped", 0)
    if artifact is not None:
        from repro.obs import write_artifact

        write_artifact(artifact, registry=result.metrics, meta={
            "tool": "mm-fabric", "factory": factory_spec,
            "trials": trials, "shards": shards, "backend": backend_name,
        })
    if as_json:
        print(json.dumps({
            "sweep": result.to_dict(),
            "fabric": {"counters": counters, "gauges": gauges},
            "journal_records_dropped": dropped,
            "quarantined_hosts": dict(result.quarantined_hosts or {}),
        }, indent=2, sort_keys=True))
    else:
        counts = result.counts()
        print(f"fabric: {trials} trial(s) over {result.shards} shard(s), "
              f"backend {backend_name}")
        print("outcomes: " + "  ".join(
            f"{state}={counts[state]}" for state in
            ("ok", "retried", "quarantined", "crashed")))
        if result.digest is not None:
            print(f"combined digest: {result.digest}")
        rate = gauges.get("fabric.trials_per_s")
        if rate:
            print(f"throughput: {rate:.2f} trials/s "
                  f"({counters.get('fabric.workers_spawned', 0)} worker(s), "
                  f"{counters.get('fabric.worker_crashes', 0)} crash(es))")
        if dropped:
            print(f"journal: dropped {dropped} corrupt record(s) on "
                  f"resume (their trials were re-run)")
        if result.quarantined_hosts:
            benched = ", ".join(
                f"{host} ({crashes} crash(es))" for host, crashes in
                sorted(result.quarantined_hosts.items()))
            print(f"quarantined hosts: {benched}")
    return 0 if result.complete else 1


def _worker(argv: List[str]) -> int:
    if argv:
        raise CliError(f"{USAGE}\nworker takes no arguments")
    # The protocol owns the real stdout. Point fd 1 at stderr so any
    # stray print inside scenario code lands in the log, not the frame
    # stream (the magic check would catch it, but loudly and fatally).
    protocol_out = os.fdopen(os.dup(1), "wb")
    os.dup2(2, 1)
    return worker_loop(sys.stdin.buffer, protocol_out)


def _ship(argv: List[str]) -> int:
    as_json = False
    positional: List[str] = []
    rest = list(argv)
    while rest:
        flag = rest.pop(0)
        if flag == "--json":
            as_json = True
        elif flag.startswith("-"):
            raise CliError(f"{USAGE}\nunknown option {flag!r}")
        else:
            positional.append(flag)
    if len(positional) != 2:
        raise CliError(USAGE)
    source, dest = positional
    if not os.path.isdir(source):
        raise CliError(f"not a corpus directory: {source!r}")
    report = ship_corpus(source, dest)
    if as_json:
        print(json.dumps({
            "sites": report.sites,
            "refs": report.refs,
            "blobs_transferred": report.blobs_transferred,
            "blobs_deduped": report.blobs_deduped,
            "bytes_transferred": report.bytes_transferred,
        }, indent=2, sort_keys=True))
    else:
        print(f"shipped {report.sites} site(s) to {dest}")
        print(f"blobs: {report.blobs_transferred} transferred "
              f"({report.bytes_transferred} bytes), "
              f"{report.blobs_deduped} already present")
    return 0


main = main_wrapper(run)

if __name__ == "__main__":
    sys.exit(main())
