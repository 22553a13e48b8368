"""The distributed measurement fabric.

One coordinator (:func:`~repro.fabric.coordinator.run_fabric`) shards a
sweep's trial indices across worker processes obtained from a pluggable
:class:`~repro.fabric.backend.FabricBackend` — forked locally, spawned
as ``mm-fabric worker`` subprocesses, or launched through an SSH-shaped
transport — all speaking one length-prefixed, checksummed wire protocol
(:mod:`~repro.fabric.protocol`). Because trials are deterministic pure
functions of their index, the merged result is **byte-identical** to a
serial :func:`~repro.measure.supervise.run_supervised` of the same sweep
— same sample, same combined event-stream digest, same rewritten journal
— for any shard count and any backend.

The identity holds *under partial failure*, not just in its absence:
protocol read/write deadlines and bounded resync
(:mod:`~repro.fabric.protocol`), worker heartbeats and host quarantine
(:mod:`~repro.fabric.health`), redelivery of outcomes the wire ate, and
speculative re-execution of stragglers (:mod:`~repro.fabric.coordinator`)
— each proven by the deterministic harness-fault injector
(:mod:`~repro.fabric.faults`, the chaos plan's harness-side sibling).

Recorded corpora travel to workers as site manifests plus the
missing-blob delta against the content-addressed store
(:mod:`repro.fabric.sync`, :mod:`repro.record.cas`).

This package is *harness* domain: wall clocks, processes, and pipes are
all legitimate here — nothing in it runs inside a simulated world.
"""

from repro.fabric.backend import (
    FabricBackend,
    LocalBackend,
    RemoteBackend,
    SubprocessBackend,
    WorkerHandle,
)
from repro.fabric.coordinator import run_fabric
from repro.fabric.faults import (
    FabricFaultPlan,
    FaultyBackend,
    FrameFault,
    KillWorker,
    SpawnFault,
    WedgeWorker,
)
from repro.fabric.health import BackoffPolicy, HeartbeatSender, HostHealth
from repro.fabric.protocol import PROTOCOL_VERSION, read_message, write_message
from repro.fabric.sync import ShipReport, ship_corpus, ship_site
from repro.fabric.worker import FactorySpec, worker_loop

__all__ = [
    "BackoffPolicy",
    "FabricBackend",
    "FabricFaultPlan",
    "FactorySpec",
    "FaultyBackend",
    "FrameFault",
    "HeartbeatSender",
    "HostHealth",
    "KillWorker",
    "LocalBackend",
    "PROTOCOL_VERSION",
    "RemoteBackend",
    "ShipReport",
    "SpawnFault",
    "SubprocessBackend",
    "WedgeWorker",
    "WorkerHandle",
    "read_message",
    "run_fabric",
    "ship_corpus",
    "ship_site",
    "worker_loop",
    "write_message",
]
