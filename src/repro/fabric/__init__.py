"""The measurement fabric: one sweep over many worker processes.

One coordinator (:func:`~repro.fabric.coordinator.run_fabric`) shards a
sweep's trial indices across worker processes obtained from a pluggable
:class:`~repro.fabric.backend.FabricBackend` — forked, or spawned as
``mm-fabric worker`` subprocesses, both on this host — speaking one
length-prefixed, checksummed wire protocol
(:mod:`~repro.fabric.protocol`). Because trials are deterministic pure
functions of their index, the merged result is **byte-identical** to a
serial :func:`~repro.measure.supervise.run_supervised` of the same sweep
— same sample, same combined event-stream digest, same rewritten journal
— for any shard count and any backend.

The identity holds *under partial failure*, not just in its absence:
protocol read/write deadlines (:mod:`~repro.fabric.protocol`), worker
heartbeats (:mod:`~repro.fabric.worker`) and one loss/retry rule
(:mod:`~repro.fabric.coordinator`): a worker that dies, goes silent,
never starts, or writes a frame that does not parse costs the one trial
it held, which runs again elsewhere. :mod:`repro.testing` injects the
first three (spawn failures, killed and wedged workers) to prove it.

This package is *harness* domain: wall clocks, processes, and pipes are
all legitimate here — nothing in it runs inside a simulated world.
"""

from repro.fabric.backend import (
    FabricBackend,
    LocalBackend,
    SubprocessBackend,
    WorkerHandle,
)
from repro.fabric.coordinator import run_fabric
from repro.fabric.protocol import PROTOCOL_VERSION, read_message, write_message
from repro.fabric.worker import FactorySpec, worker_loop

__all__ = [
    "FabricBackend",
    "FactorySpec",
    "LocalBackend",
    "PROTOCOL_VERSION",
    "SubprocessBackend",
    "WorkerHandle",
    "read_message",
    "run_fabric",
    "worker_loop",
    "write_message",
]
