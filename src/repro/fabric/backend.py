"""Fabric backends: interchangeable ways to get a worker process.

A backend answers exactly one question — *give me a live worker speaking
the fabric protocol over a stream pair* — and the dispatcher never asks
anything else. Two implementations, both on this host:

* :class:`LocalBackend` — ``fork()`` a worker that inherits the scenario
  factory closure directly. Zero serialization of the factory, fastest
  startup; the default for campaigns, and what a sweep given no backend
  and ``parallel_map`` dispatch to (their workers inherit a task in the
  factory's place). This is the one place in the package that forks (a
  tier-1 test holds it to that).
* :class:`SubprocessBackend` — launch ``mm-fabric worker`` as a fresh
  interpreter wired over stdin/stdout pipes. The factory travels as a
  :class:`~repro.fabric.worker.FactorySpec` import path. This is the
  transport-equivalence proof: a worker that inherits nothing from the
  coordinator still merges byte-identically to serial.

No backend crosses a network: a recorded corpus moves between machines
as a folder (``cp -r``, then ``mm-fsck`` at the destination), and each
machine runs its own sweeps.
"""

from __future__ import annotations

import multiprocessing
import os
import subprocess
import sys
from typing import Any, BinaryIO, Optional, Sequence

from repro.errors import FabricError
from repro.fabric.worker import FactorySpec, worker_loop
from repro.measure.runner import ScenarioFactory

__all__ = [
    "FabricBackend",
    "LocalBackend",
    "SubprocessBackend",
    "WorkerHandle",
]


class WorkerHandle:
    """The coordinator's grip on one live worker.

    Attributes:
        rfile: worker → coordinator stream (read outcomes here).
        wfile: coordinator → worker stream (write config/run here).
        pid: the worker's process id (None when unknowable).
    """

    def __init__(self, rfile: BinaryIO, wfile: BinaryIO,
                 process: Any, pid: Optional[int]) -> None:
        self.rfile = rfile
        self.wfile = wfile
        self.process = process
        self.pid = pid

    def alive(self) -> bool:
        """True while the worker process is still running."""
        if hasattr(self.process, "is_alive"):
            return bool(self.process.is_alive())
        return self.process.poll() is None

    def kill(self) -> None:
        """SIGKILL the worker (no cooperation required)."""
        try:
            self.process.kill()
        except (OSError, ValueError):
            pass

    def wait(self, timeout: Optional[float] = None) -> Optional[int]:
        """Reap the worker; returns its exit code where available (None
        when a ``timeout`` expires with the worker still running)."""
        if hasattr(self.process, "join"):
            self.process.join(timeout)
            return self.process.exitcode
        try:
            return self.process.wait(timeout)
        except subprocess.TimeoutExpired:
            return None

    def close(self) -> None:
        """Close both stream ends (idempotent, error-tolerant)."""
        for stream in (self.wfile, self.rfile):
            try:
                stream.close()
            except (OSError, ValueError):
                pass

    def __repr__(self) -> str:
        state = "alive" if self.alive() else "dead"
        return f"<WorkerHandle pid={self.pid} {state}>"


class FabricBackend:
    """The pluggable backend interface the dispatcher programs against."""

    def start_worker(self, shard: int) -> WorkerHandle:
        """Launch one worker for shard ``shard`` and return its handle.

        Implementations must hand the coordinator *unbuffered* streams
        (``buffering=0`` / ``bufsize=0``): the protocol's read/write
        deadlines select() on the raw fd, and a userspace buffer would
        hide ready bytes from them.
        """
        raise NotImplementedError

    def factory_spec(self) -> Optional[FactorySpec]:
        """The spec fresh-process workers receive in their config and
        resolve their factory from (None for backends whose workers
        inherit a closure)."""
        return None


def _forked_worker_main(rfd: int, wfd: int, close_fds: Sequence[int],
                        factory: ScenarioFactory) -> None:
    """Child side of a LocalBackend fork: run the loop, exit hard.

    ``os._exit`` (not ``sys.exit``) so the forked child never runs the
    parent's atexit handlers or flushes the parent's inherited buffers.
    """
    for fd in close_fds:  # drop the parent's pipe ends we inherited
        try:
            os.close(fd)
        except OSError:
            pass
    status = 1
    try:
        with os.fdopen(rfd, "rb") as rfile, os.fdopen(wfd, "wb") as wfile:
            status = worker_loop(rfile, wfile, factory=factory)
    finally:
        os._exit(status)


class LocalBackend(FabricBackend):
    """Fork workers that inherit the scenario factory closure.

    Args:
        factory: the scenario factory, shared with every forked worker
            by address-space inheritance (no pickling, closures welcome).

    Raises:
        FabricError: on platforms without ``fork`` (use
            :class:`SubprocessBackend` there).
    """

    def __init__(self, factory: ScenarioFactory) -> None:
        if "fork" not in multiprocessing.get_all_start_methods():
            raise FabricError(
                "LocalBackend needs fork(); use SubprocessBackend on "
                "this platform"
            )
        self.factory = factory

    def start_worker(self, shard: int) -> WorkerHandle:
        c2w_read, c2w_write = os.pipe()  # coordinator -> worker
        w2c_read, w2c_write = os.pipe()  # worker -> coordinator
        context = multiprocessing.get_context("fork")
        process = context.Process(
            target=_forked_worker_main,
            args=(c2w_read, w2c_write, (c2w_write, w2c_read), self.factory),
            name=f"fabric-shard{shard}",
        )
        process.start()
        os.close(c2w_read)
        os.close(w2c_write)
        return WorkerHandle(
            rfile=os.fdopen(w2c_read, "rb", buffering=0),
            wfile=os.fdopen(c2w_write, "wb", buffering=0),
            process=process,
            pid=process.pid,
        )


class SubprocessBackend(FabricBackend):
    """Launch ``mm-fabric worker`` children over stdin/stdout pipes.

    Args:
        spec: the factory spec spawned workers build their scenario
            factory from.
        python: interpreter for the worker (default: this one).
    """

    def __init__(self, spec: FactorySpec,
                 python: Optional[str] = None) -> None:
        self.spec = spec
        self.python = python or sys.executable

    def factory_spec(self) -> Optional[FactorySpec]:
        return self.spec

    def start_worker(self, shard: int) -> WorkerHandle:
        # repro's source root goes first on PYTHONPATH, so the worker's
        # ``-m repro.cli.mm_fabric`` resolves even when the package is
        # not installed (the checkout-only case).
        import repro

        env = dict(os.environ)
        src_root = os.path.dirname(os.path.dirname(os.path.abspath(
            repro.__file__)))
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, (src_root, env.get("PYTHONPATH"))))
        try:
            process = subprocess.Popen(
                [self.python, "-m", "repro.cli.mm_fabric", "worker"],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, bufsize=0,
                env=env)
        except OSError as exc:
            raise FabricError(f"cannot launch worker subprocess: {exc}") from exc
        return WorkerHandle(rfile=process.stdout, wfile=process.stdin,
                            process=process, pid=process.pid)
