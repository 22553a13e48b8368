"""Fabric backends: interchangeable ways to get a worker process.

A backend answers exactly one question — *give me a live worker speaking
the fabric protocol over a stream pair* — and the dispatcher never asks
anything else. Three implementations cover the deployment spectrum:

* :class:`LocalBackend` — ``fork()`` a worker that inherits the scenario
  factory closure directly. Zero serialization of the factory, fastest
  startup; the default for single-host campaigns, and what a sweep
  given no backend and ``parallel_map`` dispatch to (their workers
  inherit a task in the factory's place). This is the one
  place in the package that forks (a tier-1 test holds it to that).
* :class:`SubprocessBackend` — launch ``mm-fabric worker`` as a fresh
  interpreter wired over stdin/stdout pipes. The factory travels as a
  :class:`~repro.fabric.worker.FactorySpec` import path. This is the
  transport-equivalence proof: a worker that works here works anywhere
  a byte stream reaches.
* :class:`RemoteBackend` — the SSH-shaped transport: the same
  ``mm-fabric worker`` command line, launched through a user-supplied
  ``ssh``-like argv on another host. No remote-specific protocol —
  byte-identity across hosts falls out of determinism (DESIGN.md §6)
  plus the shared wire format.
"""

from __future__ import annotations

import multiprocessing
import os
import shlex
import subprocess
import sys
from typing import Any, BinaryIO, Optional, Sequence

from repro.errors import FabricError
from repro.fabric.worker import FactorySpec, worker_loop
from repro.measure.runner import ScenarioFactory

__all__ = [
    "FabricBackend",
    "LocalBackend",
    "RemoteBackend",
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

    def host_key(self, shard: int) -> str:
        """The host this shard's worker lands on, for per-host health
        bookkeeping (:class:`~repro.fabric.health.HostHealth`). Local
        transports share one key; remote backends return their host."""
        return "local"


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


def worker_command(python: str = "python3") -> list:
    """The canonical worker argv: ``<python> -m repro.cli.mm_fabric worker``.

    One command line shared by the subprocess and remote backends — the
    ISSUE's "same worker binary under every transport" in one place.
    """
    return [python, "-m", "repro.cli.mm_fabric", "worker"]


def _pythonpath_env() -> dict:
    """This interpreter's environment with ``repro``'s source root on
    PYTHONPATH, so a spawned ``-m repro.cli.mm_fabric`` resolves even
    when the package is not installed (the checkout-only case)."""
    import repro

    src_root = os.path.dirname(os.path.dirname(os.path.abspath(
        repro.__file__)))
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        src_root if not existing
        else src_root + os.pathsep + existing
    )
    return env


def _spawn_worker(argv: Sequence[str], what: str,
                  env: Optional[dict] = None) -> WorkerHandle:
    """Launch ``argv`` as a worker wired over unbuffered stdin/stdout
    pipes — the transport every spawned backend shares."""
    try:
        process = subprocess.Popen(
            argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            bufsize=0, env=env)
    except OSError as exc:
        raise FabricError(f"cannot launch {what}: {exc}") from exc
    return WorkerHandle(rfile=process.stdout, wfile=process.stdin,
                        process=process, pid=process.pid)


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
        return _spawn_worker(worker_command(self.python),
                             "worker subprocess", env=_pythonpath_env())


class RemoteBackend(FabricBackend):
    """The SSH-shaped transport: the same worker command on another host.

    The worker is launched as ``[*ssh_command, host, <remote command>]``
    — with the default ``ssh_command=("ssh",)`` that is plain
    ``ssh host 'python3 -m repro.cli.mm_fabric worker'``, speaking the
    identical wire protocol over the ssh channel's stdio. Tests swap in
    a fake ``ssh`` executable to prove transport equivalence without a
    network; real deployments additionally want the corpus shipped first
    (:mod:`repro.fabric.sync`).

    Args:
        host: the remote host name (passed to ``ssh_command`` verbatim).
        spec: the factory spec for the remote worker.
        ssh_command: argv prefix for the transport (default ``("ssh",)``).
        python: remote interpreter (default ``python3``).
        remote_pythonpath: when set, exported before the worker command
            so a checkout-only remote can resolve ``repro``.
    """

    def __init__(
        self,
        host: str,
        spec: FactorySpec,
        ssh_command: Sequence[str] = ("ssh",),
        python: str = "python3",
        remote_pythonpath: Optional[str] = None,
    ) -> None:
        self.host = host
        self.spec = spec
        self.ssh_command = list(ssh_command)
        self.python = python
        self.remote_pythonpath = remote_pythonpath

    def factory_spec(self) -> Optional[FactorySpec]:
        return self.spec

    def host_key(self, shard: int) -> str:
        return self.host

    def remote_command(self) -> str:
        """The shell command executed on the remote host."""
        command = shlex.join(worker_command(self.python))
        if self.remote_pythonpath:
            command = (
                f"PYTHONPATH={shlex.quote(self.remote_pythonpath)} "
                + command
            )
        return command

    def start_worker(self, shard: int) -> WorkerHandle:
        return _spawn_worker(
            [*self.ssh_command, self.host, self.remote_command()],
            f"remote worker via {self.ssh_command!r}")
