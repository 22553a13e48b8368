"""Test and example scaffolding: tiny prebuilt topologies.

:class:`TwoHostWorld` wires the minimal interesting network — two
namespaces joined by one veth pair whose pipes you choose — with a
transport host on each side. Unit tests, examples, and docs all build on
it, so the boilerplate of addresses/routes lives in exactly one place.

This module doubles as a pytest plugin (registered from the root
``conftest.py``): the :func:`determinism` fixture hands tests
:func:`assert_deterministic`, so any test can assert bit-identical replay
of a scenario in one line.

It also holds the harness faults the fabric's loss rule is proven
against — :class:`SpawnFault`, :class:`KillWorker` and
:class:`WedgeWorker`, injected by :class:`FaultInjectingBackend` — and
the process helpers the kill-and-resume smokes share.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import threading
import time
from dataclasses import dataclass
from typing import (
    Any, Callable, Dict, Iterable, List, Optional, Sequence, Set, Union,
)

from repro.errors import FabricError, ReproError
from repro.fabric.backend import FabricBackend, WorkerHandle
from repro.fabric.protocol import read_message, write_message
from repro.net.address import Endpoint, IPv4Address
from repro.net.namespace import NetworkNamespace
from repro.net.pipe import PacketPipe
from repro.net.veth import VethPair
from repro.sim.simulator import Simulator
from repro.transport.host import TransportHost


class ScriptedLossPipe(PacketPipe):
    """A delay pipe that drops chosen packets (for loss-path testing).

    Args:
        sim: the simulator.
        one_way_delay: fixed delay for delivered packets.
        drop_indices: 0-based indices (in arrival order) of packets to
            drop. Every packet counts — SYNs, ACKs, data — so tests can
            target exactly the packet they mean.
    """

    def __init__(self, sim, one_way_delay: float, drop_indices) -> None:
        super().__init__(sim)
        self.one_way_delay = one_way_delay
        self._drop = set(drop_indices)
        self._index = 0
        self.dropped_uids = []

    def send(self, packet) -> None:
        index = self._index
        self._index += 1
        self.packets_sent += 1
        if index in self._drop:
            self.packets_dropped += 1
            self.dropped_uids.append(packet.uid)
            return
        self._sim.schedule(self.one_way_delay, self.deliver, packet)


class ReorderPipe(PacketPipe):
    """A delay pipe that adds random extra delay to some packets,
    reordering them past later sends (for out-of-order-path testing).

    Args:
        sim: the simulator.
        one_way_delay: base delay.
        rng: randomness source.
        reorder_probability: chance a packet is held an extra
            ``extra_delay`` seconds, letting packets behind it overtake.
    """

    def __init__(self, sim, one_way_delay: float, rng,
                 reorder_probability: float = 0.1,
                 extra_delay: float = 0.005) -> None:
        super().__init__(sim)
        self.one_way_delay = one_way_delay
        self._rng = rng
        self.reorder_probability = reorder_probability
        self.extra_delay = extra_delay
        self.reordered = 0

    def send(self, packet) -> None:
        self.packets_sent += 1
        delay = self.one_way_delay
        if self._rng.random() < self.reorder_probability:
            delay += self.extra_delay
            self.reordered += 1
        self._sim.schedule(delay, self.deliver, packet)


class TwoHostWorld:
    """Two namespaces, one veth, a transport host each.

    Layout::

        client (10.0.0.1/24) --[pipe_ab / pipe_ba]-- server (10.0.0.2/24)

    ``pipe_ab`` carries client->server traffic; ``pipe_ba`` the reverse.
    Defaults are instant pipes (a bare veth).
    """

    CLIENT_ADDR = "10.0.0.1"
    SERVER_ADDR = "10.0.0.2"

    def __init__(
        self,
        sim: Optional[Simulator] = None,
        pipe_ab: Optional[PacketPipe] = None,
        pipe_ba: Optional[PacketPipe] = None,
        seed: int = 0,
    ) -> None:
        self.sim = sim if sim is not None else Simulator(seed=seed)
        self.client_ns = NetworkNamespace(self.sim, "client")
        self.server_ns = NetworkNamespace(self.sim, "server")
        self.veth = VethPair(
            self.sim, self.client_ns, self.server_ns,
            "veth-c", "veth-s", pipe_ab=pipe_ab, pipe_ba=pipe_ba,
        )
        self.veth.iface_a.add_address(self.CLIENT_ADDR, 24)
        self.veth.iface_b.add_address(self.SERVER_ADDR, 24)
        self.client = TransportHost(self.sim, self.client_ns)
        self.server = TransportHost(self.sim, self.server_ns)

    @property
    def server_endpoint(self) -> Endpoint:
        """Endpoint for the conventional server port 80."""
        return Endpoint(IPv4Address(self.SERVER_ADDR), 80)

    def endpoint(self, port: int) -> Endpoint:
        """Server endpoint on an arbitrary port."""
        return Endpoint(IPv4Address(self.SERVER_ADDR), port)


def assert_deterministic(
    build: Callable[[int], Simulator],
    seed: int = 0,
    runs: int = 2,
    **kwargs: Any,
):
    """Assert that ``build(seed)`` replays bit-identically.

    Thin test-facing wrapper over
    :func:`repro.analysis.sanitizer.check_determinism`: replays the
    scenario ``runs`` times and raises
    :class:`~repro.errors.DeterminismError` (failing the test) at the
    first divergent event. Returns the
    :class:`~repro.analysis.sanitizer.DeterminismReport` on success so
    tests can additionally pin event counts or digests.
    """
    from repro.analysis.sanitizer import check_determinism

    return check_determinism(build, seed=seed, runs=runs, **kwargs)


try:  # pragma: no cover - import guard
    import pytest as _pytest
except ImportError:  # pragma: no cover
    _pytest = None  # type: ignore[assignment]

if _pytest is not None:

    @_pytest.fixture(name="determinism")
    def _determinism_fixture():
        """Pytest fixture: the :func:`assert_deterministic` checker.

        Usage::

            def test_my_scenario_replays(determinism):
                determinism(build_scenario, seed=3)
        """
        return assert_deterministic


def delayed_world(one_way_delay: float, seed: int = 0) -> TwoHostWorld:
    """A :class:`TwoHostWorld` whose veth adds a symmetric fixed delay
    (ideal delay elements: no per-packet overhead)."""
    from repro.linkem.delay import DelayPipe

    sim = Simulator(seed=seed)
    return TwoHostWorld(
        sim=sim,
        pipe_ab=DelayPipe(sim, one_way_delay, service_time=0.0),
        pipe_ba=DelayPipe(sim, one_way_delay, service_time=0.0),
    )


def _proc_stat(pid: object) -> Optional[List[str]]:
    """The fields of ``/proc/<pid>/stat`` after the command name (state,
    parent pid, ...); None once the process is gone."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rpartition(")")[2].split()
    except OSError:
        return None


def _pid_gone(pid: int) -> bool:
    """True once ``pid`` has exited (a zombie nobody reaps counts)."""
    if os.path.isdir("/proc/self"):
        stat = _proc_stat(pid)
        return stat is None or stat[0] == "Z"
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    return False


def child_pids(pid: int) -> Set[int]:
    """The live child processes of ``pid`` — read *before* killing a
    driver whose workers' pids nothing else records, then handed to
    :func:`pids_alive`."""
    if not os.path.isdir("/proc/self"):
        found = subprocess.run(["pgrep", "-P", str(pid)],
                               capture_output=True, text=True)
        return {int(line) for line in found.stdout.split()}
    children = set()
    for entry in filter(str.isdigit, os.listdir("/proc")):
        stat = _proc_stat(entry)  # None: exited while we were listing
        if stat is not None and stat[0] != "Z" and int(stat[1]) == pid:
            children.add(int(entry))
    return children


def pids_alive(pids: Iterable[int], within: float = 0.0) -> Set[int]:
    """The ``pids`` still running ``within`` wall seconds from now (empty
    as soon as all are gone) — how the crash-recovery checks assert that
    a killed driver leaves no orphan workers behind."""
    deadline = time.monotonic() + within
    left = set(pids)
    while True:
        left = {pid for pid in left if not _pid_gone(pid)}
        if not left or time.monotonic() >= deadline:
            return left
        time.sleep(0.02)


def wait_for_journal_trials(path: str, wanted: int, timeout: float) -> bool:
    """Poll until the journal at ``path`` holds >= ``wanted`` trial
    records (False when ``timeout`` wall seconds pass first) — how the
    kill-and-resume checks pick the moment to SIGKILL a live driver."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            with open(path) as fh:
                if sum(1 for line in fh if '"trial"' in line) >= wanted:
                    return True
        except OSError:
            pass  # not created yet, or mid-rewrite
        time.sleep(0.02)
    return False


def kill_mid_journal(driver: Any, journal_path: str, label: str) -> bool:
    """The kill half of a kill-and-resume check: SIGKILL a live
    journaling ``driver`` (a started ``multiprocessing.Process`` or
    ``subprocess.Popen``) once ``journal_path`` holds two trial records,
    reap it, and require that every worker it had exits on its own
    within 5 wall seconds (no orphans blocked on a pipe).

    Prints what it saw under ``label``; False when the journal never got
    there within 120 s, or the driver had no workers, or one of them
    outlived it.
    """
    reached = wait_for_journal_trials(journal_path, 2, 120.0)
    workers = child_pids(driver.pid) if reached else set()
    driver.kill()
    (driver.join if hasattr(driver, "join") else driver.wait)()
    if not reached:
        print(f"FAIL {label}: the driver never journaled 2 trials")
        return False
    orphans = sorted(pids_alive(workers, within=5.0))
    print(f"{label}: the killed driver had {len(workers)} worker(s); "
          f"still alive 5s later: {orphans or 'none'}")
    if orphans or not workers:
        print(f"FAIL {label}: the killed driver left orphan workers (or "
              f"had none)")
        return False
    return True


def smoke_journal_dir(argv: Sequence[str], default: str) -> str:
    """The ``--journal-dir DIR`` a kill-and-resume smoke script was given
    (``default`` when absent), created; malformed argv exits 2."""
    parser = argparse.ArgumentParser()
    parser.add_argument("--journal-dir", default=default)
    journal_dir = parser.parse_args(argv).journal_dir
    os.makedirs(journal_dir, exist_ok=True)
    return journal_dir


def sweeps_identical(result: Any, reference: Any) -> bool:
    """Whether two sweeps agree byte for byte: both complete, the same
    combined digest and PLT sample, and per trial the same status and
    event-stream digest."""
    return (result.complete
            and result.digest == reference.digest
            and list(result.sample.values) == list(reference.sample.values)
            and all(ours.status == theirs.status
                    and ours.digest == theirs.digest
                    for ours, theirs in zip(result.outcomes,
                                            reference.outcomes)))


@dataclass(frozen=True)
class SpawnFault:
    """Fail the first ``fail_first`` attempts to start worker ``shard``
    (every worker, each on its own count, when None) with a
    :class:`~repro.errors.FabricError`, as a failed spawn would."""

    shard: Optional[int] = None
    fail_first: int = 1


@dataclass(frozen=True)
class KillWorker:
    """SIGKILL worker ``shard`` once ``after_outcomes`` of its outcomes
    have reached the coordinator (0: as soon as it has said hello)."""

    shard: int = 0
    after_outcomes: int = 0


@dataclass(frozen=True)
class WedgeWorker:
    """After ``after_outcomes`` outcomes, worker ``shard``'s messages —
    heartbeats too — stop reaching the coordinator, while the process
    computes on and both pipe ends stay open: only the watchdog can
    tell."""

    shard: int = 0
    after_outcomes: int = 0


HarnessFault = Union[SpawnFault, KillWorker, WedgeWorker]


class FaultInjectingBackend(FabricBackend):
    """A real backend with harness faults injected into the workers it
    starts.

    A spawn fault raises from :meth:`start_worker`; a kill or wedge puts
    a message-level relay (``read_message`` → ``write_message``) between
    the worker and the coordinator, which counts outcomes as they pass
    and strikes once the fault falls due. The coordinator still reads a
    real pipe, so its deadlines and watchdog run unchanged.

    Attributes:
        injected: how many of each fault were delivered
            (``spawn_failures``, ``workers_killed``, ``workers_wedged``):
            proof that a run really was afflicted.
    """

    def __init__(self, backend: FabricBackend,
                 *faults: HarnessFault) -> None:
        self.backend = backend
        self.faults = faults
        self.injected: Dict[str, int] = {}
        self._lock = threading.Lock()  # relays count from their threads
        self._spawns: Dict[int, int] = {}

    def _count(self, key: str) -> None:
        with self._lock:
            self.injected[key] = self.injected.get(key, 0) + 1

    def factory_spec(self):
        return self.backend.factory_spec()

    def start_worker(self, shard: int) -> WorkerHandle:
        budget = sum(fault.fail_first for fault in self.faults
                     if isinstance(fault, SpawnFault)
                     and fault.shard in (None, shard))
        tried = self._spawns.get(shard, 0)
        if tried < budget:
            self._spawns[shard] = tried + 1
            self._count("spawn_failures")
            raise FabricError(f"injected spawn failure {tried + 1}/{budget} "
                              f"for shard {shard}")
        handle = self.backend.start_worker(shard)
        strike = next((fault for fault in self.faults
                       if isinstance(fault, (KillWorker, WedgeWorker))
                       and fault.shard == shard), None)
        if strike is None:
            return handle
        read_fd, write_fd = os.pipe()
        threading.Thread(target=self._relay, args=(handle, write_fd, strike),
                         name=f"fault-relay-{shard}", daemon=True).start()
        return WorkerHandle(os.fdopen(read_fd, "rb", buffering=0),
                            handle.wfile, handle.process, handle.pid)

    def _relay(self, handle: WorkerHandle, write_fd: int,
               strike: Union[KillWorker, WedgeWorker]) -> None:
        """Pass the worker's messages on until ``strike`` falls due, then
        kill the worker, or drain it into the void; close the
        coordinator's end once the worker's stream ends."""
        outcomes = 0
        struck = False
        with os.fdopen(write_fd, "wb", buffering=0) as out, handle.rfile:
            try:
                while True:
                    message = read_message(handle.rfile)
                    if struck and isinstance(strike, WedgeWorker):
                        continue
                    write_message(out, message)
                    outcomes += message[0] == "outcome"
                    if not struck and outcomes >= strike.after_outcomes:
                        struck = True
                        if isinstance(strike, KillWorker):
                            self._count("workers_killed")
                            handle.kill()
                        else:
                            self._count("workers_wedged")
            except (EOFError, ReproError, OSError, ValueError):
                pass  # the worker is gone, or the coordinator hung up
