"""Test and example scaffolding: tiny prebuilt topologies.

:class:`TwoHostWorld` wires the minimal interesting network — two
namespaces joined by one veth pair whose pipes you choose — with a
transport host on each side. Unit tests, examples, and docs all build on
it, so the boilerplate of addresses/routes lives in exactly one place.

This module doubles as a pytest plugin (registered from the root
``conftest.py``): the :func:`determinism` fixture hands tests
:func:`assert_deterministic`, so any test can assert bit-identical replay
of a scenario in one line.
"""

from __future__ import annotations

import os
import subprocess
import time
from typing import Any, Callable, Iterable, List, Optional, Set

from repro.linkem.overhead import OverheadModel
from repro.net.address import Endpoint, IPv4Address
from repro.net.namespace import NetworkNamespace
from repro.net.pipe import PacketPipe
from repro.net.veth import VethPair
from repro.sim.simulator import Simulator
from repro.transport.host import TransportHost
from repro.transport.tcp import TcpConfig


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
        tcp_config: Optional[TcpConfig] = None,
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
        self.client = TransportHost(self.sim, self.client_ns, tcp_config)
        self.server = TransportHost(self.sim, self.server_ns, tcp_config)

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


def delayed_world(
    one_way_delay: float,
    tcp_config: Optional[TcpConfig] = None,
    seed: int = 0,
) -> TwoHostWorld:
    """A :class:`TwoHostWorld` whose veth adds a symmetric fixed delay
    (ideal delay elements: no per-packet overhead)."""
    from repro.linkem.delay import DelayPipe

    sim = Simulator(seed=seed)
    return TwoHostWorld(
        sim=sim,
        pipe_ab=DelayPipe(sim, one_way_delay, OverheadModel.none()),
        pipe_ba=DelayPipe(sim, one_way_delay, OverheadModel.none()),
        tcp_config=tcp_config,
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
