"""Shell composition: nesting shells like Mahimahi command lines.

``mm-webreplay site mm-link 14 14 mm-delay 40 load`` becomes::

    stack = ShellStack.fresh(seed=42)
    stack.add_replay(site)
    stack.add_link(uplink=14, downlink=14)
    stack.add_delay(0.040)
    result = stack.load(page)    # the browser, in the innermost namespace
    stack.sim.run_until(lambda: result.complete)

Each shell nests inside the previous one's namespace; the application runs
in the innermost. :meth:`ShellStack.fresh` and :meth:`ShellStack.load` are
the one place a single-machine world is wired (simulator, metrics
registry, host machine, stack; then a browser on the innermost transport
resolving against the replay DNS); ``ShellStack(machine)`` is for worlds
that put several machines on one simulator.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from repro.core.delayshell import DelayShell
from repro.core.linkshell import LinkShell
from repro.core.machine import HostMachine, MachineProfile
from repro.core.recordshell import RecordShell
from repro.core.replayshell import ReplayShell
from repro.errors import ShellError
from repro.linkem.overhead import OverheadModel
from repro.linkem.queues import DropTailQueue
from repro.net.address import Endpoint
from repro.net.namespace import NetworkNamespace
from repro.record.store import RecordedSite
from repro.sim.simulator import Simulator
from repro.transport.host import TransportHost

if TYPE_CHECKING:
    from repro.browser import BrowserConfig, PageLoadResult, PageModel


class ShellStack:
    """A chain of nested shells under one host machine.

    Args:
        machine: the host everything runs on (provides the root namespace,
            the address allocator, and the timing profile).
    """

    def __init__(self, machine: HostMachine) -> None:
        self.machine = machine
        self.shells: List = []
        self._names_used: dict = {}

    @classmethod
    def fresh(
        cls,
        seed: int = 0,
        profile: Optional[MachineProfile] = None,
        instrument: bool = False,
    ) -> "ShellStack":
        """An empty stack on a new machine in a new seeded simulator.

        Args:
            seed: the simulator's master seed.
            profile: the machine's timing profile (default: reference).
            instrument: attach a
                :class:`~repro.obs.registry.MetricsRegistry` first, so
                every component built afterwards captures its probes
                (read it back as ``stack.sim.metrics``).
        """
        sim = Simulator(seed=seed)
        if instrument:
            from repro.obs import MetricsRegistry

            MetricsRegistry.install(sim)
        return cls(HostMachine(sim, profile))

    # ------------------------------------------------------------------ #
    # building

    def add_replay(
        self,
        site: RecordedSite,
        single_server: bool = False,
        **kwargs,
    ) -> ReplayShell:
        """Nest a ReplayShell inside the current innermost namespace."""
        shell = ReplayShell(
            self.machine.sim, self.namespace, self.machine.allocator,
            site, machine=self.machine, single_server=single_server,
            name=self._name("replayshell"), **kwargs,
        )
        self.shells.append(shell)
        return shell

    def add_record(self, store: RecordedSite, **kwargs) -> RecordShell:
        """Nest a RecordShell inside the current innermost namespace."""
        shell = RecordShell(
            self.machine.sim, self.namespace, self.machine.allocator,
            store, name=self._name("recordshell"), **kwargs,
        )
        self.shells.append(shell)
        return shell

    def add_delay(
        self,
        one_way_delay: float,
        overhead: Optional[OverheadModel] = None,
    ) -> DelayShell:
        """Nest a DelayShell inside the current innermost namespace."""
        shell = DelayShell(
            self.machine.sim, self.namespace, self.machine.allocator,
            one_way_delay, overhead=overhead, name=self._name("delayshell"),
        )
        self.shells.append(shell)
        return shell

    def add_loss(
        self,
        downlink_loss: float = 0.0,
        uplink_loss: float = 0.0,
        downlink_ge=None,
        uplink_ge=None,
    ):
        """Nest a LossShell inside the current innermost namespace."""
        from repro.core.lossshell import LossShell

        shell = LossShell(
            self.machine.sim, self.namespace, self.machine.allocator,
            downlink_loss=downlink_loss, uplink_loss=uplink_loss,
            downlink_ge=downlink_ge, uplink_ge=uplink_ge,
            name=self._name("lossshell"),
        )
        self.shells.append(shell)
        return shell

    def add_chaos(self, plan):
        """Nest a ChaosShell driven by ``plan`` (a FaultPlan).

        Link-layer clauses (outage, GE loss, corruption, reorder,
        SYN blackhole) act on the new shell's boundary. Server and DNS
        clauses are wired into the stack's ReplayShell: one shared
        :class:`~repro.chaos.inject.ServerFaultInjector` across all its
        origin servers (clauses match by request arrival order
        site-wide) and one
        :class:`~repro.chaos.inject.DnsFaultInjector` on its DNS server.

        Raises:
            ShellError: if the plan has server/DNS clauses but the stack
                has no ReplayShell to host them.
        """
        from repro.chaos import ChaosShell
        from repro.chaos.inject import DnsFaultInjector, ServerFaultInjector

        shell = ChaosShell(
            self.machine.sim, self.namespace, self.machine.allocator,
            plan, name=self._name("chaosshell"),
        )
        self.shells.append(shell)
        server_clauses = plan.server_clauses
        dns_clauses = plan.dns_clauses
        if server_clauses or dns_clauses:
            replay = next(
                (s for s in self.shells if isinstance(s, ReplayShell)), None
            )
            if replay is None:
                raise ShellError(
                    "plan has server/DNS fault clauses but the stack has "
                    "no ReplayShell to inject them into"
                )
            if server_clauses:
                injector = ServerFaultInjector(
                    self.machine.sim, server_clauses,
                    obs_path=f"chaos.{shell.name}.server",
                )
                shell.server_injector = injector
                for server in replay.servers:
                    server.fault_injector = injector
            if dns_clauses:
                dns_injector = DnsFaultInjector(
                    self.machine.sim, dns_clauses,
                    obs_path=f"chaos.{shell.name}.dns",
                )
                shell.dns_injector = dns_injector
                replay.dns.fault_injector = dns_injector
        return shell

    def add_link(
        self,
        uplink,
        downlink,
        uplink_queue: Optional[DropTailQueue] = None,
        downlink_queue: Optional[DropTailQueue] = None,
        overhead: Optional[OverheadModel] = None,
    ) -> LinkShell:
        """Nest a LinkShell inside the current innermost namespace."""
        shell = LinkShell(
            self.machine.sim, self.namespace, self.machine.allocator,
            uplink, downlink,
            uplink_queue=uplink_queue, downlink_queue=downlink_queue,
            overhead=overhead, name=self._name("linkshell"),
        )
        self.shells.append(shell)
        return shell

    def _name(self, base: str) -> str:
        count = self._names_used.get(base, 0)
        self._names_used[base] = count + 1
        return base if count == 0 else f"{base}-{count}"

    # ------------------------------------------------------------------ #
    # where things run

    @property
    def sim(self) -> Simulator:
        """The simulator this stack's machine lives in."""
        return self.machine.sim

    @property
    def namespace(self) -> NetworkNamespace:
        """The innermost namespace (where the application runs)."""
        if self.shells:
            return self.shells[-1].namespace
        return self.machine.namespace

    @property
    def transport(self) -> TransportHost:
        """Transport host of the innermost namespace."""
        if self.shells:
            return self.shells[-1].transport
        return TransportHost.ensure(self.machine.sim, self.machine.namespace)

    @property
    def resolver_endpoint(self) -> Endpoint:
        """The DNS endpoint applications should resolve against.

        Raises:
            ShellError: if the stack contains no ReplayShell (use the
                live-web model's resolver instead).
        """
        for shell in self.shells:
            if isinstance(shell, ReplayShell):
                return shell.resolver_endpoint
        raise ShellError("no ReplayShell in this stack to resolve against")

    def load(
        self,
        page: PageModel,
        config: Optional[BrowserConfig] = None,
        resolver: Optional[Endpoint] = None,
    ) -> PageLoadResult:
        """Start a browser in the innermost namespace loading ``page``.

        The stack's innermost application command. Returns the live
        result; run the simulator to make progress.

        Args:
            config: browser configuration (default: ``BrowserConfig()``).
            resolver: DNS endpoint to resolve against; defaults to the
                stack's ReplayShell. Record and live-web worlds pass the
                simulated Internet's public resolver.
        """
        from repro.browser import Browser

        browser = Browser(
            self.sim, self.transport,
            self.resolver_endpoint if resolver is None else resolver,
            config=config, machine=self.machine,
        )
        return browser.load(page)

    def __repr__(self) -> str:
        chain = " > ".join(type(s).__name__ for s in self.shells) or "(empty)"
        return f"<ShellStack {chain}>"
