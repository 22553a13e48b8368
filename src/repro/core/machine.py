"""Host machines: the thing Table 1 varies.

The paper's reproducibility claim is that Mahimahi's measurements barely
change across host machines. What differs between two hosts is *compute
speed* (every CPU-bound cost — browser parsing, server handling, DNS
lookups — scales with it) and *timing noise* (scheduling jitter on each of
those costs). :class:`MachineProfile` captures both; every simulated
compute delay is issued through :meth:`compute_time`.

:class:`HostMachine` bundles a profile with the host namespace and the
shell address allocator — the root every shell stack hangs off.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

from repro import calibration
from repro.net.address import AddressAllocator
from repro.net.namespace import NetworkNamespace
from repro.sim.simulator import Simulator


@dataclass(frozen=True)
class MachineProfile:
    """A host machine's timing characteristics.

    Attributes:
        name: label used in reports ("Machine 1").
        cpu_factor: multiplier on every compute delay (1.0 = reference
            machine; 1.05 = 5% slower).
        jitter_stddev: relative standard deviation of per-operation timing
            noise (OS scheduling, cache effects). Applied as a truncated
            Gaussian factor around 1.0, independently per operation
            (default ``calibration.JITTER_STDDEV``).
        trial_jitter_stddev: relative standard deviation of the *per-run*
            host condition (background load, thermal state) — one factor
            drawn per HostMachine and applied to every compute delay of
            that run. This correlated component is what gives repeated
            page loads their percent-scale spread (Table 1's standard
            deviations); the per-operation component alone averages out
            across a page's many resources (default
            ``calibration.TRIAL_JITTER_STDDEV``).
    """

    name: str = "machine"
    cpu_factor: float = 1.0
    jitter_stddev: float = field(
        default_factory=lambda: calibration.JITTER_STDDEV)
    trial_jitter_stddev: float = field(
        default_factory=lambda: calibration.TRIAL_JITTER_STDDEV)

    def compute_time(self, base_seconds: float, rng: random.Random) -> float:
        """Turn an idealized compute cost into this machine's actual cost."""
        if base_seconds <= 0.0:
            return 0.0
        noise = rng.gauss(1.0, self.jitter_stddev)
        # Truncate: a compute delay can jitter, not become negative or
        # implausibly short.
        noise = max(0.5, noise)
        return base_seconds * self.cpu_factor * noise

    @classmethod
    def reference(cls) -> "MachineProfile":
        """The baseline machine."""
        return cls(name="reference", cpu_factor=1.0)


class HostMachine:
    """A host: namespace root, address allocator, and machine profile.

    Args:
        sim: the simulator.
        profile: timing profile (default: the reference machine).
        name: namespace name for diagnostics.

    Every shell stack for one measurement run is built under
    ``machine.namespace`` using ``machine.allocator``, and all compute
    delays draw jitter from ``machine.rng`` (a named stream, so two
    machines in one simulation have independent but reproducible noise).
    """

    def __init__(
        self,
        sim: Simulator,
        profile: Optional[MachineProfile] = None,
        name: str = "host",
    ) -> None:
        self.sim = sim
        self.profile = profile if profile is not None else MachineProfile.reference()
        self.namespace = NetworkNamespace(sim, name)
        self.allocator = AddressAllocator()
        self.name = name
        self.rng = sim.streams.stream(f"machine:{name}:{self.profile.name}")
        # The run's host condition: drawn once, applied to every compute
        # delay (see MachineProfile.trial_jitter_stddev).
        self.trial_factor = max(
            0.8, self.rng.gauss(1.0, self.profile.trial_jitter_stddev))

    def compute_time(self, base_seconds: float, key: Optional[str] = None) -> float:
        """Host-adjusted compute delay (profile factor + jitter).

        Args:
            base_seconds: the idealized cost.
            key: optional stable identity of the operation (a request URI,
                a resource URL). Keyed draws use a dedicated stream per
                key, so two experiment arms doing the same work draw the
                *same* jitter regardless of event interleaving — common
                random numbers, the variance-reduction that makes sub-
                percent comparisons (Figure 2) measurable. Unkeyed draws
                share one sequential stream.
        """
        if key is None:
            rng = self.rng
        else:
            rng = self.sim.streams.stream(
                f"machine:{self.name}:{self.profile.name}:{key}")
        return self.trial_factor * self.profile.compute_time(base_seconds, rng)

    def __repr__(self) -> str:
        return f"<HostMachine {self.profile.name} cpu={self.profile.cpu_factor}>"
