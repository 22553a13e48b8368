"""Seeded open-loop arrival processes.

An *open-loop* workload decides when every client arrives **before** the
system starts serving: arrivals never wait for completions, so a slow
server faces the same offered load as a fast one — the property that
makes capacity curves honest (closed-loop generators self-throttle and
hide the knee).

Every process here materialises its arrival times up front as a pure
function of ``(parameters, rng stream)``:

* the schedule is computed once, before the simulated world runs, so it
  is invariant to client-completion order by construction;
* each process draws from the dedicated ``load:arrivals`` stream the
  runner hands it — never from a stream shared with link jitter, chaos,
  or server compute — so adding arrival draws cannot perturb any other
  consumer (held by ``test_arrivals_invariant_to_world_execution``).

Processes:

* :class:`FixedRate` — exactly ``rate`` clients/s, evenly spaced (zero
  RNG draws; the reference grid for debugging).
* :class:`Poisson` — memoryless interarrivals at ``rate`` clients/s, one
  ``expovariate`` draw per client.
* :class:`Diurnal` — trace-driven time-varying rate: a piecewise-constant
  rate profile (e.g. hourly request rates from a measured trace),
  realised by thinning a homogeneous Poisson process at the profile's
  peak rate (exactly two draws per candidate arrival, accepted or not).
"""

from __future__ import annotations

import random
from typing import Sequence, Tuple

__all__ = ["ArrivalProcess", "Diurnal", "FixedRate", "Poisson"]

#: The RNG stream name the load runner draws arrival times from. Keeping
#: it a module constant (and unique to this package) keeps any other
#: simulation domain from aliasing it; the test that would notice is
#: ``tests/test_load/test_capacity.py::test_arrivals_invariant_to_world_execution``.
ARRIVALS_STREAM = "load:arrivals"


class ArrivalProcess:
    """Base class: generates client arrival times (seconds from start).

    Subclasses implement :meth:`times`; parameters are fixed at
    construction so a process instance plus an equally seeded RNG always
    yields the same schedule.
    """

    #: Short name used in artifacts and CLI flags.
    kind = "abstract"

    def times(self, clients: int, rng: random.Random) -> Tuple[float, ...]:
        """Arrival times for ``clients`` clients, non-decreasing.

        Args:
            clients: how many arrivals to generate (>= 0).
            rng: the dedicated arrivals stream. Every subclass draws
                only from this generator (or not at all), so the
                schedule is a pure function of (parameters, stream
                state).
        """
        raise NotImplementedError

    def describe(self) -> dict:
        """JSON-shaped parameters (artifact metadata)."""
        raise NotImplementedError

    @staticmethod
    def _check(clients: int, rate: float) -> None:
        if clients < 0:
            raise ValueError(f"clients must be >= 0, got {clients!r}")
        if rate <= 0.0:
            raise ValueError(f"rate must be > 0, got {rate!r}")


class FixedRate(ArrivalProcess):
    """Deterministic arrivals: client ``i`` arrives at ``i / rate``.

    Draws nothing from the RNG — the degenerate (zero-variance) arrival
    process, useful as a debugging grid and as the fairest apples-to-
    apples baseline between load levels.
    """

    kind = "fixed"

    def __init__(self, rate: float) -> None:
        if rate <= 0.0:
            raise ValueError(f"rate must be > 0, got {rate!r}")
        self.rate = float(rate)

    def times(self, clients: int, rng: random.Random) -> Tuple[float, ...]:
        self._check(clients, self.rate)
        return tuple(i / self.rate for i in range(clients))

    def describe(self) -> dict:
        return {"kind": self.kind, "rate": self.rate}

    def __repr__(self) -> str:
        return f"FixedRate(rate={self.rate})"


class Poisson(ArrivalProcess):
    """Memoryless (exponential-interarrival) arrivals at ``rate``/s.

    The standard open-loop heavy-traffic model: arrivals are independent
    of each other and of system state, so bursts arise naturally and the
    offered load's variance is realistic.
    """

    kind = "poisson"

    def __init__(self, rate: float) -> None:
        if rate <= 0.0:
            raise ValueError(f"rate must be > 0, got {rate!r}")
        self.rate = float(rate)

    def times(self, clients: int, rng: random.Random) -> Tuple[float, ...]:
        self._check(clients, self.rate)
        now = 0.0
        out = []
        for __ in range(clients):
            now += rng.expovariate(self.rate)
            out.append(now)
        return tuple(out)

    def describe(self) -> dict:
        return {"kind": self.kind, "rate": self.rate}

    def __repr__(self) -> str:
        return f"Poisson(rate={self.rate})"


class Diurnal(ArrivalProcess):
    """Trace-driven time-varying arrivals (piecewise-constant rate).

    ``profile`` gives relative request rates over one ``period`` (e.g.
    24 hourly buckets from a measured diurnal trace, or any shape); the
    whole profile is scaled so its *mean* rate is ``rate`` clients/s,
    making ``rate`` comparable across processes. Times are generated by
    thinning a homogeneous Poisson process at the profile's peak rate:
    two draws per candidate (one interarrival, one accept), with
    rejected candidates consuming draws too — the draw count per
    arrival is bounded and the schedule stays a pure function of the
    stream.

    Args:
        rate: mean arrival rate, clients/s.
        profile: relative rates per bucket (>= 0, at least one > 0).
        period: seconds the profile spans before repeating.
    """

    kind = "diurnal"

    def __init__(
        self,
        rate: float,
        profile: Sequence[float] = (1, 2, 4, 8, 4, 2),
        period: float = 60.0,
    ) -> None:
        if rate <= 0.0:
            raise ValueError(f"rate must be > 0, got {rate!r}")
        if period <= 0.0:
            raise ValueError(f"period must be > 0, got {period!r}")
        shape = [float(v) for v in profile]
        if not shape or any(v < 0.0 for v in shape):
            raise ValueError("profile needs non-negative entries")
        mean = sum(shape) / len(shape)
        if mean <= 0.0:
            raise ValueError("profile must have a positive mean")
        self.rate = float(rate)
        self.period = float(period)
        #: Absolute clients/s per bucket (profile normalised to the mean).
        self.rates = tuple(v / mean * rate for v in shape)

    def rate_at(self, t: float) -> float:
        """Instantaneous arrival rate at time ``t`` (profile repeats)."""
        bucket = int((t % self.period) / self.period * len(self.rates))
        # Guard the t == period boundary float artifact.
        return self.rates[min(bucket, len(self.rates) - 1)]

    def times(self, clients: int, rng: random.Random) -> Tuple[float, ...]:
        self._check(clients, self.rate)
        peak = max(self.rates)
        if peak <= 0.0:
            raise ValueError("profile must have a positive peak")
        now = 0.0
        out = []
        while len(out) < clients:
            now += rng.expovariate(peak)
            if rng.random() * peak <= self.rate_at(now):
                out.append(now)
        return tuple(out)

    def describe(self) -> dict:
        return {
            "kind": self.kind,
            "rate": self.rate,
            "period": self.period,
            "rates": list(self.rates),
        }

    def __repr__(self) -> str:
        return (
            f"Diurnal(rate={self.rate}, period={self.period}, "
            f"buckets={len(self.rates)})"
        )


#: CLI flag value -> constructor taking just a rate.
PROCESSES = {
    "fixed": FixedRate,
    "poisson": Poisson,
    "diurnal": Diurnal,
}


def make_process(kind: str, rate: float) -> ArrivalProcess:
    """Construct an arrival process from its CLI name.

    Raises:
        ValueError: on an unknown kind.
    """
    try:
        ctor = PROCESSES[kind]
    except KeyError:
        raise ValueError(
            f"unknown arrival process {kind!r}; "
            f"choose from {', '.join(sorted(PROCESSES))}"
        ) from None
    return ctor(rate)
