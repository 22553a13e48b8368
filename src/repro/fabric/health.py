"""Liveness and degradation policy for the fabric.

Three small, independently testable pieces that the coordinator and
worker compose into the fabric's fault tolerance:

* :class:`BackoffPolicy` — capped exponential backoff with seeded
  jitter for spawn/connect retries. Seeded so a chaos run's retry
  timing is reproducible (the same reason every other knob in this
  repo takes a seed).
* :class:`HeartbeatSender` — a worker-side daemon thread that writes
  ``heartbeat`` frames on a wall-clock period, sharing a lock with the
  outcome writer so frames never interleave. This is what lets the
  coordinator tell a *slow* worker (trial still computing, heart still
  beating) from a *wedged* one (accepted work, went silent).
* :class:`HostHealth` — per-host crash bookkeeping with quarantine:
  after ``quarantine_after`` consecutive crashes a host stops receiving
  respawns and the sweep degrades to fewer shards instead of aborting.
  A success resets the host's streak (crashes must be *consecutive* —
  one flaky trial on a good host is not grounds for eviction).

None of this touches the simulated world: heartbeat periods and backoff
sleeps are harness wall-clock time, invisible to virtual time, so every
mechanism here preserves byte-identity of the measured results.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field
from typing import Any, BinaryIO, Callable, Dict, Optional

from repro.fabric.protocol import write_message
from repro.sim.random import stable_seed

__all__ = [
    "BackoffPolicy",
    "HeartbeatSender",
    "HostHealth",
]

#: Default wall-clock seconds between worker heartbeats. Chosen well
#: under the default progress deadline so several beats fit inside one
#: watchdog window.
DEFAULT_HEARTBEAT = 2.0


@dataclass(frozen=True)
class BackoffPolicy:
    """Capped exponential backoff with seeded jitter.

    Delay for attempt ``k`` (0-based) is ``base * 2**k``, capped at
    ``cap``, then multiplied by a jitter factor drawn uniformly from
    ``[1 - jitter, 1 + jitter]`` by a :class:`random.Random` seeded per
    policy — never the global RNG, and never the simulation's.

    Args:
        base: first-retry delay in seconds.
        cap: upper bound on the un-jittered delay.
        jitter: half-width of the jitter band (0 disables it).
        seed: jitter RNG seed.
    """

    base: float = 0.05
    cap: float = 2.0
    jitter: float = 0.25
    seed: int = 0
    _rng: random.Random = field(init=False, repr=False, compare=False,
                                default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.base <= 0:
            raise ValueError(f"backoff base must be positive, got {self.base}")
        if self.cap < self.base:
            raise ValueError(
                f"backoff cap {self.cap} below base {self.base}"
            )
        if not 0 <= self.jitter < 1:
            raise ValueError(f"jitter must be in [0, 1), got {self.jitter}")
        object.__setattr__(
            self, "_rng",
            random.Random(stable_seed(self.seed, "fabric-backoff")))

    def delay(self, attempt: int) -> float:
        """The sleep before retry ``attempt`` (0-based), jittered."""
        raw = min(self.base * (2 ** attempt), self.cap)
        if not self.jitter:
            return raw
        return raw * self._rng.uniform(1 - self.jitter, 1 + self.jitter)

    def sleep(self, attempt: int,
              clock: Callable[[float], None] = time.sleep) -> float:
        """Sleep for :meth:`delay` and return the slept duration."""
        duration = self.delay(attempt)
        clock(duration)
        return duration


class HeartbeatSender:
    """Worker-side liveness pulse.

    A daemon thread that writes a ``heartbeat`` frame every ``interval``
    wall seconds. The caller's ``lock`` must be the same one guarding
    outcome/done writes so frames never interleave on the wire. Beats
    continue *during* a long trial (the trial runs on the main thread),
    which is precisely the signal that distinguishes slow from wedged.

    Write failures stop the sender silently: a dead coordinator pipe is
    discovered — loudly — by the main conversation loop, not here.
    """

    def __init__(self, stream: BinaryIO, lock: threading.Lock,
                 interval: float = DEFAULT_HEARTBEAT,
                 payload: Optional[Dict[str, Any]] = None) -> None:
        if interval <= 0:
            raise ValueError(
                f"heartbeat interval must be positive, got {interval}"
            )
        self._stream = stream
        self._lock = lock
        self._interval = interval
        self._payload = dict(payload or {})
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="fabric-heartbeat")
        self.sent = 0

    def start(self) -> "HeartbeatSender":
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)

    def __enter__(self) -> "HeartbeatSender":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop()

    def _run(self) -> None:
        while not self._stop.wait(self._interval):
            try:
                with self._lock:
                    write_message(
                        self._stream, ("heartbeat", dict(self._payload))
                    )
                self.sent += 1
            except Exception:
                return


class HostHealth:
    """Per-host crash streaks and quarantine.

    The coordinator records every spawn/crash outcome here keyed by the
    backend's ``host_key`` for the shard. ``quarantine_after``
    *consecutive* crashes evicts the host: :meth:`usable` turns false
    and the coordinator degrades to the remaining hosts (or, when every
    host is out, fewer shards) instead of burning its retry budget on a
    dead machine. Any success resets the streak.
    """

    def __init__(self, quarantine_after: int = 3) -> None:
        if quarantine_after < 1:
            raise ValueError(
                f"quarantine_after must be >= 1, got {quarantine_after}"
            )
        self.quarantine_after = quarantine_after
        self._streaks: Dict[str, int] = {}
        self._quarantined: Dict[str, int] = {}

    def record_success(self, host: str) -> None:
        """A worker on ``host`` made progress; forgive its streak."""
        self._streaks[host] = 0

    def record_crash(self, host: str) -> bool:
        """A worker on ``host`` crashed or failed to spawn.

        Returns True when this crash tips the host into quarantine.
        """
        streak = self._streaks.get(host, 0) + 1
        self._streaks[host] = streak
        if streak >= self.quarantine_after and host not in self._quarantined:
            self._quarantined[host] = streak
            return True
        return False

    def usable(self, host: str) -> bool:
        return host not in self._quarantined

    @property
    def quarantined(self) -> Dict[str, int]:
        """Quarantined hosts mapped to the crash streak that evicted
        them (insertion-ordered, for SweepResult reporting)."""
        return dict(self._quarantined)
