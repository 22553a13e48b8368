"""Deterministic harness-fault injection for the fabric.

:class:`FabricFaultPlan` is the harness-side sibling of
:class:`repro.chaos.plan.FaultPlan`: where a chaos plan breaks the
*simulated* network inside a trial, a fabric fault plan breaks the
*measurement harness itself* — the wire between coordinator and worker,
the spawn path, the worker process. Same idiom throughout: frozen
dataclause clauses, a ``type``-tagged JSON form
(``to_json``/``from_json``), deterministic order-based matching, and a
seed so any stochastic clause replays identically.

Faults are injected by :class:`FaultyBackend`, a wrapper around any real
:class:`~repro.fabric.backend.FabricBackend`. It interposes a *frame
pump* — a thread that relays protocol frames between the real worker
pipe and a fresh OS pipe — per afflicted direction, so the coordinator
still reads a genuine file descriptor (its select()-based deadlines stay
accurate) while the pump drops, delays, corrupts, or truncates frames in
flight. A *wedge* is the pump going silent while both pipe ends stay
open — a true half-open connection, the failure mode that used to hang
``read_message`` forever. Because the worker process underneath is real
and untouched (except by :class:`KillWorker`), everything the robustness
machinery then does — reassign, respawn, speculate — exercises the
production paths, not test doubles.

Clause catalogue:

* :class:`FrameFault` — drop / delay / corrupt / truncate wire frames,
  selected deterministically (skip the first ``skip`` matching frames,
  afflict the next ``count``) or stochastically (``rate``, seeded).
* :class:`SpawnFault` — fail the first ``fail_first`` spawn attempts
  for a shard (or all shards), exercising backoff-retry and quarantine.
* :class:`KillWorker` — SIGKILL the worker after ``after_outcomes``
  outcome frames have crossed the wire (kill "at trial N").
* :class:`WedgeWorker` — after ``after_outcomes`` outcomes, the worker's
  frames (heartbeats included) stop arriving; the process stays alive
  and keeps computing into the void.
"""

from __future__ import annotations

import os
import pickle
import random
import threading
import time
from dataclasses import dataclass
from typing import BinaryIO, Callable, Dict, Optional, Tuple, Union

from repro.chaos.plan import PlanCodec
from repro.errors import ChaosError, FabricError
from repro.fabric.backend import FabricBackend, WorkerHandle
from repro.fabric.protocol import BadFrame, FrameReader
from repro.fabric.worker import FactorySpec
from repro.sim.random import stable_seed

__all__ = [
    "FabricFaultPlan",
    "FaultyBackend",
    "FrameFault",
    "KillWorker",
    "SpawnFault",
    "WedgeWorker",
]

#: Wire directions a frame clause can afflict: coordinator → worker,
#: worker → coordinator, or both.
FRAME_DIRECTIONS = ("c2w", "w2c", "both")

#: What a matched frame suffers.
FRAME_ACTIONS = ("drop", "delay", "corrupt", "truncate")


def _check_shard(shard: Optional[int]) -> None:
    if shard is not None and shard < 0:
        raise ChaosError(f"shard must be >= 0 or None, got {shard!r}")


@dataclass(frozen=True)
class FrameFault:
    """Afflict protocol frames on one leg of one (or every) worker wire.

    Matching is deterministic and order-based, exactly like
    :class:`~repro.chaos.plan.ServerFaultClause`: frames on the clause's
    direction whose message kind is in ``kinds`` (None matches all) are
    counted per worker; the first ``skip`` pass through, the next
    ``count`` (None = all from there on) are afflicted. Alternatively
    set ``rate`` for seeded stochastic selection — each matching frame
    is afflicted with that probability, drawn from a
    :class:`random.Random` keyed on (plan seed, shard, direction), so
    the same plan and seed replay the same casualty list.

    Actions:

    * ``"drop"`` — the frame vanishes; the stream stays intact. Lost
      *outcomes* are recovered by the coordinator's redelivery path.
    * ``"delay"`` — the frame is held ``delay`` wall seconds before
      forwarding (heartbeats included — a big enough delay looks like a
      wedge, by design).
    * ``"corrupt"`` — one payload byte is flipped, checksum left stale;
      the receiver sees a checksum mismatch (and resyncs, if allowed).
    * ``"truncate"`` — half the frame is written, then the pipe closes:
      the receiver's read dies mid-frame.
    """

    action: str = "drop"
    direction: str = "w2c"
    shard: Optional[int] = None
    kinds: Optional[Tuple[str, ...]] = None
    skip: int = 0
    count: Optional[int] = 1
    rate: Optional[float] = None
    delay: float = 0.2

    def __post_init__(self) -> None:
        if self.action not in FRAME_ACTIONS:
            raise ChaosError(
                f"frame action must be one of {FRAME_ACTIONS}, "
                f"got {self.action!r}"
            )
        if self.direction not in FRAME_DIRECTIONS:
            raise ChaosError(
                f"frame direction must be one of {FRAME_DIRECTIONS}, "
                f"got {self.direction!r}"
            )
        _check_shard(self.shard)
        if self.kinds is not None and not isinstance(self.kinds, tuple):
            object.__setattr__(self, "kinds", tuple(self.kinds))
        if self.skip < 0:
            raise ChaosError(f"skip must be >= 0, got {self.skip!r}")
        if self.count is not None and self.count < 1:
            raise ChaosError(
                f"count must be >= 1 or None, got {self.count!r}"
            )
        if self.rate is not None and not 0.0 < self.rate <= 1.0:
            raise ChaosError(f"rate must be in (0, 1], got {self.rate!r}")
        if self.action == "delay" and self.delay <= 0.0:
            raise ChaosError(f"delay must be > 0, got {self.delay!r}")

    def afflicts(self, direction: str, shard: int) -> bool:
        return (self.direction in (direction, "both")
                and self.shard in (None, shard))


@dataclass(frozen=True)
class SpawnFault:
    """Fail the first ``fail_first`` spawn attempts for a shard.

    ``shard=None`` afflicts every shard independently (each gets its own
    failure budget). Exercises the coordinator's backoff-retry spawn
    path and, with ``fail_first`` past the retry budget, host
    quarantine and shard degradation.
    """

    shard: Optional[int] = None
    fail_first: int = 1

    def __post_init__(self) -> None:
        _check_shard(self.shard)
        if self.fail_first < 1:
            raise ChaosError(
                f"fail_first must be >= 1, got {self.fail_first!r}"
            )


@dataclass(frozen=True)
class _AfterOutcomes:
    """A clause that strikes one shard's worker once ``after_outcomes``
    outcome frames have crossed its wire."""

    shard: int = 0
    after_outcomes: int = 0

    def __post_init__(self) -> None:
        if self.shard < 0:
            raise ChaosError(f"shard must be >= 0, got {self.shard!r}")
        if self.after_outcomes < 0:
            raise ChaosError(
                f"after_outcomes must be >= 0, got {self.after_outcomes!r}"
            )


class KillWorker(_AfterOutcomes):
    """SIGKILL the shard's worker after ``after_outcomes`` outcomes.

    ``after_outcomes=0`` kills on the first frame (before any trial
    completes). The coordinator sees the stream tear and must reassign
    the worker's unreported trials.
    """


class WedgeWorker(_AfterOutcomes):
    """Silence the shard's wire after ``after_outcomes`` outcomes.

    The worker process stays alive and keeps computing; its frames
    (heartbeats included) simply stop arriving, and the pipe never
    closes — the half-open connection. Only missed heartbeats can
    detect this.
    """


#: Any clause a fabric fault plan can hold.
FabricClause = Union[FrameFault, SpawnFault, KillWorker, WedgeWorker]

@dataclass(frozen=True)
class FabricFaultPlan(PlanCodec):
    """A named, seeded schedule of harness faults.

    Pure data, like its chaos sibling, and serialized by the same codec
    (:class:`~repro.chaos.plan.PlanCodec`): picklable,
    JSON-round-trippable, reviewable. The ``seed`` drives every
    stochastic clause (``rate`` frame faults); deterministic clauses
    ignore it.
    """

    clauses: Tuple[FabricClause, ...] = ()
    name: str = "fabric-chaos"
    seed: int = 0

    CLAUSE_KINDS = {
        "frame": FrameFault,
        "spawn": SpawnFault,
        "kill": KillWorker,
        "wedge": WedgeWorker,
    }
    WHAT = "fabric fault"

    # ------------------------------------------------------------------ #
    # selection

    def frame_clauses(self, direction: str,
                      shard: int) -> Tuple[FrameFault, ...]:
        """Frame clauses afflicting ``direction`` for ``shard``."""
        if direction not in ("c2w", "w2c"):
            raise ChaosError(
                f"direction must be 'c2w' or 'w2c', got {direction!r}"
            )
        return tuple(
            clause for clause in self.clauses
            if isinstance(clause, FrameFault)
            and clause.afflicts(direction, shard)
        )

    def spawn_budget(self, shard: int) -> int:
        """Total injected spawn failures owed for ``shard``."""
        return sum(
            clause.fail_first for clause in self.clauses
            if isinstance(clause, SpawnFault)
            and clause.shard in (None, shard)
        )

    def _first(self, kind: type, shard: int) -> Optional[_AfterOutcomes]:
        return next((clause for clause in self.clauses
                     if type(clause) is kind and clause.shard == shard), None)

    def kill_clause(self, shard: int) -> Optional[KillWorker]:
        return self._first(KillWorker, shard)

    def wedge_clause(self, shard: int) -> Optional[WedgeWorker]:
        return self._first(WedgeWorker, shard)

    def __repr__(self) -> str:
        return (f"<FabricFaultPlan {self.name!r} seed={self.seed} "
                f"[{', '.join(self._tags())}]>")


# ---------------------------------------------------------------------- #
# injection


class _FramePump(threading.Thread):
    """Relay protocol frames from ``src`` to raw fd ``dst_fd``, applying
    the shard's frame clauses plus any kill/wedge clause in transit.

    Runs as a daemon; exits (closing both ends, unless wedged) when the
    source stream ends or a truncation clause fires.
    """

    def __init__(self, src: BinaryIO, dst_fd: int,
                 clauses: Tuple[FrameFault, ...],
                 rng: random.Random,
                 count: Callable[[str], None],
                 handle: Optional[WorkerHandle] = None,
                 kill: Optional[KillWorker] = None,
                 wedge: Optional[WedgeWorker] = None,
                 name: str = "fabric-fault-pump") -> None:
        super().__init__(daemon=True, name=name)
        self._src = src
        self._dst_fd = dst_fd
        self._clauses = clauses
        self._rng = rng
        self._count = count
        self._handle = handle
        self._kill = kill
        self._wedge = wedge
        self._matched = {id(clause): 0 for clause in clauses}
        self._outcomes = 0
        self._wedged = False
        self._killed = False

    def _clause_for(self, kind: Optional[str]) -> Optional[FrameFault]:
        """First clause afflicting this frame, stepping match counters."""
        for clause in self._clauses:
            if clause.kinds is not None and kind not in clause.kinds:
                continue
            if clause.rate is not None:
                if self._rng.random() < clause.rate:
                    return clause
                continue
            seen = self._matched[id(clause)]
            self._matched[id(clause)] = seen + 1
            if seen < clause.skip:
                continue
            if (clause.count is None
                    or seen < clause.skip + clause.count):
                return clause
        return None

    def _forward(self, frame: bytes) -> None:
        view = memoryview(frame)
        while view:
            written = os.write(self._dst_fd, view)
            view = view[written:]

    def _close_dst(self) -> None:
        try:
            os.close(self._dst_fd)
        except OSError:
            pass

    def run(self) -> None:
        try:
            self._pump()
        except (OSError, ValueError):
            self._close_dst()

    def _pump(self) -> None:
        frames = FrameReader(self._src)
        while True:
            try:
                header, payload = frames.read()
            except EOFError:
                if not self._wedged:
                    self._close_dst()
                return
            except BadFrame as exc:
                # The source ended mid-frame, or stopped speaking frames.
                # Relay what arrived, then bytes verbatim to the end, so
                # the receiver sees the same damage — unless wedged,
                # where silence must persist.
                if not self._wedged:
                    self._forward(exc.consumed)
                    for chunk in iter(lambda: self._src.read(65536), b""):
                        self._forward(chunk)
                    self._close_dst()
                return
            kind: Optional[str] = None
            try:
                message = pickle.loads(payload)
                if isinstance(message, tuple) and message:
                    kind = message[0]
            except Exception:
                kind = None
            if self._wedged:
                # Drain silently; the worker keeps producing into the
                # void and both pipe ends stay open.
                continue
            clause = self._clause_for(kind)
            frame = header + payload
            if clause is None:
                self._forward(frame)
            elif clause.action == "drop":
                self._count("frames_dropped")
            elif clause.action == "delay":
                self._count("frames_delayed")
                time.sleep(clause.delay)
                self._forward(frame)
            elif clause.action == "corrupt":
                self._count("frames_corrupted")
                at = len(header) + len(payload) // 2
                frame = (frame[:at]
                         + bytes([frame[at] ^ 0xFF])
                         + frame[at + 1:])
                self._forward(frame)
            elif clause.action == "truncate":
                self._count("frames_truncated")
                self._forward(
                    frame[:len(header) + max(1, len(payload) // 2)])
                self._close_dst()
                return
            if kind == "outcome":
                self._outcomes += 1
            if (self._kill is not None and not self._killed
                    and self._outcomes >= self._kill.after_outcomes):
                self._killed = True
                self._count("workers_killed")
                if self._handle is not None:
                    self._handle.kill()
            if (self._wedge is not None and not self._wedged
                    and self._outcomes >= self._wedge.after_outcomes):
                self._wedged = True
                self._count("workers_wedged")


class FaultyBackend(FabricBackend):
    """Wrap a real backend, injecting a :class:`FabricFaultPlan`.

    Transparent to the coordinator: ``start_worker`` returns handles
    whose streams are real OS pipes (deadline select() stays accurate),
    with frame pumps interposed only on afflicted directions. Spawn
    faults surface as ordinary :class:`~repro.errors.FabricError`\\ s
    from ``start_worker`` — indistinguishable from a real SSH failure,
    which is the point.

    Attributes:
        injected: live counters of every fault actually delivered
            (``frames_dropped``, ``frames_delayed``, ``frames_corrupted``,
            ``frames_truncated``, ``spawn_failures``, ``workers_killed``,
            ``workers_wedged``) — the soak's ground truth that the run
            really was afflicted.
    """

    def __init__(self, backend: FabricBackend, plan: FabricFaultPlan,
                 seed: Optional[int] = None) -> None:
        self.backend = backend
        self.plan = plan
        self.seed = plan.seed if seed is None else seed
        self.injected: Dict[str, int] = {}
        self._lock = threading.Lock()
        self._spawn_attempts: Dict[int, int] = {}

    def _count(self, key: str) -> None:
        with self._lock:  # pumps count from their own threads
            self.injected[key] = self.injected.get(key, 0) + 1

    def factory_spec(self) -> Optional[FactorySpec]:
        return self.backend.factory_spec()

    def host_key(self, shard: int) -> str:
        return self.backend.host_key(shard)

    def _rng(self, shard: int, direction: str) -> random.Random:
        return random.Random(
            stable_seed(self.seed, f"fabric-faults:{shard}:{direction}")
        )

    def start_worker(self, shard: int) -> WorkerHandle:
        budget = self.plan.spawn_budget(shard)
        if budget:
            attempts = self._spawn_attempts.get(shard, 0)
            if attempts < budget:
                self._spawn_attempts[shard] = attempts + 1
                self._count("spawn_failures")
                raise FabricError(
                    f"injected spawn failure {attempts + 1}/{budget} "
                    f"for shard {shard}"
                )
        handle = self.backend.start_worker(shard)
        kill = self.plan.kill_clause(shard)
        wedge = self.plan.wedge_clause(shard)
        w2c = self.plan.frame_clauses("w2c", shard)
        c2w = self.plan.frame_clauses("c2w", shard)

        rfile = handle.rfile
        if w2c or kill is not None or wedge is not None:
            read_fd, write_fd = os.pipe()
            _FramePump(
                src=handle.rfile, dst_fd=write_fd, clauses=w2c,
                rng=self._rng(shard, "w2c"), count=self._count,
                handle=handle, kill=kill, wedge=wedge,
                name=f"fault-pump-w2c-{shard}",
            ).start()
            rfile = os.fdopen(read_fd, "rb", buffering=0)

        wfile = handle.wfile
        if c2w:
            read_fd, write_fd = os.pipe()
            _FramePump(
                src=os.fdopen(read_fd, "rb", buffering=0),
                # A raw dup: the pump writes with os.write, the stream
                # object stays owned by its handle.
                dst_fd=os.dup(handle.wfile.fileno()),
                clauses=c2w,
                rng=self._rng(shard, "c2w"), count=self._count,
                name=f"fault-pump-c2w-{shard}",
            ).start()
            wfile = os.fdopen(write_fd, "wb", buffering=0)

        wrapped = WorkerHandle(
            rfile=rfile, wfile=wfile,
            process=handle.process, pid=handle.pid,
        )
        # Keep the real handle (and so its stream objects) alive for as
        # long as the coordinator holds the wrapper: the pumps read and
        # write those streams until EOF.
        wrapped.inner = handle
        return wrapped

