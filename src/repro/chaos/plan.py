"""Declarative fault plans: what breaks, when, and how.

A :class:`FaultPlan` is a schedule of fault *clauses* — link outages,
Gilbert–Elliott burst loss, packet corruption and reordering, SYN
blackholes, server-side stalls/resets/truncations/error bursts, and DNS
failure/latency clauses. Plans are plain frozen dataclasses: picklable
(they cross fork boundaries inside scenario factories)
and JSON-serializable (``to_json``/``from_json``), so a fault scenario is
a reviewable artifact, exactly like a Mahimahi packet-delivery trace.

Plans carry no randomness of their own. Every stochastic clause (loss,
corruption, reordering) is driven at injection time by a named stream from
:mod:`repro.sim.random`, so the same seed and the same plan replay the
exact same failure sequence — bit-reproducible chaos (DESIGN.md §8).
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields
from typing import Iterable, Optional, Tuple, Type, Union

from repro.errors import ChaosError

#: Direction values accepted by link-layer clauses.
DIRECTIONS = ("uplink", "downlink", "both")

#: Server fault kinds (see :class:`ServerFaultClause`).
SERVER_FAULT_KINDS = ("stall", "reset", "truncate", "error-burst")

#: DNS fault kinds (see :class:`DnsFaultClause`).
DNS_FAULT_KINDS = ("servfail", "timeout", "slow")


def _check_direction(direction: str) -> None:
    if direction not in DIRECTIONS:
        raise ChaosError(
            f"direction must be one of {DIRECTIONS}, got {direction!r}"
        )


def _check_probability(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ChaosError(f"{name} must be in [0, 1], got {value!r}")


def _check_finite(clause: object, *names: str) -> None:
    """A NaN time makes a clause silently inert; an infinite one never
    ends. Both are refused, naming the field."""
    for name in names:
        value = getattr(clause, name)
        if value is not None and not math.isfinite(value):
            raise ChaosError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class OutageClause:
    """The link goes dark for a window; held packets release at its end.

    Packets arriving during ``[start, start + duration)`` are held and
    delivered FIFO when the window closes — the behaviour of a layer-2
    outage (Wi-Fi roam, cellular handover), where the queue survives but
    nothing drains. With ``period`` set the window repeats every
    ``period`` seconds.

    Args:
        direction: which link direction the outage afflicts.
        start: virtual time the first window opens (seconds).
        duration: window length (seconds, > 0).
        period: repeat interval (> duration), or None for a single window.
    """

    direction: str = "both"
    start: float = 0.0
    duration: float = 1.0
    period: Optional[float] = None

    def __post_init__(self) -> None:
        _check_direction(self.direction)
        _check_finite(self, "start", "duration", "period")
        if self.start < 0.0:
            raise ChaosError(f"outage start must be >= 0, got {self.start!r}")
        if self.duration <= 0.0:
            raise ChaosError(
                f"outage duration must be > 0, got {self.duration!r}"
            )
        if self.period is not None and self.period <= self.duration:
            raise ChaosError(
                f"outage period ({self.period!r}) must exceed its "
                f"duration ({self.duration!r})"
            )

    def window_end(self, when: float) -> Optional[float]:
        """End of the outage window covering ``when`` (None if outside)."""
        offset = when - self.start
        if offset < 0.0:
            return None
        if self.period is None:
            return self.start + self.duration if offset < self.duration else None
        cycle = int(offset // self.period)
        within = offset - cycle * self.period
        if within < self.duration:
            return self.start + cycle * self.period + self.duration
        return None


@dataclass(frozen=True)
class GilbertElliottClause:
    """Bursty loss: a two-state (good/bad) Markov chain, stepped per packet.

    The classic Gilbert–Elliott channel: in the *good* state packets drop
    with probability ``loss_good`` (usually 0), in the *bad* state with
    ``loss_bad``; the chain moves good→bad with probability ``p_good_bad``
    per packet and bad→good with ``p_bad_good``. Mean burst length is
    ``1 / p_bad_good`` packets. A ``direction="both"`` clause runs one
    independent chain per direction (each direction has its own stream).

    Args:
        direction: which link direction the loss afflicts.
        p_good_bad: per-packet transition probability good → bad.
        p_bad_good: per-packet transition probability bad → good.
        loss_good: drop probability while in the good state.
        loss_bad: drop probability while in the bad state.
    """

    direction: str = "both"
    p_good_bad: float = 0.01
    p_bad_good: float = 0.3
    loss_good: float = 0.0
    loss_bad: float = 1.0

    def __post_init__(self) -> None:
        _check_direction(self.direction)
        for name in ("p_good_bad", "p_bad_good", "loss_good", "loss_bad"):
            _check_probability(name, getattr(self, name))


@dataclass(frozen=True)
class CorruptionClause:
    """Independent per-packet corruption.

    A corrupted packet fails its checksum and is discarded by the receiving
    stack, so at this abstraction level corruption is a drop — but it is
    counted separately (``corrupted`` counter) because its *cause* differs
    from congestive loss, which matters to a failure taxonomy.
    """

    direction: str = "both"
    rate: float = 0.01

    def __post_init__(self) -> None:
        _check_direction(self.direction)
        _check_probability("rate", self.rate)


@dataclass(frozen=True)
class ReorderClause:
    """Independent per-packet reordering.

    A selected packet is delayed by ``extra_delay`` seconds, letting later
    packets overtake it — the out-of-order delivery that exercises TCP's
    duplicate-ACK / SACK machinery.
    """

    direction: str = "both"
    probability: float = 0.01
    extra_delay: float = 0.005

    def __post_init__(self) -> None:
        _check_direction(self.direction)
        _check_probability("probability", self.probability)
        _check_finite(self, "extra_delay")
        if self.extra_delay <= 0.0:
            raise ChaosError(
                f"extra_delay must be > 0, got {self.extra_delay!r}"
            )


@dataclass(frozen=True)
class SynBlackholeClause:
    """Drop TCP SYN segments during a window (connections cannot open).

    Established flows keep working; *new* connection attempts see their
    handshakes blackholed and fall back on the transport's SYN
    retransmission timers — a middlebox/firewall failure mode distinct
    from a full outage.
    """

    direction: str = "both"
    start: float = 0.0
    duration: float = 1.0

    def __post_init__(self) -> None:
        _check_direction(self.direction)
        _check_finite(self, "start", "duration")
        if self.start < 0.0:
            raise ChaosError(f"start must be >= 0, got {self.start!r}")
        if self.duration <= 0.0:
            raise ChaosError(f"duration must be > 0, got {self.duration!r}")

    def active(self, when: float) -> bool:
        """Whether the window covers virtual time ``when``."""
        offset = when - self.start
        return 0.0 <= offset < self.duration


@dataclass(frozen=True)
class ServerFaultClause:
    """A server-side fault applied to a run of matching requests.

    Matching is deterministic and order-based: the injector counts
    requests whose URI starts with ``path_prefix`` (None matches all),
    skips the first ``skip`` of them, then afflicts the next ``count``
    (None = every one from there on).

    Kinds:

    * ``"stall"`` — send headers plus ``after_bytes`` of body, then stop
      for ``stall`` seconds before finishing the response (a wedged
      worker; the response eventually completes).
    * ``"truncate"`` — send headers (with the full Content-Length) plus
      ``after_bytes`` of body, then close the connection: the client sees
      a short read (:class:`repro.errors.TruncatedBody`).
    * ``"reset"`` — send ``after_bytes`` of body, then abort the
      connection with RST (:class:`repro.errors.ResetMidTransfer`).
    * ``"error-burst"`` — answer with ``status`` (default 503) instead of
      invoking the handler.
    """

    kind: str = "stall"
    path_prefix: Optional[str] = None
    skip: int = 0
    count: Optional[int] = 1
    after_bytes: int = 0
    stall: float = 0.5
    status: int = 503

    def __post_init__(self) -> None:
        if self.kind not in SERVER_FAULT_KINDS:
            raise ChaosError(
                f"server fault kind must be one of {SERVER_FAULT_KINDS}, "
                f"got {self.kind!r}"
            )
        if self.skip < 0:
            raise ChaosError(f"skip must be >= 0, got {self.skip!r}")
        if self.count is not None and self.count < 1:
            raise ChaosError(f"count must be >= 1 or None, got {self.count!r}")
        if self.after_bytes < 0:
            raise ChaosError(
                f"after_bytes must be >= 0, got {self.after_bytes!r}"
            )
        _check_finite(self, "stall")
        if self.kind == "stall" and self.stall <= 0.0:
            raise ChaosError(f"stall must be > 0, got {self.stall!r}")
        if not 100 <= self.status <= 599:
            raise ChaosError(f"status must be an HTTP status, got {self.status!r}")


@dataclass(frozen=True)
class DnsFaultClause:
    """A DNS-server fault applied to a run of matching queries.

    Matching mirrors :class:`ServerFaultClause`: queries whose name ends
    with ``name_suffix`` (None matches all) are counted; the first
    ``skip`` pass through, the next ``count`` are afflicted.

    Kinds: ``"servfail"`` answers RCODE 2 (SERVFAIL), ``"timeout"``
    swallows the query (the resolver retries, then fails), ``"slow"``
    adds ``delay`` seconds to the answer.
    """

    kind: str = "servfail"
    name_suffix: Optional[str] = None
    skip: int = 0
    count: Optional[int] = 1
    delay: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in DNS_FAULT_KINDS:
            raise ChaosError(
                f"dns fault kind must be one of {DNS_FAULT_KINDS}, "
                f"got {self.kind!r}"
            )
        if self.skip < 0:
            raise ChaosError(f"skip must be >= 0, got {self.skip!r}")
        if self.count is not None and self.count < 1:
            raise ChaosError(f"count must be >= 1 or None, got {self.count!r}")
        _check_finite(self, "delay")
        if self.kind == "slow" and self.delay <= 0.0:
            raise ChaosError(f"slow clause needs delay > 0, got {self.delay!r}")


#: Any clause a plan can hold.
Clause = Union[
    OutageClause,
    GilbertElliottClause,
    CorruptionClause,
    ReorderClause,
    SynBlackholeClause,
    ServerFaultClause,
    DnsFaultClause,
]

#: Clause kinds that ride on link pipes (have a ``direction``).
LINK_CLAUSE_TYPES: Tuple[Type, ...] = (
    OutageClause,
    GilbertElliottClause,
    CorruptionClause,
    ReorderClause,
    SynBlackholeClause,
)

@dataclass(frozen=True)
class FaultPlan:
    """A named, ordered collection of fault clauses.

    The plan is pure data: build one, serialize it with :meth:`to_json`
    (a ``type``-tagged, versioned JSON form), ship it across processes
    (it pickles), hand it to :class:`~repro.chaos.shell.ChaosShell` /
    :meth:`~repro.core.compose.ShellStack.add_chaos` / ``mm-chaos``.
    Clause order is preserved and meaningful: the first matching server or
    DNS clause wins for any given request/query.
    """

    clauses: Tuple[Clause, ...] = ()
    name: str = "chaos"

    #: JSON tag -> clause class (the serialized form's discriminator).
    CLAUSE_KINDS = {
        "outage": OutageClause,
        "ge-loss": GilbertElliottClause,
        "corruption": CorruptionClause,
        "reorder": ReorderClause,
        "syn-blackhole": SynBlackholeClause,
        "server": ServerFaultClause,
        "dns": DnsFaultClause,
    }
    #: Schema version stamped into serialized plans.
    FORMAT_VERSION = 1

    def __post_init__(self) -> None:
        if not isinstance(self.clauses, tuple):
            object.__setattr__(self, "clauses", tuple(self.clauses))
        kinds = self.CLAUSE_KINDS.values()
        for clause in self.clauses:
            if type(clause) not in kinds:
                raise ChaosError(
                    f"not a fault clause: {clause!r} (expected one of "
                    f"{sorted(c.__name__ for c in kinds)})"
                )

    def _tags(self) -> Tuple[str, ...]:
        """Each clause's JSON tag, in plan order."""
        tag_of = {cls: tag for tag, cls in self.CLAUSE_KINDS.items()}
        return tuple(tag_of[type(clause)] for clause in self.clauses)

    # ------------------------------------------------------------------ #
    # serialization

    def to_dict(self) -> dict:
        """Plain-data form (stable key order; JSON-ready)."""
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        data["version"] = self.FORMAT_VERSION
        # The clause-type tag is "type", not "kind": server/DNS clauses
        # carry their own "kind" field (stall, servfail...) and the two
        # must not collide in the flat clause object.
        data["clauses"] = [
            {"type": tag, **asdict(clause)}
            for tag, clause in zip(self._tags(), self.clauses)
        ]
        return data

    def to_json(self, indent: Optional[int] = 2) -> str:
        """Serialize to JSON (sorted keys, so equal plans are equal text)."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        """Inverse of :meth:`to_dict`; validates every clause."""
        if not isinstance(data, dict):
            raise ChaosError(
                f"fault plan must be an object, got {type(data)}")
        version = data.get("version", cls.FORMAT_VERSION)
        if version != cls.FORMAT_VERSION:
            raise ChaosError(
                f"unsupported fault-plan version {version!r} (this build "
                f"reads version {cls.FORMAT_VERSION})"
            )
        clauses = []
        for index, entry in enumerate(data.get("clauses", ())):
            if not isinstance(entry, dict) or "type" not in entry:
                raise ChaosError(
                    f"clause {index} must be an object with a 'type' key"
                )
            entry = dict(entry)
            tag = entry.pop("type")
            clause_cls = cls.CLAUSE_KINDS.get(tag)
            if clause_cls is None:
                raise ChaosError(
                    f"clause {index}: unknown type {tag!r} (expected one "
                    f"of {sorted(cls.CLAUSE_KINDS)})"
                )
            known = {f.name for f in fields(clause_cls)}
            unknown = set(entry) - known
            if unknown:
                raise ChaosError(
                    f"clause {index} ({tag}): unknown fields {sorted(unknown)}"
                )
            try:
                clauses.append(clause_cls(**entry))
            except TypeError as exc:
                raise ChaosError(f"clause {index} ({tag}): {exc}") from None
        rest = {f.name: data[f.name] for f in fields(cls)
                if f.name != "clauses" and f.name in data}
        return cls(clauses=tuple(clauses), **rest)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        """Parse a plan from JSON text."""
        try:
            data = json.loads(text)
        except ValueError as exc:
            raise ChaosError(f"fault plan is not valid JSON: {exc}") from None
        return cls.from_dict(data)

    def __len__(self) -> int:
        return len(self.clauses)

    # ------------------------------------------------------------------ #
    # selection

    def link_clauses(self, direction: str) -> Tuple[Clause, ...]:
        """Link-layer clauses afflicting ``direction`` (or ``both``)."""
        if direction not in ("uplink", "downlink"):
            raise ChaosError(
                f"direction must be 'uplink' or 'downlink', got {direction!r}"
            )
        return tuple(
            clause for clause in self.clauses
            if isinstance(clause, LINK_CLAUSE_TYPES)
            and clause.direction in (direction, "both")
        )

    @property
    def server_clauses(self) -> Tuple[ServerFaultClause, ...]:
        """Server-side fault clauses, in plan order."""
        return tuple(
            clause for clause in self.clauses
            if isinstance(clause, ServerFaultClause)
        )

    @property
    def dns_clauses(self) -> Tuple[DnsFaultClause, ...]:
        """DNS fault clauses, in plan order."""
        return tuple(
            clause for clause in self.clauses
            if isinstance(clause, DnsFaultClause)
        )

    @property
    def has_link_faults(self) -> bool:
        """Whether any clause rides on the link pipes."""
        return any(isinstance(c, LINK_CLAUSE_TYPES) for c in self.clauses)

    def __repr__(self) -> str:
        return f"<FaultPlan {self.name!r} [{', '.join(self._tags())}]>"


class OutageSchedule:
    """The merged outage windows of several clauses, queryable in time.

    Used by :class:`~repro.chaos.pipes.ChaosPipe` to hold and release
    packets.
    """

    def __init__(self, clauses: Iterable[OutageClause]) -> None:
        self._clauses = tuple(clauses)
        for clause in self._clauses:
            if not isinstance(clause, OutageClause):
                raise ChaosError(f"not an outage clause: {clause!r}")

    def __bool__(self) -> bool:
        return bool(self._clauses)

    def release_time(self, when: float) -> float:
        """Earliest time >= ``when`` not inside any window.

        Windows from different clauses may overlap or abut; iterate to a
        fixed point (windows are finite, so this terminates).
        """
        moved = True
        while moved:
            moved = False
            for clause in self._clauses:
                end = clause.window_end(when)
                if end is not None and end > when:
                    when = end
                    moved = True
        return when


__all__ = [
    "Clause",
    "CorruptionClause",
    "DnsFaultClause",
    "FaultPlan",
    "GilbertElliottClause",
    "OutageClause",
    "OutageSchedule",
    "ReorderClause",
    "ServerFaultClause",
    "SynBlackholeClause",
]
