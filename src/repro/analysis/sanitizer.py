"""Runtime determinism sanitizer: digest and diff executed event streams.

Static lint (:mod:`repro.analysis.lint`) catches determinism hazards it can
see; this module catches the ones it cannot, by *measuring* the contract:
an opt-in :class:`~repro.sim.simulator.Simulator` execution observer
(:class:`EventStreamDigest`) folds every executed event's
``(time, seq, callback qualname)`` into a running BLAKE2 digest, and
:func:`check_determinism` replays a scenario ``runs`` times and compares
the digests. Two replays of a correctly written scenario produce the same
digest bit for bit; any divergence is reported at the *first divergent
event*, with both runs' surrounding context — which usually names the
guilty callback outright.

Run ``python -m repro.analysis.sanitizer [--scenario NAME]`` for a
self-contained 2-run digest check over a named world of the
:mod:`repro.scenarios` registry (default ``smoke``, the CI bench-smoke
job's determinism gate). This module itself builds no world and imports
only the simulator: workers load it just to capture a digest.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro.errors import DeterminismError
from repro.sim.events import EventCallback
from repro.sim.simulator import Simulator

__all__ = [
    "DeterminismReport",
    "EventStreamDigest",
    "callback_name",
    "check_determinism",
    "check_observer_effect",
    "main",
]

#: One executed event, as folded into the digest.
TraceEntry = Tuple[float, int, str]

#: Entries :class:`EventStreamDigest` buffers before hashing them together.
FOLD_BLOCK = 256

#: A scenario builder: seed in, fully built (not yet run) simulator out.
ScenarioBuilder = Callable[[int], Simulator]


def callback_name(callback: object) -> str:
    """Stable, address-free name for an event callback.

    ``repr`` would embed ``0x7f…`` object addresses, which differ between
    runs of identical behaviour — exactly the false positive a determinism
    checker must not produce. Qualified names (unwrapping
    ``functools.partial`` chains, falling back to the callable's type) are
    identical across processes and platforms.
    """
    qualname = getattr(callback, "__qualname__", None)
    if isinstance(qualname, str):
        return qualname
    inner = getattr(callback, "func", None)  # functools.partial and kin
    if inner is not None and inner is not callback:
        return callback_name(inner)
    return type(callback).__qualname__


class EventStreamDigest:
    """Simulator execution observer folding events into a BLAKE2 digest.

    Install with ``sim.set_trace(digest)`` before running. Each executed
    event contributes ``repr(time) | seq | qualname`` — virtual times are
    folded through ``repr``, so even a single-ulp scheduling difference
    changes the digest. Entries are hashed a block of :data:`FOLD_BLOCK`
    at a time (BLAKE2 is a stream hash: same bytes, same order, same
    digest); every reader below folds the open block first.

    Args:
        keep_log: also retain the full entry list (needed to locate the
            first divergent event when two digests disagree; costs one
            tuple per event).
        context: how many recent entries to keep for diagnostics when the
            full log is off.
    """

    def __init__(self, keep_log: bool = False, context: int = 8) -> None:
        self._hash = hashlib.blake2b(digest_size=16)
        self._folded = 0
        self._block: List[TraceEntry] = []
        self._log: Optional[List[TraceEntry]] = [] if keep_log else None
        self._context = max(1, context)
        self._recent: List[TraceEntry] = []

    def __call__(self, time: float, seq: int, callback: EventCallback) -> None:
        # The name is resolved now: an entry must not hold a reference
        # into the world it observes.
        block = self._block
        block.append((time, seq, callback_name(callback)))
        if len(block) >= FOLD_BLOCK:
            self._fold()

    def _fold(self) -> None:
        block = self._block
        if not block:
            return
        self._hash.update(
            "".join([f"{time!r}|{seq}|{name}\n" for time, seq, name in block])
            .encode("utf-8")
        )
        self._folded += len(block)
        self._recent = (self._recent + block)[-self._context:]
        if self._log is not None:
            self._log.extend(block)
        block.clear()

    @property
    def events(self) -> int:
        """Number of events observed so far."""
        return self._folded + len(self._block)

    @property
    def log(self) -> Optional[List[TraceEntry]]:
        """Every entry so far, or None unless ``keep_log``."""
        self._fold()
        return self._log

    @property
    def hexdigest(self) -> str:
        """Digest over every event observed so far."""
        self._fold()
        return self._hash.hexdigest()

    @property
    def recent(self) -> List[TraceEntry]:
        """The most recent entries (at most ``context`` of them)."""
        self._fold()
        return list(self._recent)

    def __repr__(self) -> str:
        return (
            f"<EventStreamDigest events={self.events} "
            f"digest={self.hexdigest}>"
        )


@dataclass(frozen=True)
class DeterminismReport:
    """Successful :func:`check_determinism` outcome."""

    seed: int
    runs: int
    events: int
    digest: str

    def __str__(self) -> str:
        return (
            f"deterministic: {self.runs} runs of seed {self.seed} replayed "
            f"{self.events} events identically (digest {self.digest})"
        )


def _format_entry(entry: TraceEntry) -> str:
    time, seq, name = entry
    return f"t={time!r} #{seq} {name}"


def _divergence_message(
    seed: int,
    run: int,
    reference: EventStreamDigest,
    candidate: EventStreamDigest,
) -> str:
    """Locate and describe the first divergent event of two runs."""
    ref_log, cand_log = reference.log, candidate.log
    lines = [
        f"seed {seed}: run {run} diverged from run 0 "
        f"(digest {candidate.hexdigest} != {reference.hexdigest}, "
        f"{candidate.events} vs {reference.events} events)"
    ]
    if ref_log is None or cand_log is None:
        lines.append("event logs were not kept; re-run with keep_log=True")
        lines.append("run 0 tail: " + "; ".join(map(_format_entry, reference.recent)))
        lines.append(f"run {run} tail: " + "; ".join(map(_format_entry, candidate.recent)))
        return "\n".join(lines)
    index = next(
        (i for i, (a, b) in enumerate(zip(ref_log, cand_log)) if a != b),
        min(len(ref_log), len(cand_log)),
    )
    lines.append(f"first divergent event: index {index}")
    start = max(0, index - 3)
    for label, log in (("run 0", ref_log), (f"run {run}", cand_log)):
        for position in range(start, min(index + 1, len(log))):
            marker = ">>" if position == index else "  "
            lines.append(
                f"  {marker} {label}[{position}]: {_format_entry(log[position])}"
            )
        if index >= len(log):
            lines.append(
                f"  >> {label}[{index}]: <event stream ended at "
                f"{len(log)} events>"
            )
    return "\n".join(lines)


def check_determinism(
    build: ScenarioBuilder,
    seed: int = 0,
    runs: int = 2,
    until: Optional[float] = None,
    max_events: Optional[int] = None,
    keep_log: bool = True,
) -> DeterminismReport:
    """Replay ``build(seed)`` and verify the event streams are identical.

    Args:
        build: scenario builder — returns a fully built, *not yet run*
            :class:`Simulator` for the given seed. It is called ``runs``
            times; each call must construct a fresh world.
        seed: seed handed to every ``build`` call (identical inputs are
            the whole point).
        runs: how many independent replays to compare (>= 2).
        until / max_events: forwarded to :meth:`Simulator.run`.
        keep_log: retain full event logs so a divergence report can show
            the first divergent event (disable only for very long runs).

    Returns:
        A :class:`DeterminismReport` when all runs replayed identically.

    Raises:
        DeterminismError: on the first run whose event stream differs
            from run 0's; the message pinpoints the first divergent event
            with both sides' context.
    """
    if runs < 2:
        raise ValueError(f"need at least 2 runs to compare, got {runs!r}")
    reference: Optional[EventStreamDigest] = None
    for run in range(runs):
        sim = build(seed)
        if not isinstance(sim, Simulator):
            raise TypeError(
                f"scenario builder must return a Simulator, got {type(sim)!r}"
            )
        digest = EventStreamDigest(keep_log=keep_log)
        sim.set_trace(digest)
        sim.run(until=until, max_events=max_events)
        if reference is None:
            reference = digest
        elif digest.hexdigest != reference.hexdigest:
            raise DeterminismError(
                _divergence_message(seed, run, reference, digest)
            )
    assert reference is not None
    return DeterminismReport(
        seed=seed,
        runs=runs,
        events=reference.events,
        digest=reference.hexdigest,
    )


def check_observer_effect(
    build: Callable[[int, bool], Simulator],
    seed: int = 0,
    until: Optional[float] = None,
    max_events: Optional[int] = None,
    keep_log: bool = True,
) -> DeterminismReport:
    """Verify instrumentation has *zero observer effect*.

    Runs ``build(seed, False)`` (uninstrumented) and ``build(seed, True)``
    (with a :class:`~repro.obs.registry.MetricsRegistry` attached) and
    requires bit-identical event-stream digests — the repro.obs contract:
    probes only read simulation state and append to observer-owned
    storage, so turning them on must not move a single event.

    Args:
        build: two-argument scenario builder ``(seed, instrument)``; the
            instrumented call must attach a registry before building the
            world.
        seed / until / max_events / keep_log: as in
            :func:`check_determinism`.

    Raises:
        DeterminismError: if the instrumented stream differs.
        ValueError: if the instrumented build forgot to attach a registry.
    """
    digests = []
    for instrument in (False, True):
        sim = build(seed, instrument)
        if instrument and sim.metrics is None:
            raise ValueError(
                "instrumented build did not attach a MetricsRegistry "
                "(call MetricsRegistry.install(sim) before building the world)"
            )
        digest = EventStreamDigest(keep_log=keep_log)
        sim.set_trace(digest)
        sim.run(until=until, max_events=max_events)
        digests.append(digest)
    plain, instrumented = digests
    if instrumented.hexdigest != plain.hexdigest:
        raise DeterminismError(
            "OBSERVER EFFECT: instrumented run diverged from "
            "uninstrumented (a probe scheduled an event or mutated "
            "simulation state)\n"
            + _divergence_message(seed, 1, plain, instrumented)
        )
    return DeterminismReport(
        seed=seed, runs=2, events=plain.events, digest=plain.hexdigest
    )


def main(argv: Optional[List[str]] = None) -> int:
    """2-run digest check over one registered scenario."""
    from repro.scenarios import SCENARIOS

    buildable = sorted(n for n, e in SCENARIOS.items() if e.digest is not None)
    with_artifact = sorted(n for n, e in SCENARIOS.items() if e.artifact)
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.sanitizer",
        description="Determinism sanitizer: replay a reduced-scale "
        "record-and-replay scenario and verify bit-identical event "
        "streams.",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--runs", type=int, default=2)
    parser.add_argument(
        "--scenario",
        choices=buildable,
        default="smoke",
        help="a world of the repro.scenarios registry that builds with "
        "its defaults. smoke: plain replay stack; chaos: the same stack "
        "under a nontrivial fault plan (outage + Gilbert-Elliott loss + "
        "server stall + DNS SERVFAIL); load: an open-loop heavy-traffic "
        "level (60 mixed clients, Poisson arrivals) through repro.load",
    )
    parser.add_argument(
        "--max-events",
        type=int,
        default=5_000_000,
        help="safety valve forwarded to Simulator.run",
    )
    parser.add_argument(
        "--obs-check",
        action="store_true",
        help="also verify zero observer effect: the event-stream digest "
        "with a metrics registry attached must be bit-identical to "
        "the uninstrumented run's",
    )
    parser.add_argument(
        "--artifact-check",
        action="store_true",
        help="also serialise the scenario's measurement artifact twice "
        "and require byte-identical output (supported by: "
        + ", ".join(with_artifact) + ")",
    )
    options = parser.parse_args(argv)
    entry = SCENARIOS[options.scenario]
    try:
        report = check_determinism(
            entry.simulator,
            seed=options.seed,
            runs=options.runs,
            max_events=options.max_events,
        )
    except DeterminismError as exc:
        print(f"DETERMINISM VIOLATION\n{exc}", file=sys.stderr)
        return 1
    print(report)
    if options.obs_check:
        try:
            obs_report = check_observer_effect(
                entry.simulator,
                seed=options.seed,
                max_events=options.max_events,
            )
        except DeterminismError as exc:
            print(f"DETERMINISM VIOLATION\n{exc}", file=sys.stderr)
            return 1
        print(
            f"zero observer effect: instrumented digest matches "
            f"({obs_report.events} events, digest {obs_report.digest})"
        )
    if options.artifact_check:
        artifact_fn = entry.artifact
        if artifact_fn is None:
            print(
                f"error: --artifact-check is not supported for scenario "
                f"{options.scenario!r} (supported: "
                f"{', '.join(with_artifact)})",
                file=sys.stderr,
            )
            return 2
        first = artifact_fn(options.seed)
        for run in range(1, max(2, options.runs)):
            candidate = artifact_fn(options.seed)
            if candidate != first:
                offset = next(
                    (i for i, (a, b) in enumerate(zip(first, candidate))
                     if a != b),
                    min(len(first), len(candidate)),
                )
                print(
                    f"DETERMINISM VIOLATION\nseed {options.seed}: artifact "
                    f"run {run} diverged from run 0 at byte {offset} "
                    f"({len(candidate)} vs {len(first)} bytes)",
                    file=sys.stderr,
                )
                return 1
        print(
            f"artifact-deterministic: {max(2, options.runs)} serialisations "
            f"of seed {options.seed} are byte-identical "
            f"({len(first)} bytes)"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
