"""The worker: runs the trials it is sent, streams outcomes back.

A worker is one process executing a conversation over the wire protocol
(:mod:`repro.fabric.protocol`): hello → config → then a *run loop* —
each ``run`` message answered by a stream of ``outcome`` messages and a
``done``, until ``shutdown`` (or a clean EOF) ends the conversation. The
same :func:`worker_loop` body runs under every backend — forked with an
inherited factory closure
(:class:`~repro.fabric.backend.LocalBackend`), launched as
``mm-fabric worker`` over pipes
(:class:`~repro.fabric.backend.SubprocessBackend`), or launched through
an SSH-shaped transport (:class:`~repro.fabric.backend.RemoteBackend`) —
and it is the only kind of worker there is: every dispatched sweep
and ``parallel_map`` run on it.

The dispatcher (:func:`repro.fabric.coordinator.dispatch`) sends one
trial per ``run``, which is what the fault tolerance rests on: a lost
worker costs the one trial it held, a trial whose outcome frame the wire
ate is simply sent again, and a straggler's trial can be copied to a
worker with nothing else to do — all without respawning anything.
Alongside the trial work, a :class:`HeartbeatSender` daemon thread
pulses ``heartbeat`` frames on a wall-clock period (sharing this
module's write lock so frames never interleave), which is how the
dispatcher tells a slow worker from a wedged one.

What a worker runs is a *task*, ``index -> result``: for a page-load
sweep, :func:`~repro.measure.runner.run_trial` bound to the scenario
factory and the config's trial knobs; in task mode (``parallel_map``,
``mm-corpus generate``), the inherited task as it is. Trial semantics
are *identical to the in-process sweep* because they are the same code:
:func:`~repro.measure.supervise.run_shard`, the one attempt/quarantine
loop, runs both. That shared core is what makes the
byte-identical-to-serial guarantee a matter of construction rather than
luck. A worker holds no journal: every outcome it streams is journaled
by the sweep that dispatched it.
"""

from __future__ import annotations

import importlib
import os
import pickle
import threading
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Any, BinaryIO, Dict, Optional

from repro.errors import FabricError, ProtocolError, ReproError
from repro.fabric.protocol import PROTOCOL_VERSION, read_message, write_message
from repro.measure.runner import (
    DEFAULT_TRIAL_TIMEOUT,
    ScenarioFactory,
    run_trial,
)
from repro.measure.supervise import run_shard

__all__ = [
    "FactorySpec",
    "HeartbeatSender",
    "worker_loop",
]


@dataclass(frozen=True)
class FactorySpec:
    """A scenario factory named by import path (for spawned workers).

    Workers launched as fresh processes (subprocess, remote) cannot
    inherit a closure, so the factory travels as data: ``spec`` is
    ``"package.module:attribute"`` naming a *builder* callable, and
    ``kwargs`` are the keyword arguments the builder is called with to
    produce the actual :data:`~repro.measure.runner.ScenarioFactory`.

    Example:
        >>> FactorySpec("repro.scenarios:replay_smoke",
        ...             {"scale": 0.4}).spec
        'repro.scenarios:replay_smoke'
    """

    spec: str
    kwargs: Dict[str, Any] = field(default_factory=dict)

    def resolve(self) -> ScenarioFactory:
        """Import the builder and call it; raise :class:`FabricError`
        with the offending spec on any failure."""
        module_name, sep, attr = self.spec.partition(":")
        if not sep or not module_name or not attr:
            raise FabricError(
                f"malformed factory spec {self.spec!r} "
                f"(expected 'package.module:attribute')"
            )
        try:
            module = importlib.import_module(module_name)
            builder = getattr(module, attr)
        except (ImportError, AttributeError) as exc:
            raise FabricError(
                f"cannot resolve factory spec {self.spec!r}: {exc}"
            ) from exc
        factory = builder(**self.kwargs)
        if not callable(factory):
            raise FabricError(
                f"factory spec {self.spec!r} built a non-callable "
                f"{type(factory).__name__}"
            )
        return factory


class HeartbeatSender:
    """Worker-side liveness pulse.

    A daemon thread that writes a ``heartbeat`` frame every ``interval``
    wall seconds. The caller's ``lock`` must be the same one guarding
    outcome/done writes so frames never interleave on the wire. Beats
    continue *during* a long trial (the trial runs on the main thread),
    which is precisely the signal that distinguishes slow from wedged.
    Harness wall time only: nothing here touches a simulated world.

    Write failures stop the sender silently: a dead coordinator pipe is
    discovered — loudly — by the main conversation loop, not here.
    """

    def __init__(self, stream: BinaryIO, lock: threading.Lock,
                 interval: float) -> None:
        if interval <= 0:
            raise ValueError(
                f"heartbeat interval must be positive, got {interval}"
            )
        self._stream = stream
        self._lock = lock
        self._interval = interval
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
                        self._stream, ("heartbeat", {"pid": os.getpid()}))
                self.sent += 1
            except Exception:
                return


def worker_loop(
    rfile: BinaryIO,
    wfile: BinaryIO,
    factory: Optional[ScenarioFactory] = None,
) -> int:
    """Drive one worker conversation over a stream pair.

    Args:
        rfile: coordinator → worker byte stream.
        wfile: worker → coordinator byte stream.
        factory: an inherited factory closure (fork backends); spawned
            workers leave it None and receive a :class:`FactorySpec`
            in their config instead. When the config says ``"task"``
            it already is the ``index -> result`` task, and runs as it
            is.

    Returns:
        Process exit status (0 on a completed conversation — a
        ``shutdown`` message or a clean EOF after config).

    The config may carry ``"heartbeat"`` (wall seconds between liveness
    pulses, 0/absent disables them); all frames to the coordinator go
    out under one lock so heartbeats never interleave with outcomes.
    """
    write_lock = threading.Lock()

    def send(message):
        with write_lock:
            write_message(wfile, message)

    send(("hello", {"protocol": PROTOCOL_VERSION, "pid": os.getpid()}))
    heartbeat: Optional[HeartbeatSender] = None
    configured = False
    try:
        kind, config = read_message(rfile)
        if kind != "config":
            raise ProtocolError(f"expected config, got {kind!r}")
        if config.get("protocol") != PROTOCOL_VERSION:
            raise ProtocolError(
                f"coordinator speaks protocol "
                f"{config.get('protocol')!r}, worker speaks "
                f"{PROTOCOL_VERSION}"
            )
        if factory is None:
            spec = config.get("factory")
            if spec is None:
                raise FabricError(
                    "spawned worker received no factory spec "
                    "(only fork backends can inherit a closure)"
                )
            factory = spec.resolve() if isinstance(spec, FactorySpec) \
                else FactorySpec(*spec).resolve()
        if config.get("task"):
            task = factory  # already ``index -> result``: run as it is
        else:
            task = partial(
                run_trial, factory,
                timeout=config.get("timeout", DEFAULT_TRIAL_TIMEOUT),
                allow_failures=bool(config.get("allow_failures", False)),
                capture_digest=bool(config.get("capture_digest", False)))
        interval = float(config.get("heartbeat") or 0)
        if interval > 0:
            heartbeat = HeartbeatSender(wfile, write_lock, interval).start()
        configured = True
        batch = 0
        while True:
            kind, data = read_message(rfile)
            if kind == "shutdown":
                return 0
            if kind != "run":
                raise ProtocolError(f"expected run or shutdown, got {kind!r}")
            completed = 0
            for outcome in run_shard(task, list(data),
                                     int(config.get("retries", 1))):
                try:
                    send(("outcome", outcome))
                except (pickle.PicklingError, AttributeError,
                        TypeError) as exc:
                    # Nothing reached the wire (a frame is pickled before
                    # it is written): report the trial, keep the worker.
                    send(("outcome", replace(
                        outcome, status="quarantined", result=None,
                        digest=None,
                        error=f"trial {outcome.trial} returned an "
                              f"unpicklable result "
                              f"({type(outcome.result).__name__}): {exc}")))
                completed += 1
            send(("done", {"trials": completed, "batch": batch}))
            batch += 1
    except (EOFError, BrokenPipeError):
        # Coordinator went away. After config that is a normal end of
        # conversation (v1 coordinators, torn-down sweeps); before it,
        # the worker never got to work.
        return 0 if configured else 1
    except ReproError as exc:
        try:
            send(("error", str(exc)))
        except (OSError, ValueError):
            pass
        return 1
    finally:
        if heartbeat is not None:
            heartbeat.stop()
