"""Closed forms every pipe of a finished world satisfies.

Each registered world that moves packets without a load generator
(``smoke``, ``chaos``, ``replay_smoke``, ``bulk_lossy``) is built through
the registry, run until the simulator drains, and every emulation pipe of
its stack is held, from public counters only, to

* **packet conservation**: ``packets_sent == packets_delivered +
  packets_dropped + dequeue-time discipline drops + still queued`` — a
  drained simulator has nothing in flight, so nothing is unaccounted for;
* **admission**: a link pipe's queue admitted every packet it did not
  tail-drop (``packets_sent == queue.enqueued + packets_dropped``);
* **LinkShell's bound** (ROADMAP 1): ``bytes_delivered <=
  opportunities_used * MTU_BYTES`` on every trace-driven pipe, since an
  opportunity is one MTU of budget.

The worlds come out of ``ShellStack.fresh``, so the test wraps it to keep
each stack it builds; the registry's builders run unchanged.
"""

from __future__ import annotations

import pytest

from repro.core import ShellStack
from repro.linkem.tracelink import TracePipe
from repro.net.packet import MTU_BYTES
from repro.scenarios import SCENARIOS

WORLDS = ["smoke", "chaos", "replay_smoke", "bulk_lossy"]


def drained_stack(name, seed, monkeypatch):
    built = []
    fresh = ShellStack.fresh.__func__

    def keeping(cls, *args, **kwargs):
        built.append(fresh(cls, *args, **kwargs))
        return built[-1]

    monkeypatch.setattr(ShellStack, "fresh", classmethod(keeping))
    sim = SCENARIOS[name].simulator(seed)
    sim.run()
    assert sim.pending_events == 0
    (stack,) = built
    return stack


def pipes(stack):
    for shell in stack.shells:
        yield f"{shell.name}.downlink", shell.downlink_pipe
        yield f"{shell.name}.uplink", shell.uplink_pipe


def dequeue_drops(pipe):
    """Packets the pipe's queue discipline dropped at dequeue (CoDel):
    its ``drops`` counts those and every refused push, the pipe's
    ``packets_dropped`` only the refused pushes. Drop-tail has none."""
    return pipe.queue.drops - pipe.packets_dropped


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name", WORLDS)
def test_every_pipe_conserves_packets(name, seed, monkeypatch):
    stack = drained_stack(name, seed, monkeypatch)
    sent = dropped = 0
    for path, pipe in pipes(stack):
        link = isinstance(pipe, TracePipe)
        queued = len(pipe.queue) if link else 0
        discipline = dequeue_drops(pipe) if link else 0
        assert pipe.packets_sent == (
            pipe.packets_delivered + pipe.packets_dropped + discipline
            + queued), path
        if link:
            assert pipe.packets_sent == \
                pipe.queue.enqueued + pipe.packets_dropped, path
            assert pipe.bytes_delivered <= \
                pipe.opportunities_used * MTU_BYTES, path
        sent += pipe.packets_sent
        dropped += pipe.packets_dropped + discipline
    # A bare ReplayShell's browser talks to its servers over the loopback,
    # so replay_smoke's pipes carry nothing and hold trivially.
    assert (sent > 0) == (name != "replay_smoke")
    if name in ("chaos", "bulk_lossy"):
        assert dropped > 0  # the identities were exercised with losses


def test_link_bound_is_tight_under_backlog(monkeypatch):
    """A saturated link fills nearly every opportunity it takes: the
    bound is the right one, not merely a true one."""
    stack = drained_stack("bulk_lossy", 0, monkeypatch)
    link = next(s for s in stack.shells if s.name.startswith("linkshell"))
    pipe = link.downlink_pipe
    assert pipe.bytes_delivered > 0.9 * pipe.opportunities_used * MTU_BYTES
