"""Only named errors leave ``mm-fabric worker`` (seeded stdin mutation).

A valid coordinator stream — config, one run, shutdown — is damaged the
ways a byte stream can be: cut short, bytes flipped, dropped or
inserted, whole frames dropped, duplicated or swapped, garbage spliced
between frames. A real ``mm-fabric worker`` subprocess is fed each
mutant and must exit 0 or 1 within 10 s, never print a traceback, and
name a ``ProtocolError`` or ``FabricError`` in any ``error`` frame it
writes.

The mutator is seeded: the same mutants every run.
"""

import io
import os
import random
import subprocess
import sys

import pytest

from repro.fabric.protocol import PROTOCOL_VERSION, read_message, write_message
from repro.sim.random import stable_seed

MUTANTS = 30

SRC_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(
    __import__("repro").__file__)))

_CONFIG = {
    "protocol": PROTOCOL_VERSION, "retries": 0, "timeout": 600.0,
    "factory": ("repro.scenarios:replay_smoke",
                {"n_origins": 2, "scale": 0.2}),
}


def _frame(message):
    stream = io.BytesIO()
    write_message(stream, message)
    return stream.getvalue()


FRAMES = [_frame(("config", _CONFIG)), _frame(("run", 0)),
          _frame(("shutdown", None))]


def _truncate(frames, rng):
    data = b"".join(frames)
    return [data[:rng.randrange(len(data))]]


def _flip_byte(frames, rng):
    data = bytearray(b"".join(frames))
    data[rng.randrange(len(data))] ^= 1 << rng.randrange(8)
    return [bytes(data)]


def _drop_byte(frames, rng):
    data = bytearray(b"".join(frames))
    del data[rng.randrange(len(data))]
    return [bytes(data)]


def _insert_byte(frames, rng):
    data = bytearray(b"".join(frames))
    data.insert(rng.randrange(len(data) + 1), rng.randrange(256))
    return [bytes(data)]


def _drop_frame(frames, rng):
    frames = list(frames)
    del frames[rng.randrange(len(frames))]
    return frames


def _duplicate_frame(frames, rng):
    frames = list(frames)
    index = rng.randrange(len(frames))
    frames.insert(index, frames[index])
    return frames


def _swap_frames(frames, rng):
    frames = list(frames)
    a, b = rng.randrange(len(frames)), rng.randrange(len(frames))
    frames[a], frames[b] = frames[b], frames[a]
    return frames


def _garbage_between(frames, rng):
    frames = list(frames)
    frames.insert(rng.randrange(len(frames) + 1),
                  rng.choice([b"SSH-2.0-x\r\n", b"\x00" * 16, b"MMFB",
                              b"Traceback (most recent call last):\n"]))
    return frames


MUTATORS = (_truncate, _flip_byte, _drop_byte, _insert_byte, _drop_frame,
            _duplicate_frame, _swap_frames, _garbage_between)


def _mutants():
    rng = random.Random(stable_seed(20140619, "mm-fabric worker stdin"))
    for __ in range(MUTANTS):
        frames = FRAMES
        for mutate in rng.sample(MUTATORS, rng.randint(1, 2)):
            frames = mutate(frames, rng) if b"".join(frames) else frames
        yield b"".join(frames)


def _messages(data):
    """Every frame the worker wrote; the stream ends on a boundary."""
    stream, messages = io.BytesIO(data), []
    while True:
        try:
            messages.append(read_message(stream))
        except EOFError:
            return messages


def _feed(data):
    child = subprocess.run(
        [sys.executable, "-m", "repro.cli.mm_fabric", "worker"],
        input=data, capture_output=True, timeout=10,
        env=dict(os.environ, PYTHONPATH=SRC_ROOT))
    return child.returncode, _messages(child.stdout), child.stderr.decode()


def test_the_valid_stream_runs_one_trial_and_exits_0():
    status, messages, stderr = _feed(b"".join(FRAMES))
    assert status == 0, stderr
    assert [kind for kind, __ in messages] == ["hello", "outcome"]
    assert messages[1][1].status == "ok"


@pytest.mark.parametrize("data", list(_mutants()),
                         ids=[f"mutant{index}" for index in range(MUTANTS)])
def test_a_mutated_stream_ends_in_a_named_error(data):
    status, messages, stderr = _feed(data)
    assert status in (0, 1), (data, stderr)
    assert "Traceback" not in stderr, (data, stderr)
    assert messages[0][0] == "hello"
    for kind, detail in messages[1:]:
        assert kind in ("outcome", "error"), (kind, data)
        if kind == "error":
            assert detail.startswith(("ProtocolError: ", "FabricError: ")), \
                (detail, data)
