"""Harness faults against the one loss rule: spawn failures, killed and
wedged workers (the :mod:`repro.testing` hooks) and bad frames, each
delivered for real — and the merged sweep still byte-identical to
serial."""

import hashlib
import os
import pickle
import struct
import threading

import pytest

from repro.errors import FabricError, ReproError
from repro.fabric.backend import LocalBackend
from repro.fabric.coordinator import run_fabric
from repro.fabric.protocol import MAX_FRAME, read_message, write_message
from repro.measure.supervise import run_supervised
from repro.scenarios import replay_smoke
from repro.testing import (
    FaultInjectingBackend,
    KillWorker,
    SpawnFault,
)

KW = {"name": "fabtest.example", "seed": 7, "n_origins": 2, "scale": 0.3}
TRIALS = 6

_HEADER = struct.Struct(">4sI8s")


@pytest.fixture(scope="module")
def factory():
    return replay_smoke(**KW)


@pytest.fixture(scope="module")
def serial(factory, tmp_path_factory):
    path = tmp_path_factory.mktemp("serial") / "journal.jsonl"
    result = run_supervised(factory, TRIALS, workers=1, journal=str(path),
                            capture_digest=True)
    assert result.complete
    result.journal_bytes = path.read_bytes()
    return result


def assert_identical(result, reference):
    assert result.complete
    assert result.digest == reference.digest
    assert result.sample.values == reference.sample.values
    for ours, theirs in zip(result.outcomes, reference.outcomes):
        assert ours.status == theirs.status
        assert ours.digest == theirs.digest


def _frame(payload, magic=b"MMFB", length=None):
    checksum = hashlib.blake2b(payload, digest_size=8).digest()
    return _HEADER.pack(magic, len(payload) if length is None else length,
                        checksum) + payload


def _damaged(message, kind):
    """``message`` framed with one kind of damage: the bytes to write,
    and whether the stream then ends."""
    payload = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    if kind == "bad-magic":
        return _frame(payload, magic=b"HTTP"), False
    if kind == "oversized-length":
        return _frame(payload, length=MAX_FRAME + 1), False
    if kind == "checksum-mismatch":
        frame = bytearray(_frame(payload))
        frame[-1] ^= 0xFF
        return bytes(frame), False
    if kind == "unpicklable-payload":
        return _frame(b"not a pickle"), False
    assert kind == "truncated"
    frame = _frame(payload)
    return frame[:_HEADER.size + len(payload) // 2], True


class _BadFrameBackend(LocalBackend):
    """A LocalBackend whose first worker writes its first outcome as a
    damaged frame of ``kind``; every later message, and every other
    worker, is passed on intact."""

    def __init__(self, factory, kind):
        super().__init__(factory)
        self.kind = kind

    def start_worker(self, shard):
        handle = super().start_worker(shard)
        if shard != 0:
            return handle
        read_fd, write_fd = os.pipe()
        threading.Thread(target=self._relay, args=(handle, write_fd),
                         daemon=True).start()
        handle.rfile = os.fdopen(read_fd, "rb", buffering=0)
        return handle

    def _relay(self, handle, write_fd):
        source = handle.rfile
        damaged = False
        with os.fdopen(write_fd, "wb", buffering=0) as out, source:
            try:
                while True:
                    message = read_message(source)
                    if damaged or message[0] != "outcome":
                        write_message(out, message)
                        continue
                    damaged = True
                    data, ends = _damaged(message, self.kind)
                    out.write(data)
                    if ends:
                        return
            except (EOFError, ReproError, OSError, ValueError):
                pass


BAD_FRAMES = ["bad-magic", "oversized-length", "checksum-mismatch",
              "unpicklable-payload"]


class TestBadFrames:
    """A frame that does not parse is a lost worker, exactly as EOF is:
    its one trial is requeued, and nothing else changes."""

    @pytest.mark.parametrize("kind", BAD_FRAMES)
    def test_a_bad_frame_loses_the_worker(self, kind, factory, serial,
                                          tmp_path):
        journal = tmp_path / "journal.jsonl"
        result = run_fabric(_BadFrameBackend(factory, kind), TRIALS,
                            shards=2, journal=str(journal),
                            capture_digest=True)
        metrics = result.metrics
        assert metrics.counter("fabric.worker_crashes").value == 1
        assert metrics.counter("fabric.trials_reassigned").value == 1
        assert_identical(result, serial)
        assert journal.read_bytes() == serial.journal_bytes

    @pytest.mark.parametrize("kind", BAD_FRAMES)
    def test_retries_zero_crashes_the_trial_naming_the_error(self, kind,
                                                             factory):
        result = run_fabric(_BadFrameBackend(factory, kind), TRIALS,
                            shards=2, retries=0)
        (crashed,) = result.crashed
        assert crashed.trial == 0
        assert "worker stream broke: ProtocolError: " in crashed.error
        assert result.counts()["ok"] == TRIALS - 1


class TestClauseValidation:
    def test_frozen(self):
        fault = SpawnFault()
        with pytest.raises(AttributeError):
            fault.fail_first = 2


class TestInjectedRunsStayIdentical:
    """Each fault class delivered for real — and the merged result still
    byte-identical to the serial reference."""

    def test_truncated_stream_reassigns(self, factory, serial):
        result = run_fabric(_BadFrameBackend(factory, "truncated"), TRIALS,
                            shards=2, capture_digest=True)
        assert result.metrics.counter("fabric.worker_crashes").value == 1
        assert_identical(result, serial)

    def test_spawn_failures_retried_with_backoff(self, factory, serial):
        backend = FaultInjectingBackend(LocalBackend(factory),
                                        SpawnFault(shard=0, fail_first=2))
        result = run_fabric(backend, TRIALS, shards=2, spawn_retries=2,
                            capture_digest=True)
        assert backend.injected.get("spawn_failures", 0) == 2
        assert result.metrics.counter("fabric.spawn_retries").value == 2
        assert_identical(result, serial)

    def test_spawn_retries_wait_a_doubling_delay(self, factory, serial,
                                                 monkeypatch):
        # 0.05 s, doubled per retry, capped at 2 s; no jitter. The
        # dispatcher's clock is swapped so the test sleeps none of it.
        from types import SimpleNamespace

        from repro.fabric import coordinator

        slept = []
        monkeypatch.setattr(coordinator, "time", SimpleNamespace(
            sleep=slept.append, monotonic=coordinator.time.monotonic))
        backend = FaultInjectingBackend(LocalBackend(factory),
                                        SpawnFault(shard=0, fail_first=7))
        result = run_fabric(backend, TRIALS, shards=1, spawn_retries=7,
                            capture_digest=True)
        assert slept == pytest.approx([0.05, 0.1, 0.2, 0.4, 0.8, 1.6, 2.0])
        assert_identical(result, serial)

    def test_killed_worker_reassigns(self, factory, serial):
        backend = FaultInjectingBackend(LocalBackend(factory),
                                        KillWorker(shard=0, after_outcomes=1))
        result = run_fabric(backend, TRIALS, shards=2, retries=2,
                            capture_digest=True)
        assert backend.injected.get("workers_killed", 0) == 1
        assert_identical(result, serial)

    def test_spawn_faults_are_real_fabric_errors(self, factory):
        backend = FaultInjectingBackend(LocalBackend(factory),
                                        SpawnFault(shard=0, fail_first=1))
        assert backend.factory_spec() is None
        with pytest.raises(FabricError, match="injected spawn failure"):
            backend.start_worker(0)
        # Budget spent: the next attempt goes through to the real backend.
        handle = backend.start_worker(0)
        try:
            assert handle.alive()
        finally:
            handle.kill()
            handle.wait()
            handle.close()
