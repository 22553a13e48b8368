"""Tests for FactorySpec resolution and the in-process worker shard."""

import threading
from functools import partial

import pytest

from repro.errors import FabricError
from repro.fabric.protocol import PROTOCOL_VERSION, read_message, write_message
from repro.scenarios import replay_smoke
from repro.fabric.worker import FactorySpec, run_shard, worker_loop
from repro.measure.journal import TrialJournal
from repro.measure.runner import run_trial
from repro.measure.supervise import run_supervised

KW = {"name": "fabtest.example", "seed": 7, "n_origins": 2, "scale": 0.3}
SPEC = "repro.scenarios:replay_smoke"


@pytest.fixture(scope="module")
def factory():
    return replay_smoke(**KW)


class TestFactorySpec:
    def test_resolves_builder(self):
        factory = FactorySpec(SPEC, KW).resolve()
        assert callable(factory)

    def test_malformed_spec(self):
        with pytest.raises(FabricError, match="malformed factory spec"):
            FactorySpec("no.separator.here").resolve()
        with pytest.raises(FabricError, match="malformed factory spec"):
            FactorySpec(":attr_only").resolve()
        with pytest.raises(FabricError, match="malformed factory spec"):
            FactorySpec("module.only:").resolve()

    def test_missing_module(self):
        with pytest.raises(FabricError, match="cannot resolve"):
            FactorySpec("repro.no_such_module:thing").resolve()

    def test_missing_attribute(self):
        with pytest.raises(FabricError, match="cannot resolve"):
            FactorySpec("repro.scenarios:no_such_builder").resolve()

    def test_non_callable_factory(self):
        # os:getcwd is a fine builder but returns a string, not a factory.
        with pytest.raises(FabricError, match="non-callable"):
            FactorySpec("os:getcwd").resolve()

    def test_frozen(self):
        spec = FactorySpec(SPEC, KW)
        with pytest.raises(AttributeError):
            spec.spec = "other:thing"


class TestRunShard:
    def test_outcomes_match_serial_supervised(self, factory):
        serial = run_supervised(factory, 4, workers=1, capture_digest=True)
        sharded = list(run_shard(
            partial(run_trial, factory, capture_digest=True), range(4)))
        assert [o.trial for o in sharded] == [0, 1, 2, 3]
        for ours, theirs in zip(sharded, serial.outcomes):
            assert ours.status == theirs.status == "ok"
            assert ours.digest == theirs.digest
            assert (ours.result.page_load_time
                    == theirs.result.page_load_time)

    def test_respects_index_order_given(self, factory):
        outcomes = list(run_shard(partial(run_trial, factory), [3, 1]))
        assert [o.trial for o in outcomes] == [3, 1]

    def test_journal_checkpoints_successes(self, factory, tmp_path):
        journal = TrialJournal(tmp_path / "shard.jsonl")
        list(run_shard(partial(run_trial, factory), [0, 1],
                       journal=journal))
        journal.close()
        recovered = TrialJournal(tmp_path / "shard.jsonl")
        assert sorted(recovered.completed) == [0, 1]


class _Duplex:
    """An in-memory stream pair: what one side writes, the other reads."""

    def __init__(self):
        self._buffer = b""
        self._closed = False
        self._lock = threading.Condition()

    def write(self, data):
        with self._lock:
            self._buffer += data
            self._lock.notify_all()
        return len(data)

    def flush(self):
        pass

    def close(self):
        with self._lock:
            self._closed = True
            self._lock.notify_all()

    def read(self, n):
        with self._lock:
            while not self._buffer and not self._closed:
                self._lock.wait()
            chunk, self._buffer = self._buffer[:n], self._buffer[n:]
            return chunk


class TestWorkerLoop:
    def _converse(self, factory=None, config_extra=None, indices=(0, 1)):
        """Drive one full worker conversation over in-memory streams."""
        to_worker, from_worker = _Duplex(), _Duplex()
        status = {}

        def body():
            status["exit"] = worker_loop(to_worker, from_worker,
                                         factory=factory)

        thread = threading.Thread(target=body, daemon=True)
        thread.start()
        kind, hello = read_message(from_worker)
        assert kind == "hello"
        assert hello["protocol"] == PROTOCOL_VERSION
        config = {"protocol": PROTOCOL_VERSION, "timeout": 600.0}
        config.update(config_extra or {})
        write_message(to_worker, ("config", config))
        write_message(to_worker, ("run", list(indices)))
        messages = []
        while True:
            kind, data = read_message(from_worker)
            messages.append((kind, data))
            if kind in ("done", "error"):
                break
        if kind == "done":  # v2 batch loop: the worker waits for more work
            write_message(to_worker, ("shutdown", None))
        thread.join(timeout=60)
        return status["exit"], messages

    def test_streams_outcomes_then_done(self, factory):
        exit_status, messages = self._converse(factory=factory)
        assert exit_status == 0
        kinds = [kind for kind, __ in messages]
        assert kinds == ["outcome", "outcome", "done"]
        assert messages[-1][1] == {"trials": 2, "batch": 0}
        assert [m[1].trial for m in messages[:-1]] == [0, 1]

    def test_spawn_config_carries_factory_spec(self):
        exit_status, messages = self._converse(
            factory=None,
            config_extra={"factory": (SPEC, KW)},
            indices=(0,),
        )
        assert exit_status == 0
        assert messages[-1] == ("done", {"trials": 1, "batch": 0})

    def test_spawned_worker_without_spec_errors(self):
        exit_status, messages = self._converse(factory=None, indices=(0,))
        assert exit_status == 1
        assert messages[-1][0] == "error"
        assert "no factory spec" in messages[-1][1]

    def test_protocol_mismatch_errors(self, factory):
        exit_status, messages = self._converse(
            factory=factory,
            config_extra={"protocol": PROTOCOL_VERSION + 1},
        )
        assert exit_status == 1
        assert messages[-1][0] == "error"
        assert "protocol" in messages[-1][1]

    def test_coordinator_hangup_is_quiet(self, factory):
        to_worker, from_worker = _Duplex(), _Duplex()
        to_worker.close()  # coordinator vanished before config
        exits = {}

        def body():
            exits["status"] = worker_loop(to_worker, from_worker,
                                          factory=factory)

        thread = threading.Thread(target=body, daemon=True)
        thread.start()
        thread.join(timeout=60)
        assert exits["status"] == 1
