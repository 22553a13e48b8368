"""Tests for the crash-safe trial journal (checkpoint/resume)."""

import json

import pytest

from repro.errors import JournalError
from repro.measure.journal import JOURNAL_VERSION, TrialJournal, run_key


class TestRunKey:
    def test_stable_across_keyword_order(self):
        assert run_key(seed=1, trials=10) == run_key(trials=10, seed=1)

    def test_differs_on_any_field(self):
        base = run_key(seed=1, trials=10)
        assert run_key(seed=2, trials=10) != base
        assert run_key(seed=1, trials=11) != base


class TestAppendRecover:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with TrialJournal(path, key="k1") as journal:
            journal.append(0, {"plt": 1.5}, digest="aa")
            journal.append(2, {"plt": 2.5})
        recovered = TrialJournal(path, key="k1")
        assert recovered.completed == {0: {"plt": 1.5}, 2: {"plt": 2.5}}
        assert recovered.digest_for(0) == "aa"
        assert recovered.digest_for(2) is None
        assert 1 not in recovered
        assert len(recovered) == 2
        assert list(recovered) == [0, 2]
        assert recovered.dropped_records == 0

    def test_missing_file_is_empty(self, tmp_path):
        journal = TrialJournal(tmp_path / "absent.jsonl")
        assert len(journal) == 0

    def test_append_is_durable_line_per_record(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = TrialJournal(path, key="k")
        journal.append(0, 123)
        # Durable before close: another reader sees the record already.
        assert TrialJournal(path, key="k").completed == {0: 123}
        journal.close()
        lines = path.read_text().splitlines()
        assert json.loads(lines[0])["kind"] == "journal"
        assert json.loads(lines[0])["version"] == JOURNAL_VERSION
        assert json.loads(lines[1])["trial"] == 0


class TestCrashTolerance:
    def _journal_with(self, tmp_path, records=3):
        path = tmp_path / "j.jsonl"
        with TrialJournal(path, key="k") as journal:
            for trial in range(records):
                journal.append(trial, {"value": trial})
        return path

    def test_truncated_trailing_line_dropped(self, tmp_path):
        path = self._journal_with(tmp_path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-15])  # cut into the last record
        recovered = TrialJournal(path, key="k")
        assert sorted(recovered.completed) == [0, 1]

    def test_corrupt_middle_record_dropped_and_counted(self, tmp_path):
        path = self._journal_with(tmp_path)
        lines = path.read_text().splitlines()
        record = json.loads(lines[2])
        record["payload"] = record["payload"][:-4] + "AAAA"  # flip bytes
        lines[2] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n")
        recovered = TrialJournal(path, key="k")
        assert sorted(recovered.completed) == [0, 2]
        assert recovered.dropped_records == 1

    def test_garbage_line_dropped(self, tmp_path):
        path = self._journal_with(tmp_path, records=2)
        with open(path, "a") as fh:
            fh.write("!!! not json !!!\n")
        recovered = TrialJournal(path, key="k")
        assert sorted(recovered.completed) == [0, 1]
        assert recovered.dropped_records == 1

    def test_rewrite_compacts(self, tmp_path):
        path = self._journal_with(tmp_path)
        journal = TrialJournal(path, key="k")
        journal.append(0, {"value": 0})  # duplicate append (resume case)
        journal.rewrite()
        lines = path.read_text().splitlines()
        assert len(lines) == 1 + 3  # header + one line per trial
        assert TrialJournal(path, key="k").completed == {
            0: {"value": 0}, 1: {"value": 1}, 2: {"value": 2},
        }


class TestRunKeyEnforcement:
    def test_mismatched_key_refused(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with TrialJournal(path, key="key-a") as journal:
            journal.append(0, 1)
        with pytest.raises(JournalError, match="different sweep"):
            TrialJournal(path, key="key-b")

    def test_none_key_accepts_and_adopts(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with TrialJournal(path, key="key-a") as journal:
            journal.append(0, 1)
        adopted = TrialJournal(path)
        assert adopted.key == "key-a"

    def test_unsupported_version_refused(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text(json.dumps(
            {"kind": "journal", "version": 99, "run_key": "-"}) + "\n")
        with pytest.raises(JournalError, match="version"):
            TrialJournal(path)

    def test_version_1_journal_refused(self, tmp_path):
        # A version-1 record pickles a result that carries its whole
        # PageModel and no ``name``; resuming from one would merge
        # results of another shape, so the header alone refuses it.
        path = tmp_path / "j.jsonl"
        with TrialJournal(path, key="k") as journal:
            journal.append(0, {"plt": 1.5}, digest="aa")
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        assert header["version"] == JOURNAL_VERSION == 2
        header["version"] = 1
        path.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
        with pytest.raises(JournalError, match=r"version 1 \(expected 2\)"):
            TrialJournal(path, key="k")

    def test_headerless_trials_refused(self, tmp_path):
        path = tmp_path / "j.jsonl"
        donor = tmp_path / "donor.jsonl"
        with TrialJournal(donor, key="k") as journal:
            journal.append(0, 1)
        trial_line = donor.read_text().splitlines()[1]
        path.write_text(trial_line + "\n")
        with pytest.raises(JournalError, match="no header"):
            TrialJournal(path)
