"""Crash-safe trial journal: checkpoint/resume for sweeps.

The paper's headline numbers come from sweeps of hundreds of independent
page loads. At that scale a killed process — OOM, preemption, a CI timeout
— must not throw away the completed trials. The journal makes every sweep
resumable: each finished trial's result is appended to a JSONL file the
moment it completes, and a restarted sweep replays the journal instead of
re-running those trials. Because trials are deterministic (DESIGN.md §6),
a journaled result *is* the result the rerun would produce — bit for bit —
so a resumed sweep merges to exactly the output of an uninterrupted run,
and the sanitizer digest enforces that equivalence.

Crash-safety model:

* **Appends are atomic enough**: one record is one line, written with a
  single ``write`` call, flushed and ``fsync``'d before :meth:`append`
  returns. A crash can truncate only the *last* line; readers detect and
  drop a partial trailing record (its newline or checksum is missing).
* **Every record self-verifies**: the payload carries a BLAKE2 checksum,
  so a flipped byte invalidates that record alone, not the journal.
* **Rewrites are atomic**: :meth:`rewrite` (compaction after a resume)
  writes a temp file, fsyncs it, and ``os.replace``s it into place — a
  crash mid-rewrite leaves the old journal intact.
* **Journals are keyed**: the header and every record name the sweep's
  *run key* (a digest of the sweep configuration — seed recipe, trial
  count, scenario identity). Resuming with a different configuration
  raises :class:`~repro.errors.JournalError` instead of silently merging
  incompatible results.
"""

from __future__ import annotations

import base64
import hashlib
import io
import json
import os
import pickle
from typing import Any, Dict, Iterable, Iterator, Optional, Tuple

from repro.errors import JournalError

__all__ = [
    "JOURNAL_VERSION",
    "TrialJournal",
    "merge_journals",
    "open_journal",
    "run_key",
]

#: Journal wire-format version (bump on incompatible record changes).
JOURNAL_VERSION = 1


def run_key(**config: Any) -> str:
    """Digest a sweep configuration into a stable run key.

    Any JSON-serialisable keyword describes the sweep (``seed=0,
    trials=100, scenario="table1-verizon"``); the key is a BLAKE2 digest
    of the sorted-key JSON, so two sweeps share a key exactly when their
    configurations are equal.
    """
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(canonical.encode("utf-8"), digest_size=8).hexdigest()


def _checksum(payload: bytes) -> str:
    return hashlib.blake2b(payload, digest_size=8).hexdigest()


def _line(record: Dict[str, Any]) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"


class TrialJournal:
    """Append-only journal of completed trial results.

    Args:
        path: the journal file. Created (with parents) on first append;
            an existing file is validated against ``key`` and its intact
            records become the resume set.
        key: the sweep's run key (see :func:`run_key`). ``None`` accepts
            any existing journal (and stamps new ones with ``"-"``).

    Raises:
        JournalError: when the existing journal's key does not match.
    """

    def __init__(self, path: Any, key: Optional[str] = None) -> None:
        self.path = os.fspath(path)
        self.key = key
        #: trial index -> (unpickled result, per-trial digest hex or None)
        self._completed: Dict[int, Tuple[Any, Optional[str]]] = {}
        self._handle: Optional[io.TextIOWrapper] = None
        self._dropped = 0
        if os.path.exists(self.path):
            self._recover()

    # ------------------------------------------------------------------ #
    # reading (resume)

    def _recover(self) -> None:
        """Load every intact record from an existing journal.

        A truncated or corrupt trailing record (the crash case) is
        dropped silently; a corrupt record *followed by intact ones*
        (bitrot, concurrent writers) is dropped and counted in
        :attr:`dropped_records` so callers can surface it.
        """
        with open(self.path, "r", encoding="utf-8", errors="replace") as fh:
            raw = fh.read()
        lines = raw.split("\n")
        # No trailing newline => the final line is a partial append.
        if lines and lines[-1] != "":
            self._dropped += 1 if lines[-1].strip() else 0
            lines = lines[:-1]
        header_seen = False
        for line in lines:
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                self._dropped += 1
                continue
            kind = record.get("kind")
            if kind == "journal":
                header_seen = True
                self._check_header(record)
            elif kind == "trial":
                self._recover_trial(record)
            else:
                self._dropped += 1
        if not header_seen and self._completed:
            raise JournalError(
                f"{self.path}: journal has trial records but no header"
            )

    def _check_header(self, record: Dict[str, Any]) -> None:
        version = record.get("version")
        if version != JOURNAL_VERSION:
            raise JournalError(
                f"{self.path}: unsupported journal version {version!r} "
                f"(expected {JOURNAL_VERSION})"
            )
        existing = record.get("run_key")
        if self.key is not None and existing not in (self.key, "-"):
            raise JournalError(
                f"{self.path}: journal belongs to a different sweep "
                f"(run key {existing!r}, expected {self.key!r}) — "
                f"refusing to merge incompatible results"
            )
        if self.key is None:
            self.key = existing

    def _recover_trial(self, record: Dict[str, Any]) -> None:
        try:
            trial = int(record["trial"])
            payload_b64 = record["payload"]
            payload = base64.b64decode(payload_b64.encode("ascii"))
            if _checksum(payload) != record["checksum"]:
                self._dropped += 1
                return
            result = pickle.loads(payload)
        except (KeyError, ValueError, TypeError, pickle.UnpicklingError,
                EOFError, AttributeError):
            self._dropped += 1
            return
        self._completed[trial] = (result, record.get("digest"))

    @property
    def completed(self) -> Dict[int, Any]:
        """trial index -> journaled result, for every intact record."""
        return {trial: result for trial, (result, __) in
                self._completed.items()}

    def digest_for(self, trial: int) -> Optional[str]:
        """The journaled per-trial event-stream digest (hex), if any."""
        entry = self._completed.get(trial)
        return entry[1] if entry is not None else None

    @property
    def dropped_records(self) -> int:
        """Records dropped during recovery (truncated or corrupt)."""
        return self._dropped

    def __contains__(self, trial: int) -> bool:
        return trial in self._completed

    def __len__(self) -> int:
        return len(self._completed)

    def __iter__(self) -> Iterator[int]:
        return iter(sorted(self._completed))

    # ------------------------------------------------------------------ #
    # writing (checkpoint)

    def _open(self) -> io.TextIOWrapper:
        if self._handle is None:
            parent = os.path.dirname(self.path)
            if parent:
                os.makedirs(parent, exist_ok=True)
            fresh = not os.path.exists(self.path)
            self._handle = open(self.path, "a", encoding="utf-8")
            if fresh or os.path.getsize(self.path) == 0:
                self._emit(self._header())
        return self._handle

    def _header(self) -> str:
        return _line({
            "kind": "journal",
            "version": JOURNAL_VERSION,
            "run_key": self.key if self.key is not None else "-",
        })

    def _record(self, trial: int, result: Any, digest: Optional[str]) -> str:
        """One trial's journal line — the same bytes whether appended as
        the trial lands or written by :meth:`rewrite`."""
        payload = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
        return _line({
            "kind": "trial",
            "run_key": self.key if self.key is not None else "-",
            "trial": trial,
            "digest": digest,
            "checksum": _checksum(payload),
            "payload": base64.b64encode(payload).decode("ascii"),
        })

    def _emit(self, line: str) -> None:
        assert self._handle is not None
        self._handle.write(line)
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def append(self, trial: int, result: Any,
               digest: Optional[str] = None) -> None:
        """Checkpoint one completed trial (flushed and fsync'd).

        Args:
            trial: the trial index (the journal key within the sweep).
            result: the trial's picklable result object.
            digest: the trial's event-stream digest hex, when captured —
                journaled so a resumed sweep can prove byte-equivalence.
        """
        line = self._record(trial, result, digest)
        self._open()
        self._emit(line)
        self._completed[trial] = (result, digest)

    def rewrite(self) -> None:
        """Compact the journal: keep one intact record per trial.

        Written via temp file + fsync + ``os.replace`` so a crash
        mid-rewrite cannot lose the journal. Drops duplicate appends
        (a trial journaled by both a killed run and its resume) and any
        corrupt records recovery skipped.
        """
        self.close()
        tmp = self.path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(self._header())
            for trial in sorted(self._completed):
                fh.write(self._record(trial, *self._completed[trial]))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, self.path)
        self._dropped = 0

    def close(self) -> None:
        """Close the append handle (reopened automatically on append)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "TrialJournal":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"<TrialJournal {self.path!r} completed={len(self._completed)} "
            f"dropped={self._dropped}>"
        )


def open_journal(journal: Any, key: Optional[str] = None
                 ) -> Optional[TrialJournal]:
    """The journal a caller's ``journal=`` argument names: a
    :class:`TrialJournal` (or None) is returned as it is, a path is
    opened — recovered, and stamped or checked against ``key``."""
    if journal is None or isinstance(journal, TrialJournal):
        return journal
    return TrialJournal(journal, key=key)


def merge_journals(target: TrialJournal, sources: Iterable[Any]) -> int:
    """Fold other journals' completed trials into ``target``.

    The fabric's shard journals are partial views of one sweep: each
    worker checkpoints the trials *it* ran. Merging replays every source
    record absent from the target (first source wins on a duplicate —
    determinism makes duplicates identical anyway, and ``target``'s own
    records always take precedence). Every source is key-checked against
    the target, so shards of a *different* sweep raise
    :class:`~repro.errors.JournalError` instead of polluting the merge.

    Args:
        target: the journal records are merged into (appended + fsync'd).
        sources: journal paths (missing ones are skipped — a shard that
            never completed a trial has no sidecar to merge).

    Returns:
        The number of trial records copied into ``target``.
    """
    merged = 0
    for source in sources:
        path = os.fspath(source)
        if not os.path.exists(path):
            continue
        other = open_journal(path, key=target.key)
        for trial in other:
            if trial in target:
                continue
            result, digest = other._completed[trial]
            target.append(trial, result, digest=digest)
            merged += 1
    return merged
