"""JSONL artifact export/import for observability data.

One artifact file is one run: a ``meta`` line followed by one line per
instrument, each a self-describing JSON object. JSONL (rather than one
JSON document) keeps artifacts appendable, streamable, and diffable —
two runs of the same seed produce byte-identical files, so artifacts can
be committed, uploaded from CI, and compared with ``diff``.

Line kinds::

    {"kind": "meta",      "version": 1, ...caller fields...}
    {"kind": "counter",   "name": ..., "value": ...}
    {"kind": "gauge",     "name": ..., "value": ..., "time": ...}
    {"kind": "histogram", "name": ..., "summary": {...}, "values": [...]}
    {"kind": "series",    "name": ..., "points": [[t, v], ...]}
    {"kind": "waterfall", "name": ..., "entries": [{...}, ...]}
    {"kind": "capture",   "name": ..., "packets": [...], "total_seen": ...}

``capture`` lines carry :class:`~repro.net.capture.PacketCapture`
traces (see :func:`capture_to_record`), giving the previously isolated
capture tap the same export path as every other probe.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.errors import ReproError
from repro.fsutil import atomic_write_text
from repro.obs.registry import MetricsRegistry
from repro.obs.waterfall import Waterfall

__all__ = [
    "Artifact",
    "artifact_bytes",
    "capture_to_record",
    "read_artifact",
    "write_artifact",
]

#: Artifact schema version (bump on incompatible line-shape changes).
ARTIFACT_VERSION = 1


def capture_to_record(capture, name: str = "capture") -> Dict[str, object]:
    """Flatten a :class:`~repro.net.capture.PacketCapture` for export.

    Retains what the capture retained (its bounded trace) plus the
    counters that kept counting past the bound, so overflow is visible
    in the artifact: ``total_seen`` may exceed ``len(packets)``.
    """
    return {
        "kind": "capture",
        "name": name,
        "namespace": capture.namespace.name,
        "max_packets": capture.max_packets,
        "total_seen": capture.total_seen,
        "total_bytes": capture.total_bytes,
        "by_protocol": dict(sorted(capture.by_protocol.items())),
        "packets": [list(entry) for entry in capture.packets],
    }


class Artifact:
    """A loaded observability artifact (the read-side counterpart of
    :func:`write_artifact`)."""

    def __init__(self) -> None:
        self.meta: Dict[str, object] = {}
        self.counters: Dict[str, int] = {}
        self.gauges: Dict[str, Dict[str, object]] = {}
        self.histograms: Dict[str, Dict[str, object]] = {}
        self.series: Dict[str, List[List[float]]] = {}
        self.waterfalls: Dict[str, Waterfall] = {}
        self.captures: Dict[str, Dict[str, object]] = {}

    def series_points(self, name: str) -> List[List[float]]:
        """The points of one series.

        Raises:
            KeyError: with the available names, when ``name`` is absent.
        """
        try:
            return self.series[name]
        except KeyError:
            raise KeyError(
                f"no series {name!r} in artifact; available: "
                f"{', '.join(sorted(self.series)) or '(none)'}"
            ) from None

    def __repr__(self) -> str:
        return (
            f"<Artifact counters={len(self.counters)} "
            f"series={len(self.series)} waterfalls={len(self.waterfalls)} "
            f"captures={len(self.captures)}>"
        )


def artifact_bytes(
    registry: Optional[MetricsRegistry] = None,
    meta: Optional[Dict[str, object]] = None,
    captures: Optional[Dict[str, object]] = None,
) -> bytes:
    """The exact bytes :func:`write_artifact` would write.

    Split out so byte-identity checks (the determinism sanitizer's
    artifact check) compare serialisations without touching the
    filesystem — and cannot drift from the on-disk format.
    """
    lines: List[str] = []

    def emit(record: Dict[str, object]) -> None:
        lines.append(json.dumps(record, sort_keys=True, separators=(",", ":")))

    header: Dict[str, object] = {"kind": "meta", "version": ARTIFACT_VERSION}
    if meta:
        header.update(meta)
    emit(header)

    if registry is not None:
        for name, counter in sorted(registry.counters.items()):
            emit({"kind": "counter", "name": name, "value": counter.value})
        for name, gauge in sorted(registry.gauges.items()):
            emit({
                "kind": "gauge", "name": name,
                "value": gauge.value, "time": gauge.time,
            })
        for name, histogram in sorted(registry.histograms.items()):
            emit({
                "kind": "histogram", "name": name,
                "summary": histogram.summary(),
                "values": list(histogram.values),
            })
        for name, series in sorted(registry.series.items()):
            emit({
                "kind": "series", "name": name,
                "points": [[t, v] for t, v in series.points],
            })
        for name, waterfall in sorted(registry.waterfalls.items()):
            emit({
                "kind": "waterfall", "name": name,
                "entries": waterfall.to_records(),
            })

    if captures:
        for name, capture in sorted(captures.items()):
            if isinstance(capture, dict):
                record = dict(capture)
                record["kind"] = "capture"
                record["name"] = name
            else:
                record = capture_to_record(capture, name)
            emit(record)

    return ("\n".join(lines) + "\n").encode("utf-8")


def write_artifact(
    path: Union[str, Path],
    registry: Optional[MetricsRegistry] = None,
    meta: Optional[Dict[str, object]] = None,
    captures: Optional[Dict[str, object]] = None,
) -> Path:
    """Write one run's observability data as a JSONL artifact.

    Args:
        path: output file (parent directories are created).
        registry: the run's metrics registry (None writes meta/captures
            only).
        meta: extra fields for the ``meta`` line (experiment name, seed,
            scenario parameters — caller's choice; no wall-clock fields
            are added, so identical runs produce identical artifacts).
        captures: name -> :class:`~repro.net.capture.PacketCapture`
            instances (or pre-flattened records from
            :func:`capture_to_record`) to export alongside.

    Returns:
        The path written.
    """
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    # Atomic (temp + fsync + rename): a run killed mid-export leaves the
    # previous artifact intact rather than a torn JSONL that half-parses.
    atomic_write_text(
        out,
        artifact_bytes(registry, meta, captures).decode("utf-8"),
    )
    return out


def read_artifact(path: Union[str, Path]) -> Artifact:
    """Load a JSONL artifact written by :func:`write_artifact`.

    Raises:
        ReproError: naming ``path`` (and the line, where there is one)
            when the file cannot be read as UTF-8 text, or a line is not
            a JSON object, is of an unknown kind, lacks a field its kind
            needs, or carries an unsupported version.
    """
    artifact = Artifact()
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ReproError(
            f"{path}: cannot read artifact: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise ReproError(
            f"{path}: not UTF-8 text at byte {exc.start}") from None
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        where = f"{path}:{lineno}"
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ReproError(f"{where}: not valid JSON: {exc}") from exc
        if not isinstance(record, dict):
            raise ReproError(f"{where}: not a JSON object")
        kind = record.get("kind")
        try:
            _read_line(artifact, kind, record, where)
        except KeyError as exc:
            raise ReproError(f"{where}: {kind} line has no {exc} field") \
                from None
        except (TypeError, ValueError) as exc:
            raise ReproError(f"{where}: malformed {kind} line: {exc}") \
                from None
    return artifact


def _read_line(artifact: Artifact, kind, record: dict, where: str) -> None:
    if kind == "meta":
        version = record.get("version")
        if version != ARTIFACT_VERSION:
            raise ReproError(
                f"{where}: unsupported artifact version "
                f"{version!r} (expected {ARTIFACT_VERSION})"
            )
        artifact.meta = {k: v for k, v in record.items() if k != "kind"}
    elif kind == "counter":
        artifact.counters[record["name"]] = record["value"]
    elif kind == "gauge":
        artifact.gauges[record["name"]] = {
            "value": record["value"], "time": record["time"],
        }
    elif kind == "histogram":
        artifact.histograms[record["name"]] = {
            "summary": record["summary"], "values": record["values"],
        }
    elif kind == "series":
        artifact.series[record["name"]] = record["points"]
    elif kind == "waterfall":
        artifact.waterfalls[record["name"]] = Waterfall.from_records(
            record["name"], record["entries"]
        )
    elif kind == "capture":
        artifact.captures[record["name"]] = {
            k: v for k, v in record.items() if k != "kind"
        }
    else:
        raise ReproError(f"{where}: unknown artifact line kind {kind!r}")
