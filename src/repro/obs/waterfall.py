"""Per-load resource waterfalls (HAR-adjacent phase timelines).

The browser engine keeps one :class:`ResourceTiming` per fetched
resource on every load, its only per-resource record (a registry, when
installed, holds the load's :class:`Waterfall` for export): when it was
discovered, when its request was handed to a connection, and how long
each phase took — DNS resolution, TCP connect, TLS handshake, waiting to
send, time to first byte, download, and post-download compute (parse).
Phase conventions follow HAR: DNS is charged to the resource that
triggered the lookup, connect and TLS to the resource the connection
was opened for; a resource reusing a warm connection shows ``-1.0``
(not applicable) there. The phases tile a finished entry's span, on
``http/1.1`` and ``mux`` alike.

All times are virtual seconds. Entries are mutable while a load is in
flight (the engine fills phases in as they complete) and plain data
afterwards, so waterfalls pickle across trial processes and serialise
into the JSONL artifact unchanged.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, List, Optional

__all__ = ["ResourceTiming", "Waterfall"]


@dataclass
class ResourceTiming:
    """Phase timeline of one resource fetch (virtual seconds).

    ``discovered`` and ``finished`` are absolute virtual times; the
    phase fields are durations. ``-1.0`` in a duration means "not
    applicable / never happened" (e.g. TLS on a plain connection, or a
    fetch that failed before reaching that phase).
    """

    url: str
    kind: str
    discovered: float
    issued: float = -1.0
    dns: float = -1.0
    connect: float = -1.0
    tls: float = -1.0
    send_wait: float = -1.0
    ttfb: float = -1.0
    download: float = -1.0
    compute: float = -1.0
    finished: float = -1.0
    size: int = 0
    failed: bool = False
    error: str = ""

    def to_record(self) -> Dict[str, object]:
        """Plain-dict form for JSONL export."""
        return asdict(self)

    @classmethod
    def from_record(cls, record: Dict[str, object]) -> "ResourceTiming":
        """Inverse of :meth:`to_record`."""
        return cls(**record)  # type: ignore[arg-type]

    @property
    def total(self) -> Optional[float]:
        """Discovery-to-finish wall span, if the fetch finished."""
        if self.finished < 0.0:
            return None
        return self.finished - self.discovered


class Waterfall:
    """All resource timelines of one page load, in discovery order."""

    __slots__ = ("name", "entries")

    def __init__(self, name: str) -> None:
        self.name = name
        self.entries: List[ResourceTiming] = []

    def start(self, url: str, kind: str, discovered: float) -> ResourceTiming:
        """Open a new entry (the engine fills the phases in later)."""
        entry = ResourceTiming(url=url, kind=kind, discovered=discovered)
        self.entries.append(entry)
        return entry

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def to_records(self) -> List[Dict[str, object]]:
        """Plain-data form for snapshots and JSONL export."""
        return [entry.to_record() for entry in self.entries]

    @classmethod
    def from_records(
        cls, name: str, records: List[Dict[str, object]]
    ) -> "Waterfall":
        """Rebuild a waterfall from exported records."""
        waterfall = cls(name)
        waterfall.entries = [
            ResourceTiming.from_record(record) for record in records
        ]
        return waterfall

    def __repr__(self) -> str:
        return f"<Waterfall {self.name} resources={len(self.entries)}>"
