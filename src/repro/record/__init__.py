"""Recording and replaying HTTP traffic (Mahimahi's stored-site format).

* :class:`~repro.record.entry.RequestResponsePair` — one recorded exchange
  with its origin (scheme, IP, port), mirroring Mahimahi's one-file-per-pair
  protobufs (here: one JSON file per pair).
* :class:`~repro.record.store.RecordedSite` — a recorded folder: load,
  save, and query origins/hostnames; :func:`~repro.record.store.read_site`
  is the one verifying walk behind every reader of such a folder.
* :class:`~repro.record.matcher.RequestMatcher` — the replay-side matching
  algorithm (exact URI, else longest common query prefix on the same
  host+path), re-implemented from Mahimahi's CGI replay server semantics.
* :class:`~repro.record.proxy.RecordingProxy` — the transparent
  man-in-the-middle proxy at the heart of RecordShell, plus the
  iptables-REDIRECT-equivalent :class:`~repro.record.proxy.Redirector`.
"""

from repro.record.cas import CasStore, body_checksum, missing_blobs
from repro.record.entry import RequestResponsePair
from repro.record.har import save_har, to_har
from repro.record.matcher import MatchResult, RequestMatcher
from repro.record.proxy import RecordingProxy, Redirector
from repro.record.store import RecordedSite, read_site, site_cas

__all__ = [
    "CasStore",
    "MatchResult",
    "RecordedSite",
    "RecordingProxy",
    "Redirector",
    "RequestMatcher",
    "RequestResponsePair",
    "body_checksum",
    "missing_blobs",
    "read_site",
    "save_har",
    "site_cas",
    "to_har",
]
