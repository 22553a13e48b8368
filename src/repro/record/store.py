"""Recorded-site bundles: one on-disk format, one reader.

A recorded site is a directory — the JSON analogue of Mahimahi's
recorded folders of protobuf files::

    <site>/
      site.json          # the manifest, committed last
      pair-00000.json    # one file per request-response exchange
      ...
      .cas/              # bodies, content-addressed (or a shared store
                         # elsewhere; the manifest's "cas" key says where)

``site.json`` (``format_version`` 3) names the site, the CAS directory
(relative to the folder) and, per pair file, its size and a BLAKE2
checksum over its bytes. Pair files carry ``{"length", "cas"}`` body
references; the bytes live once in the content-addressed store
(:mod:`repro.record.cas`), however many pairs or sites repeat them.
:meth:`RecordedSite.save` is the only writer: every file goes through
temp + fsync + ``os.replace``, blobs before the pairs that reference
them and the manifest last, so a crash mid-save never leaves a folder
that later loads as valid-but-wrong.

:func:`read_site` is the only reader — one walk of the folder that
verifies everything the manifest vouches for and describes whatever
fails in one vocabulary (:data:`STRICT_ERRORS`). Strict
:meth:`RecordedSite.load` raises on the first problem,
:meth:`RecordedSite.load_tolerant` and ``mm-fsck``
(:mod:`repro.record.fsck`) collect them, ``mm-fabric ship``
(:mod:`repro.fabric.sync`) takes its file list and blob references from
it. The walk resolves a body reference wherever it meets one and accepts
an inline body wherever it meets one, so a flat folder from before the
CAS (``format_version`` 2, no ``"cas"`` key, base64 bodies) is the same
walk with no resolver attached; re-saving it upgrades it. Version 1
folders had no manifest to verify against and are refused.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from dataclasses import dataclass, field
from typing import Any, Dict, List, NamedTuple, Optional, Set, Tuple

from repro.errors import (
    BlobCorruptError,
    BlobMissingError,
    StoreFormatError,
    StoreIntegrityError,
)
from repro.fsutil import atomic_write_bytes, fsync_dir as _fsync_dir
from repro.net.address import IPv4Address
from repro.record.cas import CAS_DIR_NAME, CasStore
from repro.record.entry import RequestResponsePair

_SITE_FILE = "site.json"
_PAIR_PREFIX = "pair-"
_QUARANTINE_DIR = "quarantine"
_FORMAT_VERSION = 3
#: What :func:`read_manifest` accepts: the format, and its flat ancestor.
_READABLE_VERSIONS = (_FORMAT_VERSION, 2)
#: The only pair-file names a manifest may vouch for: bare, so an entry
#: can never point the reader, the shipper or the repair outside the folder.
_PAIR_NAME = re.compile(r"pair-[0-9]+\.json")

#: The damage vocabulary: every kind :func:`read_site` reports, and the
#: error a strict load raises for it.
#:
#: * ``missing`` — the manifest names a pair file that is not there;
#: * ``unreadable`` — the file is there but its bytes cannot be had (a
#:   directory in its place, no permission);
#: * ``truncated`` / ``corrupt`` — the file's size / checksum differs
#:   from the manifest's;
#: * ``malformed`` — bytes the manifest vouches for are not a pair (bad
#:   JSON, bad fields), or a manifest entry is not ``{"file": a bare
#:   pair-<digits>.json name, "size", "checksum"}`` (reported against
#:   ``site.json``);
#: * ``dangling`` / ``corrupt-blob`` — a body references a blob the CAS
#:   does not hold / that no longer hashes to its address;
#: * ``orphan`` — a ``pair-*`` file on disk the manifest does not name.
STRICT_ERRORS = {
    "missing": StoreFormatError,
    "unreadable": StoreIntegrityError,
    "truncated": StoreIntegrityError,
    "corrupt": StoreIntegrityError,
    "malformed": StoreFormatError,
    "dangling": BlobMissingError,
    "corrupt-blob": BlobCorruptError,
    "orphan": StoreFormatError,
}


def pair_checksum(data: bytes) -> str:
    """BLAKE2 checksum (hex) of a pair file's bytes."""
    return hashlib.blake2b(data, digest_size=16).hexdigest()


def pair_filename(index: int) -> str:
    """The canonical pair file name for recording index ``index``."""
    return f"{_PAIR_PREFIX}{index:05d}.json"


def read_manifest(directory: Any) -> Dict[str, Any]:
    """Read and validate a site folder's ``site.json``.

    Returns the metadata dict: a readable format version (the only place
    one is compared) and a ``pairs`` list.

    Raises:
        StoreFormatError: missing or unreadable folder/file, corrupt
            JSON, no manifest list, or an unreadable format version —
            always naming the offending path.
    """
    site_path = os.path.join(os.fspath(directory), _SITE_FILE)
    try:
        with open(site_path, "r", encoding="utf-8") as handle:
            metadata = json.load(handle)
    except FileNotFoundError:
        raise StoreFormatError(f"not a recorded site: {directory}") from None
    except OSError as exc:
        raise StoreFormatError(
            f"unreadable {_SITE_FILE}: {site_path}: {exc}"
        ) from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise StoreFormatError(
            f"corrupt {_SITE_FILE}: {site_path}: {exc}"
        ) from exc
    if not isinstance(metadata, dict):
        raise StoreFormatError(
            f"corrupt {_SITE_FILE}: {site_path}: not a JSON object"
        )
    version = metadata.get("format_version")
    if version not in _READABLE_VERSIONS:
        raise StoreFormatError(
            f"unsupported format version {version!r} in {site_path}"
        )
    if not isinstance(metadata.get("pairs"), list):
        raise StoreFormatError(
            f"{site_path}: requires a 'pairs' manifest list"
        )
    return metadata


def write_manifest(directory: str, metadata: Dict[str, Any]) -> None:
    """Atomically commit ``metadata`` as a folder's ``site.json``."""
    atomic_write_bytes(
        os.path.join(directory, _SITE_FILE),
        json.dumps(metadata, indent=2, sort_keys=True).encode("utf-8"),
    )


def site_cas(directory: Any, metadata: Optional[Dict[str, Any]] = None) -> CasStore:
    """The CAS store a site folder references.

    Args:
        directory: the site folder.
        metadata: its already-read manifest (read here when omitted).

    Raises:
        StoreFormatError: the manifest names no CAS directory.
    """
    directory = os.fspath(directory)
    if metadata is None:
        metadata = read_manifest(directory)
    cas_rel = metadata.get("cas")
    if not isinstance(cas_rel, str) or not cas_rel:
        raise StoreFormatError(
            f"{os.path.join(directory, _SITE_FILE)}: no 'cas' directory "
            f"reference"
        )
    return CasStore(os.path.normpath(os.path.join(directory, cas_rel)))


class StoreProblem(NamedTuple):
    """One integrity problem found in a site folder or a CAS."""

    file: str  #: "site.json" or a pair file name (site), a blob address (cas)
    kind: str  #: a :data:`STRICT_ERRORS` key, or "fatal" (unusable site.json)
    detail: str  #: human-readable specifics, naming the offending path


@dataclass
class StoreDamage:
    """What one pass over a site folder (or a CAS) found, and — after
    ``mm-fsck --repair`` — what was done about it."""

    directory: str
    kind: str = "site"  #: "site" or "cas"
    format_version: Optional[int] = None
    pairs_ok: int = 0  #: valid pair files (site) / intact blobs (cas)
    problems: List[StoreProblem] = field(default_factory=list)
    quarantined: List[str] = field(default_factory=list)
    repaired: bool = False

    @property
    def clean(self) -> bool:
        """True when the folder was fully intact."""
        return not self.problems

    @property
    def fatal(self) -> bool:
        """True when the folder cannot be repaired (site.json unusable)."""
        return any(p.kind == "fatal" for p in self.problems)

    def add(self, file: str, kind: str, detail: str) -> None:
        self.problems.append(StoreProblem(file, kind, detail))

    def __len__(self) -> int:
        return len(self.problems)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "directory": str(self.directory),
            "kind": self.kind,
            "format_version": self.format_version,
            "pairs_ok": self.pairs_ok,
            "clean": self.clean,
            "repaired": self.repaired,
            "quarantined": list(self.quarantined),
            "problems": [p._asdict() for p in self.problems],
        }


class SitePair(NamedTuple):
    """One pair :func:`read_site` verified."""

    entry: Dict[str, Any]  #: its manifest entry, as read
    pair: RequestResponsePair
    refs: List[str]  #: the CAS addresses its bodies reference


def read_site(
    directory: Any, strict: bool = False
) -> Tuple[Dict[str, Any], List[SitePair], StoreDamage]:
    """Walk a site folder once, verifying everything its manifest names.

    Per manifest entry: the name is confined to the folder, the file is
    read, its size and checksum compared with the manifest's, its JSON
    parsed and the pair built with body references resolved through the
    manifest's CAS (no ``"cas"`` key, no resolver: bodies must be
    inline). Then the folder is scanned for pair files the manifest does
    not name. Each entry ends up in the returned pairs or as one
    :class:`StoreProblem` in the returned damage.

    Args:
        strict: raise the :data:`STRICT_ERRORS` class of the first
            problem (its detail as the message) instead of collecting.

    Raises:
        StoreFormatError: ``site.json`` itself is unusable — nothing can
            be verified against it, strict or not.
    """
    directory = os.fspath(directory)
    metadata = read_manifest(directory)
    damage = StoreDamage(directory, format_version=metadata["format_version"])
    get = site_cas(directory, metadata).get if "cas" in metadata else None
    refs: List[str] = []  # every address resolved so far, in walk order

    def resolve(ref: str) -> bytes:
        refs.append(ref)
        return get(ref)

    resolver = resolve if get is not None else None

    def problem(file: str, kind: str, detail: str) -> None:
        if strict:
            raise STRICT_ERRORS[kind](detail)
        damage.add(file, kind, detail)

    pairs: List[SitePair] = []
    named: Set[str] = set()
    for entry in metadata["pairs"]:
        try:
            filename = entry["file"]
            size, checksum = int(entry["size"]), str(entry["checksum"])
            if not (isinstance(filename, str) and _PAIR_NAME.fullmatch(filename)):
                raise ValueError("'file' is not a bare pair-<digits>.json name")
            if filename in named:
                raise ValueError("'file' is already named by an earlier entry")
        except (TypeError, KeyError, ValueError) as exc:
            problem(_SITE_FILE, "malformed",
                    f"{os.path.join(directory, _SITE_FILE)}: malformed "
                    f"manifest entry {entry!r}: {exc}")
            continue
        named.add(filename)
        path = os.path.join(directory, filename)
        try:
            with open(path, "rb") as handle:
                raw = handle.read()
        except FileNotFoundError:
            problem(filename, "missing", f"missing pair file: {path}")
            continue
        except OSError as exc:
            problem(filename, "unreadable",
                    f"unreadable pair file {path}: {exc}")
            continue
        if len(raw) != size:
            problem(filename, "truncated",
                    f"truncated pair file {path}: {len(raw)} bytes, "
                    f"manifest says {size}")
            continue
        if pair_checksum(raw) != checksum:
            problem(filename, "corrupt",
                    f"checksum mismatch in pair file {path}")
            continue
        resolved = len(refs)
        try:
            pair = RequestResponsePair.from_dict(
                json.loads(raw.decode("utf-8")), body_resolver=resolver)
        except BlobMissingError as exc:
            problem(filename, "dangling", f"pair file {path}: {exc}")
        except BlobCorruptError as exc:
            problem(filename, "corrupt-blob", f"pair file {path}: {exc}")
        except (StoreFormatError, ValueError) as exc:  # ValueError: bad JSON
            problem(filename, "malformed", f"malformed pair file {path}: {exc}")
        else:
            pairs.append(SitePair(entry, pair, refs[resolved:]))
    # Orphans: pair files on disk the manifest does not vouch for.
    for filename in sorted(os.listdir(directory)):
        if (filename.startswith(_PAIR_PREFIX)
                and not filename.endswith(".tmp")
                and filename not in named):
            problem(filename, "orphan",
                    f"orphan pair file not in the manifest: "
                    f"{os.path.join(directory, filename)}")
    damage.pairs_ok = len(pairs)
    return metadata, pairs, damage


class RecordedSite:
    """An in-memory recorded site, loadable from / savable to a folder.

    Args:
        name: site label (e.g. "www.example.com").
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._pairs: List[RequestResponsePair] = []
        #: Damage report when this site came from :meth:`load_tolerant`
        #: of a damaged folder (None for intact/in-memory sites).
        self.damage: Optional[StoreDamage] = None

    # ------------------------------------------------------------------ #
    # content

    def add_pair(self, pair: RequestResponsePair) -> None:
        """Append one recorded exchange."""
        self._pairs.append(pair)

    @property
    def pairs(self) -> List[RequestResponsePair]:
        """All recorded exchanges, in recording order (copy)."""
        return list(self._pairs)

    def __len__(self) -> int:
        return len(self._pairs)

    def origins(self) -> Set[Tuple[IPv4Address, int]]:
        """Distinct (IP, port) pairs seen while recording — the servers
        ReplayShell must spawn."""
        return {(p.origin_ip, p.origin_port) for p in self._pairs}

    def hostnames(self) -> Dict[str, IPv4Address]:
        """hostname → recorded IP (first recorded wins, like a DNS pin)."""
        mapping: Dict[str, IPv4Address] = {}
        for pair in self._pairs:
            host = pair.host
            if host is not None and host not in mapping:
                mapping[host] = pair.origin_ip
        return mapping

    def total_response_bytes(self) -> int:
        """Sum of response body lengths (site weight)."""
        return sum(p.response.body.length for p in self._pairs)

    def pairs_for_origin(
        self, ip: IPv4Address, port: int
    ) -> List[RequestResponsePair]:
        """Exchanges served by one origin (note: Mahimahi gives every
        replay server the whole store; this is for tooling/tests)."""
        return [
            p for p in self._pairs
            if p.origin_ip == ip and p.origin_port == port
        ]

    # ------------------------------------------------------------------ #
    # persistence

    def save(self, directory, cas: Optional[CasStore] = None) -> None:
        """Write the site folder atomically.

        Every pair file and the manifest go through temp + fsync +
        ``os.replace``. Bodies land in the CAS *before* the pair files
        that reference them and the manifest is committed *last*, so a
        crash at any point leaves either no loadable site (no/old
        ``site.json``) or a complete one — nothing loadable ever
        references a blob that was not yet durable.

        Args:
            cas: the :class:`~repro.record.cas.CasStore` to share bodies
                through (a corpus passes one store for all its sites);
                defaults to the folder's own ``.cas``, which keeps a
                lone recording self-contained.
        """
        directory = os.fspath(directory)
        os.makedirs(directory, exist_ok=True)
        if cas is None:
            cas = CasStore(os.path.join(directory, CAS_DIR_NAME))
        manifest_pairs: List[Dict[str, Any]] = []
        for index, pair in enumerate(self._pairs):
            filename = pair_filename(index)
            data = pair.to_cas_bytes(cas.put)
            atomic_write_bytes(os.path.join(directory, filename), data)
            manifest_pairs.append({
                "file": filename,
                "size": len(data),
                "checksum": pair_checksum(data),
            })
        write_manifest(directory, {
            "format_version": _FORMAT_VERSION,
            "name": self.name,
            "pair_count": len(self._pairs),
            "pairs": manifest_pairs,
            "cas": os.path.relpath(cas.root, directory),
        })
        _fsync_dir(directory)

    @classmethod
    def load(cls, directory) -> "RecordedSite":
        """Read a site folder, verifying it completely (strict).

        Raises:
            StoreFormatError: missing/malformed folder, a missing or
                orphan pair file, or a pair that fails to parse — the
                message names the offending path.
            StoreIntegrityError: a pair file whose size or checksum does
                not match the manifest (truncation, bitrot), or (its
                subclasses) a dangling or corrupt body blob.
        """
        return cls._load(directory, strict=True)[0]

    @classmethod
    def load_tolerant(cls, directory) -> Tuple["RecordedSite", StoreDamage]:
        """Read a site folder, salvaging every valid pair.

        The graceful-degradation path ReplayShell uses on damaged
        folders: damaged pairs are skipped and reported in the returned
        :class:`StoreDamage` (also stashed on ``site.damage``) instead
        of raising. Only an unreadable/unsupported ``site.json`` — where
        nothing can be salvaged — still raises.

        Raises:
            StoreFormatError: when ``site.json`` itself is unusable.
        """
        return cls._load(directory, strict=False)

    @classmethod
    def _load(cls, directory, strict: bool) -> Tuple["RecordedSite", StoreDamage]:
        directory = os.fspath(directory)
        metadata, pairs, damage = read_site(directory, strict)
        site = cls(str(metadata.get("name", os.path.basename(directory))))
        site._pairs = [item.pair for item in pairs]
        site.damage = None if damage.clean else damage
        return site, damage

    def __repr__(self) -> str:
        return (
            f"<RecordedSite {self.name!r} pairs={len(self._pairs)} "
            f"origins={len(self.origins())}>"
        )
