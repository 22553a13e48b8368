"""Content-addressed body store (the CAS every recorded site keeps its
bodies in).

Motivation (the Web Execution Bundles argument, PAPERS.md): across a
recorded corpus the same response bodies recur constantly — shared CDN
objects, analytics beacons, font files, the same jQuery on five hundred
sites. The CAS stores each unique body **exactly once**, addressed by
the same BLAKE2 checksum family the site manifests use for pair files,
and pair files carry ``{"length": N, "cas": "<hex>"}`` references
instead of base64 content (:mod:`repro.record.store` describes the whole
bundle).

Layout::

    <root>/
      objects/
        ab/
          ab3f...9c.bin      # raw body bytes; the name is the digest

Properties:

* **Write-once** — a blob's name is a function of its bytes, so a put of
  existing content is a no-op (counted as a dedup hit, never rewritten).
* **Self-verifying** — :meth:`CasStore.get` re-hashes what it reads; a
  flipped byte raises :class:`~repro.errors.BlobCorruptError` naming the
  blob path, with no manifest needed.
* **Concurrent-safe** — puts write a per-process temp name and
  ``os.replace`` into place, so parallel corpus generators (``mm-corpus
  generate --workers``) can share one store without torn writes.
* **Shippable** — :func:`missing_blobs` computes the blob *delta* between
  a site's references and a local store, so a corpus travels to a
  fabric worker as site manifests plus only the blobs the worker lacks
  (see :mod:`repro.fabric.sync`).

The round-trip contract: a site saved through a CAS and loaded back is
*pair-for-pair byte-identical* (``to_canonical_bytes``) to the site that
was saved — replay measurements cannot see the store.
"""

from __future__ import annotations

import hashlib
import os
from typing import Any, Dict, Iterable, Iterator, List, Set, Tuple

from repro.errors import BlobCorruptError, BlobMissingError
from repro.fsutil import fsync_dir

__all__ = [
    "CAS_DIR_NAME",
    "CasStore",
    "body_checksum",
    "missing_blobs",
]

#: Conventional CAS directory name inside a corpus folder (dot-named so
#: corpus walkers never mistake it for a recorded site).
CAS_DIR_NAME = ".cas"

_OBJECTS_DIR = "objects"
_BLOB_SUFFIX = ".bin"
_DIGEST_SIZE = 16  # same family/width as the manifests' pair checksums


def body_checksum(data: bytes) -> str:
    """BLAKE2 address (hex) of a body's raw bytes.

    Same digest family and width as
    :func:`repro.record.store.pair_checksum`, applied to body bytes
    instead of pair-file bytes — one checksum vocabulary across the
    bundle.
    """
    return hashlib.blake2b(data, digest_size=_DIGEST_SIZE).hexdigest()


class CasStore:
    """A content-addressed store of response-body blobs.

    Args:
        root: the store directory (created lazily on first put).

    Example:
        >>> import tempfile
        >>> store = CasStore(tempfile.mkdtemp())
        >>> ref = store.put(b"hello body")
        >>> store.get(ref)
        b'hello body'
        >>> store.put(b"hello body") == ref   # write-once dedup
        True
    """

    def __init__(self, root: Any) -> None:
        self.root = os.fspath(root)
        #: Puts that found their blob already present (dedup hits).
        self.deduped = 0
        #: Puts that materialised a new blob.
        self.written = 0
        #: Bytes written by new-blob puts (unique bytes added).
        self.bytes_written = 0

    # ------------------------------------------------------------------ #
    # addressing

    def path_for(self, ref: str) -> str:
        """Filesystem path a blob address resolves to (existing or not)."""
        ref = self._check_ref(ref)
        return os.path.join(
            self.root, _OBJECTS_DIR, ref[:2], ref + _BLOB_SUFFIX
        )

    @staticmethod
    def _check_ref(ref: str) -> str:
        # Exactly what body_checksum emits, nothing equivalent to it: two
        # spellings of one address would be two entries in a reference set.
        ref = str(ref)
        if len(ref) != _DIGEST_SIZE * 2 or any(
            c not in "0123456789abcdef" for c in ref
        ):
            raise BlobMissingError(f"malformed CAS reference: {ref!r}")
        return ref

    # ------------------------------------------------------------------ #
    # reading

    def has(self, ref: str) -> bool:
        """Whether the store holds a blob at this address."""
        return os.path.exists(self.path_for(ref))

    def get(self, ref: str) -> bytes:
        """Read one blob, verifying it against its own address.

        Raises:
            BlobMissingError: no blob at this address (a dangling
                reference), naming the path that should have held it.
            BlobCorruptError: the blob's bytes no longer hash to the
                address (bitrot) or cannot be read at all (a directory
                in its place, no permission), naming the blob path.
        """
        path = self.path_for(ref)
        try:
            with open(path, "rb") as handle:
                data = handle.read()
        except (FileNotFoundError, NotADirectoryError):
            raise BlobMissingError(
                f"dangling CAS reference {ref}: no blob at {path}"
            ) from None
        except OSError as exc:
            raise BlobCorruptError(
                f"unreadable CAS blob {path}: {exc}"
            ) from exc
        if body_checksum(data) != self._check_ref(ref):
            raise BlobCorruptError(
                f"CAS blob {path} does not hash to its address {ref}"
            )
        return data

    def __contains__(self, ref: str) -> bool:
        return self.has(ref)

    def blobs(self) -> Iterator[Tuple[str, int]]:
        """All stored blobs as sorted ``(address, size)`` pairs."""
        objects = os.path.join(self.root, _OBJECTS_DIR)
        if not os.path.isdir(objects):
            return
        for shard in sorted(os.listdir(objects)):
            shard_dir = os.path.join(objects, shard)
            if not os.path.isdir(shard_dir):
                continue
            for name in sorted(os.listdir(shard_dir)):
                if not name.endswith(_BLOB_SUFFIX):
                    continue
                ref = name[: -len(_BLOB_SUFFIX)]
                yield ref, os.path.getsize(os.path.join(shard_dir, name))

    def __len__(self) -> int:
        return sum(1 for __ in self.blobs())

    def stats(self) -> Dict[str, int]:
        """``{"blobs": n, "bytes": total}`` over the stored objects."""
        blobs = bytes_total = 0
        for __, size in self.blobs():
            blobs += 1
            bytes_total += size
        return {"blobs": blobs, "bytes": bytes_total}

    # ------------------------------------------------------------------ #
    # writing

    def put(self, data: bytes) -> str:
        """Store one body; return its address.

        Content the store already holds is never rewritten (the address
        proves the bytes are identical); the hit is counted in
        :attr:`deduped`. New blobs land via a per-process temp name +
        ``os.replace`` so concurrent writers cannot tear each other.
        """
        ref = body_checksum(data)
        path = self.path_for(ref)
        if os.path.exists(path):
            self.deduped += 1
            return ref
        parent = os.path.dirname(path)
        os.makedirs(parent, exist_ok=True)
        tmp = f"{path}.{os.getpid()}.tmp"
        with open(tmp, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
        fsync_dir(parent)
        self.written += 1
        self.bytes_written += len(data)
        return ref

    def import_blob(self, ref: str, data: bytes) -> bool:
        """Install a blob shipped from another store (fabric sync).

        The bytes are verified against the claimed address before they
        are admitted — a corrupted transfer cannot poison the store.

        Returns:
            True when the blob was new, False when it was already held.

        Raises:
            BlobCorruptError: the bytes do not hash to ``ref``.
        """
        ref = self._check_ref(ref)
        if body_checksum(data) != ref:
            raise BlobCorruptError(
                f"refusing to import blob {ref}: bytes hash to "
                f"{body_checksum(data)}"
            )
        before = self.written
        self.put(data)
        return self.written > before

    def __repr__(self) -> str:
        return f"<CasStore {self.root!r}>"


def missing_blobs(refs: Iterable[str], store: CasStore) -> List[str]:
    """The delta: which of ``refs`` the store does not hold (sorted).

    This is the unit of corpus shipping — a worker that already holds a
    corpus's shared CDN objects receives only the manifests plus this
    list's blobs, not the whole corpus again.
    """
    unique: Set[str] = set(refs)
    return sorted(ref for ref in unique if not store.has(ref))
