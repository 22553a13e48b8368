"""Corpus shipping: manifest + missing-blob delta.

A recorded corpus travels to fabric workers in two unequal parts. The
*site folders* (``site.json`` manifests and pair files) are small and
always copied whole. The *bodies* live in the content-addressed store
(:mod:`repro.record.cas`), so a destination that already holds a blob —
from a previous campaign, another site in the same corpus, or any
recording that ever contained the same bytes — never receives it again:
the shipment is exactly the missing-blob delta, computed from the CAS
addresses the site's pairs reference.

What is shipped is what was verified: the file list and the references
both come from one strict :func:`repro.record.store.read_site` of the
source, so a damaged source folder is a named error before anything
lands at the destination.

Everything here is plain directory-to-directory I/O: run it locally, over
a mounted remote filesystem, or as the unit an rsync/scp step carries.
Every imported blob re-verifies against its address on arrival
(:meth:`CasStore.import_blob <repro.record.cas.CasStore.import_blob>`),
so a corrupted transfer is caught at the destination, not at replay time.
"""

from __future__ import annotations

import os
import shutil
from dataclasses import dataclass, field
from typing import Any, List, Optional

from repro.errors import StoreFormatError
from repro.fsutil import fsync_dir
from repro.obs.registry import MetricsRegistry
from repro.record.cas import CAS_DIR_NAME, CasStore, missing_blobs
from repro.record.fsck import corpus_site_dirs
from repro.record.store import read_site, site_cas, write_manifest

__all__ = [
    "ShipReport",
    "corpus_site_dirs",
    "ship_corpus",
    "ship_site",
]


@dataclass
class ShipReport:
    """What one shipment moved and what it skipped.

    Attributes:
        sites: site folders copied.
        refs: distinct CAS references across the shipped sites.
        blobs_transferred: blobs the destination was missing.
        blobs_deduped: referenced blobs the destination already held.
        bytes_transferred: raw body bytes actually moved.
    """

    sites: int = 0
    refs: int = 0
    blobs_transferred: int = 0
    blobs_deduped: int = 0
    bytes_transferred: int = 0
    shipped_sites: List[str] = field(default_factory=list)

    def merge(self, other: "ShipReport") -> None:
        self.sites += other.sites
        self.refs += other.refs
        self.blobs_transferred += other.blobs_transferred
        self.blobs_deduped += other.blobs_deduped
        self.bytes_transferred += other.bytes_transferred
        self.shipped_sites.extend(other.shipped_sites)

    def __repr__(self) -> str:
        return (
            f"<ShipReport sites={self.sites} refs={self.refs} "
            f"transferred={self.blobs_transferred} "
            f"deduped={self.blobs_deduped} "
            f"bytes={self.bytes_transferred}>"
        )


def ship_site(
    source_dir: Any,
    dest_dir: Any,
    dest_cas: Optional[CasStore] = None,
    metrics: Optional[MetricsRegistry] = None,
) -> ShipReport:
    """Ship one recorded site folder; move only the missing blobs.

    The source is read strictly first (:func:`read_site`), so nothing
    damaged ships. The manifest and pair files are always (re)copied —
    they are the cheap part and carry the site's identity. Referenced
    blobs already present in ``dest_cas`` are skipped; the rest are read
    from the source CAS and imported (verified) into the destination.
    The shipped ``site.json`` is the source's with its ``"cas"`` key
    pointing at ``dest_cas`` relative to the destination folder.

    Args:
        source_dir: the site folder to ship.
        dest_dir: where the site folder lands (created).
        dest_cas: the destination's CAS; only a folder that references
            no blob at all (a flat one, inline bodies) ships without.
        metrics: counts land under ``fabric.blobs_*`` when given.

    Returns:
        A :class:`ShipReport` for this one site.

    Raises:
        StoreFormatError: the source is damaged (or its
            :class:`~repro.errors.StoreIntegrityError` subclasses, the
            path in the message), or references blobs with no
            ``dest_cas`` to land them in.
    """
    source_dir = os.fspath(source_dir)
    dest_dir = os.fspath(dest_dir)
    metadata, pairs, __ = read_site(source_dir, strict=True)
    refs = sorted({ref for item in pairs for ref in item.refs})
    report = ShipReport(sites=1, refs=len(refs), shipped_sites=[dest_dir])
    if refs:
        if dest_cas is None:
            raise StoreFormatError(
                f"{source_dir} references CAS blobs; shipping it needs a "
                f"destination CAS"
            )
        source_cas = site_cas(source_dir, metadata)
        # Blobs land before any pair file that references them — the
        # same durability ordering RecordedSite.save keeps.
        for ref in missing_blobs(refs, dest_cas):
            data = source_cas.get(ref)
            dest_cas.import_blob(ref, data)
            report.blobs_transferred += 1
            report.bytes_transferred += len(data)
        report.blobs_deduped = len(refs) - report.blobs_transferred

    os.makedirs(dest_dir, exist_ok=True)
    for item in pairs:
        filename = item.entry["file"]
        shutil.copyfile(os.path.join(source_dir, filename),
                        os.path.join(dest_dir, filename))
    if dest_cas is not None:
        metadata = dict(metadata,
                        cas=os.path.relpath(dest_cas.root, dest_dir))
    write_manifest(dest_dir, metadata)
    fsync_dir(dest_dir)

    if metrics is not None:
        metrics.counter("fabric.blobs_transferred").add(
            report.blobs_transferred)
        metrics.counter("fabric.blobs_deduped").add(report.blobs_deduped)
        metrics.counter("fabric.blob_bytes_transferred").add(
            report.bytes_transferred)
    return report


def ship_corpus(
    source_dir: Any,
    dest_dir: Any,
    metrics: Optional[MetricsRegistry] = None,
) -> ShipReport:
    """Ship every site of a corpus into ``dest_dir``.

    Sites land under their source names and share one destination CAS
    at ``<dest_dir>/.cas``, so cross-site duplicates transfer once — the
    delta shrinks with every site shipped.
    """
    source_dir = os.fspath(source_dir)
    dest_dir = os.fspath(dest_dir)
    os.makedirs(dest_dir, exist_ok=True)
    dest_cas = CasStore(os.path.join(dest_dir, CAS_DIR_NAME))
    total = ShipReport()
    for site_dir in corpus_site_dirs(source_dir):
        name = os.path.basename(site_dir)
        total.merge(ship_site(site_dir, os.path.join(dest_dir, name),
                              dest_cas=dest_cas, metrics=metrics))
    return total
