"""Recorded-store integrity checking and repair (the ``mm-fsck`` engine).

A recorded folder is the *input* to every replay measurement, so a
damaged folder silently skews results long after the recording session
is gone. Checking is :func:`repro.record.store.read_site` — the same
walk, the same problem kinds a tolerant load reports; this module adds
what to *do* about them:

* damaged and orphan pair files are **quarantined** (moved into a
  ``quarantine/`` subfolder, never deleted — the bytes may still be
  forensically useful);
* the manifest is **rewritten** (atomically) as the one that was read
  with only ``pairs``/``pair_count`` replaced, so it vouches for exactly
  the surviving pairs and still names the same CAS;
* valid pair files are **never touched** — no rewrite, no renumber, no
  re-encode — and a problem in ``site.json`` itself (a malformed
  manifest entry) moves nothing: the entry is simply not carried over.

The check extends to every content-addressed store inside the checked
tree (:func:`fsck_cas`) — a corpus's shared ``.cas`` or a lone site's
own: every blob is re-hashed against its address, and blobs referenced
by no surviving pair under the tree are reported as **orphans**
(quarantined on repair into ``<cas>/quarantine/``, never deleted, so a
blob orphaned by a quarantined pair file can still be recovered).

After a repair, :meth:`RecordedSite.load` succeeds strictly and
ReplayShell serves the surviving pairs, with the losses counted in the
obs artifact (see :class:`~repro.core.replayshell.ReplayShell`).
"""

from __future__ import annotations

import os
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.errors import BlobCorruptError, BlobMissingError, StoreFormatError
from repro.record.cas import CasStore
from repro.record.store import (
    _QUARANTINE_DIR,
    _SITE_FILE,
    StoreDamage,
    read_site,
    site_cas,
    write_manifest,
)

__all__ = [
    "corpus_site_dirs",
    "fsck_cas",
    "fsck_site",
    "fsck_tree",
    "is_site_dir",
]


def is_site_dir(directory: Any) -> bool:
    """Whether ``directory`` looks like one recorded site folder."""
    return os.path.isfile(os.path.join(os.fspath(directory), _SITE_FILE))


def corpus_site_dirs(corpus_dir: Any) -> List[str]:
    """The site folders directly under a corpus directory (sorted).

    A site folder is any subdirectory holding a ``site.json``; other
    entries (the shared ``.cas`` tree, journals, loose files) are not
    sites and are skipped.
    """
    corpus_dir = os.fspath(corpus_dir)
    sites = []
    for name in sorted(os.listdir(corpus_dir)):
        path = os.path.join(corpus_dir, name)
        if is_site_dir(path):
            sites.append(path)
    return sites


def fsck_site(directory: Any, repair: bool = False) -> StoreDamage:
    """Verify (and optionally repair) one recorded site folder.

    Args:
        directory: the site folder.
        repair: quarantine damaged/orphan pair files into
            ``quarantine/`` and atomically rewrite the manifest to cover
            exactly the surviving pairs. Valid pair files are never
            modified.

    Returns:
        A :class:`~repro.record.store.StoreDamage`; ``report.clean``
        means nothing was wrong, ``report.repaired`` means damage was
        found and repaired, ``report.fatal`` that ``site.json`` is
        unusable and nothing was attempted.
    """
    return _fsck_site(os.fspath(directory), repair)[0]


def _fsck_site(
    directory: str, repair: bool
) -> Tuple[StoreDamage, Optional[str], Set[str]]:
    """:func:`fsck_site`, also returning the site's CAS root and the
    blob addresses its surviving pairs reference (for the CAS pass)."""
    try:
        metadata, pairs, report = read_site(directory)
    except StoreFormatError as exc:
        report = StoreDamage(directory)
        report.add(_SITE_FILE, "fatal", str(exc))
        return report, None, set()
    cas_root = site_cas(directory, metadata).root if "cas" in metadata else None
    if repair and report.problems:
        quarantine = os.path.join(directory, _QUARANTINE_DIR)
        for problem in report.problems:
            source = os.path.join(directory, problem.file)
            if problem.file == _SITE_FILE or not os.path.exists(source):
                continue
            os.makedirs(quarantine, exist_ok=True)
            os.replace(source, os.path.join(quarantine, problem.file))
            report.quarantined.append(problem.file)
        write_manifest(directory, dict(
            metadata, pair_count=len(pairs),
            pairs=[item.entry for item in pairs]))
        report.repaired = True
    return report, cas_root, {ref for item in pairs for ref in item.refs}


def fsck_cas(
    cas_root: Any,
    referenced: Set[str],
    repair: bool = False,
    orphans: bool = True,
) -> StoreDamage:
    """Verify one content-addressed store against its referencing sites.

    Checks every stored blob re-hashes to its address (``corrupt``
    otherwise) and reports blobs no surviving pair references as
    ``orphan``. A referenced address with no blob is not this pass's to
    report: it is the ``dangling`` damage of the pair that references it.

    ``repair`` moves corrupt and orphan blobs into ``<cas>/quarantine/``
    — moved, never deleted; an orphan produced by a quarantined pair
    file stays recoverable.

    Args:
        cas_root: the store directory.
        referenced: every blob address the in-scope sites' valid pairs
            reference.
        repair: quarantine corrupt (and reported orphan) blobs.
        orphans: judge unreferenced blobs at all. False when
            ``referenced`` may be incomplete — a site whose manifest
            cannot be read may reference any blob — so only the re-hash
            runs.
    """
    cas_root = os.fspath(cas_root)
    store = CasStore(cas_root)
    report = StoreDamage(cas_root, kind="cas")
    bad: List[str] = []
    for ref, __ in store.blobs():
        try:
            store.get(ref)
        except BlobCorruptError as exc:
            report.add(ref, "corrupt", str(exc))
            bad.append(ref)
        except BlobMissingError as exc:  # malformed name in objects/
            report.add(ref, "malformed", str(exc))
        else:
            if ref in referenced or not orphans:
                report.pairs_ok += 1
            else:
                report.add(ref, "orphan",
                           f"orphan blob (referenced by no site): "
                           f"{store.path_for(ref)}")
                bad.append(ref)
    if repair and bad:
        quarantine = os.path.join(cas_root, _QUARANTINE_DIR)
        os.makedirs(quarantine, exist_ok=True)
        for ref in bad:
            os.replace(store.path_for(ref),
                       os.path.join(quarantine, ref + ".bin"))
            report.quarantined.append(ref)
        report.repaired = True
    return report


def fsck_tree(
    directory: Any, repair: bool = False
) -> List[StoreDamage]:
    """Fsck a site folder, or a corpus folder: every immediate
    subdirectory with a ``site.json``, in sorted order. Then every
    content-addressed store those sites reference that lives under
    ``directory`` — a store outside the checked tree may be shared with
    sites fsck cannot see, and an orphan verdict there would be unsound.

    The CAS pass judges orphans by the pairs that *survive* the site
    pass, so blobs referenced only by damaged pair files are reported
    (and, with ``repair``, quarantined alongside those pairs). While any
    site under the tree is ``fatal`` it still re-hashes every blob, but
    judges no orphans: that site's manifest may reference any blob.

    Raises:
        StoreFormatError: when ``directory`` contains no recorded site.
    """
    directory = os.fspath(directory)
    if is_site_dir(directory):
        site_dirs = [directory]
    elif not os.path.isdir(directory):
        raise StoreFormatError(f"not a directory: {directory}")
    else:
        site_dirs = corpus_site_dirs(directory)
    if not site_dirs:
        raise StoreFormatError(
            f"no recorded sites under {directory!r} "
            f"(expected site folders containing {_SITE_FILE})"
        )
    tree_root = os.path.realpath(directory)
    reports = []
    scope: Dict[str, Set[str]] = {}  # in-tree CAS root -> surviving refs
    for site_dir in site_dirs:
        report, cas_root, refs = _fsck_site(site_dir, repair)
        reports.append(report)
        if cas_root is not None:
            cas_root = os.path.realpath(cas_root)
            if os.path.commonpath([tree_root, cas_root]) == tree_root:
                scope.setdefault(cas_root, set()).update(refs)
    orphans = not any(report.fatal for report in reports)
    for cas_root, refs in sorted(scope.items()):
        reports.append(
            fsck_cas(cas_root, refs, repair=repair, orphans=orphans))
    return reports
