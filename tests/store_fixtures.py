"""Hand-made recorded folders for the store, fsck and sync tests.

:func:`write_flat_site` builds a folder from before the CAS. Nothing in
``src/repro`` writes that layout any more; the reader still meets it on
disk, so the tests build it by hand: pair files with inline base64
bodies plus a ``format_version: 2`` manifest with no ``"cas"`` key.

:func:`revouch` makes a manifest vouch for whatever a test has written
into a pair file, so the damage is met by the parser rather than caught
by the checksum.
"""

import json
import os

from repro.record.store import pair_checksum, pair_filename


def write_flat_site(site, directory):
    """Write ``site`` (a RecordedSite) as a flat format-v2 folder."""
    directory = os.fspath(directory)
    os.makedirs(directory, exist_ok=True)
    entries = []
    for index, pair in enumerate(site.pairs):
        data = pair.to_canonical_bytes()
        with open(os.path.join(directory, pair_filename(index)), "wb") as fh:
            fh.write(data)
        entries.append({"file": pair_filename(index), "size": len(data),
                        "checksum": pair_checksum(data)})
    manifest = {"format_version": 2, "name": site.name,
                "pair_count": len(entries), "pairs": entries}
    with open(os.path.join(directory, "site.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    return directory



def revouch(directory, filename):
    """Rewrite ``filename``'s manifest entry to match its current bytes."""
    with open(os.path.join(directory, filename), "rb") as fh:
        raw = fh.read()
    site_path = os.path.join(directory, "site.json")
    with open(site_path) as fh:
        manifest = json.load(fh)
    for entry in manifest["pairs"]:
        if entry["file"] == filename:
            entry.update(size=len(raw), checksum=pair_checksum(raw))
    with open(site_path, "w") as fh:
        json.dump(manifest, fh)
