"""``mm-fsck`` — verify and repair recorded-site folders.

Usage::

    mm-fsck DIR [--repair] [--json]

``DIR`` is one recorded site folder (contains ``site.json``) or a corpus
folder of them (e.g. ``mm-corpus generate --out DIR``); every site under
it is checked by the same walk that loads it
(:func:`repro.record.store.read_site`). Per manifest entry: a name
confined to the folder, presence, size and BLAKE2 checksum against the
manifest, JSON well-formedness, semantic validity, and every CAS body
reference resolved; then pair files the manifest does not name. Every
content-addressed store under ``DIR`` — a corpus's shared ``.cas`` or a
lone site's own — is verified too: every blob re-hashed against its
address, and blobs no surviving pair references reported as orphans
(unless some site's ``site.json`` is unreadable: that site may reference
any blob, so no orphan is judged, but every blob is still re-hashed).

``--repair`` quarantines damaged pair files into ``quarantine/`` (moved,
never deleted) and rewrites the manifest atomically to cover exactly the
surviving pairs — valid pair files are never touched. In the CAS,
corrupt and orphan blobs are quarantined into ``<cas>/quarantine/`` the
same way. ``--json`` emits the machine-readable reports instead of text.

Exit status: 0 when every folder is clean; 1 when any problem was found
(repaired or not — rerun to confirm a repair); 2 on usage errors.
"""

from __future__ import annotations

import json
import os
from typing import List

from repro.cli.common import CliError, Parser, main_wrapper
from repro.record.fsck import fsck_tree
from repro.record.store import StoreDamage

USAGE = "usage: mm-fsck DIR [--repair] [--json]"


def run(argv: List[str]) -> int:
    parser = Parser("mm-fsck", USAGE)
    parser.add_argument("directory", metavar="DIR")
    parser.add_argument("--repair", action="store_true")
    parser.add_argument("--json", action="store_true")
    options = parser.parse_args(argv)
    if not os.path.isdir(options.directory):
        raise CliError(f"not a directory: {options.directory!r}")

    reports = fsck_tree(options.directory, repair=options.repair)
    if options.json:
        print(json.dumps([r.to_dict() for r in reports], indent=2,
                         sort_keys=True))
    else:
        _print_reports(reports)
    return 0 if all(r.clean for r in reports) else 1


def _print_reports(reports: List[StoreDamage]) -> None:
    dirty = 0
    for report in reports:
        if report.clean:
            continue
        dirty += 1
        unit = "blob(s)" if report.kind == "cas" else "pair(s)"
        print(f"{report.directory}: {len(report.problems)} problem(s), "
              f"{report.pairs_ok} {unit} ok")
        for problem in report.problems:
            print(f"  [{problem.kind}] {problem.detail}")
        if report.repaired:
            if report.kind == "cas":
                print(f"  repaired: {len(report.quarantined)} blob(s) "
                      f"quarantined")
            else:
                print(f"  repaired: {len(report.quarantined)} file(s) "
                      f"quarantined, manifest rewritten")
        elif report.fatal:
            print("  NOT repairable: site.json is unusable")
    sites = [r for r in reports if r.kind == "site"]
    stores = [r for r in reports if r.kind == "cas"]
    total_pairs = sum(r.pairs_ok for r in sites)
    summary = f"checked {len(sites)} site(s), {total_pairs} valid pair(s)"
    if stores:
        summary += (f", {len(stores)} CAS store(s) with "
                    f"{sum(r.pairs_ok for r in stores)} intact blob(s)")
    print(summary + ": "
          + ("all clean" if dirty == 0 else f"{dirty} folder(s) with damage"))


main = main_wrapper(run)

if __name__ == "__main__":
    import sys

    sys.exit(main())
