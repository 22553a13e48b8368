"""``mm-corpus`` — generate and inspect the synthetic Alexa-like corpus.

Subcommands::

    mm-corpus generate --out DIR [--size N] [--singles K] [--scale S]
                       [--seed X] [--workers W] [--resume]
    mm-corpus stats DIR

``--workers`` materialises recorded sites (synthesis + save) over that
many worker processes; each site is an independent deterministic function
of the corpus seed, so the output is identical at any worker count.
``--workers 0`` uses every available core.

Response bodies land in one content-addressed store shared by the whole
corpus (``<out>/.cas``), so identical bodies are stored exactly once.
Concurrent workers share the store safely (per-process temp names +
atomic rename). ``stats`` reports the resulting body dedup: unique vs
total stored (real) body bytes and the dedup ratio, plus the virtual
tails the pair files declare instead of storing (a root document's
filler).

Both subcommands print origin-count percentiles by the one
interpolated rule (:func:`repro.measure.stats.interpolated_quantile`),
but over different counts. ``stats`` counts the origins each recording
holds; ``generate`` prints :func:`repro.corpus.corpus_statistics`, whose
``SyntheticSite.origin_count`` also counts generated hostnames that no
resource uses once ``--scale`` trims the page. For ``--size 20 --scale
0.3 --seed 1`` the two 95th percentiles read 24.45 and 55. Counting
recorded origins in ``generate`` would move claim C1, so that stays
open.

Generation is one sweep (:func:`repro.measure.supervise.run_sweep`,
one site per trial, no retries): it checkpoints every completed site in
that sweep's crash-safe journal (``.generate-journal.jsonl`` inside the
output folder, removed once the whole corpus has materialised).
``--resume`` picks up a killed run where it left off, skipping
journaled sites; the journal is keyed to (seed, size, singles, scale),
so resuming with different parameters is refused rather than silently
mixing corpora. A site that fails is an error naming it, and the
journal stays for ``--resume``. Because each site is a deterministic
function of the corpus seed, a resumed run's output is byte-identical to
an uninterrupted one.
"""

from __future__ import annotations

import os
from typing import List

from repro.cli.common import (
    CliError, Parser, finite_float, main_wrapper, non_negative_int,
    positive_int,
)
from repro.corpus import alexa_corpus, corpus_statistics
from repro.errors import JournalError
from repro.measure.journal import run_key
from repro.measure.parallel import default_workers
from repro.measure.stats import interpolated_quantile
from repro.measure.supervise import run_sweep
from repro.record.cas import CAS_DIR_NAME, CasStore, body_checksum
from repro.record.fsck import corpus_site_dirs
from repro.record.store import RecordedSite

USAGE = ("usage: mm-corpus generate --out DIR [--size N] [--singles K] "
         "[--scale S] [--seed X] [--workers W] [--resume] "
         "| mm-corpus stats DIR")

#: Checkpoint journal inside the output folder (dot-named: not a site).
JOURNAL_FILE = ".generate-journal.jsonl"


def run(argv: List[str]) -> int:
    if not argv:
        raise CliError(USAGE)
    command, rest = argv[0], argv[1:]
    if command == "generate":
        return _generate(rest)
    if command == "stats":
        return _stats(rest)
    raise CliError(USAGE)


def _generate(argv: List[str]) -> int:
    parser = Parser("mm-corpus generate", USAGE)
    parser.add_argument("--out", required=True)
    parser.add_argument("--size", type=positive_int, default=500)
    parser.add_argument("--singles", type=int, default=9)
    parser.add_argument("--scale", type=finite_float, default=1.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workers", type=non_negative_int, default=1)
    parser.add_argument("--resume", action="store_true")
    options = parser.parse_args(argv)
    out, size, singles = options.out, options.size, options.singles
    scale, seed, workers = options.scale, options.seed, options.workers
    resume = options.resume
    if workers == 0:
        workers = default_workers()
    sites = alexa_corpus(seed=seed, size=size, single_origin_sites=singles,
                         scale=scale)
    os.makedirs(out, exist_ok=True)

    journal_path = os.path.join(out, JOURNAL_FILE)
    if not resume and os.path.exists(journal_path):
        os.remove(journal_path)  # fresh run: discard stale checkpoints

    def materialise(index: int) -> str:
        site = sites[index]
        # One CasStore instance per call: worker processes must not
        # share handles, and the store itself is concurrent-safe.
        cas = CasStore(os.path.join(out, CAS_DIR_NAME))
        site.to_recorded_site().save(os.path.join(out, site.name), cas=cas)
        return site.name

    # Each site is checkpointed as its save lands: a killed run loses
    # only the in-flight sites, and --resume skips everything journaled.
    try:
        sweep = run_sweep(
            materialise, None, len(sites), workers,
            journal=journal_path,
            run_key=run_key(seed=seed, size=size, singles=singles,
                            scale=scale))
    except JournalError as exc:
        raise CliError(
            f"cannot resume: {exc}\n(the journal was written by a run "
            f"with different parameters — rerun without --resume to "
            f"regenerate from scratch)"
        )
    failed = [f"site {sites[o.trial].name} {o.status}: {o.error}"
              for o in sweep.outcomes if not o.succeeded]
    if failed:
        raise CliError("\n".join(failed) + "\n(the other sites stay "
                       "journaled: rerun with --resume to finish)")
    # A finished corpus needs no checkpoint; leave the folder clean.
    os.remove(journal_path)
    stats = corpus_statistics(sites)
    done = sum(o.from_journal for o in sweep.outcomes)
    skipped = f", {done} already journaled" if done else ""
    print(f"generated {len(sites) - done} of {len(sites)} sites in {out}"
          f"{skipped}" + (f" ({workers} workers)" if workers > 1 else ""))
    _print_stats(stats)
    return 0


def _stats(argv: List[str]) -> int:
    if len(argv) != 1:
        raise CliError(USAGE)
    directory = argv[0]
    if not os.path.isdir(directory):
        raise CliError(f"not a corpus directory: {directory!r}")
    counts = []
    total_bodies = total_bytes = tails = tail_bytes = 0
    unique: dict = {}  # real-prefix checksum -> length
    for site_dir in corpus_site_dirs(directory):
        store = RecordedSite.load(site_dir)
        counts.append(len(store.origins()))
        for pair in store.pairs:
            for body in (pair.request.body, pair.response.body):
                prefix = body.real_prefix
                if prefix:
                    total_bodies += 1
                    total_bytes += len(prefix)
                    unique.setdefault(body_checksum(prefix), len(prefix))
                    if body.virtual_tail:
                        tails += 1
                        tail_bytes += body.virtual_tail
    if not counts:
        raise CliError(f"no recorded sites under {directory!r}")
    counts.sort()
    print(f"sites: {len(counts)}")
    print(f"median origins: {interpolated_quantile(counts, 0.5):g}")
    print(f"95th pct origins: {interpolated_quantile(counts, 0.95):g}")
    print(f"single-server sites: {sum(1 for c in counts if c == 1)}")
    unique_bytes = sum(unique.values())
    ratio = (total_bytes / unique_bytes) if unique_bytes else 1.0
    print(f"bodies with real bytes: {total_bodies} ({total_bytes} bytes), "
          f"unique: {len(unique)} ({unique_bytes} bytes)")
    print(f"body dedup ratio: {ratio:.2f}x")
    print(f"virtual tails: {tails} ({tail_bytes} bytes declared, "
          f"not stored)")
    cas_dir = os.path.join(directory, CAS_DIR_NAME)
    if os.path.isdir(cas_dir):
        stored = CasStore(cas_dir).stats()
        print(f"cas store: {stored['blobs']} blob(s), "
              f"{stored['bytes']} bytes on disk")
    return 0


def _print_stats(stats) -> None:
    print(f"origin servers per site: median {stats['median_origins']:.0f}, "
          f"95th pct {stats['p95_origins']:.0f}, "
          f"single-server sites {stats['single_server_sites']:.0f}")


main = main_wrapper(run)

if __name__ == "__main__":
    import sys

    sys.exit(main())
