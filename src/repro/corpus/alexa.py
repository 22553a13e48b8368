"""The 500-site synthetic corpus (Alexa US Top 500 analogue).

The paper's in-text corpus statistics (§4) are reproduced by construction:

* exactly ``single_origin_sites`` (default 9) single-server pages;
* the rest draw origin counts from a lognormal matched to median 20 and
  95th percentile 51.

The ``corpus_stats`` claim of ``repro.scenarios.CLAIMS`` regenerates and
checks those numbers (experiment C1 in DESIGN.md).
"""

from __future__ import annotations

import random
from typing import Dict, List

from repro.corpus.sitegen import SyntheticSite, draw_origin_count, generate_site
from repro.errors import CorpusError
from repro.measure.stats import interpolated_quantile
from repro.sim.random import stable_seed

DEFAULT_CORPUS_SIZE = 500
DEFAULT_SINGLE_ORIGIN_SITES = 9


def alexa_corpus(
    seed: int = 0,
    size: int = DEFAULT_CORPUS_SIZE,
    single_origin_sites: int = DEFAULT_SINGLE_ORIGIN_SITES,
    scale: float = 1.0,
) -> List[SyntheticSite]:
    """Generate the corpus.

    Args:
        seed: master seed; the corpus is a pure function of it.
        size: number of sites (paper: 500).
        single_origin_sites: how many pages use a single server (paper: 9).
        scale: per-site object-count/size multiplier (tests shrink it).
    """
    if not 0 <= single_origin_sites <= size:
        raise CorpusError(f"single-origin sites must be in [0, size={size}], "
                          f"got {single_origin_sites}")
    rng = random.Random(stable_seed(seed, "alexa-corpus"))
    sites: List[SyntheticSite] = []
    single_slots = set(rng.sample(range(size), single_origin_sites))
    for index in range(size):
        if index in single_slots:
            n_origins = 1
        else:
            n_origins = draw_origin_count(rng)
        sites.append(generate_site(
            f"site{index:03d}.com",
            seed=stable_seed(seed, f"corpus-site:{index}"),
            n_origins=n_origins,
            scale=scale,
        ))
    return sites


def corpus_statistics(sites: List[SyntheticSite]) -> Dict[str, float]:
    """The §4 statistics over a corpus: origin-count median, 95th
    percentile, and the number of single-server pages."""
    counts = sorted(float(site.origin_count) for site in sites)
    if not counts:
        raise CorpusError("empty corpus")
    return {
        "sites": len(counts),
        "median_origins": interpolated_quantile(counts, 0.50),
        "p95_origins": interpolated_quantile(counts, 0.95),
        "max_origins": counts[-1],
        "single_server_sites": float(sum(1 for c in counts if c == 1)),
    }
