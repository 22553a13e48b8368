"""The browser model: dependency-graph page loads with per-origin pools.

Mahimahi measures applications — overwhelmingly browsers — so the
reproduction needs a browser whose page load time responds to the network
the way real ones do. :class:`~repro.browser.engine.Browser` implements
the load loop that drives every figure:

* DNS resolution per origin (cached within a load);
* up to 6 parallel persistent connections per origin — the constraint
  that makes multi-origin preservation matter (Table 2, Figure 3);
* resource discovery through the page's dependency graph: fetching and
  parsing the HTML reveals stylesheets/scripts/images, which reveal
  fonts and XHRs, giving page loads their serial critical path;
* per-resource compute (parse/execute/decode) scaled by the host
  machine's profile — the jitter source behind Table 1.

Pages are :class:`~repro.browser.resources.PageModel` dependency graphs;
:mod:`~repro.browser.html` can render a page's root document as real HTML
and scan it back (used by the corpus generator and the record path).
"""

from repro.browser.engine import Browser, PageLoadResult
from repro.browser.resources import PageModel, Resource, Url

__all__ = [
    "Browser",
    "PageLoadResult",
    "PageModel",
    "Resource",
    "Url",
]
