"""Synthetic multi-origin website generation.

A generated site is internally consistent across all three ways the
experiments consume it:

* a :class:`~repro.browser.resources.PageModel` the browser loads;
* a ground-truth :class:`~repro.record.store.RecordedSite` (what a
  perfect RecordShell session would capture), whose root document is
  real rendered markup referencing the actual subresources, followed by
  a virtual filler up to the page's drawn weight;
* a host->IP map so the live-web model can serve the same content.

Structure follows the anatomy of 2014-era pages: one root document on the
main origin; stylesheets and scripts split between the main origin and a
couple of CDN hosts; images fanned out across CDNs; fonts behind
stylesheets; a few XHRs behind scripts; analytics/ads third parties with
one or two objects each. Origin counts, object counts, and sizes are drawn
from distributions matched to the published statistics.
"""

from __future__ import annotations

import math
import random
from typing import Dict, List, Optional

from repro.browser.html import render_html
from repro.browser.resources import PageModel, Resource, Url
from repro.errors import CorpusError
from repro.http.body import Body
from repro.http.message import Headers, HttpRequest, HttpResponse
from repro.net.address import IPv4Address
from repro.record.entry import RequestResponsePair
from repro.record.store import RecordedSite
from repro.sim.random import stable_seed

_CONTENT_TYPES = {
    "html": "text/html; charset=utf-8",
    "css": "text/css",
    "js": "application/javascript",
    "image": "image/jpeg",
    "font": "font/woff2",
    "xhr": "application/json",
    "other": "application/octet-stream",
}


def ip_for_host(host: str) -> IPv4Address:
    """Deterministic synthetic public IP for a hostname.

    Hosts hash into 23.0.0.0/8 (a real CDN block, safely outside the
    100.64.0.0/10 shell pool and RFC1918 space).
    """
    digest = stable_seed(0x1733, host)
    return IPv4Address((23 << 24) | (digest & 0x00FFFFFF))


class SyntheticSite:
    """One generated site: page graph + origin inventory."""

    def __init__(
        self,
        name: str,
        page: PageModel,
        host_ips: Dict[str, IPv4Address],
    ) -> None:
        self.name = name
        self.page = page
        self.host_ips = dict(host_ips)

    @property
    def origin_count(self) -> int:
        """Distinct physical servers (IPs) serving the page."""
        return len(set(self.host_ips.values()))

    def to_recorded_site(self) -> RecordedSite:
        """The ground-truth recording of this site.

        Equivalent to what RecordShell captures from a live-web load (the
        record integration tests assert exactly that equivalence).
        """
        store = RecordedSite(self.name)
        for resource in self.page.resources():
            store.add_pair(self._pair_for(resource))
        return store

    def _pair_for(self, resource: Resource) -> RequestResponsePair:
        url = resource.url
        host = url.host if url.default_port else f"{url.host}:{url.port}"
        request = HttpRequest("GET", url.path, Headers([
            ("Host", host),
            ("User-Agent", "repro-browser/1.0"),
            ("Accept", "*/*"),
        ]))
        if resource.kind == "html":
            body = root_document(self.name, resource.children, resource.size)
            resource.size = body.length
        else:
            body = Body.virtual(resource.size)
        headers = Headers([
            ("Content-Type", _CONTENT_TYPES[resource.kind]),
            ("Content-Length", str(body.length)),
            ("Server", "repro-origin/1.0"),
        ])
        response = HttpResponse(200, headers=headers, body=body)
        ip = self.host_ips[url.host]
        return RequestResponsePair(url.scheme, ip, url.port, request, response)

    def __repr__(self) -> str:
        return (
            f"<SyntheticSite {self.name!r} origins={self.origin_count} "
            f"resources={self.page.resource_count} "
            f"bytes={self.page.total_bytes}>"
        )


def generate_site(
    name: str,
    seed: int,
    n_origins: Optional[int] = None,
    scale: float = 1.0,
    https: bool = False,
) -> SyntheticSite:
    """Generate one synthetic site.

    Args:
        name: main hostname stem (e.g. "example.com" -> www.example.com).
        seed: all structure derives deterministically from this.
        n_origins: force the number of distinct origin servers (default:
            drawn from the corpus distribution).
        scale: multiplies object counts and sizes (lets tests shrink
            pages and "heavy page" presets grow them); positive, finite.
        https: serve everything over HTTPS instead of HTTP.
    """
    if not 0.0 < scale < math.inf:
        raise CorpusError(f"scale must be positive and finite, got {scale!r}")
    rng = random.Random(stable_seed(seed, f"site:{name}"))
    if n_origins is None:
        n_origins = draw_origin_count(rng)
    if n_origins < 1:
        raise CorpusError(f"need at least one origin, got {n_origins}")
    scheme = "https" if https else "http"
    port = 443 if https else 80

    hosts = _make_hostnames(name, n_origins, rng)
    main_host = hosts[0]
    cdn_hosts = hosts[1: max(1, 1 + (n_origins - 1) * 2 // 3)]
    third_hosts = hosts[1 + len(cdn_hosts):]

    def url(host: str, path: str) -> Url:
        return Url(scheme, host, port, path)

    def asset_host(i: int) -> str:
        if not cdn_hosts:
            return main_host
        return cdn_hosts[i % len(cdn_hosts)]

    counter = [0]

    def make(kind: str, host: str, size: int,
             children: Optional[List[Resource]] = None) -> Resource:
        counter[0] += 1
        path = f"/{kind}/res{counter[0]:04d}.{_EXT[kind]}"
        return Resource(url(host, path), kind, max(64, size), children=children)

    def sized(lo: float, hi: float) -> int:
        return int(rng.uniform(lo, hi) * scale)

    # Fonts and XHRs hang off stylesheets and scripts (discovery depth 3).
    n_css = max(1, int(rng.uniform(2, 6) * math.sqrt(scale)))
    n_js = max(1, int(rng.uniform(3, 10) * math.sqrt(scale)))
    n_images = max(2, int(rng.uniform(8, 45) * scale))
    n_fonts = rng.randint(0, 3)
    n_xhr = rng.randint(0, 4)

    css = [
        make("css", asset_host(i), sized(8_000, 60_000))
        for i in range(n_css)
    ]
    for i in range(n_fonts):
        css[i % len(css)].children.append(
            make("font", asset_host(i + 1), sized(18_000, 45_000))
        )
    js = [
        make("js", asset_host(i + n_css), sized(15_000, 150_000))
        for i in range(n_js)
    ]
    for i in range(n_xhr):
        js[i % len(js)].children.append(
            make("xhr", main_host, sized(500, 8_000))
        )
    images = [
        make("image", asset_host(i), int(_lognormal(rng, 11_000, 1.0) * scale))
        for i in range(n_images)
    ]
    # Third parties (analytics, ads): one or two small objects each, a
    # beacon image plus sometimes a script that fetches another image.
    third_objects: List[Resource] = []
    for i, host in enumerate(third_hosts):
        beacon = make("image", host, sized(200, 4_000))
        if rng.random() < 0.5:
            script = make("js", host, sized(2_000, 40_000))
            script.children.append(beacon)
            third_objects.append(script)
        else:
            third_objects.append(beacon)

    # Document order matters: stylesheets and scripts live in the head
    # and are referenced before body images — which is what keeps a
    # browser's resource scheduler prioritizing render-critical work.
    head = css + js
    body = images + third_objects
    rng.shuffle(head)
    rng.shuffle(body)
    children = head + body
    root = Resource(
        url(main_host, "/"), "html", sized(40_000, 130_000),
        children=children,
    )
    page = PageModel(root, name=name)
    host_ips = {host: ip_for_host(host) for host in hosts}
    # Rendering the root document fixes its true size; do it now so the
    # PageModel and the recording agree.
    root.size = root_document(name, children, root.size).length
    return SyntheticSite(name, page, host_ips)


#: The largest gap between markup and drawn weight left unfilled. The
#: filler was once a literal HTML comment, whose 10-byte wrapper did not
#: fit a gap this small, and every seed keeps the sizes it drew then.
_UNFILLED_GAP = len("<!--  -->\n")


def root_document(
    title: str, children: List[Resource], weight: int
) -> Body:
    """A root document's body: its markup (:func:`render_html`) as real
    bytes, then a virtual filler up to ``weight`` bytes.

    A document whose markup already reaches ``weight``, or falls short by
    no more than ``_UNFILLED_GAP`` bytes, is its markup alone.
    """
    markup = render_html(title, children)
    filler = weight - len(markup)
    return Body([markup, filler if filler > _UNFILLED_GAP else 0])


_EXT = {
    "css": "css", "js": "js", "image": "jpg", "font": "woff2",
    "xhr": "json", "other": "bin", "html": "html",
}


def _make_hostnames(name: str, n_origins: int, rng: random.Random) -> List[str]:
    stem = name.split("/")[0]
    hosts = [f"www.{stem}"]
    n_cdn = max(0, (n_origins - 1) * 2 // 3)
    n_third = n_origins - 1 - n_cdn
    hosts.extend(f"cdn{i}.{stem}" for i in range(n_cdn))
    hosts.extend(
        f"thirdparty{i}.tracker{rng.randint(0, 99)}.net" for i in range(n_third)
    )
    return hosts[:n_origins]


def _lognormal(rng: random.Random, median: float, sigma: float) -> float:
    return median * math.exp(rng.gauss(0.0, sigma))


def draw_origin_count(rng: random.Random) -> int:
    """Origin-server count for one site, matched to the paper's §4 stats
    (median 20, 95th percentile 51). Lognormal: mu=ln(20), sigma chosen so
    exp(mu + 1.645 sigma) = 51."""
    sigma = (math.log(51) - math.log(20)) / 1.645
    value = int(round(_lognormal(rng, 20.0, sigma)))
    return max(2, min(value, 90))


# ---------------------------------------------------------------------- #
# named pages from the paper

_NAMED_PRESETS = {
    # The paper's Table 1 pages: CNBC loads in ~7.6 s, wikiHow in ~4.8 s
    # on the (emulated-link) setup; CNBC is the heavier page.
    "cnbc": dict(n_origins=35, scale=2.4, seed_salt=101),
    "wikihow": dict(n_origins=16, scale=1.4, seed_salt=202),
    # Figure 3's page: nytimes.com, a heavy multi-origin news front page.
    "nytimes": dict(n_origins=30, scale=2.0, seed_salt=303),
}


def named_site(which: str, seed: int = 0) -> SyntheticSite:
    """A preset analogue of a page the paper names.

    Args:
        which: "cnbc", "wikihow", or "nytimes".
        seed: extra seed so studies can draw independent variants.
    """
    preset = _NAMED_PRESETS.get(which)
    if preset is None:
        raise CorpusError(
            f"unknown named site {which!r}; options: {sorted(_NAMED_PRESETS)}"
        )
    return generate_site(
        f"{which}.com",
        seed=stable_seed(seed, f"named:{preset['seed_salt']}"),
        n_origins=preset["n_origins"],
        scale=preset["scale"],
    )
