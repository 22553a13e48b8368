"""Minimal HTML rendering and reference scanning.

The corpus generator renders each synthetic page's root document as real
HTML whose ``<link>``/``<script>``/``<img>`` tags reference the page's
actual subresources, followed by a virtual filler up to the page's drawn
weight; the recorded store therefore contains genuine scannable markup
(a body's real prefix), and :func:`scan_references` can rediscover the
resource list from recorded bytes (used by tests to prove the record path
preserves page structure). :func:`page_from_recording` builds on it to turn a
recorded folder back into a loadable page — what ``mm-webreplay ... load``
and every recorded-site scenario load.

This is a reference extractor, not a general HTML parser — it handles the
documents :func:`render_html` produces plus ordinary attribute layouts.
"""

from __future__ import annotations

import re
from typing import TYPE_CHECKING, List

from repro.browser.resources import PageModel, Resource, Url
from repro.errors import ReproError, StoreFormatError

if TYPE_CHECKING:
    from repro.record.store import RecordedSite

_REFERENCE_RE = re.compile(
    rb"""(?:src|href)\s*=\s*["']([^"']+)["']""", re.IGNORECASE
)

_TAG_BY_KIND = {
    "css": '<link rel="stylesheet" href="{url}">',
    "js": '<script src="{url}"></script>',
    "image": '<img src="{url}" alt="">',
    "font": '<link rel="preload" as="font" href="{url}">',
    "xhr": "<!-- xhr: {url} -->",
    "other": '<a href="{url}">resource</a>',
}

_CONTENT_KINDS = {
    ".css": "css", ".js": "js", ".jpg": "image", ".jpeg": "image",
    ".png": "image", ".gif": "image", ".woff2": "font", ".woff": "font",
    ".json": "xhr", ".html": "html",
}


def render_html(title: str, children: List[Resource]) -> bytes:
    """Render the markup of a root document referencing ``children``
    (the page's weight beyond it is a virtual filler, not markup)."""
    lines = [
        "<!DOCTYPE html>",
        "<html><head>",
        f"<title>{title}</title>",
    ]
    body_tags = []
    for child in children:
        template = _TAG_BY_KIND.get(child.kind)
        if template is None:
            continue
        tag = template.format(url=str(child.url))
        if child.kind in ("css", "js", "font"):
            lines.append(tag)
        else:
            body_tags.append(tag)
    lines.append("</head><body>")
    lines.extend(body_tags)
    lines.append("</body></html>")
    return "\n".join(lines).encode("utf-8")


def scan_references(document: bytes) -> List[str]:
    """Extract src/href reference URLs from an HTML document, in order."""
    return [
        match.decode("utf-8", "replace")
        for match in _REFERENCE_RE.findall(document)
    ]


def page_from_recording(store: RecordedSite) -> PageModel:
    """Reconstruct a loadable page from a recorded folder.

    The root document's markup (its body's real prefix) is scanned for
    subresource references (what a browser would rediscover); recorded
    exchanges that the scan cannot see (XHRs hidden in scripts, fonts
    behind stylesheets — their bodies are virtual) become direct children
    of the root so the load still covers the full recording.

    Raises:
        StoreFormatError: if the recording holds no root document with
            real (scannable) bytes.
    """
    root_pair = None
    for pair in store.pairs:
        if pair.request.path == "/" and pair.response.body.real_prefix:
            root_pair = pair
            break
    if root_pair is None:
        raise StoreFormatError(
            f"recording {store.name!r} has no scannable root document")
    scheme = root_pair.scheme
    root_url = Url(scheme, root_pair.host or store.name,
                   root_pair.origin_port, "/")

    by_key = {}
    for pair in store.pairs:
        by_key[(pair.host, pair.request.path)] = pair

    children: List[Resource] = []
    seen = set()
    for ref in scan_references(root_pair.response.body.real_prefix):
        try:
            url = Url.parse(ref)
        except ReproError:
            continue
        pair = by_key.get((url.host, url.path))
        if pair is None or (url.host, url.path) in seen:
            continue
        seen.add((url.host, url.path))
        children.append(Resource(url, _kind_for(url.path),
                                 pair.response.body.length))
    # Sweep in anything unreferenced (discovered via CSS/JS originally).
    for pair in store.pairs:
        key = (pair.host, pair.request.path)
        if pair is root_pair or key in seen:
            continue
        seen.add(key)
        url = Url(pair.scheme, pair.host or "", pair.origin_port,
                  pair.request.uri)
        children.append(Resource(url, _kind_for(pair.request.path),
                                 pair.response.body.length))
    root = Resource(root_url, "html", root_pair.response.body.length,
                    children=children)
    return PageModel(root, name=store.name)


def _kind_for(path: str) -> str:
    for suffix, kind in _CONTENT_KINDS.items():
        if path.endswith(suffix):
            return kind
    return "other"
