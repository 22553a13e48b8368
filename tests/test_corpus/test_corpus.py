"""Tests for synthetic site and corpus generation (experiment C1)."""

import random

import pytest

from repro.corpus.alexa import alexa_corpus, corpus_statistics
from repro.browser.html import render_html
from repro.corpus.sitegen import (
    draw_origin_count,
    generate_site,
    ip_for_host,
    named_site,
    root_document,
)
from repro.errors import CorpusError
from repro.net.address import IPv4Network


class TestIpForHost:
    def test_deterministic(self):
        assert ip_for_host("www.x.com") == ip_for_host("www.x.com")

    def test_distinct_hosts_distinct_ips(self):
        ips = {str(ip_for_host(f"h{i}.x.com")) for i in range(200)}
        assert len(ips) == 200

    def test_in_public_block(self):
        assert ip_for_host("www.x.com") in IPv4Network("23.0.0.0/8")


class TestGenerateSite:
    def test_deterministic_from_seed(self):
        a = generate_site("d.com", seed=1, n_origins=5)
        b = generate_site("d.com", seed=1, n_origins=5)
        assert [str(r.url) for r in a.page.resources()] == \
               [str(r.url) for r in b.page.resources()]
        assert [r.size for r in a.page.resources()] == \
               [r.size for r in b.page.resources()]

    def test_different_seeds_differ(self):
        a = generate_site("d.com", seed=1, n_origins=5)
        b = generate_site("d.com", seed=2, n_origins=5)
        assert [r.size for r in a.page.resources()] != \
               [r.size for r in b.page.resources()]

    def test_origin_count_honoured(self):
        for n in (1, 2, 7, 20, 51):
            site = generate_site("n.com", seed=3, n_origins=n)
            assert site.origin_count == n

    def test_single_origin_site_one_hostname(self):
        site = generate_site("solo.com", seed=4, n_origins=1)
        assert len(site.host_ips) == 1
        assert all(r.url.host == "www.solo.com"
                   for r in site.page.resources())

    def test_scale_grows_page(self):
        small = generate_site("s.com", seed=5, n_origins=10, scale=0.5)
        large = generate_site("s.com", seed=5, n_origins=10, scale=2.0)
        assert large.page.resource_count > small.page.resource_count
        assert large.page.total_bytes > small.page.total_bytes

    def test_recording_consistent_with_page(self):
        site = generate_site("c.com", seed=6, n_origins=8)
        store = site.to_recorded_site()
        assert len(store) == site.page.resource_count
        by_uri = {(p.host, p.request.uri): p for p in store.pairs}
        for resource in site.page.resources():
            key = (resource.url.host, resource.url.path)
            assert key in by_uri
            assert by_uri[key].response.body.length == resource.size

    def test_html_body_is_real_others_virtual(self):
        # The root document is its markup as real bytes, then a virtual
        # filler up to the page's weight; every other body is virtual.
        site = generate_site("b.com", seed=7, n_origins=4)
        store = site.to_recorded_site()
        for pair in store.pairs:
            body = pair.response.body
            if pair.request.uri == "/":
                markup = render_html(site.name, site.page.root.children)
                assert body.real_prefix == markup
                assert body.virtual_tail == site.page.root.size - len(markup)
                assert body.virtual_tail > 0
            else:
                assert body.real_prefix == b""
                assert body.virtual_tail == body.length

    def test_root_filler_skips_gaps_of_ten_bytes_or_less(self):
        # Sizes stay those the padded documents of earlier versions had:
        # their 10-byte comment wrapper left a gap of <= 10 bytes unfilled.
        site = generate_site("e.com", seed=3, n_origins=2)
        children = site.page.root.children
        markup = render_html("e.com", children)
        for gap in range(-3, 20):
            body = root_document("e.com", children, len(markup) + gap)
            assert body.real_prefix == markup
            expected = len(markup) + gap if gap > 10 else len(markup)
            assert (body.length, body.virtual_tail) == (
                expected, expected - len(markup))

    def test_https_mode(self):
        site = generate_site("sec.com", seed=8, n_origins=4, https=True)
        store = site.to_recorded_site()
        assert all(p.scheme == "https" for p in store.pairs)
        assert all(p.origin_port == 443 for p in store.pairs)

    def test_invalid_origin_count_rejected(self):
        with pytest.raises(CorpusError):
            generate_site("x.com", seed=0, n_origins=0)

    def test_page_depth_at_least_three(self):
        # HTML -> css/js -> font/xhr chains must exist for realistic
        # critical paths.
        site = generate_site("deep.com", seed=9, n_origins=15, scale=1.5)
        assert site.page.depth() >= 3


class TestOriginDistribution:
    def test_matches_paper_statistics(self):
        rng = random.Random(0)
        counts = sorted(draw_origin_count(rng) for _ in range(4000))
        median = counts[len(counts) // 2]
        p95 = counts[int(0.95 * len(counts))]
        assert 17 <= median <= 23          # paper: 20
        assert 43 <= p95 <= 60             # paper: 51


class TestNamedSites:
    def test_presets_exist(self):
        for name in ("cnbc", "wikihow", "nytimes"):
            site = named_site(name)
            assert site.page.resource_count > 10

    def test_cnbc_heavier_than_wikihow(self):
        # Table 1: CNBC's PLT is ~1.6x wikiHow's; the pages must differ
        # accordingly in weight.
        cnbc = named_site("cnbc")
        wikihow = named_site("wikihow")
        assert cnbc.page.total_bytes > 1.3 * wikihow.page.total_bytes

    def test_unknown_preset_rejected(self):
        with pytest.raises(CorpusError):
            named_site("myspace")

    def test_seed_varies_instances(self):
        a = named_site("nytimes", seed=0)
        b = named_site("nytimes", seed=1)
        assert [r.size for r in a.page.resources()] != \
               [r.size for r in b.page.resources()]


class TestAlexaCorpus:
    def test_deterministic(self):
        a = alexa_corpus(seed=3, size=10, single_origin_sites=1, scale=0.2)
        b = alexa_corpus(seed=3, size=10, single_origin_sites=1, scale=0.2)
        assert [s.origin_count for s in a] == [s.origin_count for s in b]

    def test_more_singles_than_sites_rejected(self):
        with pytest.raises(CorpusError):
            alexa_corpus(size=2, single_origin_sites=3)

    def test_statistics_empty_rejected(self):
        with pytest.raises(CorpusError):
            corpus_statistics([])


#: mm-corpus generate arguments (and the alexa_corpus keywords they
#: become) refused as a CorpusError, exit 2 — not a math-domain
#: traceback, and not zero-sized bodies.
BAD_CORPUS_ARGS = {
    "scale-negative": (["--scale", "-1"], {"scale": -1.0}, "scale"),
    "singles-negative": (["--singles", "-1"], {"single_origin_sites": -1},
                         "single-origin sites"),
    "scale-zero": (["--scale", "0"], {"scale": 0.0}, "scale"),
}


@pytest.mark.parametrize("argv,kwargs,names", BAD_CORPUS_ARGS.values(),
                         ids=BAD_CORPUS_ARGS)
def test_out_of_range_corpus_arguments_are_refused(argv, kwargs, names,
                                                   tmp_path, monkeypatch,
                                                   capsys):
    from repro.cli import mm_corpus

    with pytest.raises(CorpusError, match=names):
        alexa_corpus(seed=0, size=12, **kwargs)
    out = tmp_path / "corpus"
    monkeypatch.setattr("sys.argv", ["mm-corpus", "generate", "--out",
                                     str(out), "--size", "12", *argv])
    assert mm_corpus.main() == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and names in err
    assert not out.exists()


@pytest.mark.parametrize("scale", [0.0, -0.5, float("nan"), float("inf")])
def test_generate_site_refuses_a_scale_that_is_not_positive_and_finite(scale):
    with pytest.raises(CorpusError, match="scale must be positive"):
        generate_site("bad.com", seed=1, scale=scale)
