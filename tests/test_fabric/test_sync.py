"""Tests for corpus shipping: manifests + missing-blob delta."""

import json
import os

import pytest

from repro.errors import StoreFormatError, StoreIntegrityError
from repro.http.body import Body
from repro.http.message import Headers, HttpRequest, HttpResponse
from repro.net.address import IPv4Address
from repro.obs.registry import MetricsRegistry
from repro.record.cas import CasStore, body_checksum
from repro.record.entry import RequestResponsePair
from repro.record.store import RecordedSite, read_manifest
from repro.fabric.sync import corpus_site_dirs, ship_corpus, ship_site
from tests.store_fixtures import revouch, write_flat_site

SHARED_BODY = b"function jquery() { /* everywhere */ }" * 30


def make_pair(host, uri, ip, body=None):
    request = HttpRequest("GET", uri, Headers([("Host", host)]))
    response = HttpResponse(
        200,
        headers=Headers([("Content-Type", "text/html")]),
        body=Body.from_bytes(
            body if body is not None
            else f"<html>{host}{uri}</html>".encode()),
    )
    return RequestResponsePair("http", IPv4Address(ip), 80,
                               request, response)


def make_site(name, n=0):
    """A site carrying one unique body plus the shared one."""
    site = RecordedSite(name)
    site.add_pair(make_pair(name, "/", f"23.1.{n}.1"))
    site.add_pair(make_pair(name, "/lib.js", f"23.1.{n}.1",
                            body=SHARED_BODY))
    return site


def make_corpus(root, names, cas=None):
    for n, name in enumerate(names):
        make_site(name, n).save(root / name, cas=cas)


def pairs_bytes(directory):
    return [p.to_canonical_bytes()
            for p in RecordedSite.load(directory).pairs]


class TestShipSite:
    def test_flat_site_ships_without_cas(self, tmp_path):
        write_flat_site(make_site("flat.example"),
                        tmp_path / "src" / "flat.example")
        report = ship_site(tmp_path / "src" / "flat.example",
                           tmp_path / "dst" / "flat.example")
        assert report.sites == 1 and report.refs == 0
        assert (pairs_bytes(tmp_path / "dst" / "flat.example")
                == pairs_bytes(tmp_path / "src" / "flat.example"))

    def test_v3_site_requires_dest_cas(self, tmp_path):
        make_corpus(tmp_path / "src", ["a.example"],
                    cas=CasStore(tmp_path / "src" / ".cas"))
        with pytest.raises(StoreFormatError, match="destination CAS"):
            ship_site(tmp_path / "src" / "a.example",
                      tmp_path / "dst" / "a.example")

    def test_v3_site_ships_blobs_and_rewrites_manifest(self, tmp_path):
        make_corpus(tmp_path / "src", ["a.example"],
                    cas=CasStore(tmp_path / "src" / ".cas"))
        dest_cas = CasStore(tmp_path / "dst" / ".cas")
        report = ship_site(tmp_path / "src" / "a.example",
                           tmp_path / "dst" / "a.example",
                           dest_cas=dest_cas)
        assert report.refs == 2
        assert report.blobs_transferred == 2
        assert report.blobs_deduped == 0
        assert dest_cas.has(body_checksum(SHARED_BODY))
        manifest = read_manifest(tmp_path / "dst" / "a.example")
        assert manifest["format_version"] == 3
        assert (pairs_bytes(tmp_path / "dst" / "a.example")
                == pairs_bytes(tmp_path / "src" / "a.example"))

    def test_reship_transfers_nothing(self, tmp_path):
        make_corpus(tmp_path / "src", ["a.example"],
                    cas=CasStore(tmp_path / "src" / ".cas"))
        dest_cas = CasStore(tmp_path / "dst" / ".cas")
        args = (tmp_path / "src" / "a.example",
                tmp_path / "dst" / "a.example")
        ship_site(*args, dest_cas=dest_cas)
        again = ship_site(*args, dest_cas=dest_cas)
        assert again.blobs_transferred == 0
        assert again.blobs_deduped == 2
        assert again.bytes_transferred == 0


    def test_damaged_source_ships_nothing(self, tmp_path):
        make_corpus(tmp_path / "src", ["a.example"],
                    cas=CasStore(tmp_path / "src" / ".cas"))
        target = tmp_path / "src" / "a.example" / "pair-00001.json"
        raw = bytearray(target.read_bytes())
        raw[40] ^= 0x01
        target.write_bytes(bytes(raw))
        dest_cas = CasStore(tmp_path / "dst" / ".cas")
        with pytest.raises(StoreIntegrityError, match=str(target)):
            ship_site(tmp_path / "src" / "a.example",
                      tmp_path / "dst" / "a.example", dest_cas=dest_cas)
        assert not (tmp_path / "dst").exists()
        # Not a pair at all, though the manifest vouches for the bytes.
        target.write_bytes(b"{}")
        revouch(tmp_path / "src" / "a.example", "pair-00001.json")
        with pytest.raises(StoreFormatError, match=str(target)):
            ship_site(tmp_path / "src" / "a.example",
                      tmp_path / "dst" / "a.example", dest_cas=dest_cas)
        assert not (tmp_path / "dst").exists()

    def test_entry_outside_the_folder_ships_nothing_anywhere(self, tmp_path):
        source = tmp_path / "src" / "a.example"
        make_corpus(tmp_path / "src", ["a.example"],
                    cas=CasStore(tmp_path / "src" / ".cas"))
        (tmp_path / "victim.json").write_bytes(
            (source / "pair-00000.json").read_bytes())
        manifest = read_manifest(source)
        manifest["pairs"][0]["file"] = "../../victim.json"
        (source / "site.json").write_text(json.dumps(manifest))
        before = sorted(os.listdir(tmp_path))
        with pytest.raises(StoreFormatError, match="site.json"):
            ship_site(source, tmp_path / "dst" / "deep" / "a.example",
                      dest_cas=CasStore(tmp_path / "dst" / ".cas"))
        # <dest>/../../victim.json is where the parent commit wrote.
        assert sorted(os.listdir(tmp_path)) == before
        assert not (tmp_path / "dst").exists()


class TestShipCorpus:
    def test_cross_site_duplicates_ship_once(self, tmp_path):
        names = ["a.example", "b.example", "c.example"]
        make_corpus(tmp_path / "src", names,
                    cas=CasStore(tmp_path / "src" / ".cas"))
        metrics = MetricsRegistry()
        report = ship_corpus(tmp_path / "src", tmp_path / "dst",
                             metrics=metrics)
        assert report.sites == 3
        # 3 unique roots + the shared library once.
        assert report.blobs_transferred == 4
        assert report.blobs_deduped == 2
        assert (metrics.counter("fabric.blobs_transferred").value == 4)
        for name in names:
            assert (pairs_bytes(tmp_path / "dst" / name)
                    == pairs_bytes(tmp_path / "src" / name))

    def test_site_dirs_skips_non_sites(self, tmp_path):
        make_corpus(tmp_path / "src", ["a.example"],
                    cas=CasStore(tmp_path / "src" / ".cas"))
        (tmp_path / "src" / "notes.txt").write_text("not a site")
        dirs = corpus_site_dirs(tmp_path / "src")
        assert [d.rsplit("/", 1)[-1] for d in dirs] == ["a.example"]

    def test_shipped_corpus_fscks_clean(self, tmp_path):
        from repro.record.fsck import fsck_tree

        make_corpus(tmp_path / "src", ["a.example", "b.example"],
                    cas=CasStore(tmp_path / "src" / ".cas"))
        ship_corpus(tmp_path / "src", tmp_path / "dst")
        reports = fsck_tree(str(tmp_path / "dst"))
        assert all(r.clean for r in reports)
