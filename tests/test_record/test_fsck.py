"""Tests for recorded-store integrity checking and repair (mm-fsck)."""

import json
import os

import pytest

from repro.errors import StoreFormatError, StoreIntegrityError
from repro.http.body import Body
from repro.http.message import Headers, HttpRequest, HttpResponse
from repro.net.address import AddressAllocator, IPv4Address
from repro.record.entry import RequestResponsePair
from repro.record.fsck import (
    corpus_site_dirs, fsck_site, fsck_tree, is_site_dir,
)
from repro.record.store import RecordedSite
from tests.store_fixtures import revouch, write_flat_site


def make_pair(host, uri, ip):
    request = HttpRequest("GET", uri, Headers([("Host", host)]))
    response = HttpResponse(
        200,
        headers=Headers([("Content-Type", "text/html")]),
        body=Body.from_bytes(f"<html>{uri}</html>".encode()),
    )
    return RequestResponsePair("http", IPv4Address(ip), 80, request, response)


@pytest.fixture
def site_dir(tmp_path):
    site = RecordedSite("example")
    for i in range(6):
        site.add_pair(make_pair(f"h{i}.example.com", f"/r{i}",
                                f"23.0.0.{i + 1}"))
    directory = tmp_path / "site"
    site.save(directory)
    return directory


def _seed_damage(site_dir):
    """The acceptance corruptions: truncated, flipped byte, missing."""
    truncated = site_dir / "pair-00000.json"
    truncated.write_bytes(truncated.read_bytes()[:100])
    flipped = site_dir / "pair-00001.json"
    raw = bytearray(flipped.read_bytes())
    raw[10] ^= 0xFF
    flipped.write_bytes(bytes(raw))
    (site_dir / "pair-00002.json").unlink()


class TestCleanSite:
    def test_clean_report(self, site_dir):
        report = fsck_site(site_dir)
        assert report.clean
        assert report.pairs_ok == 6
        assert report.format_version == 4
        assert not report.repaired

    def test_is_site_dir(self, site_dir, tmp_path):
        assert is_site_dir(site_dir)
        assert not is_site_dir(tmp_path)


class TestDetection:
    def test_every_seeded_corruption_reported(self, site_dir):
        _seed_damage(site_dir)
        report = fsck_site(site_dir)
        kinds = {p.file: p.kind for p in report.problems}
        assert kinds["pair-00000.json"] == "truncated"
        assert kinds["pair-00001.json"] == "corrupt"
        assert kinds["pair-00002.json"] == "missing"
        assert report.pairs_ok == 3
        assert not report.clean
        # Detection alone never modifies the folder.
        assert not (site_dir / "quarantine").exists()

    def test_orphan_pair_detected(self, site_dir):
        (site_dir / "pair-00099.json").write_text("{}")
        report = fsck_site(site_dir)
        assert [p.kind for p in report.problems] == ["orphan"]

    def test_semantically_malformed_pair(self, site_dir):
        # Valid JSON, valid checksum-on-disk... but not a pair. Rewrite
        # the manifest entry so size/checksum match the bad content.
        bad = site_dir / "pair-00003.json"
        bad.write_text('{"scheme": "http"}')
        revouch(site_dir, "pair-00003.json")
        report = fsck_site(site_dir)
        assert [p.kind for p in report.problems] == ["malformed"]

    def test_blob_plus_tail_short_of_the_length_is_damage(self, site_dir):
        # A pair file (vouched for) declaring a tail its length disagrees
        # with: the load refuses it and fsck reports it.
        path = site_dir / "pair-00004.json"
        data = json.loads(path.read_text())
        data["response"]["body"]["tail"] = 7
        path.write_text(json.dumps(data))
        revouch(site_dir, "pair-00004.json")
        with pytest.raises(StoreFormatError, match="tail"):
            RecordedSite.load(site_dir)
        report = fsck_site(site_dir)
        assert [(p.file, p.kind) for p in report.problems] == [
            ("pair-00004.json", "malformed")]
        assert "7B tail" in report.problems[0].detail

    def test_unreadable_pair_is_damage_not_an_oserror(self, site_dir):
        # The file is there, the OS will not hand over its bytes.
        bad = site_dir / "pair-00000.json"
        bad.unlink()
        bad.mkdir()
        with pytest.raises(StoreIntegrityError, match=str(bad)):
            RecordedSite.load(site_dir)
        salvaged, damage = RecordedSite.load_tolerant(site_dir)
        assert len(salvaged) == 5
        assert [(p.file, p.kind) for p in damage.problems] == [
            ("pair-00000.json", "unreadable")]
        assert fsck_site(site_dir).problems == damage.problems
        assert fsck_site(site_dir, repair=True).quarantined == [
            "pair-00000.json"]
        assert len(RecordedSite.load(site_dir)) == 5

    def test_unusable_manifest_is_fatal(self, tmp_path):
        directory = tmp_path / "broken"
        directory.mkdir()
        (directory / "site.json").write_text("{not json")
        report = fsck_site(directory)
        assert report.fatal
        repaired = fsck_site(directory, repair=True)
        assert not repaired.repaired  # refuses to guess


class TestRepair:
    def test_repair_quarantines_and_rewrites(self, site_dir):
        _seed_damage(site_dir)
        survivors = {
            name: (site_dir / name).read_bytes()
            for name in ("pair-00003.json", "pair-00004.json",
                         "pair-00005.json")
        }
        report = fsck_site(site_dir, repair=True)
        assert report.repaired
        assert sorted(report.quarantined) == [
            "pair-00000.json", "pair-00001.json",
        ]
        quarantine = site_dir / "quarantine"
        assert sorted(os.listdir(quarantine)) == [
            "pair-00000.json", "pair-00001.json",
        ]
        # Valid pair files are byte-untouched.
        for name, content in survivors.items():
            assert (site_dir / name).read_bytes() == content
        # The rewritten manifest covers exactly the survivors.
        manifest = json.loads((site_dir / "site.json").read_text())
        assert manifest["format_version"] == 4 and manifest["cas"] == ".cas"
        assert manifest["pair_count"] == 3
        assert sorted(e["file"] for e in manifest["pairs"]) == \
            sorted(survivors)

    def test_post_repair_strict_load_succeeds(self, site_dir):
        _seed_damage(site_dir)
        with pytest.raises((StoreFormatError, StoreIntegrityError)):
            RecordedSite.load(site_dir)
        fsck_site(site_dir, repair=True)
        loaded = RecordedSite.load(site_dir)
        assert len(loaded) == 3
        assert loaded.damage is None
        assert fsck_site(site_dir).clean

    def test_repair_of_clean_site_is_noop(self, site_dir):
        before = (site_dir / "site.json").read_bytes()
        report = fsck_site(site_dir, repair=True)
        assert report.clean and not report.repaired
        assert (site_dir / "site.json").read_bytes() == before


class TestManifestEntriesConfined:
    def test_repair_never_touches_a_file_outside_the_folder(self, tmp_path):
        site = RecordedSite("escape")
        site.add_pair(make_pair("x.com", "/", "23.0.0.1"))
        site.add_pair(make_pair("x.com", "/kept", "23.0.0.1"))
        directory = tmp_path / "corpus" / "site"
        site.save(directory)
        victim = tmp_path / "victim.json"
        victim.write_bytes(b"not this folder's to judge")
        manifest = json.loads((directory / "site.json").read_text())
        manifest["pairs"][0]["file"] = "../../victim.json"
        (directory / "site.json").write_text(json.dumps(manifest))

        report = fsck_site(directory, repair=True)
        assert [(p.file, p.kind) for p in report.problems] == [
            ("site.json", "malformed"), ("pair-00000.json", "orphan")]
        assert victim.read_bytes() == b"not this folder's to judge"
        assert report.quarantined == ["pair-00000.json"]
        assert os.listdir(directory / "quarantine") == ["pair-00000.json"]
        assert len(RecordedSite.load(directory)) == 1
        assert fsck_site(directory).clean


class TestOlderFormats:
    def test_v1_folder_is_fatal_and_left_alone(self, site_dir):
        manifest = json.loads((site_dir / "site.json").read_text())
        v1 = dict(manifest, format_version=1,
                  pairs=[e["file"] for e in manifest["pairs"]])
        (site_dir / "site.json").write_text(json.dumps(v1))
        before = sorted(os.listdir(site_dir))
        report = fsck_site(site_dir, repair=True)
        assert report.fatal and not report.repaired
        assert "format version 1" in report.problems[0].detail
        assert sorted(os.listdir(site_dir)) == before

    def test_flat_folder_checks_and_repairs_without_a_cas(self, tmp_path):
        site = RecordedSite("flat")
        for i in range(3):
            site.add_pair(make_pair("x.com", f"/{i}", "23.0.0.1"))
        flat = tmp_path / "flat"
        write_flat_site(site, flat)
        assert [r.kind for r in fsck_tree(flat)] == ["site"]
        assert fsck_site(flat).clean
        (flat / "pair-00001.json").write_bytes(b"junk")
        assert fsck_site(flat, repair=True).repaired
        manifest = json.loads((flat / "site.json").read_text())
        # Repair copies the manifest it read: still flat, still v2.
        assert manifest["format_version"] == 2 and "cas" not in manifest
        assert len(RecordedSite.load(flat)) == 2


class TestFsckTree:
    def test_corpus_directory(self, tmp_path):
        from repro.record.cas import CasStore

        for name in ("site-a", "site-b"):
            site = RecordedSite(name)
            site.add_pair(make_pair("x.com", "/", "23.0.0.1"))
            site.save(tmp_path / name, cas=CasStore(tmp_path / ".cas"))
        (tmp_path / "site-b" / "pair-00000.json").write_bytes(b"junk")
        reports = fsck_tree(tmp_path)
        assert [r.kind for r in reports] == ["site", "site", "cas"]
        assert reports[0].clean and not reports[1].clean
        assert reports[2].clean  # site-a still references the one blob

    def test_site_dirs_skips_non_sites(self, tmp_path):
        from repro.record.cas import CasStore

        site = RecordedSite("a.example")
        site.add_pair(make_pair("a.example", "/", "23.0.0.1"))
        site.save(tmp_path / "src" / "a.example",
                  cas=CasStore(tmp_path / "src" / ".cas"))
        (tmp_path / "src" / "notes.txt").write_text("not a site")
        dirs = corpus_site_dirs(tmp_path / "src")
        assert [d.rsplit("/", 1)[-1] for d in dirs] == ["a.example"]

    def test_single_site_directory(self, site_dir):
        reports = fsck_tree(site_dir)
        assert [r.kind for r in reports] == ["site", "cas"]
        assert all(r.clean for r in reports)
        assert reports[1].pairs_ok == 6  # one blob per pair body

    def test_single_site_checks_the_store_it_owns(self, site_dir):
        from repro.record.cas import CasStore, body_checksum

        cas = CasStore(site_dir / ".cas")
        flipped = body_checksum(b"<html>/r0</html>")
        path = cas.path_for(flipped)
        raw = bytearray(open(path, "rb").read())
        raw[0] ^= 0xFF
        open(path, "wb").write(bytes(raw))
        unreferenced = cas.put(b"nobody references this")

        site, store = fsck_tree(site_dir)
        assert [(p.file, p.kind) for p in site.problems] == [
            ("pair-00000.json", "corrupt-blob")]
        assert {(p.file, p.kind) for p in store.problems} == {
            (flipped, "corrupt"), (unreferenced, "orphan")}
        assert os.path.exists(path) and cas.has(unreferenced)  # dry run

        site, store = fsck_tree(site_dir, repair=True)
        assert site.quarantined == ["pair-00000.json"]
        assert sorted(store.quarantined) == sorted([flipped, unreferenced])
        assert sorted(os.listdir(site_dir / ".cas" / "quarantine")) == \
            sorted([flipped + ".bin", unreferenced + ".bin"])
        assert all(r.clean for r in fsck_tree(site_dir))
        assert len(RecordedSite.load(site_dir)) == 5

    def test_site_inside_a_corpus_leaves_the_shared_store_alone(
            self, tmp_path):
        from repro.record.cas import CasStore

        cas = CasStore(tmp_path / ".cas")
        for name in ("site-a", "site-b"):
            site = RecordedSite(name)
            site.add_pair(make_pair("x.com", f"/{name}", "23.0.0.1"))
            site.save(tmp_path / name, cas=cas)
        # site-b's blob is no orphan just because only site-a is checked.
        assert [r.kind for r in fsck_tree(tmp_path / "site-a")] == ["site"]
        assert [r.kind for r in fsck_tree(tmp_path)] == [
            "site", "site", "cas"]

    def test_unreadable_site_keeps_orphans_out_of_judgement(
            self, tmp_path):
        from repro.record.cas import CasStore

        cas = CasStore(tmp_path / ".cas")
        for name in ("site-a", "site-b"):
            site = RecordedSite(name)
            site.add_pair(make_pair("x.com", f"/{name}", "23.0.0.1"))
            site.save(tmp_path / name, cas=cas)
        (tmp_path / "site-b" / "site.json").write_text("{torn")
        reports = fsck_tree(tmp_path, repair=True)
        # site-b's blob is referenced by a manifest nobody can read: it
        # is not an orphan, so the store is checked but nothing moves.
        assert [(r.kind, r.fatal) for r in reports] == [
            ("site", False), ("site", True), ("cas", False)]
        assert reports[2].clean and reports[2].pairs_ok == 2
        assert len(cas) == 2 and not (tmp_path / ".cas/quarantine").exists()

    def test_unreadable_site_does_not_hide_corrupt_blobs(self, tmp_path):
        """Both blobs corrupt, s0's manifest unreadable: the re-hash still
        finds both — the one only s0 references included — and repair
        quarantines corrupt blobs, never an unjudged orphan."""
        from repro.record.cas import CasStore

        cas = CasStore(tmp_path / ".cas")
        for name in ("s0", "s1"):
            site = RecordedSite(name)
            site.add_pair(make_pair("x.com", f"/{name}", "23.0.0.1"))
            site.save(tmp_path / name, cas=cas)
        blobs = sorted(ref for ref, __ in cas.blobs())
        for ref in blobs:
            path = cas.path_for(ref)
            raw = bytearray(open(path, "rb").read())
            raw[0] ^= 0xFF
            open(path, "wb").write(bytes(raw))
        unreferenced = cas.put(b"nobody references this")
        (tmp_path / "s0" / "site.json").write_bytes(b"\xff{torn")

        *sites, store = fsck_tree(tmp_path)
        assert [(r.kind, r.fatal) for r in sites] == [
            ("site", True), ("site", False)]
        assert sorted((p.file, p.kind) for p in store.problems) == \
            sorted((ref, "corrupt") for ref in blobs)

        *sites, store = fsck_tree(tmp_path, repair=True)
        assert sorted(store.quarantined) == blobs
        assert sorted(os.listdir(tmp_path / ".cas" / "quarantine")) == \
            sorted(ref + ".bin" for ref in blobs)
        assert cas.has(unreferenced)

    def test_no_sites_is_an_error(self, tmp_path):
        with pytest.raises(StoreFormatError):
            fsck_tree(tmp_path)


class TestReplayAfterDamage:
    def test_tolerant_load_serves_survivors_with_damage_counted(
            self, site_dir):
        from repro.core.replayshell import ReplayShell
        from repro.net.namespace import NetworkNamespace
        from repro.obs.registry import MetricsRegistry
        from repro.sim.simulator import Simulator

        _seed_damage(site_dir)
        salvaged, damage = RecordedSite.load_tolerant(site_dir)
        assert len(salvaged) == 3
        assert len(damage) == 3
        sim = Simulator(seed=1)
        metrics = MetricsRegistry.install(sim)
        shell = ReplayShell(sim, NetworkNamespace(sim, "root"),
                            AddressAllocator(), salvaged)
        counters = metrics.snapshot()["counters"]
        assert counters["replayshell.store.pairs_loaded"] == 3
        assert counters["replayshell.store.pairs_damaged"] == 3
        # A miss on a quarantined resource explains itself.
        request = HttpRequest("GET", "/r0",
                              Headers([("Host", "h0.example.com")]))
        match = shell.matcher.match(request)
        assert match.response.status == 404
        assert b"damaged" in match.response.body.as_bytes()
        # Surviving pairs still serve.
        request = HttpRequest("GET", "/r3",
                              Headers([("Host", "h3.example.com")]))
        assert shell.matcher.match(request).response.status == 200

    def test_all_pairs_damaged_names_fsck(self, site_dir):
        from repro.core.replayshell import ReplayShell
        from repro.errors import ShellError
        from repro.net.namespace import NetworkNamespace
        from repro.sim.simulator import Simulator

        for index in range(6):
            (site_dir / f"pair-{index:05d}.json").write_bytes(b"junk")
        salvaged, damage = RecordedSite.load_tolerant(site_dir)
        assert len(salvaged) == 0
        sim = Simulator(seed=1)
        with pytest.raises(ShellError, match="mm-fsck"):
            ReplayShell(sim, NetworkNamespace(sim, "root"),
                        AddressAllocator(), salvaged)
