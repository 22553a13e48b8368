"""Tests for the content-addressed body store and the bundles built on it."""

import json
import os

import pytest

from repro.browser import Browser
from repro.core import HostMachine, ShellStack
from repro.errors import BlobCorruptError, BlobMissingError, StoreFormatError
from repro.http.body import Body
from repro.http.message import Headers, HttpRequest, HttpResponse
from repro.net.address import IPv4Address
from repro.record.cas import CasStore, body_checksum
from repro.record.entry import RequestResponsePair
from repro.record.store import RecordedSite, read_site, site_cas
from repro.sim import Simulator
from tests.store_fixtures import revouch, write_flat_site

SHARED_BODY = b"var jquery = 'the same on every site';" * 20


def make_pair(host, uri, ip, body=None, port=80):
    request = HttpRequest("GET", uri, Headers([("Host", host)]))
    response = HttpResponse(
        200,
        headers=Headers([("Content-Type", "text/html")]),
        body=Body.from_bytes(
            body if body is not None
            else f"<html>{host}{uri}</html>".encode()),
    )
    return RequestResponsePair("http", IPv4Address(ip), port,
                               request, response)


def make_site(name, n_pairs=4, shared=True):
    """A site with real bodies; half the pairs share SHARED_BODY."""
    site = RecordedSite(name)
    for i in range(n_pairs):
        body = SHARED_BODY if (shared and i % 2) else None
        site.add_pair(make_pair(f"h{i}.{name}", f"/r{i}",
                                f"23.0.1.{i + 1}", body=body))
    return site


class TestCasStore:
    def test_put_get_round_trip(self, tmp_path):
        store = CasStore(tmp_path / "cas")
        ref = store.put(b"hello body")
        assert store.get(ref) == b"hello body"
        assert ref == body_checksum(b"hello body")
        assert store.has(ref) and ref in store

    def test_write_once_dedup(self, tmp_path):
        store = CasStore(tmp_path / "cas")
        first = store.put(b"same bytes")
        second = store.put(b"same bytes")
        assert first == second
        assert store.written == 1
        assert store.deduped == 1
        assert store.bytes_written == len(b"same bytes")
        assert len(store) == 1

    def test_get_missing_raises(self, tmp_path):
        store = CasStore(tmp_path / "cas")
        with pytest.raises(BlobMissingError):
            store.get(body_checksum(b"never stored"))

    def test_malformed_ref_raises(self, tmp_path):
        store = CasStore(tmp_path / "cas")
        with pytest.raises(BlobMissingError):
            store.get("../../etc/passwd")
        with pytest.raises(BlobMissingError):
            store.get("zz" * 16)

    def test_corrupt_blob_detected(self, tmp_path):
        store = CasStore(tmp_path / "cas")
        ref = store.put(b"will be flipped")
        path = store.path_for(ref)
        raw = bytearray(open(path, "rb").read())
        raw[0] ^= 0xFF
        open(path, "wb").write(bytes(raw))
        with pytest.raises(BlobCorruptError):
            store.get(ref)

    def test_blobs_and_stats(self, tmp_path):
        store = CasStore(tmp_path / "cas")
        store.put(b"a" * 10)
        store.put(b"b" * 20)
        listed = list(store.blobs())
        assert len(listed) == 2
        assert sorted(size for __, size in listed) == [10, 20]
        assert store.stats() == {"blobs": 2, "bytes": 30}

    def test_concurrent_put_same_blob(self, tmp_path):
        # Two stores over one root (stand-ins for two processes).
        a = CasStore(tmp_path / "cas")
        b = CasStore(tmp_path / "cas")
        ref_a = a.put(b"shared across workers")
        ref_b = b.put(b"shared across workers")
        assert ref_a == ref_b
        assert a.get(ref_a) == b"shared across workers"


class TestFormatV3:
    def test_round_trip_byte_identical_to_flat(self, tmp_path):
        site = make_site("v3.example")
        flat_dir = tmp_path / "flat"
        cas_dir = tmp_path / "cased"
        write_flat_site(site, flat_dir)
        site.save(cas_dir, cas=CasStore(tmp_path / "cas"))
        flat = RecordedSite.load(flat_dir)
        cased = RecordedSite.load(cas_dir)
        assert len(flat) == len(cased) == len(site)
        for f, c in zip(flat.pairs, cased.pairs):
            assert f.to_canonical_bytes() == c.to_canonical_bytes()

    def test_manifest_declares_v4_and_cas(self, tmp_path):
        site = make_site("v3.example")
        cas = CasStore(tmp_path / "cas")
        site.save(tmp_path / "site", cas=cas)
        metadata = json.load(open(tmp_path / "site" / "site.json"))
        assert metadata["format_version"] == 4
        assert metadata["cas"] == os.path.relpath(cas.root,
                                                  tmp_path / "site")
        resolved = site_cas(tmp_path / "site")
        assert os.path.realpath(resolved.root) == os.path.realpath(cas.root)

    def test_pair_files_carry_refs_not_bodies(self, tmp_path):
        site = make_site("v3.example")
        site.save(tmp_path / "site", cas=CasStore(tmp_path / "cas"))
        data = json.load(open(tmp_path / "site" / "pair-00000.json"))
        assert "cas" in data["response"]["body"]
        assert "content_b64" not in data["response"]["body"]

    def test_shared_bodies_stored_once_across_sites(self, tmp_path):
        cas = CasStore(tmp_path / "cas")
        for name in ("a.example", "b.example", "c.example"):
            make_site(name).save(tmp_path / name, cas=cas)
        # Each site: 2 unique bodies + 2 shared; the shared body is one
        # blob for the whole corpus.
        shared_ref = body_checksum(SHARED_BODY)
        assert cas.has(shared_ref)
        # 3 sites x 2 unique bodies + 1 shared blob
        assert len(cas) == 7
        assert cas.deduped > 0

    def test_self_contained_by_default(self, tmp_path):
        site = make_site("v3.example")
        site.save(tmp_path / "site")
        metadata = json.load(open(tmp_path / "site" / "site.json"))
        assert metadata["format_version"] == 4 and metadata["cas"] == ".cas"
        assert len(CasStore(tmp_path / "site" / ".cas")) == 3
        loaded = RecordedSite.load(tmp_path / "site")
        assert ([p.to_canonical_bytes() for p in loaded.pairs]
                == [p.to_canonical_bytes() for p in site.pairs])

    def test_site_blob_refs(self, tmp_path):
        site = make_site("v3.example")
        flat_dir = tmp_path / "flat"
        write_flat_site(site, flat_dir)
        assert [p.refs for p in read_site(flat_dir)[1]] == [[]] * 4
        cas_dir = tmp_path / "cased"
        site.save(cas_dir, cas=CasStore(tmp_path / "cas"))
        refs = [ref for p in read_site(cas_dir)[1] for ref in p.refs]
        assert refs.count(body_checksum(SHARED_BODY)) == 2
        assert len(set(refs)) == 3  # 2 unique + 1 shared

    def test_site_cas_rejects_v2(self, tmp_path):
        site = make_site("flat.example")
        write_flat_site(site, tmp_path / "site")
        with pytest.raises(StoreFormatError):
            site_cas(tmp_path / "site")

    def test_dangling_ref_strict_load_raises(self, tmp_path):
        site = make_site("v3.example")
        cas = CasStore(tmp_path / "cas")
        site.save(tmp_path / "site", cas=cas)
        os.remove(cas.path_for(body_checksum(SHARED_BODY)))
        with pytest.raises(BlobMissingError):
            RecordedSite.load(tmp_path / "site")

    def test_dangling_ref_tolerant_load_salvages(self, tmp_path):
        site = make_site("v3.example")
        cas = CasStore(tmp_path / "cas")
        site.save(tmp_path / "site", cas=cas)
        os.remove(cas.path_for(body_checksum(SHARED_BODY)))
        loaded, damage = RecordedSite.load_tolerant(tmp_path / "site")
        assert not damage.clean
        assert {d.kind for d in damage.problems} == {"dangling"}
        assert len(loaded) == 2  # the two pairs with unique bodies

    def test_corrupt_blob_tolerant_load_reports(self, tmp_path):
        site = make_site("v3.example")
        cas = CasStore(tmp_path / "cas")
        site.save(tmp_path / "site", cas=cas)
        path = cas.path_for(body_checksum(SHARED_BODY))
        raw = bytearray(open(path, "rb").read())
        raw[0] ^= 0xFF
        open(path, "wb").write(bytes(raw))
        __, damage = RecordedSite.load_tolerant(tmp_path / "site")
        assert {d.kind for d in damage.problems} == {"corrupt-blob"}


class TestStrictLoadNamesTheDamage:
    """Each damage kind: the exception class and the path it names."""

    def _saved(self, tmp_path):
        cas = CasStore(tmp_path / "cas")
        directory = tmp_path / "site"
        make_site("strict.example").save(directory, cas=cas)
        return directory, cas

    def _assert_raises(self, directory, error, names):
        with pytest.raises(error) as info:
            RecordedSite.load(directory)
        assert type(info.value) is error
        assert str(names) in str(info.value)

    def test_missing(self, tmp_path):
        directory, __ = self._saved(tmp_path)
        (directory / "pair-00002.json").unlink()
        self._assert_raises(directory, StoreFormatError,
                            directory / "pair-00002.json")

    def test_truncated(self, tmp_path):
        from repro.errors import StoreIntegrityError

        directory, __ = self._saved(tmp_path)
        target = directory / "pair-00002.json"
        target.write_bytes(target.read_bytes()[:-1])
        self._assert_raises(directory, StoreIntegrityError, target)

    def test_checksum(self, tmp_path):
        from repro.errors import StoreIntegrityError

        directory, __ = self._saved(tmp_path)
        target = directory / "pair-00002.json"
        target.write_bytes(target.read_bytes().replace(b"GET", b"PUT"))
        self._assert_raises(directory, StoreIntegrityError, target)

    def test_bad_json(self, tmp_path):
        directory, __ = self._saved(tmp_path)
        (directory / "pair-00002.json").write_bytes(b"{broken")
        revouch(directory, "pair-00002.json")
        self._assert_raises(directory, StoreFormatError,
                            directory / "pair-00002.json")

    @pytest.mark.parametrize("bent", ["request", "response", "body"])
    def test_malformed_pair(self, tmp_path, bent):
        directory, __ = self._saved(tmp_path)
        target = directory / "pair-00002.json"
        data = json.loads(target.read_text())
        if bent == "body":
            data["response"]["body"] = "not an object"
        else:
            data[bent] = "not an object"
        target.write_text(json.dumps(data))
        revouch(directory, "pair-00002.json")
        self._assert_raises(directory, StoreFormatError, target)

    def test_dangling_blob(self, tmp_path):
        directory, cas = self._saved(tmp_path)
        os.remove(cas.path_for(body_checksum(SHARED_BODY)))
        self._assert_raises(directory, BlobMissingError,
                            directory / "pair-00001.json")

    def test_corrupt_blob(self, tmp_path):
        directory, cas = self._saved(tmp_path)
        path = cas.path_for(body_checksum(SHARED_BODY))
        open(path, "wb").write(b"rotten")
        self._assert_raises(directory, BlobCorruptError,
                            directory / "pair-00001.json")

    def test_orphan(self, tmp_path):
        directory, __ = self._saved(tmp_path)
        (directory / "pair-00042.json").write_text("{}")
        self._assert_raises(directory, StoreFormatError,
                            directory / "pair-00042.json")


class TestReplayRoundTrip:
    def _load_page(self, store):
        """Replay one fetch of every recorded root through ReplayShell."""
        from repro.cli.common import page_from_recording

        sim = Simulator(seed=3)
        machine = HostMachine(sim)
        stack = ShellStack(machine)
        stack.add_replay(store)
        browser = Browser(sim, stack.transport, stack.resolver_endpoint,
                          machine=machine)
        page = page_from_recording(store)
        result = browser.load(page)
        sim.run_until(lambda: result.complete, timeout=120.0)
        return result

    def test_replay_identical_flat_vs_cas(self, tmp_path):
        # The acceptance bullet: a corpus with shared bodies stored once
        # round-trips through ReplayShell unchanged.
        site = RecordedSite("replay.example")
        html = b"<html><script src='/app.js'></script>shared</html>"
        site.add_pair(make_pair("replay.example", "/", "23.0.2.1",
                                body=html))
        site.add_pair(make_pair("replay.example", "/app.js", "23.0.2.1",
                                body=SHARED_BODY))
        flat_dir = tmp_path / "flat"
        cas_dir = tmp_path / "cased"
        write_flat_site(site, flat_dir)
        site.save(cas_dir, cas=CasStore(tmp_path / "cas"))

        flat_result = self._load_page(RecordedSite.load(flat_dir))
        cas_result = self._load_page(RecordedSite.load(cas_dir))
        assert flat_result.complete and cas_result.complete
        assert flat_result.page_load_time == cas_result.page_load_time
        assert (flat_result.resources_loaded
                == cas_result.resources_loaded)
        assert flat_result.bytes_downloaded == cas_result.bytes_downloaded
