"""Unit tests for the recorded-site store and pair serialization."""

import json
import os

import pytest

from repro.errors import StoreFormatError
from repro.http.body import Body
from repro.http.message import Headers, HttpRequest, HttpResponse
from repro.net.address import IPv4Address
from repro.record.entry import RequestResponsePair
from repro.record.store import RecordedSite
from tests.store_fixtures import revouch, write_flat_site


def make_pair(host="www.example.com", uri="/", ip="23.0.0.1", port=80,
              scheme="http", body=None):
    request = HttpRequest("GET", uri, Headers([("Host", host)]))
    response = HttpResponse(
        200,
        headers=Headers([("Content-Type", "text/html")]),
        body=body if body is not None else Body.virtual(1000),
    )
    return RequestResponsePair(scheme, IPv4Address(ip), port, request, response)


class TestRequestResponsePair:
    def test_dict_roundtrip_virtual_body(self):
        pair = make_pair()
        restored = RequestResponsePair.from_dict(pair.to_dict())
        assert restored.scheme == "http"
        assert restored.origin_ip == IPv4Address("23.0.0.1")
        assert restored.request == pair.request
        assert restored.response.body.length == 1000
        assert not restored.response.body.is_fully_real

    def test_dict_roundtrip_real_body(self):
        pair = make_pair(body=Body.from_bytes(b"<html>x</html>"))
        restored = RequestResponsePair.from_dict(pair.to_dict())
        assert restored.response.body.as_bytes() == b"<html>x</html>"

    def test_dict_is_json_safe(self):
        pair = make_pair(body=Body.from_bytes(bytes(range(256))))
        text = json.dumps(pair.to_dict())
        restored = RequestResponsePair.from_dict(json.loads(text))
        assert restored.response.body.as_bytes() == bytes(range(256))

    def test_host_property(self):
        assert make_pair(host="cdn.example.com").host == "cdn.example.com"

    def test_bad_scheme_rejected(self):
        with pytest.raises(StoreFormatError):
            make_pair(scheme="ftp")

    def test_malformed_dict_rejected(self):
        with pytest.raises(StoreFormatError):
            RequestResponsePair.from_dict({"scheme": "http"})

    def test_length_mismatch_rejected(self):
        data = make_pair(body=Body.from_bytes(b"abc")).to_dict()
        data["response"]["body"]["length"] = 99
        with pytest.raises(StoreFormatError):
            RequestResponsePair.from_dict(data)


class TestBodyShapes:
    """A stored body is its real prefix plus a declared virtual tail."""

    def test_prefix_and_tail_round_trip(self, tmp_path):
        body = Body([b"<html>", 100])
        pair = make_pair(body=body)
        restored = RequestResponsePair.from_dict(pair.to_dict())
        assert restored.response.body.pieces == [b"<html>", 100]
        assert restored.to_canonical_bytes() == pair.to_canonical_bytes()
        site = RecordedSite("mixed")
        site.add_pair(pair)
        site.save(tmp_path / "site")
        stored = json.loads((tmp_path / "site" / "pair-00000.json").read_text())
        assert stored["response"]["body"]["tail"] == 100
        loaded = RecordedSite.load(tmp_path / "site").pairs[0]
        assert loaded.response.body.pieces == [b"<html>", 100]
        assert loaded.to_canonical_bytes() == pair.to_canonical_bytes()

    @pytest.mark.parametrize("pieces", [[100, b"<html>"],
                                        [b"<html>", 100, b"</html>"]])
    def test_other_mixed_shapes_are_refused_at_save(self, tmp_path, pieces):
        pair = make_pair(host="www.mixed.com", uri="/odd",
                         body=Body(pieces))
        with pytest.raises(StoreFormatError, match="www.mixed.com/odd"):
            pair.to_dict()
        site = RecordedSite("odd")
        site.add_pair(pair)
        with pytest.raises(StoreFormatError, match="www.mixed.com/odd"):
            site.save(tmp_path / "site")
        assert not (tmp_path / "site" / "site.json").exists()

    def test_content_plus_tail_must_be_the_length(self):
        data = make_pair(body=Body([b"abc", 10])).to_dict()
        data["response"]["body"]["tail"] = 11
        with pytest.raises(StoreFormatError, match="3B \\+ 11B tail"):
            RequestResponsePair.from_dict(data)

    @pytest.mark.parametrize("body", [{"length": 10, "tail": 10},
                                      {"length": 10, "tail": -1,
                                       "content_b64": "YWJj"}])
    def test_tail_needs_content_and_a_sign(self, body):
        data = make_pair().to_dict()
        data["response"]["body"] = body
        with pytest.raises(StoreFormatError, match="tail"):
            RequestResponsePair.from_dict(data)

    def test_blob_length_check_stays_strict(self, tmp_path):
        site = RecordedSite("strict")
        site.add_pair(make_pair(body=Body.from_bytes(b"<html></html>")))
        site.add_pair(make_pair(uri="/2", body=Body([b"<html>", 50])))
        site.save(tmp_path / "site")
        for name, length in (("pair-00000.json", 14),
                             ("pair-00001.json", 57)):
            path = tmp_path / "site" / name
            data = json.loads(path.read_text())
            data["response"]["body"]["length"] = length
            path.write_text(json.dumps(data))
            revouch(tmp_path / "site", name)
            with pytest.raises(StoreFormatError,
                               match="does not match CAS blob"):
                RecordedSite.load(tmp_path / "site")
            path.write_text(json.dumps(dict(data, response=dict(
                data["response"], body=dict(data["response"]["body"],
                                            length=length - 1)))))
            revouch(tmp_path / "site", name)
        assert len(RecordedSite.load(tmp_path / "site")) == 2


class TestRecordedSite:
    def test_origins_and_hostnames(self):
        site = RecordedSite("test")
        site.add_pair(make_pair(host="www.x.com", ip="23.0.0.1"))
        site.add_pair(make_pair(host="cdn.x.com", ip="23.0.0.2", uri="/a.js"))
        site.add_pair(make_pair(host="cdn.x.com", ip="23.0.0.2", uri="/b.js"))
        assert site.origins() == {
            (IPv4Address("23.0.0.1"), 80), (IPv4Address("23.0.0.2"), 80),
        }
        assert site.hostnames() == {
            "www.x.com": IPv4Address("23.0.0.1"),
            "cdn.x.com": IPv4Address("23.0.0.2"),
        }

    def test_first_recording_pins_hostname(self):
        site = RecordedSite("test")
        site.add_pair(make_pair(host="www.x.com", ip="23.0.0.1"))
        site.add_pair(make_pair(host="www.x.com", ip="23.0.0.99", uri="/2"))
        assert site.hostnames()["www.x.com"] == IPv4Address("23.0.0.1")

    def test_total_response_bytes(self):
        site = RecordedSite("test")
        site.add_pair(make_pair(body=Body.virtual(100)))
        site.add_pair(make_pair(uri="/2", body=Body.virtual(250)))
        assert site.total_response_bytes() == 350

    def test_pairs_for_origin(self):
        site = RecordedSite("test")
        site.add_pair(make_pair(ip="23.0.0.1"))
        site.add_pair(make_pair(ip="23.0.0.2", uri="/other"))
        assert len(site.pairs_for_origin(IPv4Address("23.0.0.1"), 80)) == 1

    def test_save_load_roundtrip(self, tmp_path):
        site = RecordedSite("www.example.com")
        site.add_pair(make_pair(body=Body.from_bytes(b"<html></html>")))
        site.add_pair(make_pair(uri="/style.css", body=Body.virtual(5000)))
        directory = tmp_path / "recorded"
        site.save(directory)
        loaded = RecordedSite.load(directory)
        assert loaded.name == "www.example.com"
        assert len(loaded) == 2
        assert loaded.pairs[0].response.body.as_bytes() == b"<html></html>"
        assert loaded.pairs[1].request.uri == "/style.css"

    def test_save_creates_one_file_per_pair(self, tmp_path):
        site = RecordedSite("test")
        for i in range(3):
            site.add_pair(make_pair(uri=f"/{i}"))
        site.save(tmp_path / "out")
        files = sorted(os.listdir(tmp_path / "out"))
        assert files == ["pair-00000.json", "pair-00001.json",
                         "pair-00002.json", "site.json"]

    def test_load_missing_directory(self, tmp_path):
        with pytest.raises(StoreFormatError):
            RecordedSite.load(tmp_path / "nonexistent")

    def test_load_corrupt_site_file(self, tmp_path):
        directory = tmp_path / "bad"
        directory.mkdir()
        (directory / "site.json").write_text("{not json")
        with pytest.raises(StoreFormatError):
            RecordedSite.load(directory)

    def test_load_corrupt_pair_file(self, tmp_path):
        site = RecordedSite("test")
        site.add_pair(make_pair())
        site.save(tmp_path / "out")
        (tmp_path / "out" / "pair-00000.json").write_text("{broken")
        with pytest.raises(StoreFormatError):
            RecordedSite.load(tmp_path / "out")

    def test_unsupported_format_version(self, tmp_path):
        directory = tmp_path / "vfuture"
        directory.mkdir()
        (directory / "site.json").write_text(
            json.dumps({"format_version": 999, "name": "x"}))
        with pytest.raises(StoreFormatError):
            RecordedSite.load(directory)


class TestStoreIntegrityV2:
    """Per-pair checksums, atomic save, tolerant loads."""

    def _saved(self, tmp_path, pairs=3):
        site = RecordedSite("v2site")
        for i in range(pairs):
            site.add_pair(make_pair(uri=f"/{i}",
                                    body=Body.from_bytes(b"x" * (50 + i))))
        directory = tmp_path / "v2"
        site.save(directory)
        return directory

    def test_manifest_carries_size_and_checksum(self, tmp_path):
        directory = self._saved(tmp_path)
        manifest = json.loads((directory / "site.json").read_text())
        assert manifest["format_version"] == 4
        for entry in manifest["pairs"]:
            raw = (directory / entry["file"]).read_bytes()
            assert entry["size"] == len(raw)
            from repro.record.store import pair_checksum
            assert entry["checksum"] == pair_checksum(raw)

    def test_save_leaves_no_temp_files(self, tmp_path):
        directory = self._saved(tmp_path)
        assert not [f for f in os.listdir(directory) if f.endswith(".tmp")]

    def test_truncated_pair_raises_integrity_error_with_path(self, tmp_path):
        from repro.errors import StoreIntegrityError
        directory = self._saved(tmp_path)
        target = directory / "pair-00001.json"
        target.write_bytes(target.read_bytes()[:10])
        with pytest.raises(StoreIntegrityError, match="pair-00001.json"):
            RecordedSite.load(directory)

    def test_flipped_byte_raises_integrity_error_with_path(self, tmp_path):
        from repro.errors import StoreIntegrityError
        directory = self._saved(tmp_path)
        target = directory / "pair-00002.json"
        raw = bytearray(target.read_bytes())
        raw[5] ^= 0x01
        target.write_bytes(bytes(raw))
        with pytest.raises(StoreIntegrityError, match="pair-00002.json"):
            RecordedSite.load(directory)

    def test_missing_pair_raises_with_path(self, tmp_path):
        directory = self._saved(tmp_path)
        (directory / "pair-00000.json").unlink()
        with pytest.raises(StoreFormatError, match="pair-00000.json"):
            RecordedSite.load(directory)

    def test_orphan_pair_raises_with_path(self, tmp_path):
        directory = self._saved(tmp_path)
        (directory / "pair-00042.json").write_text("{}")
        with pytest.raises(StoreFormatError, match="pair-00042.json"):
            RecordedSite.load(directory)

    def test_load_tolerant_salvages_survivors(self, tmp_path):
        directory = self._saved(tmp_path)
        (directory / "pair-00001.json").write_bytes(b"garbage")
        site, damage = RecordedSite.load_tolerant(directory)
        assert len(site) == 2
        assert len(damage) == 1
        assert site.damage is damage
        assert damage.problems[0].file == "pair-00001.json"
        assert not damage.clean

    def test_load_tolerant_clean_site_reports_no_damage(self, tmp_path):
        directory = self._saved(tmp_path)
        site, damage = RecordedSite.load_tolerant(directory)
        assert len(site) == 3
        assert damage.clean and len(damage) == 0


class TestManifestEntriesConfined:
    """A manifest entry names a bare pair-<digits>.json or nothing."""

    def _escaping(self, tmp_path):
        site = RecordedSite("escape")
        site.add_pair(make_pair(body=Body.from_bytes(b"inside")))
        directory = tmp_path / "deep" / "er" / "site"
        site.save(directory)
        victim = tmp_path / "victim.json"
        victim.write_bytes((directory / "pair-00000.json").read_bytes())
        manifest = json.loads((directory / "site.json").read_text())
        manifest["pairs"][0]["file"] = "../../../victim.json"
        (directory / "site.json").write_text(json.dumps(manifest))
        return directory, victim

    def test_strict_load_refuses_naming_site_json(self, tmp_path):
        directory, __ = self._escaping(tmp_path)
        with pytest.raises(StoreFormatError, match="site.json") as info:
            RecordedSite.load(directory)
        assert "victim.json" in str(info.value)  # quoted, never opened

    def test_tolerant_load_reports_a_site_json_problem(self, tmp_path):
        directory, __ = self._escaping(tmp_path)
        site, damage = RecordedSite.load_tolerant(directory)
        assert len(site) == 0
        # The entry is refused; the pair file it should have named is
        # then on disk unvouched-for.
        assert [(p.file, p.kind) for p in damage.problems] == [
            ("site.json", "malformed"), ("pair-00000.json", "orphan")]

    @pytest.mark.parametrize("name", [
        "sub/pair-00000.json", "./pair-00000.json", "/etc/passwd",
        "pair-00000.json/..", "pair-.json", "pair-1.json.tmp", "", 7, None,
    ])
    def test_only_bare_pair_names_are_entries(self, tmp_path, name):
        directory, __ = self._escaping(tmp_path)
        manifest = json.loads((directory / "site.json").read_text())
        manifest["pairs"][0]["file"] = name
        (directory / "site.json").write_text(json.dumps(manifest))
        with pytest.raises(StoreFormatError, match="malformed manifest"):
            RecordedSite.load(directory)

    def test_duplicate_entry_is_malformed(self, tmp_path):
        directory, __ = self._escaping(tmp_path)
        manifest = json.loads((directory / "site.json").read_text())
        manifest["pairs"][0]["file"] = "pair-00000.json"
        manifest["pairs"].append(dict(manifest["pairs"][0]))
        (directory / "site.json").write_text(json.dumps(manifest))
        site, damage = RecordedSite.load_tolerant(directory)
        assert len(site) == 1
        assert [(p.file, p.kind) for p in damage.problems] == [
            ("site.json", "malformed")]


class TestOlderFormats:
    def test_v1_folder_is_refused_by_name(self, tmp_path):
        site = RecordedSite("v1site")
        site.add_pair(make_pair())
        directory = tmp_path / "v1"
        site.save(directory)
        (directory / "site.json").write_text(json.dumps({
            "format_version": 1, "name": "v1site", "pair_count": 1,
            "pairs": ["pair-00000.json"]}))
        with pytest.raises(StoreFormatError) as info:
            RecordedSite.load(directory)
        assert "format version 1" in str(info.value)
        assert str(directory / "site.json") in str(info.value)
        with pytest.raises(StoreFormatError, match="format version 1"):
            RecordedSite.load_tolerant(directory)

    def test_v3_folder_loads(self, tmp_path):
        # Version 3 is version 4 without tails: every body is all real or
        # all virtual, and its folders load as they are.
        site = RecordedSite("v3site")
        site.add_pair(make_pair(body=Body.from_bytes(b"<html>v3</html>")))
        site.add_pair(make_pair(uri="/big", body=Body.virtual(4000)))
        site.save(tmp_path / "v3")
        manifest_path = tmp_path / "v3" / "site.json"
        manifest = json.loads(manifest_path.read_text())
        manifest_path.write_text(json.dumps(dict(manifest, format_version=3)))
        loaded, damage = RecordedSite.load_tolerant(tmp_path / "v3")
        assert damage.clean and damage.format_version == 3
        assert ([p.to_canonical_bytes() for p in loaded.pairs]
                == [p.to_canonical_bytes() for p in site.pairs])

    def test_flat_folder_resaves_as_a_cas_bundle(self, tmp_path):
        site = RecordedSite("old")
        site.add_pair(make_pair(body=Body.from_bytes(b"<html>old</html>")))
        site.add_pair(make_pair(uri="/big", body=Body.virtual(4000)))
        flat = write_flat_site(site, tmp_path / "flat")
        RecordedSite.load(flat).save(tmp_path / "new")
        manifest = json.loads((tmp_path / "new" / "site.json").read_text())
        assert manifest["format_version"] == 4 and manifest["cas"] == ".cas"
        assert ([p.to_canonical_bytes()
                 for p in RecordedSite.load(tmp_path / "new").pairs]
                == [p.to_canonical_bytes() for p in site.pairs])
