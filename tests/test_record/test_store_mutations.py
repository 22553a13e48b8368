"""Only named errors escape the store surface (structure-aware mutation).

A freshly saved 2-site corpus is damaged the way real folders get
damaged — a manifest field edited or lost, a pair file's JSON bent out
of shape (with the manifest re-vouching for it, so the damage reaches
the parser, or not, so the checksum catches it), a blob flipped or gone,
the ``cas`` key broken, a file left in place but unreadable — and every
reader is run over the result:

* ``RecordedSite.load`` / ``load_tolerant`` / ``fsck_tree`` (dry and
  ``--repair``) / ``ship_corpus`` raise nothing but ``ReproError``;
* they agree: strict load succeeds ⇔ the tolerant load reports nothing
  ⇔ fsck finds the site clean ⇔ the site ships;
* ``--repair`` moves, never rewrites or deletes, and after it every
  site it could read loads strictly and a second fsck is clean.

Hypothesis runs derandomized: the same mutants every run, in CI and here.
"""

import json
import os
import shutil
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ReproError
from repro.fabric.sync import ship_corpus
from repro.http.body import Body
from repro.http.message import Headers, HttpRequest, HttpResponse
from repro.net.address import IPv4Address
from repro.record.cas import CasStore, body_checksum
from repro.record.entry import RequestResponsePair
from repro.record.fsck import corpus_site_dirs, fsck_site, fsck_tree
from repro.record.store import RecordedSite
from tests.store_fixtures import revouch

SITES = ("a.example", "b.example")
PAIRS = 4
SHARED = b"function everywhere() {}" * 8


def _pair(host, index):
    if index == 1:
        body = Body.from_bytes(SHARED)
    elif index == 3:
        body = Body.virtual(5000)
    else:
        body = Body.from_bytes(f"<html>{host}/{index}</html>".encode())
    return RequestResponsePair(
        "http", IPv4Address("23.0.0.1"), 80,
        HttpRequest("GET", f"/r{index}", Headers([("Host", host)])),
        HttpResponse(200, headers=Headers([("X", "y")]), body=body))


@pytest.fixture(scope="module")
def pristine():
    root = tempfile.mkdtemp(prefix="store-mutations-")
    corpus = os.path.join(root, "pristine")
    cas = CasStore(os.path.join(corpus, ".cas"))
    for name in SITES:
        site = RecordedSite(name)
        for index in range(PAIRS):
            site.add_pair(_pair(name, index))
        site.save(os.path.join(corpus, name), cas=cas)
    yield corpus
    shutil.rmtree(root, ignore_errors=True)


# --------------------------------------------------------------------- #
# mutations: (kind, site index, *args), applied by _apply

JUNK = st.sampled_from([None, 7, -1, 3.5, "x", "", [], {}, [1], {"a": 1},
                        "../../victim.json", "pair-99999.json", True])
SITE = st.integers(0, len(SITES) - 1)
PAIR = st.integers(0, PAIRS - 1)

manifest_mutations = st.one_of(
    st.tuples(st.just("manifest-drop"), SITE, st.sampled_from(
        ["format_version", "name", "pair_count", "pairs", "cas"])),
    st.tuples(st.just("manifest-set"), SITE, st.sampled_from(
        ["format_version", "name", "pair_count", "pairs", "cas"]), JUNK),
    st.tuples(st.just("manifest-set"), SITE, st.just("cas"),
              st.sampled_from(["nowhere", "/nonexistent/cas", "..", "."])),
    st.tuples(st.just("manifest-set"), SITE, st.just("format_version"),
              st.sampled_from([1, 2, 4, "3"])),
    st.tuples(st.just("entry-drop"), SITE, PAIR,
              st.sampled_from([None, "file", "size", "checksum"])),
    st.tuples(st.just("entry-set"), SITE, PAIR,
              st.sampled_from(["file", "size", "checksum"]), JUNK),
    st.tuples(st.just("entry-replace"), SITE, PAIR, JUNK),
    st.tuples(st.just("entry-duplicate"), SITE, PAIR),
    st.tuples(st.just("manifest-bytes"), SITE, st.sampled_from(
        [None, b"", b"{not json", b"[]", b"\xff\xfe", b"null"])),
)

pair_mutations = st.one_of(
    st.tuples(st.just("pair-set"), SITE, PAIR, st.sampled_from([
        ("request",), ("response",), ("request", "body"),
        ("response", "body"), ("response", "body", "cas"),
        ("response", "body", "length"), ("response", "first_line"),
        ("request", "headers"), ("scheme",), ("origin_ip",),
        ("origin_port",)]), JUNK, st.booleans()),
    st.tuples(st.just("pair-set"), SITE, PAIR,
              st.just(("response", "body", "cas")),
              st.sampled_from(["zz" * 16, "ab" * 16, "AB" * 16]),
              st.booleans()),
    st.tuples(st.just("pair-drop"), SITE, PAIR, st.sampled_from([
        ("request",), ("response",), ("response", "body"),
        ("response", "body", "cas"), ("response", "body", "length"),
        ("scheme",)]), st.booleans()),
    st.tuples(st.just("pair-bytes"), SITE, PAIR, st.sampled_from(
        [None, b"", b"{broken", b"[]", b"7", b"\xff\xfe\x00", b"null"]),
        st.booleans()),
    st.tuples(st.just("pair-upper-ref"), SITE, PAIR, st.booleans()),
    st.tuples(st.just("pair-truncate"), SITE, PAIR),
    st.tuples(st.just("pair-orphan"), SITE, st.sampled_from(
        ["pair-00099.json", "pair-junk", "pair-00001.json.bak"])),
)

blob_mutations = st.tuples(
    st.sampled_from(["blob-flip", "blob-drop", "blob-empty"]), SITE,
    st.integers(0, 2))

#: The file stays where it is but cannot be read: (…, as a directory?)
unreadable_mutations = st.one_of(
    st.tuples(st.just("manifest-unreadable"), SITE, st.booleans()),
    st.tuples(st.just("pair-unreadable"), SITE, PAIR, st.booleans()),
    st.tuples(st.just("blob-unreadable"), SITE, st.integers(0, 2),
              st.booleans()),
)

MUTATIONS = st.lists(
    st.one_of(manifest_mutations, pair_mutations, blob_mutations,
              unreadable_mutations),
    min_size=1, max_size=3)


def _edit_json(path, edit):
    with open(path) as fh:
        data = json.load(fh)
    data = edit(data)
    with open(path, "w") as fh:
        json.dump(data, fh)


def _make_unreadable(path, as_directory):
    """Leave ``path`` in place but unreadable: mode 000, or a directory
    of that name — always the latter for a user no mode binds (root)."""
    if not as_directory:
        os.chmod(path, 0)
        try:
            open(path, "rb").close()
        except PermissionError:
            return
    os.remove(path)
    os.mkdir(path)


def _blob_path(corpus, site_index, which):
    host = SITES[site_index]
    body = [f"<html>{host}/0</html>".encode(), SHARED,
            f"<html>{host}/2</html>".encode()][which]
    return CasStore(os.path.join(corpus, ".cas")).path_for(
        body_checksum(body))


def _apply(corpus, mutation):
    """Apply one mutation; mutations that no longer find their target
    (an earlier one removed it) are no-ops."""
    kind, site_index, *args = mutation
    site_dir = os.path.join(corpus, SITES[site_index])
    manifest_path = os.path.join(site_dir, "site.json")
    try:
        if kind == "manifest-unreadable":
            _make_unreadable(manifest_path, args[0])
        elif kind == "pair-unreadable":
            _make_unreadable(
                os.path.join(site_dir, f"pair-{args[0]:05d}.json"), args[1])
        elif kind == "blob-unreadable":
            _make_unreadable(_blob_path(corpus, site_index, args[0]), args[1])
        elif kind == "manifest-bytes":
            if args[0] is None:
                os.remove(manifest_path)
            else:
                with open(manifest_path, "wb") as fh:
                    fh.write(args[0])
        elif kind.startswith(("manifest-", "entry-")):
            def edit(manifest):
                if kind == "manifest-drop":
                    manifest.pop(args[0], None)
                elif kind == "manifest-set":
                    manifest[args[0]] = args[1]
                elif kind == "entry-drop" and args[1] is None:
                    del manifest["pairs"][args[0]]
                elif kind == "entry-drop":
                    manifest["pairs"][args[0]].pop(args[1], None)
                elif kind == "entry-set":
                    manifest["pairs"][args[0]][args[1]] = args[2]
                elif kind == "entry-replace":
                    manifest["pairs"][args[0]] = args[1]
                elif kind == "entry-duplicate":
                    manifest["pairs"].append(manifest["pairs"][args[0]])
                return manifest
            _edit_json(manifest_path, edit)
        elif kind.startswith("pair-"):
            if kind == "pair-orphan":
                with open(os.path.join(site_dir, args[0]), "w") as fh:
                    fh.write("{}")
                return
            filename = f"pair-{args[0]:05d}.json"
            path = os.path.join(site_dir, filename)
            revouch = False
            if kind == "pair-truncate":
                with open(path, "rb") as fh:
                    raw = fh.read()
                with open(path, "wb") as fh:
                    fh.write(raw[:len(raw) // 2])
            elif kind == "pair-bytes":
                revouch = args[2]
                if args[1] is None:
                    os.remove(path)
                    return
                with open(path, "wb") as fh:
                    fh.write(args[1])
            else:
                keys = (("response", "body", "cas")
                        if kind == "pair-upper-ref" else args[1])
                revouch = args[-1]

                def edit(data):
                    target = data
                    for key in keys[:-1]:
                        target = target[key]
                    if kind == "pair-drop":
                        target.pop(keys[-1], None)
                    elif kind == "pair-upper-ref":
                        target["cas"] = target["cas"].upper()
                    else:
                        target[keys[-1]] = args[2]
                    return data
                _edit_json(path, edit)
            if revouch:
                revouch(site_dir, filename)
        else:
            path = _blob_path(corpus, site_index, args[0])
            if kind == "blob-drop":
                os.remove(path)
            else:
                with open(path, "rb") as fh:
                    raw = bytearray(fh.read())
                raw[0] ^= 0x55
                with open(path, "wb") as fh:
                    fh.write(b"" if kind == "blob-empty" else bytes(raw))
    except (OSError, ValueError, KeyError, IndexError, TypeError,
            AttributeError):
        pass  # the target was already mutated away


def _named_errors_only(call, *args, **kwargs):
    """Run ``call``; return (result, None) or (None, the ReproError).
    Anything that is not a ReproError propagates and fails the test."""
    try:
        return call(*args, **kwargs), None
    except ReproError as exc:
        assert str(exc), "a named error names what is wrong"
        return None, exc


def _files(root):
    """{relative path: bytes} of every pair file and blob under root,
    wherever repair may have moved it (a file made unreadable still
    counts: it must be moved, not lost)."""
    found = {}
    for dirpath, __, filenames in os.walk(root):
        for name in filenames:
            if name != "site.json":
                path = os.path.join(dirpath, name)
                try:
                    with open(path, "rb") as fh:
                        found[os.path.relpath(path, root)] = fh.read()
                except PermissionError:
                    found[os.path.relpath(path, root)] = b"<unreadable>"
    return found


@settings(max_examples=120, deadline=None, derandomize=True)
@given(mutations=MUTATIONS)
def test_store_surface_under_mutation(pristine, mutations):
    root = tempfile.mkdtemp(prefix="mutant-", dir=os.path.dirname(pristine))
    try:
        corpus = os.path.join(root, "corpus")
        shutil.copytree(pristine, corpus)
        for mutation in mutations:
            _apply(corpus, mutation)
        _check(root, corpus)
    finally:
        shutil.rmtree(root, ignore_errors=True)


def _check(root, corpus):
    site_dirs = [os.path.join(corpus, name) for name in SITES]

    # One verdict per site, whoever is asked.
    strict_ok = {}
    for site_dir in site_dirs:
        site, error = _named_errors_only(RecordedSite.load, site_dir)
        strict_ok[site_dir] = error is None
        salvaged, tolerant_error = _named_errors_only(
            RecordedSite.load_tolerant, site_dir)
        tolerant_ok = tolerant_error is None and salvaged[1].clean
        report = fsck_site(site_dir)  # never raises: fatal is a report
        assert strict_ok[site_dir] == tolerant_ok == report.clean, (
            site_dir, error, tolerant_error, report)
        if salvaged is not None:
            assert len(salvaged[0]) == report.pairs_ok
            assert salvaged[1].problems == report.problems
        if error is not None:
            # Strict load raises what the first collected problem says.
            assert str(error) == report.problems[0].detail

    # A corpus ships exactly when every site in it loads.
    dest = os.path.join(root, "shipped")
    shipped, ship_error = _named_errors_only(ship_corpus, corpus, dest)
    present = corpus_site_dirs(corpus)
    assert (ship_error is None) == all(strict_ok[d] for d in present)
    if ship_error is None:
        assert shipped.sites == len(present)
        for report in fsck_tree(dest) if present else []:
            assert report.clean, report

    # Dry run, then repair: moves only, and converges in one pass.
    dry, dry_error = _named_errors_only(fsck_tree, corpus)
    assert (dry_error is None) == bool(present)
    before = _files(corpus)
    repaired, repair_error = _named_errors_only(
        fsck_tree, corpus, repair=True)
    assert (repair_error is None) == bool(present)
    after = _files(corpus)
    assert sorted(after.values()) == sorted(before.values())
    for path, content in after.items():
        assert before.get(path, content) == content  # nothing rewritten
    if not present:
        return
    assert [(r.directory, r.problems) for r in dry] == \
        [(r.directory, r.problems) for r in repaired]
    if any(report.fatal for report in repaired):
        # Refuses to guess: a fatal site's files stay put, and a store
        # loses only blobs that fail their re-hash — never an orphan.
        for report in repaired:
            if report.fatal:
                assert not report.repaired and not report.quarantined
            if report.kind == "cas":
                assert {p.kind for p in report.problems} <= {
                    "corrupt", "malformed"}
    for report in repaired:
        if report.kind == "site" and not report.fatal:
            RecordedSite.load(report.directory)
    for report in fsck_tree(corpus):
        assert report.clean or report.fatal, report
