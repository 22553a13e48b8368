"""The reader-facing documents name only code that exists.

Every backticked ``repro.*`` name in DESIGN.md and README.md must import
or resolve as an attribute, and every ``path.py:N`` (or
``path.py::name``) reference must name an existing file with at least N
lines (or defining ``name``). Every backticked ``*.py`` path and every
backticked ``benchmarks/`` path must exist, and so must every
``benchmarks/*.py`` script the CI workflow runs. A change that deletes
code therefore cannot leave its documentation behind. ROADMAP.md is
left out on purpose: it names deleted modules as history.

ROADMAP renumbers its items whenever it is revised, so nothing outside
it (the code, the tests, DESIGN, EXPERIMENTS, README) cites one by
number; each names the work it means instead.
"""

import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DOCS = ("DESIGN.md", "README.md")
CI = ".github/workflows/ci.yml"

_FENCE = re.compile(r"^```.*?^```", re.MULTILINE | re.DOTALL)
_SPAN = re.compile(r"`([^`]+)`")
_NAME = re.compile(r"(?<![\w/.-])repro(?:\.\w+)+")
_PATH_LINE = re.compile(r"([\w/.-]+\.py):(\d+)(?![\d:])")
_PATH_NAME = re.compile(r"([\w/.-]+\.py)::(\w+)")
_PY_FILE = re.compile(r"(?<![\w/.-])([\w/.-]+\.py)\b")
_BENCH_PATH = re.compile(r"(?<![\w/.-])((?:[\w.-]+/)*benchmarks/[\w/.-]*)")
_CI_SCRIPT = re.compile(r"benchmarks/[\w/.-]+\.py\b")
_ROADMAP_NUMBER = re.compile(r"ROADMAP\s+(?:item\b|\d)")


def _spans(doc):
    text = _FENCE.sub("", (ROOT / doc).read_text(encoding="utf-8"))
    return _SPAN.findall(text)


def _resolves(dotted):
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        try:
            for attribute in parts[cut:]:
                target = getattr(target, attribute)
        except AttributeError:
            return False
        return True
    return False


def _files(path):
    """The files a documented path can mean: from the repo root, from
    ``src/repro``, or — for a bare file name — anywhere it is unique
    enough to be found."""
    found = [base / path for base in (ROOT, ROOT / "src" / "repro")
             if (base / path).exists()]
    if not found and "/" not in path:
        found = [hit for top in ("src", "tests", "benchmarks", "examples")
                 for hit in (ROOT / top).rglob(path)]
    return found


def _named_files(doc):
    """The file paths ``doc`` names: backticked in a document, or, in the
    CI workflow (read as text), the bench scripts it runs."""
    if doc == CI:
        return set(_CI_SCRIPT.findall((ROOT / doc).read_text(encoding="utf-8")))
    return {path for span in _spans(doc)
            for pattern in (_PY_FILE, _BENCH_PATH)
            for path in pattern.findall(span)}


@pytest.mark.parametrize("doc", DOCS)
def test_every_backticked_repro_name_resolves(doc):
    names = {name for span in _spans(doc) for name in _NAME.findall(span)}
    assert names, f"{doc} names no repro.* object at all"
    assert sorted(name for name in names if not _resolves(name)) == []


@pytest.mark.parametrize("doc", DOCS)
def test_every_path_reference_names_an_existing_line_or_name(doc):
    missing = []
    for span in _spans(doc):
        for path, line in _PATH_LINE.findall(span):
            if not any(len(f.read_text(encoding="utf-8").splitlines())
                       >= int(line) for f in _files(path)):
                missing.append(f"{path}:{line}")
        for path, name in _PATH_NAME.findall(span):
            pattern = re.compile(rf"^\s*(?:def|class)\s+{name}\b|^{name}\s*=",
                                 re.MULTILINE)
            if not any(pattern.search(f.read_text(encoding="utf-8"))
                       for f in _files(path)):
                missing.append(f"{path}::{name}")
    assert missing == []


@pytest.mark.parametrize("doc", DOCS + (CI,))
def test_every_named_file_exists(doc):
    assert sorted(path for path in _named_files(doc) if not _files(path)) == []


def _unnumbered_files():
    """Every file that must not cite a roadmap item by its number."""
    files = [ROOT / doc for doc in ("DESIGN.md", "EXPERIMENTS.md", "README.md")]
    for top in ("src", "tests"):
        files.extend(sorted((ROOT / top).rglob("*.py")))
    return files


def test_no_roadmap_item_number_outside_roadmap():
    stale = []
    for path in _unnumbered_files():
        text = path.read_text(encoding="utf-8")
        for match in _ROADMAP_NUMBER.finditer(text):
            line = text.count("\n", 0, match.start()) + 1
            stale.append(f"{path.relative_to(ROOT)}:{line}: {match.group()!r}")
    assert stale == []
