"""Guard: the package has one reader of a recorded folder.

Four readers of three formats is where the parent's integrity bugs hid
(an entry escaping the folder was read by one, copied by another, moved
by a third). ``repro.record.store`` now holds the only code that opens
``site.json`` or a pair file and the only function that looks at
``format_version``; a fifth reader reappearing anywhere in ``src/repro``
fails here. No folders are read — only the source.
"""

import ast
import pathlib
import re

import repro
from repro.record import store

ROOT = pathlib.Path(repro.__file__).parent
STORE = pathlib.Path(store.__file__).relative_to(ROOT)
SOURCES = {
    path.relative_to(ROOT): path.read_text(encoding="utf-8")
    for path in sorted(ROOT.rglob("*.py"))
}

_FORMAT_VERSION = re.compile(r"\bformat_version\b")
_FOLDER_FILE = re.compile(
    r"""site\.json|["']pair-|_SITE_FILE|_PAIR_PREFIX|pair_filename""")
_READS = re.compile(
    r"\bopen\(|json\.loads?\(|\.read_text\(|\.read_bytes\(")


def _functions_comparing_format_version(tree):
    found = set()
    for function in ast.walk(tree):
        if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        # The key itself, and any local bound from an expression naming it.
        tainted = {"format_version"}
        for node in ast.walk(function):
            if (isinstance(node, ast.Assign)
                    and _FORMAT_VERSION.search(ast.unparse(node.value))):
                tainted.update(target.id for target in node.targets
                               if isinstance(target, ast.Name))
        pattern = re.compile(r"\b(%s)\b" % "|".join(sorted(tainted)))
        if any(isinstance(node, (ast.Compare, ast.Match))
               and pattern.search(ast.unparse(node))
               for node in ast.walk(function)):
            found.add(function.name)
    return found


def test_format_version_is_compared_in_exactly_one_function():
    comparing = {
        (str(path), name)
        for path, text in SOURCES.items()
        for name in _functions_comparing_format_version(ast.parse(text))
    }
    assert comparing == {(str(STORE), "read_manifest")}
    # ... and nobody else so much as mentions the key.
    assert [str(path) for path, text in SOURCES.items()
            if _FORMAT_VERSION.search(text)] == [str(STORE)]


def test_folder_files_are_opened_for_reading_in_store_only():
    readers = [
        str(path) for path, text in SOURCES.items()
        if _FOLDER_FILE.search(text) and _READS.search(text)
    ]
    assert readers == [str(STORE)]


def test_each_check_is_written_once():
    text = SOURCES[STORE]
    assert len(re.findall(r"json\.loads\(", text)) == 1
    assert len(re.findall(r"pair_checksum\(raw\) != ", text)) == 1
    assert len(re.findall(r"len\(raw\) != ", text)) == 1
    for path, other in SOURCES.items():
        if path != STORE:
            assert "pair_checksum(" not in other, path
