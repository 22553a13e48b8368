"""Shared front end for the static-analysis passes (``mm-lint``).

Both the per-node AST lint (:mod:`repro.analysis.lint`, rules
REP001-REP007) and the interprocedural dataflow pass
(:mod:`repro.analysis.flow` + :mod:`repro.analysis.rules_flow`, rules
REP010-REP012) share one front end: the :class:`Diagnostic` type, the
domain classification (which files are simulation-domain or
observer-domain), the inline suppression grammar, file discovery, and a
handful of AST chain helpers. Keeping these here breaks the import cycle
``lint -> rules_flow -> flow`` would otherwise create.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Set, Union

__all__ = [
    "DISABLE_RE",
    "Diagnostic",
    "OBS_DOMAIN_DIRS",
    "SIM_DOMAIN_DIRS",
    "chain_parts",
    "disabled_codes",
    "dotted",
    "is_obs_domain",
    "is_sim_domain",
    "iter_python_files",
    "suppression_comments",
    "terminal_name",
]

#: Directories whose code runs inside the simulated world. A file is
#: "simulation-domain" when any of its path components is one of these.
SIM_DOMAIN_DIRS = frozenset(
    {"sim", "linkem", "transport", "core", "browser", "web", "dns", "http",
     "chaos", "load"}
)

#: Directories whose code *observes* the simulated world. A file is
#: "observer-domain" when any of its path components is one of these;
#: REP007 holds such code to the zero-observer-effect contract.
OBS_DOMAIN_DIRS = frozenset({"obs"})

#: Inline escape hatch: a comment of the form ``mm-lint: disable=<CODE>``
#: (or ``disable=all``) on the offending line. Spelled with a
#: placeholder here so this very comment never registers as a stale
#: suppression in the ``--check-suppressions`` audit.
DISABLE_RE = re.compile(r"#\s*mm-lint:\s*disable=([A-Za-z0-9_,\s]+)")


@dataclass(frozen=True)
class Diagnostic:
    """One lint finding, pointing at a file position."""

    path: str
    line: int
    col: int
    code: str
    message: str

    def format(self) -> str:
        """``path:line:col: REPxxx message`` — editor-clickable."""
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"


def is_sim_domain(path: Union[str, Path]) -> bool:
    """Whether ``path`` lies in a simulation-domain directory.

    Classification is lexical: a symlink *named* after a sim-domain
    directory classifies everything under it, regardless of where the
    link target lives (the lint never resolves links).
    """
    return any(part in SIM_DOMAIN_DIRS for part in Path(path).parts[:-1])


def is_obs_domain(path: Union[str, Path]) -> bool:
    """Whether ``path`` lies in an observer-domain directory."""
    return any(part in OBS_DOMAIN_DIRS for part in Path(path).parts[:-1])


def disabled_codes(line: str) -> Set[str]:
    """Rule codes silenced by an inline ``# mm-lint: disable=`` comment."""
    match = DISABLE_RE.search(line)
    if match is None:
        return set()
    return {code.strip().upper() for code in match.group(1).split(",") if code.strip()}


def suppression_comments(source: str) -> Dict[int, Set[str]]:
    """Map line number -> codes suppressed by a *real* comment there.

    Unlike the per-line regex used while linting (which deliberately
    matches anything that looks like a suppression), this tokenizes the
    source so suppressions quoted inside string literals/docstrings are
    not counted. Used by ``mm-lint --check-suppressions``: a comment the
    tokenizer sees but that silences nothing is a stale suppression.
    """
    found: Dict[int, Set[str]] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            codes = disabled_codes(tok.string)
            if codes:
                found.setdefault(tok.start[0], set()).update(codes)
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return {}
    return found


def dotted(node: ast.expr) -> Optional[str]:
    """Dotted-name string of a Name/Attribute chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def terminal_name(node: ast.expr) -> Optional[str]:
    """Last identifier of a Name/Attribute chain (``a.b.c`` -> ``c``)."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def chain_parts(node: ast.expr) -> List[str]:
    """All identifiers of a Name/Attribute chain (``a.b.c`` ->
    ``[a, b, c]``); empty when the chain is rooted elsewhere."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return []
    parts.append(node.id)
    parts.reverse()
    return parts


def iter_python_files(paths: Sequence[Union[str, Path]]) -> Iterator[Path]:
    """Yield ``.py`` files under the given files/directories, sorted."""
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            for candidate in sorted(path.rglob("*.py")):
                if any(
                    part.startswith(".") or part == "__pycache__"
                    for part in candidate.parts
                ):
                    continue
                yield candidate
        else:
            yield path
