"""Shared CLI machinery: one parser, one exit path, nested shells.

Every tool's console entry point is ``main = main_wrapper(run)``: a
usage or toolkit error is one ``error:`` line and exit status 2. Flags
are parsed by :class:`Parser`, and a number outside its range is refused
by its argparse type (:func:`finite_float` and the bounded types below),
naming the flag.

A nesting ``mm-*`` tool parses its own arguments into one shell, a
``(label, add)`` pair whose ``add(stack)`` calls the matching
``ShellStack.add_*``, and hands the rest of argv to
:func:`continue_command_line`, which either recurses into the next
``mm-*`` tool or runs the innermost application command (``load`` /
``fetch``). Only then are the shells added, outermost first, to one
fresh stack.
"""

from __future__ import annotations

import argparse
import importlib
import math
import sys
from typing import Callable, List, NoReturn, Optional, Sequence, Tuple

from repro.browser.html import page_from_recording
from repro.browser.resources import PageModel, Resource, Url
from repro.core import ShellStack
from repro.errors import ReproError
from repro.linkem.trace import PacketDeliveryTrace

#: One nested shell: its label in the printed stack, and the call that
#: adds it to a stack.
Shell = Tuple[str, Callable[[ShellStack], object]]

_KNOWN_INNER = ("mm-delay", "mm-link", "mm-loss", "mm-chaos",
                "mm-webreplay", "mm-webrecord")


class CliError(ReproError):
    """Bad command-line usage."""


def finite_float(text: str) -> float:
    """The one parse every CLI float goes through: a finite number.

    ``float()`` also accepts ``nan`` and ``inf``, which measure nothing
    (a NaN delay fails every resource, an infinite rate divides by
    zero), so they are refused like any other non-number. As an argparse
    ``type`` the refusal names its flag and exits 2; :func:`parse_arg`
    does the same for a hand-parsed argument.
    """
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def _integer(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"not an integer: {text!r}") from None


def _bounded(parse: Callable[[str], float], holds: Callable[[float], bool],
             bound: str) -> Callable[[str], float]:
    def check(text: str):
        value = parse(text)
        if not holds(value):
            raise argparse.ArgumentTypeError(f"must be {bound}, got {text}")
        return value

    return check


# One argparse type per kind of bound.
positive_int = _bounded(_integer, lambda v: v >= 1, ">= 1")
non_negative_int = _bounded(_integer, lambda v: v >= 0, ">= 0")
positive_float = _bounded(finite_float, lambda v: v > 0, "positive")
non_negative_float = _bounded(finite_float, lambda v: v >= 0, ">= 0")
unit_float = _bounded(finite_float, lambda v: 0 <= v <= 1, "in [0, 1]")


def parse_arg(text: str, name: str, kind: Callable[[str], object]):
    """The argparse type ``kind`` for the hand-parsed argument ``name``."""
    try:
        return kind(text)
    except argparse.ArgumentTypeError as exc:
        raise CliError(f"{name}: {exc}") from None


class Parser(argparse.ArgumentParser):
    """argparse for one tool or subcommand, with a malformed argv reported
    the way every mm-* tool reports bad usage: a :class:`CliError` (exit
    status 2) under the tool's usage line, never a traceback and never a
    ``sys.exit`` from here. Subcommand parsers are Parsers too."""

    def __init__(self, prog: str, usage: Optional[str] = None,
                 add_help: bool = False, **kwargs) -> None:
        super().__init__(prog=prog, usage=usage, add_help=add_help,
                         allow_abbrev=False, **kwargs)

    def error(self, message: str) -> NoReturn:
        usage = self.usage or self.format_usage().strip()
        raise CliError(f"{usage}\n{message}")


def main_wrapper(run: Callable[[List[str]], int]) -> Callable[..., int]:
    """Wrap a tool's ``run(argv)`` into its console entry point."""

    def main(argv: Optional[Sequence[str]] = None) -> int:
        try:
            return run(sys.argv[1:] if argv is None else list(argv))
        except ReproError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except BrokenPipeError:
            # Output was piped into something that stopped reading (head);
            # suppress the stderr-flush traceback on interpreter exit too.
            try:
                sys.stdout.close()
            except BrokenPipeError:
                pass
            return 0

    return main


def continue_command_line(argv: List[str], shells: Sequence[Shell]) -> int:
    """Dispatch the rest of an mm-* command line.

    ``argv`` either starts another ``mm-*`` command (nested shell), an
    application command (``load`` / ``fetch``), or is empty (just print
    the stack).
    """
    if not argv:
        print(format_stack(shells))
        print("no application command given; try: ... load")
        return 0
    head = argv[0]
    if head in _KNOWN_INNER:
        tool = importlib.import_module("repro.cli." + head.replace("-", "_"))
        return tool.run(argv[1:], shells)
    if head == "load":
        return run_load(argv[1:], shells)
    if head == "fetch":
        return run_fetch(argv[1:], shells)
    raise CliError(f"unknown command {head!r} "
                   f"(expected one of {_KNOWN_INNER + ('load', 'fetch')})")


def format_stack(shells: Sequence[Shell]) -> str:
    """One-line description of the composed stack."""
    return " > ".join(label for label, __ in shells) or "(no shells)"


def build_stack(shells: Sequence[Shell], seed: int = 0) -> ShellStack:
    """Add each shell, outermost first, to a fresh seeded stack."""
    stack = ShellStack.fresh(seed)
    for __, add in shells:
        add(stack)
    return stack


def _replay_stack(shells: Sequence[Shell], command: str,
                  seed: int = 0) -> ShellStack:
    stack = build_stack(shells, seed)
    if stack.replay is None:
        raise CliError(f"{command} needs a mm-webreplay shell in the stack")
    return stack


def parse_trace_or_rate(text: str, name: str):
    """mm-link argument ``name``: a trace file path, or a Mbit/s number."""
    try:
        float(text)
    except ValueError:
        return PacketDeliveryTrace.from_file(text)
    return parse_arg(text, name, positive_float)


def run_load(argv: List[str], shells: Sequence[Shell]) -> int:
    """The ``load`` application command: load the replayed site once."""
    parser = Parser("load", "usage: ... load [--seed N]")
    parser.add_argument("--seed", type=int, default=0)
    stack = _replay_stack(shells, "load", parser.parse_args(argv).seed)
    page = page_from_recording(stack.replay.site)
    result = stack.load(page)
    stack.sim.run_until(lambda: result.complete, timeout=600.0)
    if not result.complete:
        print("page load did not complete within 600 virtual seconds",
              file=sys.stderr)
        return 1
    print(f"stack: {format_stack(shells)}")
    print(f"page: {page.name} ({page.resource_count} resources, "
          f"{page.total_bytes} bytes, {len(page.origins())} origins)")
    print(f"page load time: {result.page_load_time * 1000:.1f} ms")
    print(f"resources loaded: {result.resources_loaded}  "
          f"failed: {result.resources_failed}")
    print(f"connections: {result.connections_opened}  "
          f"dns lookups: {result.dns_lookups}")
    return 0


def run_fetch(argv: List[str], shells: Sequence[Shell]) -> int:
    """The ``fetch`` application command: fetch one URL from the replay."""
    if len(argv) != 1:
        raise CliError("usage: ... fetch <url>")
    url = Url.parse(argv[0])
    stack = _replay_stack(shells, "fetch")
    result = stack.load(PageModel(Resource(url, "html", 0), name=str(url)))
    stack.sim.run_until(lambda: result.complete, timeout=120.0)
    status = "ok" if result.resources_failed == 0 else "FAILED"
    print(f"fetch {url}: {status} in {result.page_load_time * 1000:.1f} ms "
          f"({result.bytes_downloaded} bytes)")
    return 0 if result.resources_failed == 0 else 1
