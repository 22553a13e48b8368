"""Shared CLI machinery: stack specs, nested-command parsing, execution.

Each ``mm-*`` entry point parses its own arguments, prepends a shell spec,
and hands the remaining argv to :func:`continue_command_line`, which either
recurses into the next ``mm-*`` command or executes the innermost
application command (``load`` / ``fetch``). The accumulated spec is built
into a real :class:`~repro.core.compose.ShellStack` only at execution time,
all inside one fresh simulator.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Dict, List, NoReturn, Optional, Tuple

from repro.browser import BrowserConfig
from repro.browser.html import page_from_recording
from repro.browser.resources import PageModel, Resource, Url
from repro.core import ShellStack
from repro.errors import ReproError
from repro.linkem.queues import DropTailQueue
from repro.linkem.trace import PacketDeliveryTrace
from repro.record.store import RecordedSite

ShellSpec = Tuple[str, Dict]

_KNOWN_INNER = ("mm-delay", "mm-link", "mm-loss", "mm-chaos",
                "mm-webreplay", "mm-webrecord")


class CliError(ReproError):
    """Bad command-line usage."""


class Parser(argparse.ArgumentParser):
    """argparse for one tool or subcommand, with a malformed argv reported
    the way every mm-* tool reports bad usage: a :class:`CliError` (exit
    status 2) under the tool's usage line, never a traceback and never a
    ``sys.exit`` from here."""

    def __init__(self, prog: str, usage: str) -> None:
        super().__init__(prog=prog, usage=usage, add_help=False,
                         allow_abbrev=False)

    def error(self, message: str) -> NoReturn:
        raise CliError(f"{self.usage}\n{message}")


def continue_command_line(argv: List[str], specs: List[ShellSpec]) -> int:
    """Dispatch the rest of an mm-* command line.

    ``argv`` either starts another ``mm-*`` command (nested shell), an
    application command (``load`` / ``fetch``), or is empty (just print
    the stack).
    """
    if not argv:
        print(format_stack(specs))
        print("no application command given; try: ... load")
        return 0
    head = argv[0]
    if head in _KNOWN_INNER:
        from repro.cli import (
            mm_chaos, mm_delay, mm_link, mm_loss, mm_webrecord, mm_webreplay,
        )
        inner = {
            "mm-delay": mm_delay.run,
            "mm-link": mm_link.run,
            "mm-loss": mm_loss.run,
            "mm-chaos": mm_chaos.run,
            "mm-webreplay": mm_webreplay.run,
            "mm-webrecord": mm_webrecord.run,
        }[head]
        return inner(argv[1:], specs)
    if head == "load":
        return run_load(argv[1:], specs)
    if head == "fetch":
        return run_fetch(argv[1:], specs)
    raise CliError(f"unknown command {head!r} "
                   f"(expected one of {_KNOWN_INNER + ('load', 'fetch')})")


def format_stack(specs: List[ShellSpec]) -> str:
    """One-line description of the composed stack."""
    if not specs:
        return "(no shells)"
    return " > ".join(f"{kind}({args.get('label', '')})"
                      for kind, args in specs)


def build_stack(specs: List[ShellSpec], seed: int = 0):
    """Materialize a spec list into a stack in a fresh seeded world.

    Returns ``(stack, replay_store)``; the store is None when the specs
    hold no ``replay`` shell.
    """
    stack = ShellStack.fresh(seed)
    replay_store: Optional[RecordedSite] = None
    for kind, args in specs:
        if kind == "delay":
            stack.add_delay(args["delay"])
        elif kind == "link":
            stack.add_link(
                uplink=args["uplink"], downlink=args["downlink"],
                uplink_queue=_queue(args.get("uplink_queue")),
                downlink_queue=_queue(args.get("downlink_queue")),
            )
        elif kind == "loss":
            stack.add_loss(
                downlink_loss=args.get("downlink_loss", 0.0),
                uplink_loss=args.get("uplink_loss", 0.0),
                downlink_ge=_ge_clause(args.get("downlink_ge"), "downlink"),
                uplink_ge=_ge_clause(args.get("uplink_ge"), "uplink"),
            )
        elif kind == "chaos":
            from repro.chaos.plan import FaultPlan

            stack.add_chaos(FaultPlan.from_json(args["plan_json"]))
        elif kind == "replay":
            replay_store = RecordedSite.load(args["directory"])
            stack.add_replay(replay_store,
                             single_server=args.get("single_server", False),
                             protocol=args.get("protocol", "http/1.1"))
        else:
            raise CliError(f"cannot build shell kind {kind!r}")
    return stack, replay_store


def _ge_clause(params, direction: str):
    """Build a GilbertElliottClause from a spec's plain-dict parameters."""
    if params is None:
        return None
    from repro.chaos.plan import GilbertElliottClause

    return GilbertElliottClause(direction=direction, **params)


def _queue(spec):
    """None, a packet count (drop-tail), or "codel"."""
    if spec is None:
        return None
    if spec == "codel":
        from repro.linkem.codel import CoDelQueue

        return CoDelQueue()
    return DropTailQueue(max_packets=spec)


def parse_trace_or_rate(text: str):
    """mm-link argument: a trace file path, or a Mbit/s number."""
    try:
        rate = float(text)
    except ValueError:
        return PacketDeliveryTrace.from_file(text)
    if rate <= 0:
        raise CliError(f"link rate must be positive: {text!r}")
    return rate


def run_load(argv: List[str], specs: List[ShellSpec]) -> int:
    """The ``load`` application command: load the replayed site once."""
    seed = 0
    if argv and argv[0] == "--seed":
        try:
            seed = int(argv[1])
        except IndexError:
            raise CliError("load --seed needs a value") from None
        except ValueError:
            raise CliError(
                f"load --seed needs an integer, got {argv[1]!r}") from None
        argv = argv[2:]
    if argv:
        raise CliError(f"load takes no further arguments, got {argv!r}")
    if not any(kind == "replay" for kind, __ in specs):
        raise CliError("load needs a mm-webreplay shell in the stack")
    stack, store = build_stack(specs, seed=seed)
    page = page_from_recording(store)
    protocol = next((args.get("protocol", "http/1.1")
                     for kind, args in specs if kind == "replay"), "http/1.1")
    result = stack.load(page, config=BrowserConfig(protocol=protocol))
    stack.sim.run_until(lambda: result.complete, timeout=600.0)
    if not result.complete:
        print("page load did not complete within 600 virtual seconds",
              file=sys.stderr)
        return 1
    print(f"stack: {format_stack(specs)}")
    print(f"page: {page.name} ({page.resource_count} resources, "
          f"{page.total_bytes} bytes, {len(page.origins())} origins)")
    print(f"page load time: {result.page_load_time * 1000:.1f} ms")
    print(f"resources loaded: {result.resources_loaded}  "
          f"failed: {result.resources_failed}")
    print(f"connections: {result.connections_opened}  "
          f"dns lookups: {result.dns_lookups}")
    return 0


def run_fetch(argv: List[str], specs: List[ShellSpec]) -> int:
    """The ``fetch`` application command: fetch one URL from the replay."""
    if len(argv) != 1:
        raise CliError("usage: ... fetch <url>")
    url = Url.parse(argv[0])
    stack, store = build_stack(specs)
    if store is None:
        raise CliError("fetch needs a mm-webreplay shell in the stack")
    result = stack.load(PageModel(Resource(url, "html", 0), name=str(url)))
    stack.sim.run_until(lambda: result.complete, timeout=120.0)
    status = "ok" if result.resources_failed == 0 else "FAILED"
    print(f"fetch {url}: {status} in {result.page_load_time * 1000:.1f} ms "
          f"({result.bytes_downloaded} bytes)")
    return 0 if result.resources_failed == 0 else 1


def main_wrapper(run: Callable[[List[str], List[ShellSpec]], int]) -> Callable[[], int]:
    """Wrap a command's ``run`` into a console entry point."""

    def main() -> int:
        try:
            return run(sys.argv[1:], [])
        except ReproError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    return main
