"""``mm-load`` — open-loop heavy-traffic load generation from the CLI.

Sweeps a capacity curve (or runs a single load level) against the
built-in synthetic corpus inside one simulated world, writes the
byte-deterministic JSONL artifact, and prints the capacity-curve view.

Subcommands::

    mm-load sweep --levels 40,80,160 --out curve.jsonl [--seed N] ...
    mm-load run --clients 200 --rate 20 [--seed N] ...  # one level, JSON

Artifacts written by ``sweep`` render with ``mm-report load``.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.cli.common import CliError
from repro.errors import ReproError

__all__ = ["main"]


def _parse_levels(spec: str) -> List[int]:
    try:
        levels = [int(part) for part in spec.split(",") if part.strip()]
    except ValueError:
        raise ReproError(f"bad --levels {spec!r}: expected N,N,N ...")
    if len(levels) < 2:
        raise ReproError("--levels needs at least two client counts")
    if any(b <= a for a, b in zip(levels, levels[1:])):
        raise ReproError(f"--levels must be strictly increasing: {spec}")
    return levels


def _check_ranges(options: argparse.Namespace) -> None:
    """Refuse an out-of-range number naming its flag, before any world
    is built."""
    if options.server_workers < 1:
        raise CliError(f"--server-workers must be >= 1, "
                       f"got {options.server_workers}")
    if options.command == "run" and options.rate <= 0:
        raise CliError(f"--rate must be positive, got {options.rate}")


def _population(options: argparse.Namespace):
    from repro.load.population import default_population

    return default_population(
        seed=options.corpus_seed,
        n_sites=options.sites,
        scale=options.site_scale,
    )


def _cmd_sweep(options: argparse.Namespace) -> int:
    from repro.load.artifact import load_curve_view, write_capacity_artifact
    from repro.load.capacity import run_capacity_curve
    from repro.load.report import render_load_artifact

    curve = run_capacity_curve(
        _population(options),
        _parse_levels(options.levels),
        window=options.window,
        seed=options.seed,
        arrivals=options.arrivals,
        link_mbps=options.link_mbps,
        one_way_delay=options.delay,
        server_workers=options.server_workers,
        timeout=options.timeout,
        workers=options.workers,
    )
    path = write_capacity_artifact(
        options.out, curve, meta={"seed": options.seed})
    print(f"wrote {path}: {len(curve.results)} levels")
    if not options.quiet:
        print(render_load_artifact(load_curve_view(path)), end="")
    return 0


def _cmd_run(options: argparse.Namespace) -> int:
    from repro.load.arrivals import make_process
    from repro.load.runner import LoadScenario, run_load

    scenario = LoadScenario(
        population=_population(options),
        arrivals=make_process(options.arrivals, options.rate),
        clients=options.clients,
        link_mbps=options.link_mbps,
        one_way_delay=options.delay,
        server_workers=options.server_workers,
        timeout=options.timeout,
    )
    result = run_load(scenario, seed=options.seed, instrument=True)
    print(json.dumps(result.to_dict(), sort_keys=True, indent=2))
    return 0


def _add_world_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--arrivals", choices=("fixed", "poisson", "diurnal"),
        default="poisson", help="arrival process (default: poisson)",
    )
    parser.add_argument(
        "--sites", type=int, default=4,
        help="synthetic corpus size (default: 4 sites)",
    )
    parser.add_argument(
        "--site-scale", type=float, default=0.25,
        help="per-site page complexity scale (default: 0.25)",
    )
    parser.add_argument(
        "--corpus-seed", type=int, default=0,
        help="seed for corpus generation (default: 0)",
    )
    parser.add_argument("--link-mbps", type=float, default=1000.0)
    parser.add_argument(
        "--delay", type=float, default=0.020,
        help="one-way propagation delay in seconds (default: 0.020)",
    )
    parser.add_argument("--server-workers", type=int, default=2)
    parser.add_argument(
        "--timeout", type=float, default=600.0,
        help="simulated-seconds budget per level (default: 600)",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mm-load",
        description="Open-loop heavy-traffic load generation with "
        "capacity-curve measurement.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    sweep = commands.add_parser(
        "sweep", help="sweep client counts into a capacity-curve artifact"
    )
    sweep.add_argument(
        "--levels", required=True, metavar="N,N,...",
        help="strictly increasing client counts, e.g. 40,80,160,320",
    )
    sweep.add_argument("--out", required=True, help="artifact output path")
    sweep.add_argument(
        "--window", type=float, default=20.0,
        help="arrival window in simulated seconds; offered rate per level "
        "is clients/window (default: 20)",
    )
    sweep.add_argument(
        "--workers", type=int, default=None,
        help="fork-pool workers for the level sweep (default: serial)",
    )
    sweep.add_argument(
        "--quiet", action="store_true",
        help="write the artifact without rendering it",
    )
    _add_world_options(sweep)
    sweep.set_defaults(run=_cmd_sweep)

    run = commands.add_parser(
        "run", help="run one load level and print its JSON summary"
    )
    run.add_argument("--clients", type=int, required=True)
    run.add_argument(
        "--rate", type=float, required=True,
        help="offered load in clients per simulated second",
    )
    _add_world_options(run)
    run.set_defaults(run=_cmd_run)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    options = _build_parser().parse_args(argv)
    try:
        _check_ranges(options)
        return options.run(options)
    except ReproError as exc:
        print(f"mm-load: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        try:
            sys.stdout.close()
        except BrokenPipeError:
            pass
        return 0


if __name__ == "__main__":
    sys.exit(main())
