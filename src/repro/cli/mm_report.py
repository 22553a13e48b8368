"""``mm-report`` — render observability artifacts from the command line.

Like ``mm-lint``, this tool is not a nesting shell: it reads JSONL
artifacts written by :func:`repro.obs.write_artifact` (or records a fresh
one from the :mod:`repro.scenarios` ``smoke`` world) and renders them as
ASCII time-series plots, resource waterfalls, and machine-readable
summaries.

Subcommands::

    mm-report render <artifact.jsonl> [--series SUBSTR]... [--width N]
    mm-report summary <artifact.jsonl>            # JSON to stdout
    mm-report load <capacity.jsonl> [--no-series]  # capacity-curve view
    mm-report fabric <artifact.jsonl> [--json]     # fabric health view
    mm-report record-smoke --out <artifact.jsonl> [--seed N]
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.errors import ReproError

__all__ = ["main"]


def _cmd_render(options: argparse.Namespace) -> int:
    from repro.obs import read_artifact, render_artifact

    artifact = read_artifact(options.artifact)
    text = render_artifact(
        artifact,
        series=options.series or None,
        width=options.width,
        height=options.height,
        waterfalls=not options.no_waterfalls,
        captures=not options.no_captures,
    )
    print(text)
    return 0


def _summary_data(artifact) -> dict:
    """Machine-readable digest of an artifact (stable key order)."""
    series = {}
    for name, points in artifact.series.items():
        if points:
            values = [p[1] for p in points]
            series[name] = {
                "n": len(points),
                "first_time": points[0][0],
                "last_time": points[-1][0],
                "last": values[-1],
                "min": min(values),
                "max": max(values),
            }
        else:
            series[name] = {"n": 0}
    waterfalls = {}
    for name, waterfall in artifact.waterfalls.items():
        finished = [e.total for e in waterfall.entries if e.total is not None]
        waterfalls[name] = {
            "resources": len(waterfall.entries),
            "failed": sum(1 for e in waterfall.entries if e.failed),
            "bytes": sum(e.size for e in waterfall.entries),
            "span": max(finished) if finished else None,
        }
    captures = {
        name: {
            "total_seen": capture.get("total_seen"),
            "total_bytes": capture.get("total_bytes"),
            "retained": len(capture.get("packets", [])),
        }
        for name, capture in artifact.captures.items()
    }
    return {
        "meta": artifact.meta,
        "counters": artifact.counters,
        "gauges": artifact.gauges,
        "histograms": {
            name: hist.get("summary", {})
            for name, hist in artifact.histograms.items()
        },
        "series": series,
        "waterfalls": waterfalls,
        "captures": captures,
    }


def _cmd_summary(options: argparse.Namespace) -> int:
    from repro.obs import read_artifact

    artifact = read_artifact(options.artifact)
    print(json.dumps(_summary_data(artifact), sort_keys=True, indent=2))
    return 0


def _cmd_load(options: argparse.Namespace) -> int:
    from repro.load.artifact import load_curve_view
    from repro.load.report import render_load_artifact

    view = load_curve_view(options.artifact)
    print(render_load_artifact(
        view,
        width=options.width,
        height=options.height,
        series=not options.no_series,
    ), end="")
    return 0


_FABRIC_GROUPS = (
    ("sweep", ("workers_spawned", "trials_completed", "trials_crashed")),
    ("liveness", ("heartbeats", "watchdog_kills", "worker_crashes")),
    ("wire", ("frames_resynced", "trials_redelivered")),
    ("spawning", ("spawn_retries", "spawn_failures", "hosts_quarantined")),
    ("speculation", ("speculative_trials", "speculative_wins",
                     "speculative_losses")),
    ("journal", ("journal_records_dropped",)),
)


def _cmd_fabric(options: argparse.Namespace) -> int:
    from repro.obs import read_artifact

    artifact = read_artifact(options.artifact)
    counters = {
        name[len("fabric."):]: value
        for name, value in artifact.counters.items()
        if name.startswith("fabric.")
    }
    gauges = {
        name[len("fabric."):]:
            value.get("value") if isinstance(value, dict) else value
        for name, value in artifact.gauges.items()
        if name.startswith("fabric.")
    }
    if not counters and not gauges:
        raise ReproError(
            f"{options.artifact}: no fabric.* metrics in artifact "
            f"(was it written by mm-fabric run --artifact?)"
        )
    if options.json:
        print(json.dumps({"counters": counters, "gauges": gauges,
                          "meta": artifact.meta},
                         sort_keys=True, indent=2))
        return 0
    meta = artifact.meta or {}
    if meta.get("tool"):
        line = f"{meta['tool']}"
        if meta.get("factory"):
            line += f" {meta['factory']}"
        if meta.get("trials") is not None:
            line += (f": {meta['trials']} trial(s) over "
                     f"{meta.get('shards', '?')} shard(s)")
        print(line)
    width = max(len(name) for name in
                list(counters) + [f"{g} (gauge)" for g in gauges])
    for group, names in _FABRIC_GROUPS:
        rows = [(name, counters.pop(name)) for name in names
                if name in counters]
        if not rows:
            continue
        print(f"{group}:")
        for name, value in rows:
            print(f"  {name:<{width}}  {value}")
    leftovers = sorted(counters.items())
    if leftovers:
        print("other:")
        for name, value in leftovers:
            print(f"  {name:<{width}}  {value}")
    if gauges:
        print("gauges:")
        for name, value in sorted(gauges.items()):
            label = f"{name} (gauge)"
            print(f"  {label:<{width}}  {value:g}")
    return 0


def _cmd_record_smoke(options: argparse.Namespace) -> int:
    from repro.obs import write_artifact
    from repro.scenarios import SCENARIOS

    sim = SCENARIOS["smoke"].simulator(options.seed, instrument=True)
    sim.run(max_events=options.max_events)
    path = write_artifact(
        options.out,
        registry=sim.metrics,
        meta={
            "scenario": "smoke",
            "seed": options.seed,
            "events": sim.events_processed,
        },
    )
    registry = sim.metrics
    print(
        f"wrote {path}: {len(registry.counters)} counters, "
        f"{len(registry.series)} series, "
        f"{len(registry.waterfalls)} waterfalls "
        f"({sim.events_processed} events simulated)"
    )
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mm-report",
        description="Render repro.obs observability artifacts.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    render = commands.add_parser(
        "render", help="ASCII time series, waterfalls, and summary table"
    )
    render.add_argument("artifact", help="JSONL artifact path")
    render.add_argument(
        "--series", action="append", metavar="SUBSTR",
        help="plot only series whose name contains SUBSTR (repeatable)",
    )
    render.add_argument("--width", type=int, default=64)
    render.add_argument("--height", type=int, default=12)
    render.add_argument("--no-waterfalls", action="store_true")
    render.add_argument("--no-captures", action="store_true")
    render.set_defaults(run=_cmd_render)

    summary = commands.add_parser(
        "summary", help="machine-readable JSON summary"
    )
    summary.add_argument("artifact", help="JSONL artifact path")
    summary.set_defaults(run=_cmd_summary)

    load = commands.add_parser(
        "load",
        help="capacity-curve view of an mm-load artifact "
        "(level table, knee, occupancy/backlog)",
    )
    load.add_argument("artifact", help="capacity-curve JSONL artifact path")
    load.add_argument("--width", type=int, default=64)
    load.add_argument("--height", type=int, default=12)
    load.add_argument(
        "--no-series", action="store_true",
        help="omit the occupancy/backlog time-series plots",
    )
    load.set_defaults(run=_cmd_load)

    fabric = commands.add_parser(
        "fabric",
        help="fabric health view of an mm-fabric artifact "
        "(liveness, wire damage, spawning, speculation counters)",
    )
    fabric.add_argument("artifact", help="mm-fabric JSONL artifact path")
    fabric.add_argument(
        "--json", action="store_true",
        help="machine-readable fabric.* counters and gauges",
    )
    fabric.set_defaults(run=_cmd_fabric)

    smoke = commands.add_parser(
        "record-smoke",
        help="run the registry's smoke scenario instrumented and write "
        "its artifact (CI's render input)",
    )
    smoke.add_argument("--out", required=True, help="artifact output path")
    smoke.add_argument("--seed", type=int, default=0)
    smoke.add_argument("--max-events", type=int, default=5_000_000)
    smoke.set_defaults(run=_cmd_record_smoke)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    options = _build_parser().parse_args(argv)
    try:
        return options.run(options)
    except FileNotFoundError as exc:
        print(f"mm-report: {exc}", file=sys.stderr)
        return 2
    except ReproError as exc:
        print(f"mm-report: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Output was piped into something that stopped reading (head);
        # suppress the stderr-flush traceback on interpreter exit too.
        try:
            sys.stdout.close()
        except BrokenPipeError:
            pass
        return 0


if __name__ == "__main__":
    sys.exit(main())
