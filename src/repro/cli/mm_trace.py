"""``mm-trace`` — generate packet-delivery trace files.

Subcommands::

    mm-trace constant --rate MBPS [--duration MS] --out FILE
    mm-trace cellular [--mean MBPS] [--duration MS] [--seed N] --out FILE
    mm-trace info FILE
"""

from __future__ import annotations

import random
import sys
from typing import List

from repro.cli.common import CliError, Parser, ShellSpec, main_wrapper
from repro.linkem import PacketDeliveryTrace, cellular_trace, constant_rate_trace
from repro.sim.random import stable_seed

USAGE = ("usage: mm-trace constant --rate MBPS [--duration MS] --out FILE"
         " | mm-trace cellular [--mean MBPS] [--duration MS] [--seed N]"
         " --out FILE | mm-trace info FILE")


def run(argv: List[str], specs: List[ShellSpec]) -> int:
    if specs:
        raise CliError("mm-trace cannot nest inside other shells")
    if not argv:
        raise CliError(USAGE)
    command, rest = argv[0], list(argv[1:])
    if command == "constant":
        return _constant(rest)
    if command == "cellular":
        return _cellular(rest)
    if command == "info":
        return _info(rest)
    raise CliError(USAGE)


def _constant(rest: List[str]) -> int:
    parser = Parser("mm-trace constant", USAGE)
    parser.add_argument("--rate", type=float, required=True)
    parser.add_argument("--duration", type=int, default=1000)
    parser.add_argument("--out", required=True)
    options = parser.parse_args(rest)
    trace = constant_rate_trace(options.rate, options.duration)
    trace.to_file(options.out)
    print(f"wrote {len(trace)} opportunities "
          f"({trace.average_rate_mbps:.2f} Mbit/s) to {options.out}")
    return 0


def _cellular(rest: List[str]) -> int:
    parser = Parser("mm-trace cellular", USAGE)
    parser.add_argument("--mean", type=float, default=9.0)
    parser.add_argument("--duration", type=int, default=60_000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", required=True)
    options = parser.parse_args(rest)
    # Derive the stream seed via stable_seed (REP002): the raw --seed value
    # stays the user-facing knob, but the generator's seed universe cannot
    # collide with other consumers of small integer seeds.
    trace = cellular_trace(
        random.Random(stable_seed(options.seed, "mm-trace:cellular")),
        duration_ms=options.duration,
        mean_mbps=options.mean,
    )
    trace.to_file(options.out)
    print(f"wrote {len(trace)} opportunities "
          f"(avg {trace.average_rate_mbps:.2f} Mbit/s) to {options.out}")
    return 0


def _info(rest: List[str]) -> int:
    if len(rest) != 1:
        raise CliError(USAGE)
    trace = PacketDeliveryTrace.from_file(rest[0])
    print(f"{rest[0]}: {len(trace)} opportunities over {trace.period_ms} ms "
          f"(avg {trace.average_rate_mbps:.2f} Mbit/s)")
    return 0


main = main_wrapper(run)

if __name__ == "__main__":
    sys.exit(main())
