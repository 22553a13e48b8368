"""``mm-delay <one-way-delay-ms> [inner command ...]``.

Example::

    mm-webreplay site/ mm-delay 40 load
"""

from __future__ import annotations

import sys
from typing import List, Sequence

from repro.cli.common import (
    CliError, Shell, continue_command_line, main_wrapper, non_negative_float,
    parse_arg,
)

USAGE = "usage: mm-delay <one-way-delay-ms> [inner command ...]"


def run(argv: List[str], shells: Sequence[Shell] = ()) -> int:
    if not argv:
        raise CliError(USAGE)
    delay = parse_arg(argv[0], "one-way delay", non_negative_float) / 1000.0
    shell = (f"delay({argv[0]}ms)", lambda stack: stack.add_delay(delay))
    return continue_command_line(argv[1:], [*shells, shell])


main = main_wrapper(run)

if __name__ == "__main__":
    sys.exit(main())
