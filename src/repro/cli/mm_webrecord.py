"""``mm-webrecord [options] <output-dir> <url>``.

Records a page load into a folder that ``mm-webreplay`` can serve.

There is no live Internet in this environment, so the "web" being recorded
is the synthetic one: a seeded multi-origin site is generated for the URL,
installed on the simulated Internet (per-origin RTTs, public DNS), and a
browser inside RecordShell loads it through the MITM proxy — exercising
the full record path end to end. Options::

    --seed N       site-generation seed (default 0)
    --origins K    force the number of origin servers
    --scale S      page weight multiplier (default 1.0)
    --https        record an HTTPS site (MITM TLS on both legs)
"""

from __future__ import annotations

import sys
from typing import List

from repro.browser.resources import Url
from repro.cli.common import CliError, Parser, ShellSpec, main_wrapper
from repro.core import HostMachine, ShellStack
from repro.corpus import generate_site
from repro.record.store import RecordedSite
from repro.sim import Simulator
from repro.web import Internet

USAGE = ("usage: mm-webrecord [--seed N] [--origins K] [--scale S] "
         "[--https] <output-dir> <url>")


def run(argv: List[str], specs: List[ShellSpec]) -> int:
    if specs:
        raise CliError("mm-webrecord cannot nest inside other shells")
    parser = Parser("mm-webrecord", USAGE)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--origins", type=int)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--https", action="store_true")
    parser.add_argument("output_dir")
    parser.add_argument("url")
    options = parser.parse_args(argv)
    output_dir, seed = options.output_dir, options.seed
    url = Url.parse(options.url)
    stem = url.host[4:] if url.host.startswith("www.") else url.host

    site = generate_site(stem, seed=seed, n_origins=options.origins,
                         scale=options.scale, https=options.https)
    sim = Simulator(seed=seed)
    internet = Internet(sim)
    internet.install_site(site)
    machine = HostMachine(sim)
    internet.attach_machine(machine)

    store = RecordedSite(site.name)
    stack = ShellStack(machine)
    stack.add_record(store)
    result = stack.load(site.page, resolver=internet.resolver_endpoint)
    sim.run_until(lambda: result.complete, timeout=600.0)
    if not result.complete or result.resources_failed:
        print(f"record-mode load failed: {result.errors[:3]}",
              file=sys.stderr)
        return 1
    store.save(output_dir)
    print(f"recorded {len(store)} request-response pairs "
          f"({len(store.origins())} origins) in "
          f"{result.page_load_time * 1000:.0f} ms -> {output_dir}")
    return 0


main = main_wrapper(run)

if __name__ == "__main__":
    sys.exit(main())
