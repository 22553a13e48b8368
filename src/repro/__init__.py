"""repro — a Python reproduction of Mahimahi (SIGCOMM 2014).

Mahimahi is a lightweight toolkit for reproducible web measurement: it
records websites and replays them under emulated network conditions, as a
set of arbitrarily composable shells. This package rebuilds the toolkit —
and every substrate it rides on (network namespaces, TCP, HTTP, DNS) — as
a deterministic discrete-event simulation.

Quick start::

    from repro import ShellStack, generate_site

    site = generate_site("example.com", seed=1)
    store = site.to_recorded_site()

    stack = ShellStack.fresh(seed=42)
    stack.add_replay(store)          # mm-webreplay
    stack.add_link(14, 14)           # mm-link (14 Mbit/s each way)
    stack.add_delay(0.040)           # mm-delay 40
    result = stack.load(site.page)   # load
    stack.sim.run_until(lambda: result.complete)
    print(f"page load time: {result.page_load_time * 1000:.0f} ms")

See DESIGN.md for the full system inventory and EXPERIMENTS.md for the
reproduced tables and figures.
"""

from repro.browser import Browser, BrowserConfig, PageLoadResult, PageModel, Resource, Url
from repro.chaos import FaultPlan
from repro.core import (
    DelayShell,
    HostMachine,
    LinkShell,
    MachineProfile,
    RecordShell,
    ReplayShell,
    Shell,
    ShellStack,
)
from repro.corpus import alexa_corpus, corpus_statistics, generate_site, named_site
from repro.errors import ReproError
from repro.linkem import (
    DropTailQueue,
    PacketDeliveryTrace,
    cellular_trace,
    constant_rate_trace,
)
from repro.measure import Sample, run_page_loads
from repro.record import RecordedSite, RequestMatcher, RequestResponsePair
from repro.sim import Simulator
from repro.web import Internet

__version__ = "1.0.0"

__all__ = [
    "Browser",
    "BrowserConfig",
    "DelayShell",
    "DropTailQueue",
    "FaultPlan",
    "HostMachine",
    "Internet",
    "LinkShell",
    "MachineProfile",
    "PacketDeliveryTrace",
    "PageLoadResult",
    "PageModel",
    "RecordShell",
    "RecordedSite",
    "ReplayShell",
    "ReproError",
    "RequestMatcher",
    "RequestResponsePair",
    "Resource",
    "Sample",
    "Shell",
    "ShellStack",
    "Simulator",
    "Url",
    "alexa_corpus",
    "cellular_trace",
    "constant_rate_trace",
    "corpus_statistics",
    "generate_site",
    "named_site",
    "run_page_loads",
    "__version__",
]
