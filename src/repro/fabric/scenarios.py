"""Importable scenario-factory builders for spawned fabric workers.

A forked worker inherits its scenario factory as a closure; a *spawned*
worker (subprocess, remote) starts from a fresh interpreter and builds
its factory from a :class:`~repro.fabric.worker.FactorySpec` — an import
path naming a builder here (or anywhere importable) plus keyword
arguments. Builders must be deterministic in their arguments: every
worker resolving the same spec must construct the same world, or the
fabric's byte-identity guarantee dissolves.

Two builders cover the common cases:

* :func:`replay_smoke` — a self-contained synthetic-site page-load
  sweep (the CI smoke scenario; needs nothing on disk).
* :func:`recorded_site` — page loads against a recorded folder, the
  production shape: ship the corpus with :mod:`repro.fabric.sync`, then
  point every worker's spec at it.
"""

from __future__ import annotations

import time

from repro.browser import Browser
from repro.core import HostMachine, ShellStack
from repro.measure.runner import ScenarioFactory
from repro.sim import Simulator

__all__ = [
    "recorded_site",
    "replay_smoke",
]


def replay_smoke(
    name: str = "fabricsmoke.com",
    seed: int = 11,
    n_origins: int = 3,
    scale: float = 0.4,
    pace: float = 0.0,
) -> ScenarioFactory:
    """Build the self-contained smoke factory: synthetic site, replayed.

    One generated site, replayed through a fresh simulator per trial
    with the trial index as the seed (the crash-recovery smoke runs this
    factory too). ``pace`` sleeps that many *wall* seconds
    per trial — it widens CI kill windows without touching virtual time,
    so it cannot perturb results.
    """
    from repro.corpus import generate_site

    site = generate_site(name, seed=seed, n_origins=n_origins, scale=scale)
    store = site.to_recorded_site()

    def factory(trial: int):
        if pace:
            time.sleep(pace)
        sim = Simulator(seed=trial)
        machine = HostMachine(sim)
        stack = ShellStack(machine)
        stack.add_replay(store)
        browser = Browser(sim, stack.transport, stack.resolver_endpoint,
                          machine=machine)
        return sim, browser.load(site.page)

    return factory


def recorded_site(
    directory: str,
    protocol: str = "http/1.1",
    single_server: bool = False,
) -> ScenarioFactory:
    """Build a page-load factory over a recorded folder on this host.

    The store is loaded (strictly) once per worker through
    :meth:`RecordedSite.load <repro.record.store.RecordedSite.load>`,
    then every trial replays it in a fresh simulator seeded with the
    trial index.
    """
    from repro.cli.common import page_from_recording
    from repro.record.store import RecordedSite

    store = RecordedSite.load(directory)
    page = page_from_recording(store)

    def factory(trial: int):
        sim = Simulator(seed=trial)
        machine = HostMachine(sim)
        stack = ShellStack(machine)
        stack.add_replay(store, single_server=single_server,
                         protocol=protocol)
        browser = Browser(sim, stack.transport, stack.resolver_endpoint,
                          machine=machine)
        return sim, browser.load(page)

    return factory
