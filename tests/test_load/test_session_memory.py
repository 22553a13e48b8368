"""A finished load session leaves nothing behind.

A finished session is one reference cycle (simulator, queue, every
client's connections and callbacks), which reference counting never
frees; a :class:`LoadSession` collects before it builds its world, so a
dead session and a live one never overlap. Every client releases its
resolver's port: a fetch client once its one lookup is answered, a
browser at onload, an app client when its launch sequence ends.
"""

import gc
import tracemalloc
import weakref

import pytest

from repro.load import LoadScenario, Poisson, default_population
from repro.load.runner import LoadSession
from repro.scenarios import load


@pytest.fixture(scope="module")
def factory():
    return load()


def run_session(factory, seed):
    """Build and run one ``load`` scenario session; drop it."""
    __, session = factory(seed)
    result = session.run()
    assert result.completed == result.clients


def test_a_finished_session_dies_when_the_next_is_built(factory,
                                                        collector_off):
    sim, session = factory(0)
    session.run()
    first = weakref.ref(sim)
    del sim, session
    assert first() is not None  # a cycle: only a collection frees it
    factory(1)
    assert first() is None


def test_back_to_back_sessions_do_not_pile_up(factory):
    gc.collect()
    tracemalloc.start()
    try:
        run_session(factory, 0)
        one = tracemalloc.get_traced_memory()[1]
        run_session(factory, 1)
        run_session(factory, 2)
        three = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert three < 1.3 * one


def test_fetch_clients_release_their_resolver_sockets():
    population = default_population(seed=0, n_sites=3, scale=0.2,
                                    mix={"fetch": 1.0})
    session = LoadSession(LoadScenario(population, Poisson(8.0), clients=20),
                          seed=0)
    result = session.run()
    assert result.completed == 20 and result.failed == 0
    resolvers = {client.resolver._socket for client in session._clients}
    assert len(resolvers) == 20
    bound = set(session.stack.transport._udp_sockets.values())
    assert not resolvers & bound


def test_no_client_leaves_a_resolver_socket_bound(factory):
    # The load scenario mixes browsers, app clients and fetch clients.
    __, session = factory(1)
    session.run()
    kinds = {type(client).__name__ for client in session._clients}
    assert {"_BrowserClient", "_ApiAppClient", "_FetchClient"} <= kinds
    assert session.stack.transport._udp_sockets == {}
