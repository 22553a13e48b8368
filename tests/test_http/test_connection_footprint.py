"""What an idle keep-alive connection costs.

ReplayShell runs one server per origin and a browser opens six
connections per host, so a heavy-traffic world holds hundreds of open,
idle keep-alive pairs. Each pair must hold only what it uses: no empty
FIFO, no empty SACK scoreboard, no instance ``__dict__``. A tracemalloc
count repeats exactly from run to run (a speed reading does not), so the
per-pair bound below is a hard gate.

The checks are plain functions so the same body runs without pytest on
any interpreter: ``PYTHONPATH=src python tests/test_http/test_connection_footprint.py``.
"""

from __future__ import annotations

import gc
import tracemalloc
from collections import deque

from repro.http.body import Body
from repro.http.client import HttpClient
from repro.http.message import Headers, HttpRequest, HttpResponse
from repro.http.parser import HttpParser, _PieceBuffer
from repro.http.server import HttpServer, _ServerConnection
from repro.testing import TwoHostWorld
from repro.transport.congestion import NewReno
from repro.transport.rto import RttEstimator
from repro.transport.tcp import TcpConnection
from repro.transport.wire import RangeSet, ReassemblyBuffer, SendBuffer

#: Bytes one idle client/server pair may hold (both HTTP ends and both
#: TCP ends). The eager layout held ~11.3 KB on CPython 3.10-3.12; the
#: lazy one holds ~4.5 KB.
MAX_BYTES_PER_IDLE_PAIR = 6000

#: The per-connection classes: each carries ``__slots__``, and none may
#: hold a deque or a RangeSet while its connection is idle.
PER_CONNECTION = (
    HttpClient, _ServerConnection, HttpParser, _PieceBuffer,
    TcpConnection, SendBuffer, ReassemblyBuffer, NewReno, RttEstimator,
)


def _served_world():
    world = TwoHostWorld()
    body = Body.virtual(1000)
    HttpServer(world.sim, world.server, world.SERVER_ADDR, 80,
               lambda request: HttpResponse(200, body=body))
    return world


def _open_idle_pairs(world, pairs: int) -> list:
    """``pairs`` clients, one GET each, run until every response is in
    and every connection sits idle in ESTABLISHED."""
    answered = []
    clients = []
    for __ in range(pairs):
        client = HttpClient(world.sim, world.client, world.server_endpoint)
        client.request(HttpRequest("GET", "/", Headers([("Host", "h")])),
                       answered.append)
        clients.append(client)
    world.sim.run()
    assert len(answered) == pairs
    assert all(c.ready and not c.busy and not c.closed for c in clients)
    return clients


def idle_pair_bytes(pairs: int = 100) -> float:
    """Traced bytes per idle keep-alive pair (after one warm-up pair
    primes the interpreter's and the hosts' one-off allocations)."""
    world = _served_world()
    warm = _open_idle_pairs(world, 1)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        clients = _open_idle_pairs(world, pairs)
        gc.collect()
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert warm and clients
    return (after - before) / pairs


def idle_connection_holdings() -> list:
    """Every per-connection object of one idle pair, as (object, its
    attribute values); objects are found by walking slot values from
    the client and both TCP ends."""
    world = _served_world()
    (client,) = _open_idle_pairs(world, 1)
    (server_tcp,) = world.server._connections.values()
    roots = [client, server_tcp, server_tcp.on_data.__self__]
    seen, found = set(), []
    while roots:
        obj = roots.pop()
        if id(obj) in seen or not isinstance(obj, PER_CONNECTION):
            continue
        seen.add(id(obj))
        values = [getattr(obj, name) for klass in type(obj).__mro__
                  for name in getattr(klass, "__slots__", ())
                  if hasattr(obj, name)]
        found.append((obj, values))
        roots.extend(values)
    return found


def test_idle_pair_fits_its_bound():
    per_pair = idle_pair_bytes()
    assert per_pair <= MAX_BYTES_PER_IDLE_PAIR, (
        f"an idle keep-alive pair holds {per_pair:.0f} B "
        f"(bound {MAX_BYTES_PER_IDLE_PAIR} B)")


def test_idle_connection_holds_no_fifo_or_scoreboard():
    holdings = idle_connection_holdings()
    # Both HTTP ends, both parsers and buffers, both TCP ends with their
    # send/receive buffers and congestion state.
    assert {type(obj) for obj, __ in holdings} == set(PER_CONNECTION)
    for obj, values in holdings:
        assert not hasattr(obj, "__dict__"), type(obj).__name__
        held = [type(v).__name__ for v in values
                if isinstance(v, (deque, RangeSet))]
        assert not held, f"idle {type(obj).__name__} holds {held}"


if __name__ == "__main__":
    import sys

    test_idle_connection_holds_no_fifo_or_scoreboard()
    per_pair = idle_pair_bytes()
    print(f"Python {sys.version.split()[0]}: {per_pair:.0f} B per idle pair "
          f"(bound {MAX_BYTES_PER_IDLE_PAIR} B)")
    test_idle_pair_fits_its_bound()
