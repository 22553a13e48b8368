"""A caching stub resolver.

Browsers cache lookups for the duration of a page load, so the resolver
caches positive answers (with a TTL) and coalesces concurrent queries for
the same name — twenty objects on one origin cost one round trip to the
DNS server, which is what a real page load sees.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.dns.message import (
    DnsQuery,
    DnsResponse,
    RCODE_SERVFAIL,
    decode_message,
    encode_query,
)
from repro.errors import DnsError
from repro.net.address import Endpoint, IPv4Address
from repro.sim.simulator import Simulator
from repro.sim.timers import Timer
from repro.transport.host import TransportHost

ResolveCallback = Callable[[Optional[List[IPv4Address]], Optional[Exception]], None]

DEFAULT_TIMEOUT = 2.0
DEFAULT_RETRIES = 2
#: Positive-cache lifetime, seconds (read at use time).
TTL = 60.0


class StubResolver:
    """Resolves names against one DNS server, with caching and retry.

    Args:
        sim: the simulator.
        transport: the local namespace's transport host.
        local_address: address to bind the query socket on.
        server: the DNS server endpoint.
        timeout: per-attempt timeout, seconds.
        retries: retransmissions before failing.
    """

    def __init__(
        self,
        sim: Simulator,
        transport: TransportHost,
        local_address,
        server: Endpoint,
        timeout: float = DEFAULT_TIMEOUT,
        retries: int = DEFAULT_RETRIES,
    ) -> None:
        self.sim = sim
        self.server = server
        self.timeout = timeout
        self.retries = retries
        self.queries_sent = 0
        self.cache_hits = 0
        self._next_qid = 1
        self._cache: Dict[str, Tuple[float, List[IPv4Address]]] = {}
        # name -> in-flight query state
        self._pending: Dict[str, "_PendingQuery"] = {}
        self._qid_to_name: Dict[int, str] = {}
        self._socket = transport.udp_socket(
            IPv4Address(local_address), 0, on_datagram=self._response_arrived
        )

    def resolve(self, name: str, callback: ResolveCallback) -> None:
        """Resolve ``name``; the callback gets (addresses, None) on success
        or (None, error) on NXDOMAIN/timeout."""
        name = name.lower()
        cached = self._cache.get(name)
        if cached is not None and cached[0] > self.sim.now:
            self.cache_hits += 1
            self.sim.call_soon(callback, list(cached[1]), None)
            return
        pending = self._pending.get(name)
        if pending is not None:
            pending.callbacks.append(callback)
            return
        pending = _PendingQuery(name, callback)
        self._pending[name] = pending
        self._send_query(pending)

    def _send_query(self, pending: "_PendingQuery") -> None:
        qid = self._next_qid
        self._next_qid += 1
        pending.qid = qid
        self._qid_to_name[qid] = pending.name
        self.queries_sent += 1
        self._socket.sendto(
            encode_query(DnsQuery(qid, pending.name)), self.server
        )
        pending.timer = Timer(self.sim, lambda: self._timed_out(pending))
        # Exponential backoff per attempt (glibc-style): on a badly
        # bufferbloated link the query and its answer can sit behind
        # seconds of queued TCP data, and only a patient retry schedule
        # ever sees the answer.
        pending.timer.start(self.timeout * (2 ** pending.attempts))

    def _timed_out(self, pending: "_PendingQuery") -> None:
        self._qid_to_name.pop(pending.qid, None)
        if pending.attempts < self.retries:
            pending.attempts += 1
            self._send_query(pending)
            return
        self._pending.pop(pending.name, None)
        error = DnsError(f"resolution of {pending.name!r} timed out")
        for callback in pending.callbacks:
            callback(None, error)

    def _response_arrived(self, data: bytes, source: Endpoint) -> None:
        try:
            message = decode_message(data)
        except DnsError:
            return
        if not isinstance(message, DnsResponse):
            return
        name = self._qid_to_name.pop(message.qid, None)
        if name is None:
            return
        pending = self._pending.pop(name, None)
        if pending is None:
            return
        if pending.timer is not None:
            pending.timer.stop()
        if message.ok:
            addresses = [IPv4Address(a) for a in message.addresses]
            self._cache[name] = (self.sim.now + TTL, addresses)
            for callback in pending.callbacks:
                callback(list(addresses), None)
        else:
            # SERVFAIL and NXDOMAIN are different failures (the server is
            # broken vs. the name does not exist); name them apart so
            # failure taxonomies can tell them apart.
            if message.rcode == RCODE_SERVFAIL:
                error = DnsError(f"SERVFAIL for {name!r}")
            else:
                error = DnsError(f"NXDOMAIN for {name!r}")
            for callback in pending.callbacks:
                callback(None, error)

    def close(self) -> None:
        """Release the query socket."""
        self._socket.close()


class _PendingQuery:
    """State of one in-flight resolution (possibly many waiters)."""

    __slots__ = ("name", "callbacks", "qid", "attempts", "timer")

    def __init__(self, name: str, callback: ResolveCallback) -> None:
        self.name = name
        self.callbacks = [callback]
        self.qid = 0
        self.attempts = 0
        self.timer: Optional[Timer] = None
