"""Per-namespace routing tables with longest-prefix match.

Routes map destination prefixes to an output interface. Because every link
in the substrate is a point-to-point veth, a route never needs a next-hop
address — the far end of the out-interface is always the next hop — but we
keep an optional ``via`` field for documentation and table dumps.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, TYPE_CHECKING

from repro.errors import RoutingError
from repro.net.address import IPv4Address, IPv4Network

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.net.interface import Interface


class Route(NamedTuple):
    """One routing-table entry."""

    prefix: IPv4Network
    interface: "Interface"
    via: Optional[IPv4Address]

    def __str__(self) -> str:
        via = f" via {self.via}" if self.via is not None else ""
        return f"{self.prefix} dev {self.interface.name}{via}"


class RoutingTable:
    """Longest-prefix-match routing table.

    Routes are kept sorted by descending prefix length, so lookup scans find
    the most specific match first. Tables here are tiny (a handful of
    entries per namespace — a shell's is one default route), so a scan
    beats fancier structures.
    """

    def __init__(self) -> None:
        self._routes: List[Route] = []

    def add(
        self,
        prefix,
        interface: "Interface",
        via: Optional[IPv4Address] = None,
    ) -> Route:
        """Install a route for ``prefix`` (string or IPv4Network)."""
        if not isinstance(prefix, IPv4Network):
            prefix = IPv4Network(prefix)
        route = Route(prefix, interface, via)
        self._routes.append(route)
        self._routes.sort(key=lambda r: r.prefix.prefix_len, reverse=True)
        return route

    def add_default(
        self, interface: "Interface", via: Optional[IPv4Address] = None
    ) -> Route:
        """Install a default route (0.0.0.0/0)."""
        return self.add(IPv4Network("0.0.0.0/0"), interface, via)

    def remove(self, route: Route) -> None:
        """Remove a previously added route."""
        try:
            self._routes.remove(route)
        except ValueError:
            raise RoutingError(f"route not in table: {route}") from None

    def lookup_value(self, value: int) -> Optional[Route]:
        """Most specific route for a raw 32-bit destination, or None (the
        one scan under :meth:`lookup`, :meth:`try_lookup` and the
        per-packet forward path)."""
        for route in self._routes:
            prefix = route.prefix
            if (value & prefix._mask) == prefix._network:
                return route
        return None

    def lookup(self, destination) -> Route:
        """Return the most specific route for ``destination``.

        Raises:
            RoutingError: if no route (not even a default) matches.
        """
        route = self.try_lookup(destination)
        if route is None:
            raise RoutingError(f"no route to {IPv4Address(destination)}")
        return route

    def try_lookup(self, destination) -> Optional[Route]:
        """Like :meth:`lookup` but returns None instead of raising."""
        return self.lookup_value(IPv4Address(destination)._value)

    def __len__(self) -> int:
        return len(self._routes)

    def __iter__(self):
        return iter(self._routes)

    def dump(self) -> str:
        """Human-readable table, one route per line (like ``ip route``)."""
        return "\n".join(str(route) for route in self._routes)
