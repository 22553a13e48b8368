"""IPv4 addresses, CIDR networks, and the shell address allocator.

Mahimahi carves its point-to-point veth subnets out of the Carrier-Grade NAT
range ``100.64.0.0/10`` so that shell addresses never collide with real
traffic; :class:`AddressAllocator` reproduces that scheme, handing out /30
subnets (two usable host addresses) per shell, plus single addresses for
replay-server virtual interfaces.

Addresses are immutable, int-backed, hashable, and totally ordered, so they
work as dict keys throughout the substrate.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple, Tuple

from repro.errors import AddressError, AddressPoolExhausted

_MAX_IPV4 = 0xFFFFFFFF


class IPv4Address:
    """An immutable IPv4 address.

    Accepts dotted-quad strings or raw 32-bit integers:

        >>> IPv4Address("100.64.0.1") == IPv4Address(0x64400001)
        True
    """

    __slots__ = ("_value",)

    def __init__(self, value) -> None:
        if isinstance(value, IPv4Address):
            self._value = value._value
        elif isinstance(value, int):
            if not 0 <= value <= _MAX_IPV4:
                raise AddressError(f"integer out of IPv4 range: {value!r}")
            self._value = value
        elif isinstance(value, str):
            self._value = _parse_dotted_quad(value)
        else:
            raise AddressError(f"cannot make an IPv4Address from {value!r}")

    @property
    def value(self) -> int:
        """The address as a 32-bit integer."""
        return self._value

    def __int__(self) -> int:
        return self._value

    def __str__(self) -> str:
        v = self._value
        return f"{v >> 24 & 0xFF}.{v >> 16 & 0xFF}.{v >> 8 & 0xFF}.{v & 0xFF}"

    def __repr__(self) -> str:
        return f"IPv4Address({str(self)!r})"

    def __eq__(self, other: object) -> bool:
        if isinstance(other, IPv4Address):
            return self._value == other._value
        return NotImplemented

    def __lt__(self, other: "IPv4Address") -> bool:
        return self._value < other._value

    def __le__(self, other: "IPv4Address") -> bool:
        return self._value <= other._value

    def __hash__(self) -> int:
        return hash(self._value)

    def __add__(self, offset: int) -> "IPv4Address":
        return IPv4Address(self._value + offset)


def _parse_dotted_quad(text: str) -> int:
    parts = text.strip().split(".")
    if len(parts) != 4:
        raise AddressError(f"not a dotted quad: {text!r}")
    value = 0
    for part in parts:
        if not part.isdigit():
            raise AddressError(f"non-numeric octet in {text!r}")
        octet = int(part)
        if octet > 255:
            raise AddressError(f"octet out of range in {text!r}")
        value = (value << 8) | octet
    return value


class IPv4Network:
    """A CIDR prefix such as ``100.64.0.0/10``.

    The network address is masked down on construction, so
    ``IPv4Network("10.1.2.3/24")`` equals ``IPv4Network("10.1.2.0/24")``.
    """

    __slots__ = ("_network", "_prefix_len", "_mask")

    def __init__(self, spec, prefix_len: int = None) -> None:
        if isinstance(spec, str) and prefix_len is None:
            if "/" not in spec:
                raise AddressError(f"missing prefix length in {spec!r}")
            addr_text, __, len_text = spec.partition("/")
            if not len_text.isdigit():
                raise AddressError(f"bad prefix length in {spec!r}")
            address = IPv4Address(addr_text)
            prefix_len = int(len_text)
        else:
            address = IPv4Address(spec)
            if prefix_len is None:
                raise AddressError("prefix_len required with a bare address")
        if not 0 <= prefix_len <= 32:
            raise AddressError(f"prefix length out of range: {prefix_len!r}")
        self._prefix_len = prefix_len
        # Precomputed once: containment checks sit on the per-packet routing
        # path, where recomputing the mask per lookup shows up in profiles.
        if prefix_len == 0:
            self._mask = 0
        else:
            self._mask = (_MAX_IPV4 << (32 - prefix_len)) & _MAX_IPV4
        self._network = address.value & self._mask

    @property
    def network_address(self) -> IPv4Address:
        """First address of the prefix."""
        return IPv4Address(self._network)

    @property
    def prefix_len(self) -> int:
        """Number of prefix bits."""
        return self._prefix_len

    @property
    def num_addresses(self) -> int:
        """Total addresses covered, including network/broadcast."""
        return 1 << (32 - self._prefix_len)

    def __contains__(self, address) -> bool:
        addr = IPv4Address(address)
        return (addr.value & self._mask) == self._network

    def hosts(self) -> Iterator[IPv4Address]:
        """Iterate the usable host addresses (skips network & broadcast for
        prefixes shorter than /31; /31 and /32 yield everything)."""
        if self._prefix_len >= 31:
            for offset in range(self.num_addresses):
                yield IPv4Address(self._network + offset)
        else:
            for offset in range(1, self.num_addresses - 1):
                yield IPv4Address(self._network + offset)

    def subnets(self, new_prefix_len: int) -> Iterator["IPv4Network"]:
        """Iterate this network's subnets of the given (longer) prefix."""
        if new_prefix_len < self._prefix_len or new_prefix_len > 32:
            raise AddressError(
                f"cannot split /{self._prefix_len} into /{new_prefix_len}"
            )
        step = 1 << (32 - new_prefix_len)
        for base in range(self._network, self._network + self.num_addresses, step):
            yield IPv4Network(IPv4Address(base), new_prefix_len)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, IPv4Network):
            return (
                self._network == other._network
                and self._prefix_len == other._prefix_len
            )
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self._network, self._prefix_len))

    def __str__(self) -> str:
        return f"{self.network_address}/{self._prefix_len}"

    def __repr__(self) -> str:
        return f"IPv4Network({str(self)!r})"


class Endpoint(NamedTuple):
    """An (address, port) pair — one side of a transport connection."""

    address: IPv4Address
    port: int

    def __str__(self) -> str:
        return f"{self.address}:{self.port}"


class AddressAllocator:
    """Hands out /30 veth subnets and single host addresses.

    Mirrors Mahimahi's use of ``100.64.0.0/10``: each shell gets a /30 whose
    two usable addresses become the egress (parent side) and ingress (child
    side) veth endpoints. ReplayShell additionally allocates one address per
    recorded origin IP when asked for a standalone address.
    """

    DEFAULT_POOL = "100.64.0.0/10"

    def __init__(self, pool: str = DEFAULT_POOL) -> None:
        self._pool = IPv4Network(pool)
        self._subnet_iter = self._pool.subnets(30)
        self._allocated_subnets = 0

    @property
    def pool(self) -> IPv4Network:
        """The pool this allocator carves from."""
        return self._pool

    @property
    def allocated_subnets(self) -> int:
        """How many /30s have been handed out."""
        return self._allocated_subnets

    def allocate_subnet(self) -> Tuple[IPv4Network, IPv4Address, IPv4Address]:
        """Allocate a fresh /30; returns (network, first_host, second_host).

        Raises:
            AddressPoolExhausted: when the pool has no /30s left.
        """
        try:
            subnet = next(self._subnet_iter)
        except StopIteration:
            raise AddressPoolExhausted(
                f"no /30 subnets left in {self._pool}"
            ) from None
        self._allocated_subnets += 1
        hosts = list(subnet.hosts())
        return subnet, hosts[0], hosts[1]
