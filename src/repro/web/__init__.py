"""The live-web model: what RecordShell records and Figure 3 compares to.

:class:`~repro.web.internet.Internet` is a topology of origin servers,
each behind its own path with a per-origin round-trip time and cross-
traffic jitter, plus a public DNS server. A
:class:`~repro.core.machine.HostMachine` attaches through a last-mile
link; shells and browsers then reach the "real" origins exactly as a
Mahimahi user's host reaches the Internet.
"""

from repro.web.internet import Internet

__all__ = ["Internet"]
