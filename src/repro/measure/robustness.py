"""The failure taxonomy of page loads under fault injection.

Under a :class:`~repro.chaos.plan.FaultPlan` a failed fetch is not a
measurement bug (as it is for :func:`~repro.measure.runner.run_trial`):
the failures *are* the measurement. :func:`classify_result` puts a load
in exactly one outcome category and every failed fetch in exactly one
failure class, so PLT-degradation curves and failure taxonomies come out
of one pass over ordinary page-load results.

Failure classes (per failed fetch):

* ``reset`` — connection reset mid-transfer (RST from a server fault or
  a chaos-injected transport reset);
* ``truncated`` — the body ended short of its advertised length;
* ``dns`` — resolution failed (SERVFAIL, NXDOMAIN, resolver timeout);
* ``timeout`` — a transport-level timer fired;
* ``closed`` — the connection closed with requests outstanding;
* ``other`` — anything else.

Load outcomes: ``success`` (everything loaded), ``degraded`` (onload
fired with failed resources), ``hung`` (onload never fired — under a long
outage that is a legitimate measurement, not an error).
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.browser.engine import PageLoadResult
from repro.errors import (
    ConnectionClosed,
    ConnectionReset,
    DnsError,
    ResetMidTransfer,
    TimeoutError_,
    TruncatedBody,
)

#: Stable category order for tables and artifacts.
FAILURE_CLASSES = ("reset", "truncated", "dns", "timeout", "closed", "other")


def classify_error(exc: Exception) -> str:
    """Map a fetch failure to its taxonomy class (see module docstring).

    Subclass order matters: ResetMidTransfer/TruncatedBody are checked
    before their transport/HTTP base classes. DNS resolver timeouts
    arrive as DnsError (the resolver's own retry budget expired), so
    they classify as ``dns``, not ``timeout``.
    """
    if isinstance(exc, TruncatedBody):
        return "truncated"
    if isinstance(exc, (ResetMidTransfer, ConnectionReset)):
        return "reset"
    if isinstance(exc, DnsError):
        return "dns"
    if isinstance(exc, TimeoutError_):
        return "timeout"
    if isinstance(exc, ConnectionClosed):
        return "closed"
    return "other"


def classify_result(result: PageLoadResult) -> Tuple[str, Dict[str, int]]:
    """A (possibly incomplete) load's outcome — ``success``,
    ``degraded`` or ``hung`` — and its failure class -> fetch count."""
    failures: Dict[str, int] = {}
    for __, exc in result.failures:
        cls = classify_error(exc)
        failures[cls] = failures.get(cls, 0) + 1
    # Failures recorded without an exception still count, as "other".
    unclassified = result.resources_failed - sum(failures.values())
    if unclassified > 0:
        failures["other"] = failures.get("other", 0) + unclassified
    if not result.complete:
        return "hung", failures
    return ("degraded" if result.resources_failed else "success"), failures
