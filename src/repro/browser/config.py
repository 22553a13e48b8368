"""Browser configuration and compute-cost model.

The parse costs are the browser-side CPU work per resource. They matter
twice: they set the absolute scale of page load times when the network is
fast (Figure 2's ReplayShell-alone distribution is compute-dominated), and
their jitter (via the machine profile) is the variance Table 1 reports.

The cost tables are ``calibration.PARSE_BASE`` and
``calibration.PARSE_PER_KB``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import calibration


@dataclass
class BrowserConfig:
    """Tunables of the browser model.

    Attributes:
        max_connections_per_origin: parallel persistent connections per
            origin (6, the universal browser default of the paper's era).
        max_delayable_in_flight: cap on concurrently outstanding
            low-priority ("delayable") requests — images and other media.
            Browsers' resource schedulers keep image floods from starving
            render-critical scripts and stylesheets of bandwidth; without
            this cap, every object on a shared bottleneck finishes at the
            link-drain time and page load dynamics come out wrong.
        request_header_bytes: size of a typical request (cookies, UA...).
        dns_timeout / dns_retries: stub resolver behaviour.
        start_delay: compute time before the first request (navigation,
            cache lookup) — part of every real PLT measurement.
        protocol: "http/1.1" (parallel persistent connections) or "mux"
            (one SPDY-style multiplexed connection per origin — the
            paper's motivating "new multiplexing protocols" use case; the
            replay/origin servers must speak the same protocol).
    """

    max_connections_per_origin: int = 6
    max_delayable_in_flight: int = 10
    protocol: str = "http/1.1"
    request_header_bytes: int = 420
    dns_timeout: float = 2.0
    dns_retries: int = 4
    start_delay: float = 0.040

    def parse_cost(self, kind: str, size: int) -> float:
        """Idealized compute seconds to process one resource."""
        parse_base = calibration.PARSE_BASE
        parse_per_kb = calibration.PARSE_PER_KB
        base = parse_base.get(kind, parse_base["other"])
        per_kb = parse_per_kb.get(kind, parse_per_kb["other"])
        return base + per_kb * (size / 1024.0)
