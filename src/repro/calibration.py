"""The calibration table: every constant this model was fitted on.

Three of the paper's results rest on numbers the toolkit cannot derive
from first principles: Figure 2's per-shell forwarding overheads, Table
1's host timing noise, and Figure 3's replay-vs-Web gap (server, DNS and
path costs on both sides). Each constant below was fitted once against
exactly one :data:`repro.scenarios.CLAIMS` entry, named in
:data:`CALIBRATION`; every other claim is out-of-sample for it.

Components read these values from this module when they are built
(``calibration.SERVER_PROCESSING``), never as default arguments, so
varying one entry in one place changes every world built afterwards.
This module imports nothing from ``repro``.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Dict, Mapping

# -- the replay side: Mahimahi's Apache + CGI + dnsmasq (F3) ------------ #

#: Base seconds of server compute per request: fork/exec of the CGI
#: script.
SERVER_PROCESSING = 0.005

#: The CGI script compares each request against every recorded pair, so
#: its cost grows with the recorded site (seconds per pair).
SERVER_PER_PAIR = 0.00003

#: Concurrent CGI slots per replay server (one Apache's effective CGI
#: throughput is a few hundred requests per second). One server bound by
#: this queues under a browser's parallel request burst where twenty
#: servers would not.
SERVER_WORKERS = 2

#: Seconds per DNS lookup inside a replay namespace (dnsmasq is fast).
DNS_PROCESSING = 0.0002

# -- the shells' own forwarding cost (F2) ------------------------------- #

#: Per-packet processing seconds of mm-delay's forwarding loop.
DELAY_SERVICE_TIME = 4.0e-6

#: Per-packet processing seconds of mm-link's heavier trace-driven loop
#: (byte accounting and trace bookkeeping per packet).
LINK_SERVICE_TIME = 14.0e-6

# -- host timing noise (T1) --------------------------------------------- #

#: Relative standard deviation of per-operation timing noise.
JITTER_STDDEV = 0.015

#: Relative standard deviation of the per-run host condition.
TRIAL_JITTER_STDDEV = 0.035

# -- the simulated public Internet (F3's Web) --------------------------- #

#: Seconds of compute per request at a live origin server.
ORIGIN_PROCESSING = 0.002

#: Seconds per lookup at the public resolver.
PUBLIC_DNS_PROCESSING = 0.002

#: Core-to-origin RTT of a site's main (``www.``) origin, seconds.
MAIN_ORIGIN_RTT = 0.040

#: Uniform range of an anycast CDN edge's RTT, seconds: closer than the
#: main origin whose RTT uniform replay emulates.
CDN_RTT = (0.003, 0.016)

#: Uniform range of a third-party origin's RTT, seconds.
THIRD_PARTY_RTT = (0.015, 0.090)

#: Mean of the exponential per-packet jitter on an origin's path, seconds.
ORIGIN_JITTER_MEAN = 0.0015

#: Round trip of a host machine's last-mile link to the core, seconds.
LAST_MILE_RTT = 0.002

#: Mean per-packet jitter on the last-mile link, seconds.
LAST_MILE_JITTER_MEAN = 0.0002

# -- the browser's compute (F2's PLT scale) ----------------------------- #

#: Fixed per-resource parse cost by kind, seconds: dispatch, style and
#: script bookkeeping.
PARSE_BASE: Mapping[str, float] = MappingProxyType(
    {
        "html": 0.030,
        "css": 0.008,
        "js": 0.014,
        "image": 0.002,
        "font": 0.003,
        "xhr": 0.004,
        "other": 0.002,
    }
)

#: Size-dependent parse cost by kind, seconds per KiB: parsing, JIT,
#: decode.
PARSE_PER_KB: Mapping[str, float] = MappingProxyType(
    {
        "html": 0.00050,
        "css": 0.00030,
        "js": 0.00085,
        "image": 0.00006,
        "font": 0.00010,
        "xhr": 0.00020,
        "other": 0.00005,
    }
)

_F2 = "figure2_overhead"
_T1 = "table1_reproducibility"
_F3 = "figure3_actual_web"

#: Each constant above -> the ``repro.scenarios.CLAIMS`` key it was
#: fitted on.
CALIBRATION: Dict[str, str] = {
    "SERVER_PROCESSING": _F3,
    "SERVER_PER_PAIR": _F3,
    "SERVER_WORKERS": _F3,
    "DNS_PROCESSING": _F3,
    "DELAY_SERVICE_TIME": _F2,
    "LINK_SERVICE_TIME": _F2,
    "JITTER_STDDEV": _T1,
    "TRIAL_JITTER_STDDEV": _T1,
    "ORIGIN_PROCESSING": _F3,
    "PUBLIC_DNS_PROCESSING": _F3,
    "MAIN_ORIGIN_RTT": _F3,
    "CDN_RTT": _F3,
    "THIRD_PARTY_RTT": _F3,
    "ORIGIN_JITTER_MEAN": _F3,
    "LAST_MILE_RTT": _F3,
    "LAST_MILE_JITTER_MEAN": _F3,
    "PARSE_BASE": _F2,
    "PARSE_PER_KB": _F2,
}
