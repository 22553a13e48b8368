"""Synthetic packet-delivery trace generators.

The paper's corpus ships link traces recorded from real cellular networks;
without those recordings we generate equivalents:

* :func:`constant_rate_trace` — a fixed-rate link (e.g. the 1000 Mbit/s
  trace of Figure 2, or the 1/14/25 Mbit/s links of Table 2);
* :func:`cellular_trace` — a time-varying link whose rate follows a bounded
  random walk, shaped like the Verizon/AT&T LTE traces Mahimahi ships
  (bursty, with deep fades and second-scale coherence).
"""

from __future__ import annotations

import math
import random
from typing import List

from repro.errors import TraceError
from repro.linkem.trace import PacketDeliveryTrace
from repro.net.packet import MTU_BYTES


def constant_rate_trace(
    rate_mbps: float, duration_ms: int = 1000
) -> PacketDeliveryTrace:
    """Build a constant-rate trace.

    Args:
        rate_mbps: link rate in Mbit/s (finite, > 0).
        duration_ms: trace period; longer periods express slow rates more
            precisely (a 1 Mbit/s link delivers one MTU every ~12 ms).

    The k-th opportunity is placed at ``round(k * MTU / rate)`` so the trace
    delivers exactly the requested average rate per period.
    """
    if not 0.0 < rate_mbps < math.inf:
        raise TraceError(
            f"rate must be positive and finite, got {rate_mbps!r}")
    if duration_ms <= 0:
        raise TraceError(f"duration must be positive, got {duration_ms!r}")
    bytes_per_ms = rate_mbps * 1e6 / 8.0 / 1000.0
    total_opportunities = int(duration_ms * bytes_per_ms / MTU_BYTES)
    if total_opportunities < 1:
        raise TraceError(
            f"{rate_mbps} Mbit/s over {duration_ms} ms yields no delivery "
            "opportunities; increase duration_ms"
        )
    times: List[int] = []
    for k in range(1, total_opportunities + 1):
        t = round(k * MTU_BYTES / bytes_per_ms)
        times.append(min(int(t), duration_ms))
    if times[-1] != duration_ms:
        times[-1] = duration_ms
    return PacketDeliveryTrace(times)


def cellular_trace(
    rng: random.Random,
    duration_ms: int = 60_000,
    mean_mbps: float = 9.0,
    volatility: float = 0.25,
    floor_mbps: float = 0.3,
    ceiling_mbps: float = 40.0,
    coherence_ms: int = 100,
) -> PacketDeliveryTrace:
    """Build a time-varying, cellular-like trace.

    The instantaneous rate follows a mean-reverting multiplicative random
    walk updated every ``coherence_ms``: LTE-like behaviour with sustained
    highs, deep fades, and no negative rates.

    Args:
        rng: randomness source (pass a seeded ``random.Random``).
        duration_ms: total trace period.
        mean_mbps: long-run average rate the walk reverts toward.
        volatility: per-step lognormal sigma; higher = burstier.
        floor_mbps / ceiling_mbps: hard clamps on the instantaneous rate.
        coherence_ms: how long the rate holds between walk steps.
    """
    if duration_ms <= 0 or coherence_ms <= 0:
        raise TraceError("duration_ms and coherence_ms must be positive")
    if not (0 < floor_mbps <= mean_mbps <= ceiling_mbps):
        raise TraceError("need 0 < floor <= mean <= ceiling")
    times: List[int] = []
    rate = mean_mbps
    carry_bytes = 0.0
    for window_start in range(0, duration_ms, coherence_ms):
        window_end = min(window_start + coherence_ms, duration_ms)
        window_len = window_end - window_start
        # Mean reversion in log space plus lognormal noise.
        drift = 0.2 * (math.log(mean_mbps) - math.log(rate))
        rate = rate * math.exp(drift + rng.gauss(0.0, volatility))
        rate = max(floor_mbps, min(ceiling_mbps, rate))
        bytes_per_ms = rate * 1e6 / 8.0 / 1000.0
        budget = carry_bytes + bytes_per_ms * window_len
        opportunities = int(budget / MTU_BYTES)
        carry_bytes = budget - opportunities * MTU_BYTES
        for k in range(1, opportunities + 1):
            t = window_start + k * window_len / (opportunities + 1)
            times.append(int(t))
    if not times or times[-1] != duration_ms:
        times.append(duration_ms)
    return PacketDeliveryTrace(times)
