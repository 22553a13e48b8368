"""Capacity curves: offered load vs tail latency, with knee detection.

A capacity curve answers the only question a load test exists to answer:
*how much offered load can this configuration absorb before tail latency
departs?* :func:`run_capacity_curve` runs one fresh world per load
level — same population, same seed, arrival rate swept upward — and
:func:`detect_knee` finds the level where the curve bends.

Knee detection is the maximum-perpendicular-distance rule (the
"kneedle" construction reduced to its deterministic core): normalise the
(offered load, p99) points to the unit square, draw the chord from the
first point to the last, and pick the point farthest from it. No
smoothing, no randomness, no tolerance parameters to tune — the same
curve always yields the same knee.

Levels are independent worlds, so they fan out over
:func:`~repro.measure.parallel.parallel_map`; per-level event digests
and artifacts are bit-identical whether levels ran serially or sharded
across workers (the cross-worker determinism tests assert exactly this).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.errors import ReproError
from repro.load.arrivals import make_process
from repro.load.population import Population
from repro.load.runner import DEFAULT_TIMEOUT, LoadResult, LoadScenario, run_load
from repro.measure.parallel import parallel_map

__all__ = ["CapacityCurve", "detect_knee", "run_capacity_curve"]


def detect_knee(points: Sequence[Tuple[float, float]]) -> Optional[int]:
    """Index of the knee of an (x, y) curve, or None if there isn't one.

    Max-perpendicular-distance from the first→last chord, on points
    normalised to the unit square. Returns None when fewer than three
    points exist, when x or y has no spread (a flat curve has no knee),
    or when the best candidate is an endpoint.
    """
    if len(points) < 3:
        return None
    xs = [float(x) for x, __ in points]
    ys = [float(y) for __, y in points]
    x_span = max(xs) - min(xs)
    y_span = max(ys) - min(ys)
    if x_span <= 0.0 or y_span <= 0.0:
        return None
    nx = [(x - min(xs)) / x_span for x in xs]
    ny = [(y - min(ys)) / y_span for y in ys]
    # Distance from (px, py) to the chord through the normalised first
    # and last points: |cross((last-first), (p-first))| / |last-first|.
    ax, ay = nx[0], ny[0]
    bx, by = nx[-1], ny[-1]
    chord = ((bx - ax) ** 2 + (by - ay) ** 2) ** 0.5
    if chord <= 0.0:
        return None
    best_index, best_distance = None, 0.0
    for i in range(1, len(points) - 1):
        distance = abs(
            (bx - ax) * (ny[i] - ay) - (by - ay) * (nx[i] - ax)
        ) / chord
        if distance > best_distance:
            best_index, best_distance = i, distance
    if best_index is None or best_distance <= 1e-9:
        return None
    return best_index


class CapacityCurve:
    """One swept capacity curve: per-level results plus the knee.

    Attributes:
        results: one :class:`~repro.load.runner.LoadResult` per level,
            in sweep order.
        knee_index: index into ``results`` of the detected knee (None
            when the curve never bends).
    """

    def __init__(self, results: List[LoadResult]) -> None:
        if not results:
            raise ReproError("capacity curve needs at least one level")
        self.results = results
        self.knee_index = detect_knee(self.points())

    def points(self) -> List[Tuple[float, float]]:
        """(offered load, p99 completion time) per level, in sweep order.

        Levels where nothing succeeded contribute the scenario timeout
        as their p99 — the honest reading of "no client ever finished".
        """
        out = []
        for result in self.results:
            if len(result.plt):
                p99 = result.plt.p99
            else:
                p99 = float(result.scenario["timeout"])
            out.append((result.offered_rate, p99))
        return out

    @property
    def knee(self) -> Optional[LoadResult]:
        """The level at the knee (None when no knee was detected)."""
        if self.knee_index is None:
            return None
        return self.results[self.knee_index]

    def to_dict(self) -> dict:
        """JSON-shaped curve (the capacity-curve artifact's meta)."""
        knee = None
        if self.knee_index is not None:
            at = self.results[self.knee_index]
            knee = {
                "index": self.knee_index,
                "offered_rate": at.offered_rate,
                "clients": at.clients,
                "p99": at.plt.p99 if len(at.plt) else None,
            }
        return {
            "levels": [result.to_dict() for result in self.results],
            "knee": knee,
        }

    def __repr__(self) -> str:
        knee = (
            f"knee@{self.results[self.knee_index].offered_rate:g}/s"
            if self.knee_index is not None else "no knee"
        )
        return f"<CapacityCurve levels={len(self.results)} {knee}>"


def run_capacity_curve(
    population: Population,
    levels: Sequence[int],
    window: float = 20.0,
    seed: int = 0,
    arrivals: str = "poisson",
    link_mbps: float = 1000.0,
    one_way_delay: float = 0.020,
    server_workers: Optional[int] = None,
    timeout: float = DEFAULT_TIMEOUT,
    workers: Optional[int] = None,
    instrument: bool = True,
    capture_digest: bool = False,
) -> CapacityCurve:
    """Sweep client counts over a fixed arrival window; one world each.

    Args:
        population: shared across levels (same corpus, same mix).
        levels: client counts, low to high; each level's offered rate is
            ``clients / window`` so the sweep raises *rate*, not run
            length.
        window: seconds the arrival process spreads each level over.
        seed: master seed for every level (levels are distinct worlds;
            what varies between them is the scenario, never the seed).
        arrivals: arrival-process kind (``fixed``/``poisson``/``diurnal``).
        link_mbps / one_way_delay / server_workers / timeout: forwarded
            to each level's :class:`~repro.load.runner.LoadScenario`.
        workers: fan levels out over this many fork workers (None/1 =
            serial). Per-level results are identical either way.
        instrument: attach a metrics registry per level (server-side
            latency + occupancy/backlog in each result).
        capture_digest: stash each level's event-stream digest.

    Raises:
        ReproError: on an empty or non-increasing level list.
    """
    counts = [int(c) for c in levels]
    if not counts:
        raise ReproError("need at least one load level")
    if any(b <= a for a, b in zip(counts, counts[1:])):
        raise ReproError(f"levels must be strictly increasing: {counts}")
    if window <= 0.0:
        raise ReproError(f"window must be > 0, got {window!r}")

    def level(index: int) -> LoadResult:
        clients = counts[index]
        scenario = LoadScenario(
            population,
            make_process(arrivals, clients / window),
            clients,
            link_mbps=link_mbps,
            one_way_delay=one_way_delay,
            server_workers=server_workers,
            timeout=timeout,
        )
        return run_load(
            scenario, seed=seed,
            instrument=instrument, capture_digest=capture_digest,
        )

    results = parallel_map(level, len(counts), workers or 1)
    return CapacityCurve(results)
