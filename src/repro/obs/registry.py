"""The metrics registry: observer-owned state, keyed by component path.

One :class:`MetricsRegistry` belongs to one
:class:`~repro.sim.simulator.Simulator` (attach it with
``sim.use_metrics(registry)`` or the :meth:`MetricsRegistry.install`
shorthand). Instrumented components look the registry up at construction
time and hold direct handles to their instruments, so the per-event cost
of an *enabled* probe is an attribute check plus a list append, and a
disabled probe costs a single ``is None`` check at construction.

Everything in here is observer-domain: instruments are plain data
(picklable, JSON-serialisable) and never touch the simulation — no
scheduling, no queue mutation, no simulator writes. ``mm-lint`` rule
REP007 enforces that statically for this whole package.

Instrument kinds:

* :class:`Counter` — monotonically increasing integer (drops, bytes).
* :class:`Gauge` — last-written value with its virtual timestamp.
* :class:`Histogram` — a bag of observations with summary statistics.
* :class:`TimeSeries` — ``(virtual time, value)`` points appended at
  existing event boundaries (queue depth, cwnd, pool occupancy). A
  step-valued series recorded at every change point is *exact* — richer
  than any periodic sampler, and free of sampling events.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.obs.waterfall import Waterfall

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "TimeSeries",
]


class Counter:
    """A monotonically increasing integer instrument."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def add(self, amount: int = 1) -> None:
        """Increase by ``amount`` (must be >= 0)."""
        if amount < 0:
            raise ValueError(f"counter {self.name!r}: negative add {amount!r}")
        self.value += amount

    def __repr__(self) -> str:
        return f"<Counter {self.name}={self.value}>"


class Gauge:
    """Last-written value plus the virtual time it was written."""

    __slots__ = ("name", "value", "time")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: Optional[float] = None
        self.time: Optional[float] = None

    def set(self, value: float, time: float) -> None:
        """Record the instantaneous value at virtual ``time``."""
        self.value = value
        self.time = time

    def __repr__(self) -> str:
        return f"<Gauge {self.name}={self.value} @{self.time}>"


class Histogram:
    """A bag of observations with the summary statistics reports need."""

    __slots__ = ("name", "values")

    def __init__(self, name: str) -> None:
        self.name = name
        self.values: List[float] = []

    def observe(self, value: float) -> None:
        """Add one observation."""
        self.values.append(float(value))

    @property
    def count(self) -> int:
        return len(self.values)

    def summary(self) -> Dict[str, float]:
        """count / mean / min / p50 / p95 / max of the observations."""
        if not self.values:
            return {"count": 0}
        from repro.measure.stats import Sample

        sample = Sample(self.values)
        return {
            "count": float(len(sample)),
            "mean": sample.mean,
            "min": sample.minimum,
            "p50": sample.percentile(50.0),
            "p95": sample.percentile(95.0),
            "max": sample.maximum,
        }

    def __repr__(self) -> str:
        return f"<Histogram {self.name} n={self.count}>"


class TimeSeries:
    """``(virtual time, value)`` points, appended at existing events."""

    __slots__ = ("name", "points")

    def __init__(self, name: str) -> None:
        self.name = name
        self.points: List[Tuple[float, float]] = []

    def record(self, time: float, value: float) -> None:
        """Append one point (times must arrive in non-decreasing order,
        which event-driven recording guarantees for free). Kept to a
        bare append: this runs on simulation hot paths."""
        self.points.append((time, value))

    def record_changed(self, time: float, value: float) -> None:
        """Append only if ``value`` differs from the last recorded one —
        the natural, lossless form for step functions (cwnd, RTO, queue
        depth held across delivery opportunities)."""
        points = self.points
        if not points or points[-1][1] != value:
            points.append((time, value))

    @property
    def last(self) -> Optional[float]:
        """Most recently recorded value."""
        return self.points[-1][1] if self.points else None

    def __len__(self) -> int:
        return len(self.points)

    def __repr__(self) -> str:
        return f"<TimeSeries {self.name} n={len(self.points)}>"


class MetricsRegistry:
    """All instruments of one simulated world, keyed by component path.

    Paths are dotted component names (``linkshell.uplink.queue_depth``,
    ``tcp.server.1.2.3.4:443-100.64.0.2:9000.cwnd``). Accessors create
    on first use and return the same instrument thereafter, so
    instrumentation sites need no registration ceremony.

    The registry is plain picklable data: per-trial registries cross the
    worker process boundary (``run_page_loads(workers=)``, sweeps)
    intact and re-assemble with :meth:`merge_trials`.
    """

    def __init__(self) -> None:
        self.counters: Dict[str, Counter] = {}
        self.gauges: Dict[str, Gauge] = {}
        self.histograms: Dict[str, Histogram] = {}
        self.series: Dict[str, TimeSeries] = {}
        self.waterfalls: Dict[str, Waterfall] = {}

    # ------------------------------------------------------------------ #
    # attachment

    @classmethod
    def install(cls, sim) -> "MetricsRegistry":
        """Create a registry and attach it to ``sim``.

        Shorthand for ``registry = MetricsRegistry();
        sim.use_metrics(registry)``. Attach *before* building the world:
        components capture their probe handles at construction.
        """
        registry = cls()
        sim.use_metrics(registry)
        return registry

    # ------------------------------------------------------------------ #
    # instrument accessors (create on first use)

    def counter(self, name: str) -> Counter:
        """The counter at ``name`` (created on first access)."""
        instrument = self.counters.get(name)
        if instrument is None:
            instrument = self.counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str) -> Gauge:
        """The gauge at ``name`` (created on first access)."""
        instrument = self.gauges.get(name)
        if instrument is None:
            instrument = self.gauges[name] = Gauge(name)
        return instrument

    def histogram(self, name: str) -> Histogram:
        """The histogram at ``name`` (created on first access)."""
        instrument = self.histograms.get(name)
        if instrument is None:
            instrument = self.histograms[name] = Histogram(name)
        return instrument

    def timeseries(self, name: str) -> TimeSeries:
        """The time series at ``name`` (created on first access)."""
        instrument = self.series.get(name)
        if instrument is None:
            instrument = self.series[name] = TimeSeries(name)
        return instrument

    def waterfall(self, name: str) -> Waterfall:
        """The waterfall at ``name`` (created on first access)."""
        instrument = self.waterfalls.get(name)
        if instrument is None:
            instrument = self.waterfalls[name] = Waterfall(name)
        return instrument

    # ------------------------------------------------------------------ #
    # inspection and export

    def __len__(self) -> int:
        return (
            len(self.counters) + len(self.gauges) + len(self.histograms)
            + len(self.series) + len(self.waterfalls)
        )

    def names(self) -> List[str]:
        """All instrument paths, sorted (deterministic export order)."""
        return sorted(
            list(self.counters) + list(self.gauges) + list(self.histograms)
            + list(self.series) + list(self.waterfalls)
        )

    def snapshot(self) -> Dict[str, object]:
        """A plain-data (JSON-serialisable) snapshot of every instrument."""
        return {
            "counters": {
                name: c.value for name, c in sorted(self.counters.items())
            },
            "gauges": {
                name: {"value": g.value, "time": g.time}
                for name, g in sorted(self.gauges.items())
            },
            "histograms": {
                name: h.summary() for name, h in sorted(self.histograms.items())
            },
            "series": {
                name: [[t, v] for t, v in s.points]
                for name, s in sorted(self.series.items())
            },
            "waterfalls": {
                name: w.to_records()
                for name, w in sorted(self.waterfalls.items())
            },
        }

    # ------------------------------------------------------------------ #
    # trial re-assembly

    @classmethod
    def merge_trials(
        cls, registries: Iterable[Optional["MetricsRegistry"]]
    ) -> "MetricsRegistry":
        """Re-assemble per-trial registries into one, in trial order.

        Each trial's instruments are namespaced under ``trial<i>.`` so
        independent worlds never collide; a missing registry (trial run
        without instrumentation) contributes nothing but keeps its index.
        """
        merged = cls()
        for index, registry in enumerate(registries):
            if registry is None:
                continue
            prefix = f"trial{index}."
            for name, c in registry.counters.items():
                merged.counter(prefix + name).add(c.value)
            for name, g in registry.gauges.items():
                if g.value is not None and g.time is not None:
                    merged.gauge(prefix + name).set(g.value, g.time)
            for name, h in registry.histograms.items():
                merged.histogram(prefix + name).values.extend(h.values)
            for name, s in registry.series.items():
                merged.timeseries(prefix + name).points.extend(s.points)
            for name, w in registry.waterfalls.items():
                merged.waterfall(prefix + name).entries.extend(w.entries)
        return merged

    def __repr__(self) -> str:
        return (
            f"<MetricsRegistry counters={len(self.counters)} "
            f"gauges={len(self.gauges)} histograms={len(self.histograms)} "
            f"series={len(self.series)} waterfalls={len(self.waterfalls)}>"
        )
