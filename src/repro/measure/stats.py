"""Sample statistics for measurement results."""

from __future__ import annotations

import math
from typing import Iterable, List, Optional, Sequence, Tuple


def interpolated_quantile(ordered: Sequence[float], q: float) -> float:
    """Linear-interpolation quantile of a non-empty sorted sequence.

    ``q`` in [0, 1]; numpy's default ``linear`` method, so the 0.5
    quantile of ``[1, 2, 3, 4]`` is 2.5. The one implementation under
    :meth:`Sample.percentile`, :meth:`StreamingQuantiles.quantile` and
    the corpus statistics.
    """
    if len(ordered) == 1:
        return ordered[0]
    rank = q * (len(ordered) - 1)
    low = int(math.floor(rank))
    high = int(math.ceil(rank))
    if low == high:
        return ordered[low]
    frac = rank - low
    return ordered[low] * (1 - frac) + ordered[high] * frac


class Sample:
    """An immutable batch of measurements with the usual statistics.

    Values are stored sorted; all statistics are deterministic functions
    of the sample, so a bench that prints them is reproducible bit-for-bit
    given the same simulation seed.
    """

    def __init__(self, values: Iterable[float]) -> None:
        self._values = sorted(float(v) for v in values)
        if not self._values:
            raise ValueError("empty sample")

    @property
    def values(self) -> List[float]:
        """The sorted measurements (copy)."""
        return list(self._values)

    def __len__(self) -> int:
        return len(self._values)

    @property
    def mean(self) -> float:
        """Arithmetic mean."""
        return sum(self._values) / len(self._values)

    @property
    def stddev(self) -> float:
        """Sample standard deviation (n-1); 0 for singletons."""
        n = len(self._values)
        if n < 2:
            return 0.0
        mean = self.mean
        return math.sqrt(
            sum((v - mean) ** 2 for v in self._values) / (n - 1)
        )

    @property
    def minimum(self) -> float:
        """Smallest value."""
        return self._values[0]

    @property
    def maximum(self) -> float:
        """Largest value."""
        return self._values[-1]

    @property
    def median(self) -> float:
        """50th percentile."""
        return self.percentile(50.0)

    def percentile(self, p: float) -> float:
        """Linear-interpolation percentile, ``p`` in [0, 100]."""
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"percentile out of range: {p!r}")
        return interpolated_quantile(self._values, p / 100.0)

    def cdf(self) -> List[Tuple[float, float]]:
        """The empirical CDF as (value, cumulative proportion) points."""
        n = len(self._values)
        return [(v, (i + 1) / n) for i, v in enumerate(self._values)]

    def relative_stddev(self) -> float:
        """Standard deviation as a fraction of the mean (Table 1's
        'within 1.6% of their means')."""
        mean = self.mean
        if mean == 0.0:
            return 0.0
        return self.stddev / mean

    def __repr__(self) -> str:
        return (
            f"<Sample n={len(self)} mean={self.mean:.4f} "
            f"sd={self.stddev:.4f} p50={self.median:.4f}>"
        )


def percent_difference(a: float, b: float) -> float:
    """(a - b) / b in percent — how much larger ``a`` is than ``b``."""
    if b == 0.0:
        raise ValueError("reference value is zero")
    return (a - b) / b * 100.0


class StreamingQuantiles:
    """Accumulate observations one at a time; report exact quantiles.

    The heavy-traffic runner feeds thousands of per-client latencies in
    whatever order clients *complete*; quantiles must nevertheless be a
    pure function of the observation multiset, so values are kept and
    sorted lazily at query time (exact-sort, not an approximate sketch —
    load levels here are 10^2..10^4 observations, where exactness is
    cheap and bit-reproducibility is the contract).

    Shards produced by parallel workers combine with :meth:`merge`;
    because quantiles are order-insensitive, ``merge`` of per-worker
    shards equals the serial accumulator over the concatenated stream.
    """

    __slots__ = ("_values", "_dirty", "_total")

    def __init__(self, values: Iterable[float] = ()) -> None:
        self._values: List[float] = [float(v) for v in values]
        self._dirty = True
        self._total = math.fsum(self._values)

    def add(self, value: float) -> None:
        """Fold one observation in."""
        value = float(value)
        self._values.append(value)
        self._total += value
        self._dirty = True

    def extend(self, values: Iterable[float]) -> None:
        """Fold many observations in."""
        for value in values:
            self.add(value)

    def merge(self, other: "StreamingQuantiles") -> "StreamingQuantiles":
        """Fold another accumulator's observations into this one.

        Returns self, so per-worker shards reduce with a plain loop::

            combined = StreamingQuantiles()
            for shard in shards:
                combined.merge(shard)
        """
        self._values.extend(other._values)
        self._total += other._total
        self._dirty = True
        return self

    @classmethod
    def merged(
        cls, shards: Iterable["StreamingQuantiles"]
    ) -> "StreamingQuantiles":
        """A fresh accumulator holding every shard's observations."""
        combined = cls()
        for shard in shards:
            combined.merge(shard)
        return combined

    def _sorted(self) -> List[float]:
        if self._dirty:
            self._values.sort()
            self._dirty = False
        return self._values

    def __len__(self) -> int:
        return len(self._values)

    @property
    def count(self) -> int:
        """Number of observations folded in."""
        return len(self._values)

    @property
    def mean(self) -> float:
        """Arithmetic mean (0.0 when empty)."""
        if not self._values:
            return 0.0
        return self._total / len(self._values)

    @property
    def minimum(self) -> float:
        """Smallest observation.

        Raises:
            ValueError: when empty.
        """
        if not self._values:
            raise ValueError("no observations")
        return self._sorted()[0]

    @property
    def maximum(self) -> float:
        """Largest observation.

        Raises:
            ValueError: when empty.
        """
        if not self._values:
            raise ValueError("no observations")
        return self._sorted()[-1]

    def quantile(self, q: float) -> float:
        """Exact linear-interpolation quantile, ``q`` in [0, 1].

        Same convention as :meth:`Sample.percentile` (numpy's default
        ``linear`` method), so ``quantile(0.5)`` of ``[1, 2, 3, 4]`` is
        2.5.

        Raises:
            ValueError: on an empty accumulator or ``q`` out of range.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile out of range: {q!r}")
        values = self._sorted()
        if not values:
            raise ValueError("no observations")
        return interpolated_quantile(values, q)

    @property
    def p50(self) -> float:
        """Median."""
        return self.quantile(0.50)

    @property
    def p90(self) -> float:
        """90th percentile."""
        return self.quantile(0.90)

    @property
    def p99(self) -> float:
        """99th percentile."""
        return self.quantile(0.99)

    @property
    def p999(self) -> float:
        """99.9th percentile."""
        return self.quantile(0.999)

    def summary(self) -> dict:
        """JSON-shaped digest (stable keys; None quantiles when empty)."""
        if not self._values:
            return {
                "count": 0, "mean": None, "min": None, "max": None,
                "p50": None, "p90": None, "p99": None, "p999": None,
            }
        return {
            "count": self.count,
            "mean": self.mean,
            "min": self.minimum,
            "max": self.maximum,
            "p50": self.p50,
            "p90": self.p90,
            "p99": self.p99,
            "p999": self.p999,
        }

    def to_sample(self) -> Sample:
        """The observations as an immutable :class:`Sample`.

        Raises:
            ValueError: when empty (Sample refuses empty batches).
        """
        return Sample(self._values)

    def __repr__(self) -> str:
        if not self._values:
            return "<StreamingQuantiles n=0>"
        return (
            f"<StreamingQuantiles n={self.count} p50={self.p50:.4f} "
            f"p99={self.p99:.4f} p999={self.p999:.4f}>"
        )


def quantiles_of(
    values: Sequence[float], qs: Iterable[float] = (0.5, 0.99, 0.999)
) -> List[Optional[float]]:
    """Exact quantiles of a value sequence (None entries when empty)."""
    if not values:
        return [None for __ in qs]
    acc = StreamingQuantiles(values)
    return [acc.quantile(q) for q in qs]
