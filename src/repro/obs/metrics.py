"""Metrics registry: counters, gauges and histograms.

One counter system for the whole library.  The incremental core's
:class:`repro.core.perf.PerfCounters` is a facade over this registry,
so hot-path statistics (``perf.*``), admission counters and simulation
latency histograms all export through the same
:meth:`MetricsRegistry.snapshot` / :meth:`MetricsRegistry.to_prometheus`
surface.

Design constraints:

* **Hot-path compatible.**  :class:`Counter` implements the numeric
  protocol (``+=``, comparisons, ``int()``/``float()``/``round()``), so
  existing call sites like ``self.perf.edge_updates += 1`` and test
  assertions like ``perf.log_scans == 0`` keep working unchanged.
* **No dependencies.**  Percentiles are computed locally; the module
  imports nothing from the rest of the library.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Union

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "WindowedCounter",
    "WindowedHistogram",
    "MetricsRegistry",
    "fleet_snapshot",
    "percentile",
]

Number = Union[int, float]


def percentile(values: Sequence[float], fraction: float) -> float:
    """Linear-interpolated percentile; 0 for empty input."""
    if not values:
        return 0.0
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = fraction * (len(ordered) - 1)
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return ordered[low]
    weight = rank - low
    return ordered[low] * (1 - weight) + ordered[high] * weight


def _value_of(other: object) -> Number:
    if isinstance(other, Counter):
        return other.value
    if isinstance(other, Gauge):
        return other.value
    return other  # type: ignore[return-value]


class Counter:
    """A monotonically increasing counter that quacks like a number."""

    __slots__ = ("name", "value")

    def __init__(self, name: str, value: Number = 0) -> None:
        self.name = name
        self.value = value

    def inc(self, amount: Number = 1) -> None:
        self.value += amount

    # -- numeric protocol: keep `perf.foo += 1` call sites unchanged --
    def __iadd__(self, amount: Number) -> "Counter":
        self.value += amount
        return self

    def __int__(self) -> int:
        return int(self.value)

    def __float__(self) -> float:
        return float(self.value)

    def __index__(self) -> int:
        return int(self.value)

    def __round__(self, ndigits: Optional[int] = None) -> Number:
        return round(self.value, ndigits) if ndigits is not None else round(self.value)

    def __bool__(self) -> bool:
        return bool(self.value)

    def __eq__(self, other: object) -> bool:
        return self.value == _value_of(other)

    def __ne__(self, other: object) -> bool:
        return self.value != _value_of(other)

    def __lt__(self, other: object) -> bool:
        return self.value < _value_of(other)

    def __le__(self, other: object) -> bool:
        return self.value <= _value_of(other)

    def __gt__(self, other: object) -> bool:
        return self.value > _value_of(other)

    def __ge__(self, other: object) -> bool:
        return self.value >= _value_of(other)

    def __add__(self, other: object) -> Number:
        return self.value + _value_of(other)

    __radd__ = __add__

    def __sub__(self, other: object) -> Number:
        return self.value - _value_of(other)

    def __rsub__(self, other: object) -> Number:
        return _value_of(other) - self.value

    def __mul__(self, other: object) -> Number:
        return self.value * _value_of(other)

    __rmul__ = __mul__

    def __truediv__(self, other: object) -> float:
        return self.value / _value_of(other)

    def __rtruediv__(self, other: object) -> float:
        return _value_of(other) / self.value

    def __hash__(self) -> int:
        return hash((self.name, id(self)))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({self.name}={self.value})"


class Gauge:
    """A point-in-time value (queue depth, open breakers, ...)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str, value: Number = 0) -> None:
        self.name = name
        self.value = value

    def set(self, value: Number) -> None:
        self.value = value

    def inc(self, amount: Number = 1) -> None:
        self.value += amount

    def dec(self, amount: Number = 1) -> None:
        self.value -= amount

    def __int__(self) -> int:
        return int(self.value)

    def __float__(self) -> float:
        return float(self.value)

    def __eq__(self, other: object) -> bool:
        return self.value == _value_of(other)

    def __hash__(self) -> int:
        return hash((self.name, id(self)))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Gauge({self.name}={self.value})"


class Histogram:
    """A sample distribution summarised as p50/p95/p99.

    Keeps the raw observations (simulation runs are bounded); a cap
    protects pathological callers by dropping the *oldest half* once
    ``max_samples`` is exceeded, which biases long-running streams
    toward recent behaviour.
    """

    __slots__ = ("name", "count", "total", "_samples", "max_samples")

    def __init__(self, name: str, max_samples: int = 100_000) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self._samples: List[float] = []
        self.max_samples = max_samples

    def observe(self, value: Number) -> None:
        self.count += 1
        self.total += value
        samples = self._samples
        samples.append(float(value))
        if len(samples) > self.max_samples:
            del samples[: len(samples) // 2]

    def summary(self) -> Dict[str, float]:
        ordered = sorted(self._samples)
        return {
            "count": self.count,
            "sum": round(self.total, 6),
            "mean": round(self.total / self.count, 6) if self.count else 0.0,
            "p50": round(percentile(ordered, 0.50), 6),
            "p95": round(percentile(ordered, 0.95), 6),
            "p99": round(percentile(ordered, 0.99), 6),
            "max": ordered[-1] if ordered else 0.0,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Histogram({self.name} n={self.count})"


class _Reservoir:
    """Deterministic bounded sample of one window's observations.

    Every ``stride``-th observation is retained; when the buffer fills,
    every other retained sample is dropped and the stride doubles.  The
    kept samples stay spread across the window without any randomness
    (the library bans unseeded RNG — determinism is what makes chaos
    runs replayable), at the cost of a mild bias toward early samples
    within a stride period.
    """

    __slots__ = ("cap", "stride", "seen", "count", "total", "samples")

    def __init__(self, cap: int) -> None:
        self.cap = max(2, cap)
        self.stride = 1
        self.seen = 0
        self.count = 0
        self.total = 0.0
        self.samples: List[float] = []

    def observe(self, value: float) -> None:
        if self.seen % self.stride == 0:
            self.samples.append(value)
            if len(self.samples) > self.cap:
                del self.samples[1::2]
                self.stride *= 2
        self.seen += 1
        self.count += 1
        self.total += value


class WindowedCounter:
    """Counts bucketed into a ring of fixed-width virtual-time windows.

    Holds the most recent ``windows`` buckets of ``width`` virtual
    seconds each; older buckets are evicted, so memory is O(windows)
    no matter how long the run streams.  ``lifetime`` keeps the
    since-start total (cheap — one float).
    """

    __slots__ = ("name", "width", "windows", "lifetime", "_buckets")

    def __init__(
        self, name: str, width: float = 5.0, windows: int = 12
    ) -> None:
        if width <= 0:
            raise ValueError("window width must be positive")
        if windows < 1:
            raise ValueError("need at least one window")
        self.name = name
        self.width = width
        self.windows = windows
        self.lifetime = 0.0
        #: window index -> count, insertion-ordered oldest first.
        self._buckets: Dict[int, float] = {}

    def _bucket(self, now: float) -> int:
        return int(now // self.width)

    def _evict(self, index: int) -> None:
        floor = index - self.windows + 1
        for stale in [key for key in self._buckets if key < floor]:
            del self._buckets[stale]

    def inc(self, now: float, amount: Number = 1) -> None:
        index = self._bucket(now)
        self._buckets[index] = self._buckets.get(index, 0.0) + amount
        self.lifetime += amount
        self._evict(index)

    def total(self, now: Optional[float] = None) -> float:
        """Sum over retained windows (evicting first if ``now`` given)."""
        if now is not None:
            self._evict(self._bucket(now))
        return sum(self._buckets.values())

    def rate(self, now: float) -> float:
        """Events per virtual second over the retained horizon."""
        self._evict(self._bucket(now))
        if not self._buckets:
            return 0.0
        return self.total() / (self.windows * self.width)

    @classmethod
    def merged(cls, parts: List["WindowedCounter"]) -> "WindowedCounter":
        """Fleet view: sum per-window buckets across shard counters."""
        if not parts:
            raise ValueError("nothing to merge")
        first = parts[0]
        for other in parts[1:]:
            if (other.width, other.windows) != (first.width, first.windows):
                raise ValueError("mismatched window geometry")
        merged = cls(first.name, width=first.width, windows=first.windows)
        latest = max(
            (max(part._buckets) for part in parts if part._buckets),
            default=None,
        )
        for part in parts:
            merged.lifetime += part.lifetime
            for index, count in part._buckets.items():
                merged._buckets[index] = (
                    merged._buckets.get(index, 0.0) + count
                )
        if latest is not None:
            merged._evict(latest)
        return merged


class WindowedHistogram:
    """Sliding-window distribution: a ring of bounded reservoirs.

    Each ``width``-wide virtual-time window holds at most
    ``cap_per_window`` deterministically decimated samples; only the
    most recent ``windows`` windows are retained.  ``summary`` merges
    the retained reservoirs, so percentiles reflect recent behaviour
    and memory stays O(windows x cap) over an unbounded stream.
    """

    __slots__ = (
        "name",
        "width",
        "windows",
        "cap_per_window",
        "lifetime_count",
        "lifetime_total",
        "_ring",
    )

    def __init__(
        self,
        name: str,
        width: float = 5.0,
        windows: int = 12,
        cap_per_window: int = 256,
    ) -> None:
        if width <= 0:
            raise ValueError("window width must be positive")
        if windows < 1:
            raise ValueError("need at least one window")
        self.name = name
        self.width = width
        self.windows = windows
        self.cap_per_window = cap_per_window
        self.lifetime_count = 0
        self.lifetime_total = 0.0
        self._ring: Dict[int, _Reservoir] = {}

    def _bucket(self, now: float) -> int:
        return int(now // self.width)

    def _evict(self, index: int) -> None:
        floor = index - self.windows + 1
        for stale in [key for key in self._ring if key < floor]:
            del self._ring[stale]

    def observe(self, now: float, value: Number) -> None:
        index = self._bucket(now)
        reservoir = self._ring.get(index)
        if reservoir is None:
            reservoir = self._ring[index] = _Reservoir(self.cap_per_window)
        reservoir.observe(float(value))
        self.lifetime_count += 1
        self.lifetime_total += value
        self._evict(index)

    def summary(self, now: Optional[float] = None) -> Dict[str, float]:
        """p50/p95/p99 over the retained windows' merged samples."""
        if now is not None:
            self._evict(self._bucket(now))
        count = 0
        total = 0.0
        merged: List[float] = []
        for reservoir in self._ring.values():
            count += reservoir.count
            total += reservoir.total
            merged.extend(reservoir.samples)
        merged.sort()
        return {
            "count": count,
            "sum": round(total, 6),
            "mean": round(total / count, 6) if count else 0.0,
            "p50": round(percentile(merged, 0.50), 6),
            "p95": round(percentile(merged, 0.95), 6),
            "p99": round(percentile(merged, 0.99), 6),
            "max": merged[-1] if merged else 0.0,
        }

    @classmethod
    def merged(
        cls, parts: List["WindowedHistogram"]
    ) -> "WindowedHistogram":
        """Fleet view: pool per-window reservoirs across shards.

        Pooled windows re-decimate through the same deterministic
        reservoir, so the merged histogram obeys the same memory bound
        as any single shard's.
        """
        if not parts:
            raise ValueError("nothing to merge")
        first = parts[0]
        for other in parts[1:]:
            if (other.width, other.windows) != (first.width, first.windows):
                raise ValueError("mismatched window geometry")
        merged = cls(
            first.name,
            width=first.width,
            windows=first.windows,
            cap_per_window=first.cap_per_window,
        )
        latest = max(
            (max(part._ring) for part in parts if part._ring),
            default=None,
        )
        for part in parts:
            merged.lifetime_count += part.lifetime_count
            merged.lifetime_total += part.lifetime_total
            for index, reservoir in part._ring.items():
                target = merged._ring.get(index)
                if target is None:
                    target = merged._ring[index] = _Reservoir(
                        merged.cap_per_window
                    )
                for sample in reservoir.samples:
                    target.observe(sample)
                # Reservoir samples under-count the true observation
                # tally; restore the window's real count/sum.
                target.count += reservoir.count - len(reservoir.samples)
                target.total += reservoir.total - sum(reservoir.samples)
        if latest is not None:
            merged._evict(latest)
        return merged


def fleet_snapshot(registries: List["MetricsRegistry"]) -> Dict[str, object]:
    """Merge per-shard registries' windowed metrics into one flat view.

    Plain counters/gauges sum and last-write-wins respectively are NOT
    attempted here — the fleet view is about the windowed (recent)
    metrics; use each registry's own :meth:`MetricsRegistry.snapshot`
    for lifetime totals.
    """
    names_c: Dict[str, List[WindowedCounter]] = {}
    names_h: Dict[str, List[WindowedHistogram]] = {}
    for registry in registries:
        for name, counter in registry.windowed_counters.items():
            names_c.setdefault(name, []).append(counter)
        for name, histogram in registry.windowed_histograms.items():
            names_h.setdefault(name, []).append(histogram)
    view: Dict[str, object] = {}
    for name, counters in sorted(names_c.items()):
        merged = WindowedCounter.merged(counters)
        view[f"{name}.windowed"] = merged.total()
        view[f"{name}.lifetime"] = merged.lifetime
    for name, histograms in sorted(names_h.items()):
        merged = WindowedHistogram.merged(histograms)
        for stat, value in merged.summary().items():
            view[f"{name}.{stat}"] = value
    return view


def _prom_name(prefix: str, name: str) -> str:
    cleaned = []
    for char in name:
        cleaned.append(char if (char.isalnum() or char == "_") else "_")
    return f"{prefix}_{''.join(cleaned)}" if prefix else "".join(cleaned)


class MetricsRegistry:
    """Named counters, gauges and histograms with get-or-create access."""

    def __init__(self) -> None:
        self.counters: Dict[str, Counter] = {}
        self.gauges: Dict[str, Gauge] = {}
        self.histograms: Dict[str, Histogram] = {}
        self.windowed_counters: Dict[str, WindowedCounter] = {}
        self.windowed_histograms: Dict[str, WindowedHistogram] = {}

    # -- get-or-create accessors --------------------------------------
    def counter(self, name: str) -> Counter:
        counter = self.counters.get(name)
        if counter is None:
            counter = self.counters[name] = Counter(name)
        return counter

    def gauge(self, name: str) -> Gauge:
        gauge = self.gauges.get(name)
        if gauge is None:
            gauge = self.gauges[name] = Gauge(name)
        return gauge

    def histogram(self, name: str) -> Histogram:
        histogram = self.histograms.get(name)
        if histogram is None:
            histogram = self.histograms[name] = Histogram(name)
        return histogram

    def windowed_counter(
        self, name: str, width: float = 5.0, windows: int = 12
    ) -> WindowedCounter:
        counter = self.windowed_counters.get(name)
        if counter is None:
            counter = self.windowed_counters[name] = WindowedCounter(
                name, width=width, windows=windows
            )
        return counter

    def windowed_histogram(
        self,
        name: str,
        width: float = 5.0,
        windows: int = 12,
        cap_per_window: int = 256,
    ) -> WindowedHistogram:
        histogram = self.windowed_histograms.get(name)
        if histogram is None:
            histogram = self.windowed_histograms[name] = WindowedHistogram(
                name,
                width=width,
                windows=windows,
                cap_per_window=cap_per_window,
            )
        return histogram

    # -- export -------------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        """Flat name -> value mapping (histograms expand to summaries)."""
        values: Dict[str, object] = {}
        for name, counter in sorted(self.counters.items()):
            values[name] = counter.value
        for name, gauge in sorted(self.gauges.items()):
            values[name] = gauge.value
        for name, histogram in sorted(self.histograms.items()):
            for stat, stat_value in histogram.summary().items():
                values[f"{name}.{stat}"] = stat_value
        for name, counter in sorted(self.windowed_counters.items()):
            values[f"{name}.windowed"] = counter.total()
            values[f"{name}.lifetime"] = counter.lifetime
        for name, whistogram in sorted(self.windowed_histograms.items()):
            for stat, stat_value in whistogram.summary().items():
                values[f"{name}.{stat}"] = stat_value
        return values

    def to_prometheus(self, prefix: str = "repro") -> str:
        """Prometheus text exposition format (version 0.0.4)."""
        lines: List[str] = []
        for name, counter in sorted(self.counters.items()):
            metric = _prom_name(prefix, name)
            lines.append(f"# TYPE {metric} counter")
            lines.append(f"{metric} {counter.value}")
        for name, gauge in sorted(self.gauges.items()):
            metric = _prom_name(prefix, name)
            lines.append(f"# TYPE {metric} gauge")
            lines.append(f"{metric} {gauge.value}")
        for name, histogram in sorted(self.histograms.items()):
            metric = _prom_name(prefix, name)
            summary = histogram.summary()
            lines.append(f"# TYPE {metric} summary")
            for quantile in ("p50", "p95", "p99"):
                lines.append(
                    f'{metric}{{quantile="0.{quantile[1:]}"}} {summary[quantile]}'
                )
            lines.append(f"{metric}_sum {summary['sum']}")
            lines.append(f"{metric}_count {summary['count']}")
        return "\n".join(lines) + ("\n" if lines else "")
