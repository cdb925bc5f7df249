"""The process-wide metrics registry.

Three metric kinds, modelled on the router-side counters the paper's
operator observes the network with (§2.1):

- :class:`Counter` — monotone accumulation (events executed, packets
  dropped, RPC outcomes);
- :class:`Gauge` — a last-written value (heap depth, simulation clock);
- :class:`Histogram` — fixed-bucket distributions (link utilization,
  per-point wall time) with recoverable percentiles.

Metrics are *labeled*: ``registry.counter("link.drops", link="bottleneck")``
names a distinct child per label set.  Everything is single-writer
within a process — the simulator and its instrumentation are
single-threaded, and sweep workers are separate processes — so no locks
are taken anywhere.  Cross-process aggregation happens by value instead:
:meth:`MetricsRegistry.snapshot` produces a plain JSON-able dict and
:func:`merge_snapshots` folds any number of worker snapshots together
(counters add, gauges take the max, histograms add bucket-wise), which
is how the sweep runner combines per-worker telemetry at its
deterministic by-index merge point.

When telemetry is disabled the active registry is a
:class:`NullRegistry`, and an instrumentation site pays one attribute
check (``tele.enabled``): every metric call sits under it.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Dict, Iterable, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "DEFAULT_BUCKETS",
    "LATENCY_BUCKETS_S",
    "UTILIZATION_BUCKETS",
    "flat_key",
    "mean",
    "merge_snapshots",
]

#: General-purpose exponential buckets (covers ~1e-4 .. ~1e4).
DEFAULT_BUCKETS: Tuple[float, ...] = tuple(
    round(base * 10.0 ** exponent, 10)
    for exponent in range(-4, 5)
    for base in (1.0, 2.5, 5.0)
)

#: Wall-time latency buckets in seconds (100 us .. 100 s).
LATENCY_BUCKETS_S: Tuple[float, ...] = tuple(
    round(base * 10.0 ** exponent, 7)
    for exponent in range(-4, 3)
    for base in (1.0, 2.0, 5.0)
)

#: Fractional buckets for utilization-like values in [0, 1].
UTILIZATION_BUCKETS: Tuple[float, ...] = tuple(
    round(0.05 * step, 2) for step in range(1, 21)
)


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean, or 0.0 for an empty sequence."""
    if not values:
        return 0.0
    return sum(values) / len(values)


def flat_key(name: str, labels: Tuple[Tuple[str, str], ...]) -> str:
    """The canonical string form of a labeled metric: ``name{k=v,...}``."""
    if not labels:
        return name
    inner = ",".join(f"{key}={value}" for key, value in labels)
    return f"{name}{{{inner}}}"


def _label_items(labels: Dict[str, Any]) -> Tuple[Tuple[str, str], ...]:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """A monotone accumulator."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up, got {amount}")
        self.value += amount


class Gauge:
    """A last-written value (plus a high-water mark)."""

    __slots__ = ("value", "peak", "updates")

    def __init__(self) -> None:
        self.value = 0.0
        self.peak = 0.0
        self.updates = 0

    def set(self, value: float) -> None:
        self.value = float(value)
        if self.value > self.peak:
            self.peak = self.value
        self.updates += 1


class Histogram:
    """A fixed-bucket distribution with recoverable percentiles.

    ``bounds`` are inclusive upper bucket edges; observations above the
    last bound land in an implicit overflow bucket.  Fixed (rather than
    adaptive) bounds are what make two independently-collected
    histograms mergeable bucket-wise, which the cross-process sweep
    merge depends on.
    """

    __slots__ = ("bounds", "bucket_counts", "count", "sum", "min", "max")

    def __init__(self, bounds: Optional[Sequence[float]] = None) -> None:
        chosen = tuple(bounds) if bounds is not None else DEFAULT_BUCKETS
        if not chosen:
            raise ValueError("histogram needs at least one bucket bound")
        if list(chosen) != sorted(chosen):
            raise ValueError(f"bucket bounds must be sorted: {chosen}")
        if len(set(chosen)) != len(chosen):
            raise ValueError(f"bucket bounds must be distinct: {chosen}")
        self.bounds = chosen
        self.bucket_counts = [0] * (len(chosen) + 1)  # +1 overflow
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        self.bucket_counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def percentile(self, p: float) -> float:
        """Estimate the ``p``-th percentile (0..100) from the buckets.

        Within a bucket the estimate interpolates linearly between the
        bucket's edges, clamped to the observed min/max so an estimate
        never lies outside the data; the overflow bucket reports the
        observed max.  An empty histogram reports 0.
        """
        if not 0 <= p <= 100:
            raise ValueError(f"percentile must be in [0, 100]: {p}")
        if self.count == 0:
            return 0.0
        rank = (p / 100.0) * self.count
        cumulative = 0
        for index, bucket_count in enumerate(self.bucket_counts):
            if bucket_count == 0:
                continue
            previous = cumulative
            cumulative += bucket_count
            if cumulative >= rank:
                if index >= len(self.bounds):
                    return self.max
                upper = self.bounds[index]
                lower = self.bounds[index - 1] if index > 0 else min(self.min, upper)
                fraction = (rank - previous) / bucket_count
                estimate = lower + (upper - lower) * min(1.0, max(0.0, fraction))
                return min(self.max, max(self.min, estimate))
        return self.max  # a snapshot whose count exceeds its buckets


class MetricsRegistry:
    """Creates-or-returns labeled metrics and snapshots them.

    A metric's identity is ``(name, sorted label items)``; asking for the
    same identity twice returns the same object, so instrumentation
    sites can call ``registry.counter(...)`` every time without
    allocating.
    """

    enabled = True

    def __init__(self) -> None:
        self._counters: Dict[Tuple[str, Tuple[Tuple[str, str], ...]], Counter] = {}
        self._gauges: Dict[Tuple[str, Tuple[Tuple[str, str], ...]], Gauge] = {}
        self._histograms: Dict[Tuple[str, Tuple[Tuple[str, str], ...]], Histogram] = {}

    def counter(self, name: str, **labels: Any) -> Counter:
        key = (name, _label_items(labels))
        metric = self._counters.get(key)
        if metric is None:
            metric = self._counters[key] = Counter()
        return metric

    def gauge(self, name: str, **labels: Any) -> Gauge:
        key = (name, _label_items(labels))
        metric = self._gauges.get(key)
        if metric is None:
            metric = self._gauges[key] = Gauge()
        return metric

    def histogram(
        self,
        name: str,
        buckets: Optional[Sequence[float]] = None,
        **labels: Any,
    ) -> Histogram:
        key = (name, _label_items(labels))
        metric = self._histograms.get(key)
        if metric is None:
            metric = self._histograms[key] = Histogram(buckets)
        elif buckets is not None and tuple(buckets) != metric.bounds:
            raise ValueError(
                f"histogram {flat_key(*key)!r} already exists with bounds "
                f"{metric.bounds}, refusing {tuple(buckets)}"
            )
        return metric

    def snapshot(self) -> Dict[str, Any]:
        """A deterministic, JSON-able dump of every metric.

        Keys within each section are sorted, so two registries holding
        the same values serialize identically regardless of the order
        metrics were first touched in.
        """
        counters = {
            flat_key(name, labels): metric.value
            for (name, labels), metric in self._counters.items()
        }
        gauges = {
            flat_key(name, labels): {
                "value": metric.value,
                "peak": metric.peak,
                "updates": metric.updates,
            }
            for (name, labels), metric in self._gauges.items()
        }
        histograms = {
            flat_key(name, labels): {
                "bounds": list(metric.bounds),
                "bucket_counts": list(metric.bucket_counts),
                "count": metric.count,
                "sum": metric.sum,
                "min": metric.min if metric.count else None,
                "max": metric.max if metric.count else None,
            }
            for (name, labels), metric in self._histograms.items()
        }
        return {
            "counters": dict(sorted(counters.items())),
            "gauges": dict(sorted(gauges.items())),
            "histograms": dict(sorted(histograms.items())),
        }


class NullRegistry(MetricsRegistry):
    """The disabled registry: a disabled run never asks it for a metric,
    as every metric call sits under ``if tele.enabled``."""

    enabled = False


def _merge_histogram(into: Dict[str, Any], other: Dict[str, Any], key: str) -> None:
    if into["bounds"] != other["bounds"]:
        raise ValueError(
            f"cannot merge histogram {key!r}: bounds differ "
            f"({into['bounds']} vs {other['bounds']})"
        )
    into["bucket_counts"] = [
        a + b for a, b in zip(into["bucket_counts"], other["bucket_counts"])
    ]
    into["count"] += other["count"]
    into["sum"] += other["sum"]
    for field, pick in (("min", min), ("max", max)):
        ours, theirs = into[field], other[field]
        if ours is None:
            into[field] = theirs
        elif theirs is not None:
            into[field] = pick(ours, theirs)


def merge_snapshots(snapshots: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """Fold metric snapshots together into one.

    Counters add, gauges keep the maximum value/peak and total updates,
    histograms (which must share bucket bounds) add bucket-wise.  The
    fold is associative and, for two snapshots, bit-commutative (IEEE
    float addition commutes); callers that need full bit-determinism
    over many snapshots — the sweep runner — pass them in a canonical
    order (point-index order).
    """
    merged: Dict[str, Any] = {"counters": {}, "gauges": {}, "histograms": {}}
    for snapshot in snapshots:
        for key, value in snapshot.get("counters", {}).items():
            merged["counters"][key] = merged["counters"].get(key, 0.0) + value
        for key, gauge in snapshot.get("gauges", {}).items():
            ours = merged["gauges"].get(key)
            if ours is None:
                merged["gauges"][key] = dict(gauge)
            else:
                ours["value"] = max(ours["value"], gauge["value"])
                ours["peak"] = max(ours["peak"], gauge["peak"])
                ours["updates"] += gauge["updates"]
        for key, histogram in snapshot.get("histograms", {}).items():
            ours = merged["histograms"].get(key)
            if ours is None:
                merged["histograms"][key] = {
                    "bounds": list(histogram["bounds"]),
                    "bucket_counts": list(histogram["bucket_counts"]),
                    "count": histogram["count"],
                    "sum": histogram["sum"],
                    "min": histogram["min"],
                    "max": histogram["max"],
                }
            else:
                _merge_histogram(ours, histogram, key)
    for section in ("counters", "gauges", "histograms"):
        merged[section] = dict(sorted(merged[section].items()))
    return merged


def histogram_percentile(snapshot_histogram: Dict[str, Any], p: float) -> float:
    """Percentile estimate straight from a snapshot/manifest histogram.

    This is what makes latency percentiles *recoverable from a manifest
    without re-running*: the manifest stores the bucket counts, and this
    helper reconstructs any percentile from them.
    """
    histogram = Histogram(snapshot_histogram["bounds"])
    histogram.bucket_counts = list(snapshot_histogram["bucket_counts"])
    histogram.count = snapshot_histogram["count"]
    histogram.sum = snapshot_histogram["sum"]
    histogram.min = (
        snapshot_histogram["min"] if snapshot_histogram["min"] is not None
        else float("inf")
    )
    histogram.max = (
        snapshot_histogram["max"] if snapshot_histogram["max"] is not None
        else float("-inf")
    )
    return histogram.percentile(p)


__all__.append("histogram_percentile")
