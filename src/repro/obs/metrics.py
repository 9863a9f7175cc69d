"""Typed metrics registry: counters, gauges, histograms.

Instruments are registered by name plus sorted labels (channel, tenant,
defense, engine, ...) and snapshot to a deterministic dict, so two runs
of the same deterministic workload produce byte-identical snapshots
regardless of worker count or completion order.  Merge semantics make
per-cell snapshots recombinable in the parent:

* counters **sum** (event tallies),
* histogram bins **sum** (counting bins are mergeable by construction),
* gauges take the **max** (levels -- high-water marks survive merging).

Histograms reuse :class:`~repro.serving.sla.StreamingPercentiles` as
their counting-bin store, so a bulk chunk costs one ``observe`` and the
percentile arithmetic stays the one numpy-exact implementation the
serving layer already pins.

Nothing in this module touches simulation state: updating a metric
reads values the caller already computed.  The zero-overhead-when-
disabled contract lives one level up -- hot sites guard on
``repro.obs.ACTIVE`` and never reach this module when telemetry is off.
"""

from __future__ import annotations

import threading

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry"]


def instrument_key(name: str, labels: dict) -> str:
    """Canonical registry key: ``name{k=v,...}`` with sorted labels."""
    if not labels:
        return name
    inner = ",".join(f"{key}={labels[key]}" for key in sorted(labels))
    return f"{name}{{{inner}}}"


class Counter:
    """Monotonic event tally; merges across workers by summation."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Gauge:
    """Last-written level; merges across workers by maximum."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def high_water(self, value: float) -> None:
        """Keep the maximum of the written values."""
        if value > self.value:
            self.value = value


class Histogram:
    """Counting-bin distribution over a quantized value stream."""

    __slots__ = ("_percentiles",)

    def __init__(self) -> None:
        # Imported lazily: a module-level import would cycle
        # metrics -> serving.sla -> controller -> obs -> metrics.
        from ..serving.sla import StreamingPercentiles

        self._percentiles = StreamingPercentiles()

    def observe(self, value: float, count: int = 1) -> None:
        self._percentiles.add(value, count)

    @property
    def count(self) -> int:
        return self._percentiles.count

    def percentile(self, q: float) -> float:
        return self._percentiles.percentile(q)

    def bins(self) -> list[list]:
        """Sorted ``[value, count]`` pairs -- the mergeable snapshot."""
        return [
            [value, count]
            for value, count in sorted(self._percentiles._counts.items())
        ]


class MetricsRegistry:
    """Name- and label-addressed instruments with deterministic export.

    ``counter`` / ``gauge`` / ``histogram`` get-or-create by key and
    raise if the same key was registered as a different type.  The
    registry-level ``updates`` tally counts every instrument write --
    the hit count ``benchmarks/bench_obs.py`` uses to bound the
    disabled-path guard cost.

    One lock guards get-or-create, every write-through update and
    ``snapshot``: the ``LiveServer`` ingest thread writes
    ``serving.backlog_depth`` while the executor thread writes the
    rest.  Instruments returned by ``counter`` / ``gauge`` /
    ``histogram`` are not locked; write through the registry when
    another thread may write the same key.
    """

    def __init__(self) -> None:
        self._instruments: dict[str, Counter | Gauge | Histogram] = {}
        self.updates = 0
        self._lock = threading.Lock()

    def _get(self, kind: type, name: str, labels: dict):
        """Get-or-create; the caller holds ``_lock``."""
        key = instrument_key(name, labels)
        instrument = self._instruments.get(key)
        if instrument is None:
            instrument = self._instruments[key] = kind()
        elif type(instrument) is not kind:
            raise TypeError(
                f"metric {key!r} already registered as "
                f"{type(instrument).__name__}, not {kind.__name__}"
            )
        return instrument

    def counter(self, name: str, **labels) -> Counter:
        with self._lock:
            return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        with self._lock:
            return self._get(Gauge, name, labels)

    def histogram(self, name: str, **labels) -> Histogram:
        with self._lock:
            return self._get(Histogram, name, labels)

    # Write-through helpers: one call per hot-site line, counted in
    # ``updates``.
    def inc(self, name: str, amount: int = 1, **labels) -> None:
        with self._lock:
            self._get(Counter, name, labels).inc(amount)
            self.updates += 1

    def set(self, name: str, value: float, **labels) -> None:
        with self._lock:
            self._get(Gauge, name, labels).set(value)
            self.updates += 1

    def high_water(self, name: str, value: float, **labels) -> None:
        with self._lock:
            self._get(Gauge, name, labels).high_water(value)
            self.updates += 1

    def observe(self, name: str, value: float, count: int = 1, **labels) -> None:
        with self._lock:
            self._get(Histogram, name, labels).observe(value, count)
            self.updates += 1

    def snapshot(self) -> dict:
        """Deterministic dict form: sorted keys, mergeable values."""
        counters: dict[str, int] = {}
        gauges: dict[str, float] = {}
        histograms: dict[str, dict] = {}
        with self._lock:
            for key in sorted(self._instruments):
                instrument = self._instruments[key]
                if isinstance(instrument, Counter):
                    counters[key] = instrument.value
                elif isinstance(instrument, Gauge):
                    gauges[key] = instrument.value
                else:
                    histograms[key] = {
                        "count": instrument.count,
                        "bins": instrument.bins(),
                    }
            updates = self.updates
        return {
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
            "updates": updates,
        }

    @staticmethod
    def merge(snapshots: list[dict]) -> dict:
        """Fold per-cell/per-worker snapshots into one: counters and
        histogram bins sum, gauges take the max.  Deterministic for any
        input order (all folds are order-insensitive)."""
        counters: dict[str, int] = {}
        gauges: dict[str, float] = {}
        bins: dict[str, dict[float, int]] = {}
        updates = 0
        for snapshot in snapshots:
            for key, value in snapshot.get("counters", {}).items():
                counters[key] = counters.get(key, 0) + value
            for key, value in snapshot.get("gauges", {}).items():
                gauges[key] = max(gauges.get(key, value), value)
            for key, histogram in snapshot.get("histograms", {}).items():
                folded = bins.setdefault(key, {})
                for value, count in histogram.get("bins", []):
                    folded[value] = folded.get(value, 0) + count
            updates += snapshot.get("updates", 0)
        return {
            "counters": dict(sorted(counters.items())),
            "gauges": dict(sorted(gauges.items())),
            "histograms": {
                key: {
                    "count": sum(folded.values()),
                    "bins": [
                        [value, count]
                        for value, count in sorted(folded.items())
                    ],
                }
                for key, folded in sorted(bins.items())
            },
            "updates": updates,
        }
