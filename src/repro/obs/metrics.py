"""The component metrics registry: counters, gauges, histograms.

Every :class:`Simulator` owns a :class:`MetricsRegistry`; components
register their instruments against it on first use (get-or-create,
keyed by ``(component, name)``).  Snapshots are plain nested dicts
with sorted keys, so two identical runs produce byte-identical
snapshots — a property the determinism tests rely on.

Instruments are deliberately dumb value holders: no locks, no
timestamps, no scheduling.  Like the tracer, the registry observes the
simulation and never participates in it.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.errors import SimulationError

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry",
           "DEFAULT_LATENCY_BUCKETS"]

#: Fixed latency buckets (seconds): 10 µs to ~100 s, roughly one
#: bucket per half-decade, matching the spread between a single
#: track-buffer hit and a full experiment run.
DEFAULT_LATENCY_BUCKETS = (
    1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2,
    1e-1, 3e-1, 1.0, 3.0, 10.0, 30.0, 100.0,
)


class Counter:
    """A monotonically increasing count (bytes moved, ops done...)."""

    __slots__ = ("component", "name", "unit", "value")

    kind = "counter"

    def __init__(self, component: str, name: str, unit: str = ""):
        self.component = component
        self.name = name
        self.unit = unit
        self.value = 0

    def inc(self, amount: Union[int, float] = 1) -> None:
        if amount < 0:
            raise SimulationError(
                f"counter {self.component}/{self.name} cannot decrease "
                f"(inc by {amount!r})")
        self.value += amount

    def snapshot(self) -> dict:
        return {"kind": self.kind, "value": self.value, "unit": self.unit}


class Gauge:
    """A point-in-time value (queue depth, busy seconds, occupancy)."""

    __slots__ = ("component", "name", "unit", "value", "max_value")

    kind = "gauge"

    def __init__(self, component: str, name: str, unit: str = ""):
        self.component = component
        self.name = name
        self.unit = unit
        self.value: float = 0.0
        self.max_value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value
        if value > self.max_value:
            self.max_value = value

    def add(self, delta: float) -> None:
        self.set(self.value + delta)

    def snapshot(self) -> dict:
        return {"kind": self.kind, "value": self.value,
                "max": self.max_value, "unit": self.unit}


class Histogram:
    """Fixed-bucket histogram of observed values.

    ``buckets`` are the inclusive upper bounds of each bucket; one
    implicit overflow bucket catches everything beyond the last bound.
    """

    __slots__ = ("component", "name", "unit", "buckets", "counts",
                 "count", "total", "min_value", "max_value")

    kind = "histogram"

    def __init__(self, component: str, name: str,
                 buckets: tuple = DEFAULT_LATENCY_BUCKETS, unit: str = "s"):
        if not buckets or list(buckets) != sorted(buckets):
            raise SimulationError("histogram buckets must be sorted and "
                                  "non-empty")
        self.component = component
        self.name = name
        self.unit = unit
        self.buckets = tuple(buckets)
        self.counts = [0] * (len(self.buckets) + 1)
        self.count = 0
        self.total = 0.0
        self.min_value: Optional[float] = None
        self.max_value: Optional[float] = None

    def observe(self, value: float) -> None:
        for index, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[index] += 1
                break
        else:
            self.counts[-1] += 1
        self.count += 1
        self.total += value
        if self.min_value is None or value < self.min_value:
            self.min_value = value
        if self.max_value is None or value > self.max_value:
            self.max_value = value

    @property
    def mean(self) -> float:
        if self.count == 0:
            raise SimulationError(
                f"histogram {self.component}/{self.name} has no samples")
        return self.total / self.count

    def snapshot(self) -> dict:
        return {"kind": self.kind, "count": self.count, "total": self.total,
                "min": self.min_value, "max": self.max_value,
                "buckets": list(self.buckets), "counts": list(self.counts),
                "unit": self.unit}


class MetricsRegistry:
    """All instruments of one simulator, keyed by (component, name)."""

    __slots__ = ("_instruments", "_anon")

    def __init__(self):
        self._instruments: dict[tuple[str, str], object] = {}
        #: Per-prefix counters for deterministic anonymous components.
        self._anon: dict[str, int] = {}

    # -- get-or-create factories ----------------------------------------
    def counter(self, component: str, name: str, unit: str = "") -> Counter:
        return self._get(Counter, component, name, unit=unit)

    def gauge(self, component: str, name: str, unit: str = "") -> Gauge:
        return self._get(Gauge, component, name, unit=unit)

    def histogram(self, component: str, name: str,
                  buckets: tuple = DEFAULT_LATENCY_BUCKETS,
                  unit: str = "s") -> Histogram:
        return self._get(Histogram, component, name, buckets=buckets,
                         unit=unit)

    def _get(self, cls, component: str, name: str, **kwargs):
        key = (component, name)
        instrument = self._instruments.get(key)
        if instrument is None:
            instrument = cls(component, name, **kwargs)
            self._instruments[key] = instrument
            return instrument
        if not isinstance(instrument, cls):
            raise SimulationError(
                f"metric {component}/{name} already registered as "
                f"{type(instrument).__name__}, not {cls.__name__}")
        return instrument

    def unique_component(self, prefix: str) -> str:
        """A deterministic fresh component name for anonymous users.

        Identical runs create instruments in identical order, so the
        generated names (``prefix.1``, ``prefix.2``...) are stable
        across runs — snapshot determinism holds even for unnamed
        meters.
        """
        nth = self._anon.get(prefix, 0) + 1
        self._anon[prefix] = nth
        return f"{prefix}.{nth}"

    # -- introspection --------------------------------------------------
    def __len__(self) -> int:
        return len(self._instruments)

    def instruments(self) -> list:
        return [self._instruments[key] for key in sorted(self._instruments)]

    def snapshot(self) -> dict:
        """Nested ``{component: {name: {...}}}`` with sorted keys."""
        out: dict[str, dict] = {}
        for component, name in sorted(self._instruments):
            instrument = self._instruments[(component, name)]
            out.setdefault(component, {})[name] = instrument.snapshot()
        return out
