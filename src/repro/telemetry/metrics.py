"""Sim-time-stamped metrics: counters, gauges, and histograms with labels.

The registry is the cluster-wide metrics plane (Ray ships this as a
first-class subsystem; Dask's overhead study shows why it matters): every
hot path — scheduler placements, raylet dispatch, object-store traffic,
per-link fabric bytes, heartbeats/retries/replays — increments instruments
here, stamped with *virtual* time from the simulator clock.  Because the
clock is deterministic, the metrics output itself is assertable in tests:
two identically-seeded runs export byte-identical snapshots.

Instruments are identified by ``(name, labels)``.  A hot site (one that
runs per chunk, message, task or request) binds its instruments once and
keeps them: :meth:`MetricsRegistry.series` names a family and its label
names, and :meth:`SeriesHandle.of` resolves one tuple of label values, caching
the result, so the sort-and-lookup of a labelled name is paid once per
label value, not once per event::

    link_bytes = registry.series("counter", "skadi_link_bytes_total",
                                 "payload bytes routed over each link", "link")
    per_hop = link_bytes.of("a<->b")   # once per hop
    per_hop.inc(nbytes)                # once per chunk: no registry lookup

Series stay lazy: a bound series joins the registry on its first
``inc``/``set``/``observe``, so binding one that is never written leaves
every export unchanged.  Cold sites (failover, incidents, once-per-run
gauges) use the plain get-or-create accessors
``registry.counter/gauge/histogram(name, help, **labels)``.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "SeriesHandle",
    "nearest_rank",
]

LabelKey = Tuple[Tuple[str, str], ...]

DEFAULT_QUANTILES = (0.5, 0.95, 0.99)


def _label_key(labels: Dict[str, Any]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def nearest_rank(sorted_values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile of a sorted, non-empty sample: the value at
    rank ``ceil(p * n)`` (1-based), and the minimum for ``p == 0``."""
    return sorted_values[max(1, math.ceil(p * len(sorted_values))) - 1]


class Instrument:
    """Base: a named, labelled time series point."""

    kind = "untyped"

    def __init__(self, name: str, labels: LabelKey, clock: Callable[[], float]):
        self.name = name
        self.labels = labels
        self._clock = clock
        self.last_updated = 0.0

    @property
    def labels_dict(self) -> Dict[str, str]:
        return dict(self.labels)

    def _touch(self) -> None:
        self.last_updated = self._clock()


class Counter(Instrument):
    """Monotonically increasing count (events, bytes, messages)."""

    kind = "counter"

    def __init__(self, name: str, labels: LabelKey, clock: Callable[[], float]):
        super().__init__(name, labels, clock)
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease (inc {amount})")
        self.value += amount
        self._touch()


class Gauge(Instrument):
    """A value that goes up and down (queue depth, bytes resident).

    Every ``set`` records a ``(sim_time, value)`` sample, so the full
    time series is available for Chrome-trace counter ("C") events.
    """

    kind = "gauge"

    def __init__(self, name: str, labels: LabelKey, clock: Callable[[], float]):
        super().__init__(name, labels, clock)
        self.value = 0.0
        self.samples: List[Tuple[float, float]] = []

    def set(self, value: float) -> None:
        self.value = float(value)
        self._touch()
        # coalesce same-instant updates: only the final value at a given
        # virtual time is observable
        if self.samples and self.samples[-1][0] == self.last_updated:
            self.samples[-1] = (self.last_updated, self.value)
        else:
            self.samples.append((self.last_updated, self.value))

    def inc(self, amount: float = 1.0) -> None:
        self.set(self.value + amount)

    def dec(self, amount: float = 1.0) -> None:
        self.set(self.value - amount)


class Histogram(Instrument):
    """Distribution summary with exact nearest-rank percentiles.

    The simulation is small enough to keep raw observations, so p50/p95/p99
    are exact rather than bucket-approximated.
    """

    kind = "histogram"

    def __init__(self, name: str, labels: LabelKey, clock: Callable[[], float]):
        super().__init__(name, labels, clock)
        self._values: List[float] = []
        self._sorted = True
        self.sum = 0.0

    def observe(self, value: float) -> None:
        self._values.append(float(value))
        self._sorted = False
        self.sum += value
        self._touch()

    @property
    def count(self) -> int:
        return len(self._values)

    @property
    def value(self) -> float:
        """For uniform collection: a histogram's scalar value is its count."""
        return float(self.count)

    def percentile(self, p: float) -> float:
        """Nearest-rank percentile; ``p`` in [0, 1].  NaN when empty."""
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"percentile must be in [0, 1], got {p}")
        if not self._values:
            return float("nan")
        if not self._sorted:
            self._values.sort()
            self._sorted = True
        return nearest_rank(self._values, p)


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}
# the calls that write an instrument of each kind (and so create its series)
_WRITES = {"counter": ("inc",), "gauge": ("set", "inc", "dec"), "histogram": ("observe",)}


class MetricFamily:
    """All instruments sharing one metric name (one per label set)."""

    def __init__(self, name: str, kind: str, help: str = ""):
        self.name = name
        self.kind = kind
        self.help = help
        self._instruments: Dict[LabelKey, Instrument] = {}

    def instruments(self) -> List[Instrument]:
        return [self._instruments[k] for k in sorted(self._instruments)]

    def get(self, key: LabelKey) -> Optional[Instrument]:
        return self._instruments.get(key)

    def __len__(self) -> int:
        return len(self._instruments)


class _Unwritten:
    """A bound series nobody has written yet.  Its first write creates the
    series in the registry; the write methods are then rebound to the
    instrument's own, so a caller that kept this handle pays nothing extra."""

    def __init__(self, series: "SeriesHandle", values: Tuple[Any, ...]):
        self._series = series
        self._values = values

    def __getattr__(self, method: str) -> Callable[..., None]:
        if method.startswith("_"):
            raise AttributeError(method)
        writes = _WRITES[self._series.kind]
        if method not in writes:
            raise AttributeError(
                f"unwritten {self._series.kind} {self._series.name} has no {method!r}"
            )

        def first_write(*args: Any) -> None:
            inst = self._series._create(self._values)
            for name in writes:
                setattr(self, name, getattr(inst, name))
            getattr(inst, method)(*args)

        return first_write


class SeriesHandle:
    """A family bound for a hot site: :meth:`of` resolves one tuple of label
    values (in ``label_names`` order) to its instrument once and caches it.

    The handle belongs to the registry that made it; a component re-wired to
    another registry asks that one for a new handle.
    """

    def __init__(
        self,
        registry: "MetricsRegistry",
        kind: str,
        name: str,
        help: str,
        label_names: Tuple[str, ...],
    ):
        self._registry = registry
        self.kind = kind
        self.name = name
        self.help = help
        self.label_names = label_names
        self._bound: Dict[Tuple[Any, ...], Any] = {}

    def of(self, *values: Any):
        """The instrument labelled ``values``: the registry's own when the
        series exists, else a handle that creates it on its first write."""
        bound = self._bound.get(values)
        if bound is None:
            bound = self._registry.get(self.name, **dict(zip(self.label_names, values)))
            if bound is None:
                bound = _Unwritten(self, values)
            self._bound[values] = bound
        return bound

    def _create(self, values: Tuple[Any, ...]) -> Instrument:
        labels = dict(zip(self.label_names, values))
        inst = self._registry._instrument(self.kind, self.name, self.help, labels)
        self._bound[values] = inst
        return inst


class MetricsRegistry:
    """The cluster-wide metric store; deterministic iteration order."""

    def __init__(self, clock: Optional[Callable[[], float]] = None):
        self._clock = clock or (lambda: 0.0)
        self._families: Dict[str, MetricFamily] = {}
        self._series: Dict[str, SeriesHandle] = {}

    # -- get-or-create accessors --------------------------------------------

    def _instrument(self, kind: str, name: str, help: str, labels: Dict[str, Any]):
        family = self._families.get(name)
        if family is None:
            family = MetricFamily(name, kind, help)
            self._families[name] = family
        elif family.kind != kind:
            raise ValueError(
                f"metric {name!r} already registered as {family.kind}, not {kind}"
            )
        if help and not family.help:
            family.help = help
        key = _label_key(labels)
        inst = family.get(key)
        if inst is None:
            inst = _KINDS[kind](name, key, self._clock)
            family._instruments[key] = inst
        return inst

    def counter(self, name: str, help: str = "", **labels: Any) -> Counter:
        return self._instrument("counter", name, help, labels)

    def gauge(self, name: str, help: str = "", **labels: Any) -> Gauge:
        return self._instrument("gauge", name, help, labels)

    def histogram(self, name: str, help: str = "", **labels: Any) -> Histogram:
        return self._instrument("histogram", name, help, labels)

    # -- bound handles for hot sites -----------------------------------------

    def series(self, kind: str, name: str, help: str, *label_names: str) -> SeriesHandle:
        """The hot-site handle of family ``name`` (one per name and registry).
        Creates nothing: each series appears on its first write."""
        if kind not in _KINDS:
            raise ValueError(f"unknown metric kind {kind!r}")
        handle = self._series.get(name)
        if handle is None:
            family = self._families.get(name)
            if family is not None and family.kind != kind:
                raise ValueError(
                    f"metric {name!r} already registered as {family.kind}, not {kind}"
                )
            handle = self._series[name] = SeriesHandle(self, kind, name, help, label_names)
        elif (handle.kind, handle.label_names) != (kind, label_names):
            raise ValueError(
                f"metric {name!r} already bound as {handle.kind}{handle.label_names}, "
                f"not {kind}{label_names}"
            )
        return handle

    # -- introspection -------------------------------------------------------

    def families(self) -> List[MetricFamily]:
        return [self._families[n] for n in sorted(self._families)]

    def family(self, name: str) -> Optional[MetricFamily]:
        return self._families.get(name)

    def get(self, name: str, **labels: Any) -> Optional[Instrument]:
        family = self._families.get(name)
        if family is None:
            return None
        return family.get(_label_key(labels))

    def value(self, name: str, default: float = 0.0, **labels: Any) -> float:
        """Scalar value of one instrument (counters/gauges: value;
        histograms: observation count).  ``default`` when absent."""
        inst = self.get(name, **labels)
        return default if inst is None else float(inst.value)

    def __len__(self) -> int:
        return len(self._families)
