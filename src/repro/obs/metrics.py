"""Metrics registry: labeled counters, gauges, and histograms.

Prometheus-flavoured but dependency-free. A :class:`MetricsRegistry` holds
metric *families* (one per metric name); each family holds one child per
label combination. The hot paths register families lazily and bump the
children, e.g.::

    reg.counter("kernel_launches_total", labelnames=("version", "category"))
    reg.counter("kernel_launches_total").labels(version="A", category="plain").inc()

Two exporters cover the production question ("what is this run doing?")
and the tracking question ("how does this run compare to last PR?"):
:meth:`MetricsRegistry.to_prometheus_text` and
:meth:`MetricsRegistry.to_json`.

The ``Null*`` twins at the bottom are the disabled-telemetry fast path:
every method is a ``pass``, so instrumented code costs one attribute
lookup and a no-op call when no telemetry session is active.
"""

from __future__ import annotations

import bisect
import json
import math
from typing import Any, Iterable, Mapping

#: Default histogram buckets (seconds): spans simulated per-step walls
#: (tens of ms) through projected full-run minutes.
DEFAULT_BUCKETS = (
    1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

_VALID_KINDS = ("counter", "gauge", "histogram")


class Counter:
    """Monotonically increasing value."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative)."""
        if amount < 0:
            raise ValueError("counters can only increase")
        self.value += amount


class Gauge:
    """Value that can go up and down."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        """Set the current value."""
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (may be negative)."""
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        """Subtract ``amount``."""
        self.value -= amount


class Histogram:
    """Cumulative-bucket histogram (Prometheus semantics)."""

    __slots__ = ("buckets", "counts", "sum", "count")

    def __init__(self, buckets: tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds or any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError("histogram buckets must be strictly increasing")
        self.buckets = bounds
        self.counts = [0] * (len(bounds) + 1)  # last slot = +Inf
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        """Record one observation."""
        v = float(value)
        self.sum += v
        self.count += 1
        self.counts[bisect.bisect_left(self.buckets, v)] += 1

    def cumulative(self) -> list[tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` pairs, ending at +Inf."""
        out: list[tuple[float, int]] = []
        running = 0
        for bound, c in zip((*self.buckets, math.inf), self.counts):
            running += c
            out.append((bound, running))
        return out

    @property
    def mean(self) -> float:
        """Mean observation (0 when empty)."""
        return self.sum / self.count if self.count else 0.0


class MetricFamily:
    """All children of one metric name, keyed by label values."""

    __slots__ = ("name", "kind", "help", "labelnames", "children", "_buckets")

    def __init__(
        self,
        name: str,
        kind: str,
        help: str = "",
        labelnames: tuple[str, ...] = (),
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> None:
        if kind not in _VALID_KINDS:
            raise ValueError(f"unknown metric kind {kind!r}")
        if not name or any(ch in name for ch in ' {}"\n'):
            raise ValueError(f"invalid metric name {name!r}")
        self.name = name
        self.kind = kind
        self.help = help
        self.labelnames = tuple(labelnames)
        self.children: dict[tuple[str, ...], Counter | Gauge | Histogram] = {}
        self._buckets = buckets

    def labels(self, **labels: str) -> Counter | Gauge | Histogram:
        """Child for one label combination (created on first use)."""
        if tuple(sorted(labels)) != tuple(sorted(self.labelnames)):
            raise ValueError(
                f"metric {self.name!r} takes labels {self.labelnames}, got "
                f"{tuple(sorted(labels))}"
            )
        key = tuple(str(labels[k]) for k in self.labelnames)
        child = self.children.get(key)
        if child is None:
            if self.kind == "counter":
                child = Counter()
            elif self.kind == "gauge":
                child = Gauge()
            else:
                child = Histogram(self._buckets)
            self.children[key] = child
        return child

    # Label-free conveniences: family acts as its own () child.
    def inc(self, amount: float = 1.0) -> None:
        """Bump the label-free child (counter/gauge)."""
        self.labels().inc(amount)

    def set(self, value: float) -> None:
        """Set the label-free child (gauge)."""
        self.labels().set(value)

    def observe(self, value: float) -> None:
        """Observe into the label-free child (histogram)."""
        self.labels().observe(value)


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _label_str(names: Iterable[str], values: Iterable[str]) -> str:
    parts = [f'{n}="{_escape_label(v)}"' for n, v in zip(names, values)]
    return "{" + ",".join(parts) + "}" if parts else ""


def _fmt_bound(bound: float) -> str:
    if math.isinf(bound):
        return "+Inf"
    return repr(bound)


class MetricsRegistry:
    """Namespace of metric families with lazy registration."""

    def __init__(self) -> None:
        self._families: dict[str, MetricFamily] = {}
        #: Children a hot call site (``observe_kernel``) resolved once, under
        #: a key of its choosing; kept here so they die with the session.
        self.bound: dict[tuple, Any] = {}

    # -- registration -------------------------------------------------------

    def _family(
        self,
        name: str,
        kind: str,
        help: str,
        labelnames: tuple[str, ...],
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> MetricFamily:
        fam = self._families.get(name)
        if fam is None:
            fam = MetricFamily(name, kind, help, labelnames, buckets)
            self._families[name] = fam
            return fam
        if fam.kind != kind:
            raise ValueError(
                f"metric {name!r} already registered as {fam.kind}, not {kind}"
            )
        if labelnames and fam.labelnames != tuple(labelnames):
            raise ValueError(
                f"metric {name!r} already registered with labels "
                f"{fam.labelnames}, not {tuple(labelnames)}"
            )
        if help and not fam.help:
            fam.help = help
        return fam

    def counter(
        self, name: str, help: str = "", labelnames: tuple[str, ...] = ()
    ) -> MetricFamily:
        """Register (or fetch) a counter family."""
        return self._family(name, "counter", help, labelnames)

    def gauge(
        self, name: str, help: str = "", labelnames: tuple[str, ...] = ()
    ) -> MetricFamily:
        """Register (or fetch) a gauge family."""
        return self._family(name, "gauge", help, labelnames)

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: tuple[str, ...] = (),
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> MetricFamily:
        """Register (or fetch) a histogram family."""
        return self._family(name, "histogram", help, labelnames, buckets)

    # -- access -------------------------------------------------------------

    def get(self, name: str) -> MetricFamily | None:
        """Family by name, or None."""
        return self._families.get(name)

    def families(self) -> list[MetricFamily]:
        """All families, sorted by name."""
        return [self._families[k] for k in sorted(self._families)]

    def __contains__(self, name: str) -> bool:
        return name in self._families

    # -- exporters ----------------------------------------------------------

    def to_prometheus_text(self) -> str:
        """Prometheus text exposition format."""
        lines: list[str] = []
        for fam in self.families():
            if fam.help:
                lines.append(f"# HELP {fam.name} {fam.help}")
            lines.append(f"# TYPE {fam.name} {fam.kind}")
            for key in sorted(fam.children):
                child = fam.children[key]
                base = _label_str(fam.labelnames, key)
                if isinstance(child, Histogram):
                    for bound, cum in child.cumulative():
                        le = _label_str(
                            (*fam.labelnames, "le"), (*key, _fmt_bound(bound))
                        )
                        lines.append(f"{fam.name}_bucket{le} {cum}")
                    lines.append(f"{fam.name}_sum{base} {child.sum!r}")
                    lines.append(f"{fam.name}_count{base} {child.count}")
                else:
                    lines.append(f"{fam.name}{base} {child.value!r}")
        return "\n".join(lines) + "\n" if lines else ""

    def to_json(self) -> dict:
        """JSON-friendly snapshot of every family."""
        out: dict[str, dict] = {}
        for fam in self.families():
            samples = []
            for key in sorted(fam.children):
                child = fam.children[key]
                labels = dict(zip(fam.labelnames, key))
                if isinstance(child, Histogram):
                    samples.append(
                        {
                            "labels": labels,
                            "sum": child.sum,
                            "count": child.count,
                            "buckets": {
                                _fmt_bound(b): c for b, c in child.cumulative()
                            },
                        }
                    )
                else:
                    samples.append({"labels": labels, "value": child.value})
            out[fam.name] = {
                "type": fam.kind,
                "help": fam.help,
                "labelnames": list(fam.labelnames),
                "samples": samples,
            }
        return out

    def to_json_text(self) -> str:
        """Serialized :meth:`to_json` (stable key order)."""
        return json.dumps(self.to_json(), indent=2, sort_keys=True)


# -- disabled-telemetry fast path --------------------------------------------


class NullMetricFamily:
    """No-op family: every operation does nothing and returns itself."""

    __slots__ = ()

    def labels(self, **labels: str) -> "NullMetricFamily":
        return self

    def inc(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


_NULL_FAMILY = NullMetricFamily()


class NullMetricsRegistry:
    """Registry twin whose families are all the shared no-op family."""

    __slots__ = ()

    def counter(self, name: str, help: str = "", labelnames=()) -> NullMetricFamily:
        return _NULL_FAMILY

    def gauge(self, name: str, help: str = "", labelnames=()) -> NullMetricFamily:
        return _NULL_FAMILY

    def histogram(
        self, name: str, help: str = "", labelnames=(), buckets=DEFAULT_BUCKETS
    ) -> NullMetricFamily:
        return _NULL_FAMILY

    def get(self, name: str) -> None:
        return None

    def families(self) -> list:
        return []

    def __contains__(self, name: str) -> bool:
        return False

    def to_prometheus_text(self) -> str:
        return ""

    def to_json(self) -> dict:
        return {}

    def to_json_text(self) -> str:
        return "{}"


NULL_REGISTRY = NullMetricsRegistry()
