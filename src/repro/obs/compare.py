"""Cross-run metrics diff: ``repro telemetry --compare A B``.

Loads the ``metrics.json`` snapshot from two telemetry directories and
reports, per (metric, labels) series, how run B moved relative to run A:
counter/gauge value deltas, histogram count and mean shifts.  Sorted by
relative magnitude so the biggest behavioral change between two runs --
a new hot kernel, a regression in bytes moved, a jump in MPI time --
tops the table.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from repro.obs.reader import Metrics, TelemetryDir, decode_metrics, read_stream
from repro.obs.runlog import json_object

LabelKey = tuple[tuple[str, str], ...]


@dataclass(frozen=True, slots=True)
class MetricDelta:
    """One (metric, labels) series compared across two runs."""

    name: str
    labels: LabelKey
    kind: str  # counter | gauge | histogram
    a: float | None  # None = series absent in that run
    b: float | None
    #: For histograms the primary value is the sample count; the mean
    #: shift rides along so latency changes are visible even when the
    #: count is identical.
    a_mean: float | None = None
    b_mean: float | None = None

    @property
    def delta(self) -> float:
        return (self.b or 0.0) - (self.a or 0.0)

    @property
    def rel(self) -> float:
        """Relative change; ±inf stands in for appear/disappear."""
        if self.b is None:
            return float("-inf")  # series vanished in B
        if self.a in (None, 0.0):
            return float("inf") if self.delta > 0 else 0.0
        return self.delta / abs(self.a)

    @property
    def label_text(self) -> str:
        return ",".join(f"{k}={v}" for k, v in self.labels) or "-"


def _series(metrics: Metrics) -> dict[tuple[str, LabelKey], dict]:
    """Flatten a decoded snapshot to {(name, labels): sample}."""
    return {
        (name, tuple(sorted(sample["labels"].items()))): sample
        for name, samples in metrics.items()
        for sample in samples
    }


def compare_metrics(a: dict, b: dict) -> list[MetricDelta]:
    """Diff two metrics.json snapshots (raw or decoded) series-by-series.

    Unchanged series are dropped; the result is sorted by |relative
    change| descending (appear/disappear first), then name/labels for
    stability.
    """
    sa, sb = _series(decode_metrics(a)), _series(decode_metrics(b))
    deltas: list[MetricDelta] = []
    for key in sorted(set(sa) | set(sb)):
        kind = (sa.get(key) or sb.get(key))["kind"]
        (va, ma), (vb, mb) = (_reading(s.get(key), kind) for s in (sa, sb))
        d = MetricDelta(*key, kind, va, vb, a_mean=ma, b_mean=mb)
        if d.delta != 0.0 or (ma or 0.0) != (mb or 0.0):
            deltas.append(d)
    deltas.sort(key=lambda d: (-abs(d.rel), d.name, d.labels))
    return deltas


def _reading(sample: dict | None, kind: str) -> tuple[float | None, float | None]:
    """A series' primary value and mean: a histogram's count and mean
    observation, any other sample's value (no mean); Nones when absent."""
    if sample is None:
        return None, None
    if kind != "histogram":
        return sample["value"], None
    count = sample["count"]
    return count, sample["sum"] / count if count else 0.0


def load_metrics(path: str | Path) -> dict:
    """Read ``<dir>/metrics.json`` (or a metrics.json file directly).

    A snapshot that is there but is not a JSON object (not UTF-8,
    truncated, nested too deeply, or some other JSON value) raises one
    ValueError naming the path and why.
    """
    p = Path(path)
    snapshot = TelemetryDir(p).stream("metrics") if p.is_dir() else read_stream(p, json_object)
    if snapshot.missing:
        raise FileNotFoundError(f"no metrics snapshot at {snapshot.path}")
    if snapshot.error is not None:
        raise ValueError(f"unreadable metrics snapshot {snapshot.path}: {snapshot.error}")
    return snapshot.value


def _fmt(v: float | None) -> str:
    return "-" if v is None else f"{v:.6g}"


def render_compare(
    deltas: Iterable[MetricDelta], *, a_name: str = "A", b_name: str = "B"
) -> str:
    """Table of the diff, biggest relative movers first."""
    from repro.util.tables import Table

    deltas = list(deltas)
    if not deltas:
        return "no metric differences"
    t = Table(
        ["metric", "labels", a_name, b_name, "delta", "rel"],
        title=f"Metrics diff: {a_name} -> {b_name}",
    )
    for d in deltas:
        rel = d.rel
        rel_text = (
            "new" if rel == float("inf")
            else "gone" if rel == float("-inf")
            else f"{rel * 100:+.1f}%"
        )
        a_text, b_text = _fmt(d.a), _fmt(d.b)
        if d.kind == "histogram":
            a_text += f" (mean {_fmt(d.a_mean)})"
            b_text += f" (mean {_fmt(d.b_mean)})"
        t.add_row([d.name, d.label_text, a_text, b_text,
                   f"{d.delta:+.6g}", rel_text])
    return t.render() + f"\n{len(deltas)} series changed"
