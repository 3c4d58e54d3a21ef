"""``python -m bench compare A.json B.json``: A is the base, B the change.

End-to-end metrics get a verdict against the bound ``BENCHMARK.json``
fixes for them. A timing whose rounds spread wider than that bound while
the two sides' rounds overlap is *unresolved*, never *unchanged*. Counts
must repeat exactly and compare with ``==``; simulated-clock values
repeat to the last bit or two (a numpy mean over ranks may round
differently with the alignment of its temporary) and compare to 1e-12.
Per-layer host times have no bound: their delta is shown for reading the
trace, without a verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

from bench import schema, stats
from bench.layers import SIMULATED

#: Which per-round series carries each end-to-end timing's spread.
_ROUND_SERIES = {
    "wall_s": "round_wall_s",
    "work_per_s": "round_wall_s",
    "op_ms_p50": "round_wall_s",
}  # set-up has no such series: the first round of a process always pays more

FAILING = ("regressed", "unresolved")


@dataclass(frozen=True)
class Row:
    workload: str
    metric: str
    unit: str
    a: float
    b: float
    bound: float | None
    verdict: str
    end_to_end: bool

    @property
    def delta_frac(self) -> float | None:
        """(b - a) / a: the base is always A."""
        return (self.b - self.a) / self.a if self.a else None


def is_exact(name: str, unit: str) -> bool:
    """Counts and simulated-clock values repeat between runs."""
    return unit == "count" or name.startswith(SIMULATED)


def _overlap(a: list[float], b: list[float]) -> bool:
    return min(a) <= max(b) and min(b) <= max(a)


def bounded_verdict(
    a: float, b: float, *, better: str, bound: float,
    rounds_a: list[float] | None = None, rounds_b: list[float] | None = None,
) -> str:
    """improved / unchanged / regressed / unresolved for one bounded metric."""
    if rounds_a and rounds_b and len(rounds_a) > 1 and len(rounds_b) > 1:
        spread = max(stats.spread_frac(rounds_a), stats.spread_frac(rounds_b))
        if spread > bound and _overlap(rounds_a, rounds_b):
            return "unresolved"
    worse = (b - a) / a if better == "lower" else (a - b) / a
    if worse > bound:
        return "regressed"
    if worse < -bound:
        return "improved"
    return "unchanged"


def compare(run_a: dict[str, Any], run_b: dict[str, Any]) -> list[Row]:
    """One row per (workload, metric) present on both sides."""
    e2e, layer = schema.specs("end_to_end"), schema.specs("per_layer")
    rows: list[Row] = []
    for name, ra in run_a["workloads"].items():
        rb = run_b["workloads"].get(name)
        if rb is None:
            continue
        for metric, spec in e2e.items():
            if metric not in ra["end_to_end"] or metric not in rb["end_to_end"]:
                continue
            a, b = ra["end_to_end"][metric]["value"], rb["end_to_end"][metric]["value"]
            series = _ROUND_SERIES.get(metric)
            verdict = bounded_verdict(
                a, b, better=spec["better"], bound=spec["bound"],
                rounds_a=ra.get(series) if series else None,
                rounds_b=rb.get(series) if series else None,
            )
            rows.append(Row(name, metric, spec["unit"], a, b, spec["bound"], verdict, True))
        share_a = ra["failed"] / ra["attempted"]
        share_b = rb["failed"] / rb["attempted"]
        rows.append(Row(
            name, "fail_share", "ratio", share_a, share_b, 0.0,
            "regressed" if share_b > share_a else "improved" if share_b < share_a else "unchanged",
            True,
        ))
        for metric, spec in layer.items():
            if metric not in ra["per_layer"] or metric not in rb["per_layer"]:
                continue
            a, b = ra["per_layer"][metric]["value"], rb["per_layer"][metric]["value"]
            if is_exact(metric, spec["unit"]):
                verdict = "unchanged" if math.isclose(a, b, rel_tol=1e-12) else "changed"
            else:
                verdict = "-"
            rows.append(Row(name, metric, spec["unit"], a, b, None, verdict, False))
    return rows


def render(rows: list[Row]) -> str:
    """The comparison table; deltas are relative to A."""
    out = [
        f"{'workload':<20} {'metric':<34} {'A':>14} {'B':>14} {'(B-A)/A':>9} "
        f"{'bound':>6}  verdict"
    ]
    for r in rows:
        delta = "" if r.delta_frac is None else f"{r.delta_frac:+.1%}"
        bound = "" if r.bound is None else f"{r.bound:.0%}"
        out.append(
            f"{r.workload:<20} {r.metric:<34} {r.a:>14.6g} {r.b:>14.6g} {delta:>9} "
            f"{bound:>6}  {r.verdict} [{r.unit}]"
        )
    bad = [r for r in rows if r.end_to_end and r.verdict in FAILING]
    out.append(
        f"{len(bad)} end-to-end row(s) regressed or unresolved"
        + "".join(f"\n  {r.workload} {r.metric}: {r.verdict}" for r in bad)
    )
    return "\n".join(out)


def failing(rows: list[Row]) -> bool:
    """Whether any end-to-end row is regressed or unresolved."""
    return any(r.end_to_end and r.verdict in FAILING for r in rows)
