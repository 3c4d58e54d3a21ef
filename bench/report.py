"""Text rendering of results, and the run files under ``bench/results``."""

from __future__ import annotations

import json
from datetime import datetime, timezone
from pathlib import Path
from typing import Any

RUN_SCHEMA = "repro-bench-run/1"
HISTORY_SCHEMA = "repro-bench-history/1"


def _fmt(value: float) -> str:
    if isinstance(value, int) or float(value).is_integer() and abs(value) < 1e15:
        return f"{int(value):d}"
    return f"{value:.6g}"


def _metric_lines(entries: dict[str, dict[str, Any]]) -> list[str]:
    width = max((len(n) for n in entries), default=0)
    return [
        f"  {name:<{width}}  {_fmt(e['value']):>14}  {e['unit']}"
        for name, e in entries.items()
    ]


def render_result(result: dict[str, Any]) -> str:
    """Every metric of one workload by name with its unit, then checks."""
    failed_checks = [c for c in result["checks"] if not c["ok"]]
    lines = [
        f"== {result['workload']}  seed {result['seed']}  "
        f"{result['rounds']} rounds x {result['ops_per_round']} ops  "
        f"work {_fmt(result['work_per_round'])} {result['work_unit']}/round",
        f"end-to-end (median of {result['rounds']} untraced rounds; "
        f"op_ms_p50 over {result['op_samples']} ops)",
        *_metric_lines(result["end_to_end"]),
        f"  fail_share = {result['failed']} failed / {result['attempted']} attempted",
    ]
    if result["per_layer"]:
        lines += ["per-layer (one traced round)", *_metric_lines(result["per_layer"])]
    lines.append(
        f"checks: {len(result['checks']) - len(failed_checks)}/{len(result['checks'])} ok"
    )
    lines += [f"  FAILED {c['name']}: {c['detail']}" for c in failed_checks]
    lines += [f"  RAISED {msg}" for msg in result["raised"]]
    return "\n".join(lines)


def driver_line(result: dict[str, Any], group: str, declared: dict[str, dict]) -> str:
    """The one JSON object the driver reads from the last line of stdout.

    It wants every declared metric of the group on every workload, so a
    per-layer metric of a layer this workload never enters reads 0 here
    (the result files and tables leave such metrics out instead).
    """
    got = result[group]
    metrics = {
        name: got.get(name, {"value": 0, "unit": spec["unit"]})
        for name, spec in declared.items()
    }
    return json.dumps(
        {
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": metrics,
        }
    )


def run_document(
    results: dict[str, dict[str, Any]], *, commit: str | None, seed: int, seconds: float
) -> dict[str, Any]:
    """All workloads of one run (the ``latest.json`` shape ``compare`` reads)."""
    return {
        "schema": RUN_SCHEMA,
        "time_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "commit": commit,
        "seed": seed,
        "seconds": seconds,
        "fingerprint": next(iter(results.values()))["fingerprint"],
        "workloads": results,
    }


def history_line(run: dict[str, Any]) -> dict[str, Any]:
    """The end-to-end table of a run, one line of ``history.jsonl``."""
    return {
        "schema": HISTORY_SCHEMA,
        **{k: run[k] for k in ("time_utc", "commit", "seed", "seconds", "fingerprint")},
        "end_to_end": {
            name: {m: e["value"] for m, e in r["end_to_end"].items()}
            for name, r in run["workloads"].items()
        },
        "failed_of_attempted": {
            name: [r["failed"], r["attempted"]] for name, r in run["workloads"].items()
        },
        "paper_error_pct": run["workloads"].get("fig2_sweep", {})
        .get("facts", {}).get("paper_error_pct"),
    }


def write_run(run: dict[str, Any], results_dir: Path) -> None:
    """Replace ``latest.json`` and append the run to ``history.jsonl``."""
    results_dir.mkdir(parents=True, exist_ok=True)
    with (results_dir / "latest.json").open("w") as fh:
        json.dump(run, fh, indent=1)
        fh.write("\n")
    with (results_dir / "history.jsonl").open("a") as fh:
        fh.write(json.dumps(history_line(run)) + "\n")
