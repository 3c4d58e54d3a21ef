"""``BENCHMARK.json`` is the one place metric names, units, directions and
bounds are written down; this module reads it and validates results
against it."""

from __future__ import annotations

import json
from functools import cache
from pathlib import Path
from typing import Any

MANIFEST = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
RESULT_SCHEMA = "repro-bench/1"


@cache
def manifest() -> dict[str, Any]:
    with MANIFEST.open() as fh:
        return json.load(fh)


def specs(group: str) -> dict[str, dict[str, Any]]:
    """``end_to_end`` or ``per_layer`` metric specs by name."""
    return {m["name"]: m for m in manifest()[group]}


def workload_names() -> list[str]:
    return [w["name"] for w in manifest()["workloads"]]


def with_units(group: str, values: dict[str, float]) -> dict[str, dict[str, Any]]:
    """``{name: {"value", "unit"}}`` in manifest order; a value the
    manifest does not declare is a bug in the benchmark."""
    declared = specs(group)
    unknown = sorted(set(values) - set(declared))
    if unknown:
        raise KeyError(f"{group} metrics not declared in BENCHMARK.json: {unknown}")
    return {
        name: {"value": values[name], "unit": spec["unit"]}
        for name, spec in declared.items()
        if name in values
    }


def validate_result(result: dict[str, Any]) -> list[str]:
    """Problems with one workload's result document (empty when valid)."""
    problems = []
    if result.get("schema") != RESULT_SCHEMA:
        problems.append(f"schema is {result.get('schema')!r}, want {RESULT_SCHEMA!r}")
    if result.get("workload") not in workload_names():
        problems.append(f"unknown workload {result.get('workload')!r}")
    for group, required in (("end_to_end", True), ("per_layer", False)):
        declared = specs(group)
        got = result.get(group) or {}
        if required and set(got) != set(declared):
            problems.append(
                f"{group} has {sorted(got)}, manifest declares {sorted(declared)}"
            )
        for name, entry in got.items():
            if name not in declared:
                problems.append(f"{group} metric {name!r} is not in the manifest")
            elif entry.get("unit") != declared[name]["unit"]:
                problems.append(
                    f"{name}: unit {entry.get('unit')!r}, manifest says "
                    f"{declared[name]['unit']!r}"
                )
            elif not isinstance(entry.get("value"), (int, float)):
                problems.append(f"{name}: value {entry.get('value')!r} is not a number")
    for key in ("attempted", "failed"):
        if not isinstance(result.get(key), int):
            problems.append(f"{key} is not a whole number")
    if not isinstance(result.get("correct"), bool):
        problems.append("correct is not a boolean")
    return problems
