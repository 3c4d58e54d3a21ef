"""BENCHMARK.json keeps to the driver's contract and results keep to it."""

import json
import re

from bench import harness, report, schema, workloads

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


def test_manifest_keeps_the_contract():
    m = schema.manifest()
    assert set(m) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert m["paths"] == ["bench"] and m["command"][0] == "python3"
    assert isinstance(m["run_seconds"], int) and 1 <= m["run_seconds"] <= 60
    assert 2 <= len(m["workloads"]) <= 8
    assert 1 <= len(m["end_to_end"]) <= 16 and 1 <= len(m["per_layer"]) <= 128
    names = [e["name"] for g in ("workloads", "end_to_end", "per_layer") for e in m[g]]
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    for w in m["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    for e in m["end_to_end"]:
        assert set(e) == {"name", "unit", "better", "bound"}
        assert 0 < e["bound"] <= 0.25
    for e in m["per_layer"]:
        assert set(e) == {"name", "unit", "better"}
    for e in m["end_to_end"] + m["per_layer"]:
        assert UNIT.match(e["unit"]) and e["better"] in ("lower", "higher")
    setup = schema.specs("end_to_end")["setup_s"]
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(e["bound"] for e in m["end_to_end"])


def test_manifest_workloads_are_the_registered_ones():
    registered = workloads.all_workloads()
    assert schema.workload_names() == list(registered)
    for entry in schema.manifest()["workloads"]:
        assert entry["why"] == registered[entry["name"]].why


def test_result_validates_and_driver_lines_carry_every_declared_metric():
    w = workloads.all_workloads()["step_dispatch"]
    result = harness.run_workload(w, seed=3, seconds=1.0, trace=True)
    assert schema.validate_result(result) == []
    assert result["correct"] and result["failed"] == 0
    assert result["ops_per_round"] == 1  # --seconds scales the steps
    for group in ("end_to_end", "per_layer"):
        line = json.loads(report.driver_line(result, group, schema.specs(group)))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert list(line["metrics"]) == list(schema.specs(group))
        assert all(set(e) == {"value", "unit"} for e in line["metrics"].values())
    assert all(e["value"] > 0 for e in result["end_to_end"].values())
    # a layer the workload never enters is absent from the result, zero on the line
    assert "obs.session.self_s" not in result["per_layer"]
    broken = {**result, "end_to_end": {}}
    assert schema.validate_result(broken)
