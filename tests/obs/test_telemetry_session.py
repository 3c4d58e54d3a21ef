"""Integration: a tiny model run under a telemetry session.

Covers the acceptance path end to end: all six artifacts exist, the
Chrome trace exported from the event record is valid JSON with coherent
timestamps, span nesting is consistent, and metrics/log contents reflect
the run.
"""

import json

import pytest

from repro.codes import CodeVersion, runtime_config_for
from repro.mas.model import MasModel, ModelConfig
from repro.obs import telemetry as tel_mod
from tests.obs.prom_reader import parse_prometheus_text
from repro.obs.events import EventRecord
from repro.obs.telemetry import (
    EVENTS_FILE,
    LOG_FILE,
    MANIFEST_FILE,
    METRICS_JSON_FILE,
    METRICS_PROM_FILE,
    NULL,
    SPANS_FILE,
    Telemetry,
    activate,
    current,
    deactivate,
    session,
)
from tests.obs.records import exported_trace


def _tiny_model():
    return MasModel(
        ModelConfig(shape=(8, 6, 8), num_ranks=2, pcg_iters=2,
                    sts_stages=2, extra_model_arrays=0),
        runtime_config_for(CodeVersion.A),
    )


@pytest.fixture
def run_dir(tmp_path):
    out = tmp_path / "tel"
    with session(out, command="test") as tel:
        model = _tiny_model()
        model.run(2)
    return out, tel, model


class TestActivation:
    def test_default_is_null(self):
        assert current() is NULL
        assert not current().enabled

    def test_null_offers_a_span_and_the_clock_binding_only(self):
        """Everything else sits behind ``tel.enabled``: an unguarded
        ``tel.metrics`` or ``tel.logger`` is an AttributeError."""
        assert [n for n in dir(NULL) if not n.startswith("_")] == [
            "attach_comm_clock", "bind_model", "detach_comm_clock", "enabled", "tracer"]

    def test_activate_deactivate(self):
        tel = Telemetry()
        activate(tel)
        try:
            assert current() is tel
        finally:
            deactivate(tel)
        assert current() is NULL

    def test_deactivate_unknown_raises(self):
        with pytest.raises(ValueError):
            deactivate(Telemetry())

    def test_session_none_yields_null(self):
        with session(None) as tel:
            assert tel is NULL
        # nothing left active
        assert current() is NULL

    def test_session_empty_string_yields_null(self, tmp_path, monkeypatch):
        # an empty --telemetry value must not write artifacts into the CWD
        monkeypatch.chdir(tmp_path)
        with session("") as tel:
            assert tel is NULL
        assert list(tmp_path.iterdir()) == []

    def test_nested_sessions_stack(self, tmp_path):
        with session(tmp_path / "outer") as outer:
            with session(tmp_path / "inner") as inner:
                assert current() is inner
            assert current() is outer

    def test_session_deactivates_on_exception(self, tmp_path):
        with pytest.raises(RuntimeError):
            with session(tmp_path / "t"):
                raise RuntimeError("boom")
        assert current() is NULL


class TestArtifacts:
    EXPECTED = (
        MANIFEST_FILE, LOG_FILE, SPANS_FILE,
        METRICS_PROM_FILE, METRICS_JSON_FILE, EVENTS_FILE,
    )

    def test_all_files_written(self, run_dir):
        out, _, _ = run_dir
        for name in self.EXPECTED:
            assert (out / name).exists(), name

    def test_manifest_provenance(self, run_dir):
        out, _, _ = run_dir
        m = json.loads((out / MANIFEST_FILE).read_text())
        assert m["schema"] == "repro-telemetry-manifest/1"
        assert m["command"] == "test"
        assert len(m["models"]) == 1
        model_entry = m["models"][0]
        assert model_entry["version"] == "code1_A"
        assert model_entry["shape"] == [8, 6, 8]
        assert model_entry["num_ranks"] == 2

    def test_step_log_records(self, run_dir):
        out, _, _ = run_dir
        records = [
            json.loads(line)
            for line in (out / LOG_FILE).read_text().splitlines()
        ]
        steps = [r for r in records if r["event"] == "step"]
        assert len(steps) == 2
        for rec in steps:
            assert rec["dt"] > 0
            assert rec["wall"] > 0
            assert rec["mpi"] > 0
            assert rec["launches"] > 0
            assert "compute" in rec["categories"]
        solves = [r for r in records if r["event"] == "pcg_solve"]
        assert len(solves) == 2 * 3  # 2 steps x 3 velocity components

    def test_metrics_snapshot(self, run_dir):
        out, _, _ = run_dir
        parsed = parse_prometheus_text((out / METRICS_PROM_FILE).read_text())
        launches = sum(
            v for (name, labels), v in parsed.items()
            if name == "kernel_launches_total"
        )
        assert launches > 0
        assert parsed[("steps_total", ())] == 2
        assert parsed[("pcg_solves_total", ())] == 6
        assert parsed[("step_seconds_count", ())] == 2
        snap = json.loads((out / METRICS_JSON_FILE).read_text())
        assert snap["steps_total"]["samples"][0]["value"] == 2

    def test_spans_jsonl_schema(self, run_dir):
        out, _, _ = run_dir
        spans = [
            json.loads(line)
            for line in (out / SPANS_FILE).read_text().splitlines()
        ]
        assert spans, "expected spans from an instrumented run"
        by_id = {s["span_id"]: s for s in spans}
        names = {s["name"] for s in spans}
        assert "step" in names
        assert "step/viscosity/pcg" in names
        assert "halo_exchange" in names
        for s in spans:
            assert s["end"] is not None and s["end"] >= s["start"] >= 0.0
            if s["parent_id"] is not None:
                parent = by_id[s["parent_id"]]
                assert parent["start"] <= s["start"]
                assert s["end"] <= parent["end"] + 1e-12
                assert s["depth"] == parent["depth"] + 1
            else:
                assert s["depth"] == 0

    def test_pcg_spans_nest_under_viscosity(self, run_dir):
        _, tel, _ = run_dir
        pcgs = [s for s in tel.tracer.spans if s.name == "step/viscosity/pcg"]
        assert pcgs
        for pcg in pcgs:
            parent = next(
                s for s in tel.tracer.spans if s.span_id == pcg.parent_id
            )
            assert parent.name == "step/viscosity"


class TestChromeTraceMerge:
    def test_valid_json_and_pids(self, run_dir):
        out, _, _ = run_dir
        trace = json.loads(json.dumps(exported_trace(out)))
        events = trace["traceEvents"]
        assert trace["displayTimeUnit"] == "ms"
        xs = [e for e in events if e["ph"] == "X"]
        span_events = [e for e in xs if e["pid"] == 0]
        prof_events = [e for e in xs if e["pid"] == 1]
        assert span_events and prof_events
        process_names = {
            e["pid"]: e["args"]["name"]
            for e in events
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert process_names == {0: "spans", 1: "profiler"}

    def test_timestamps_non_negative_and_bounded(self, run_dir):
        out, tel, _ = run_dir
        trace = exported_trace(out)
        xs = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert all(e["ts"] >= 0 and e["dur"] >= 0 for e in xs)
        # Profiler events and spans share the simulated-seconds timebase:
        # every profiler event falls inside the overall traced window.
        span_end = max(e["ts"] + e["dur"] for e in xs if e["pid"] == 0)
        prof_end = max(e["ts"] + e["dur"] for e in xs if e["pid"] == 1)
        assert prof_end <= span_end * 1.01 + 1.0

    def test_profiler_lanes_per_rank(self, run_dir):
        out, _, model = run_dir
        trace = exported_trace(out)
        lanes = {
            e["args"]["name"]
            for e in trace["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name" and e["pid"] == 1
        }
        for r in range(model.config.num_ranks):
            assert f"m0.rank{r}" in lanes


class TestMultiModel:
    def test_two_models_two_lane_prefixes(self, tmp_path):
        with session(tmp_path / "t") as tel:
            _tiny_model().step()
            _tiny_model().step()
        manifest = tel.build_manifest()
        assert [m["index"] for m in manifest["models"]] == [0, 1]
        lane_names = set(tel.profiler.columns[0])
        assert any(l.startswith("m0.") for l in lane_names)
        assert any(l.startswith("m1.") for l in lane_names)


class TestFinalizeEdgeCases:
    def test_finalize_without_dir_is_noop(self):
        tel = Telemetry()
        assert tel.finalize() == {}

    def test_empty_session_writes_valid_artifacts(self, tmp_path):
        out = tmp_path / "empty"
        with session(out):
            pass
        assert len(EventRecord.load(out / EVENTS_FILE)) == 0
        assert not (out / "trace.json").exists()  # an export, not an artifact
        assert (out / LOG_FILE).read_text() == ""
        assert json.loads((out / METRICS_JSON_FILE).read_text()) == {}

    def test_disabled_run_leaves_no_trace(self):
        # No session active: the same model run must not accumulate state.
        assert current() is NULL
        model = _tiny_model()
        model.step()
        assert current() is NULL
        assert tel_mod._ACTIVE == []
