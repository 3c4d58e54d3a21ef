"""Chrome Trace Format export."""

import json

import pytest

from repro.obs.events import Profiler
from repro.perf.trace_export import to_chrome_trace, write_chrome_trace
from repro.runtime.clock import SimClock, TimeCategory


@pytest.fixture
def profiler():
    p = Profiler()
    c0, c1 = SimClock(), SimClock()
    p.attach(c0, "gpu0")
    p.attach(c1, "gpu1")
    c0.advance(1e-3, TimeCategory.COMPUTE, "visc_matvec")
    c0.advance(5e-4, TimeCategory.MPI_TRANSFER, "msg_2")
    c1.advance(2e-3, TimeCategory.UM_FAULT, "fault_in(buf)")
    return p


class TestTraceStructure:
    def test_complete_events_emitted(self, profiler):
        trace = to_chrome_trace(profiler.record())
        xs = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert len(xs) == 3
        k = next(e for e in xs if e["name"] == "visc_matvec")
        assert k["ts"] == 0.0
        assert k["dur"] == pytest.approx(1000.0)  # microseconds
        assert k["cat"] == "kernel"

    def test_memory_events_on_separate_threads(self, profiler):
        trace = to_chrome_trace(profiler.record())
        names = {
            e["args"]["name"]: e["tid"]
            for e in trace["traceEvents"]
            if e["ph"] == "M"
        }
        assert "gpu0" in names and "gpu0:mem" in names
        assert names["gpu0"] != names["gpu0:mem"]
        assert "gpu1:mem" in names

    def test_empty_profiler_rejected(self):
        with pytest.raises(ValueError):
            to_chrome_trace(Profiler().record())

    def test_write_valid_json(self, profiler, tmp_path):
        path = write_chrome_trace(profiler.record(), tmp_path / "trace.json")
        data = json.loads(path.read_text())
        assert data["displayTimeUnit"] == "ms"
        assert any(e["ph"] == "X" for e in data["traceEvents"])


class TestSpanMerge:
    def test_spans_merge_as_separate_process(self, profiler):
        from repro.obs.tracing import Tracer

        tr = Tracer()
        with tr.span("step"):
            with tr.span("step/viscosity"):
                pass
        trace = to_chrome_trace(profiler.record(), spans=tr.spans)
        span_events = [
            e for e in trace["traceEvents"] if e["ph"] == "X" and e["pid"] == 0
        ]
        prof_events = [
            e for e in trace["traceEvents"] if e["ph"] == "X" and e["pid"] == 1
        ]
        assert [e["name"] for e in span_events] == ["step", "step/viscosity"]
        assert len(prof_events) == 3
        child = span_events[1]
        assert child["args"]["parent_id"] == span_events[0]["args"]["span_id"]
        names = {
            e["pid"]: e["args"]["name"]
            for e in trace["traceEvents"]
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert names == {0: "spans", 1: "profiler"}

    def test_spans_only_export(self):
        from repro.obs.tracing import Tracer

        tr = Tracer()
        with tr.span("solo", component="vr"):
            pass
        trace = to_chrome_trace(Profiler().record(), spans=tr.spans)
        xs = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert len(xs) == 1
        assert xs[0]["args"]["component"] == "vr"

    def test_empty_both_rejected(self):
        with pytest.raises(ValueError):
            to_chrome_trace(Profiler().record(), spans=())


class TestCommLanes:
    def test_comm_clock_events_get_own_process(self, profiler):
        from repro.perf.trace_export import COMM_PID, PROFILER_PID

        comm = SimClock()
        profiler.attach(comm, "gpu0:comm")
        comm.advance(1e-4, TimeCategory.MPI_PACK, "halo_pack")
        comm.advance(2e-3, TimeCategory.MPI_TRANSFER, "msg_0")
        trace = to_chrome_trace(profiler.record())

        xs = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        comm_names = {"halo_pack", "msg_0"}
        for e in xs:
            want = COMM_PID if e["name"] in comm_names else PROFILER_PID
            assert e["pid"] == want, e["name"]

        meta = [e for e in trace["traceEvents"] if e["ph"] == "M"]
        procs = {
            e["pid"]: e["args"]["name"]
            for e in meta if e["name"] == "process_name"
        }
        assert procs[COMM_PID] == "comm (overlapped)"
        threads = {
            (e["pid"], e["args"]["name"])
            for e in meta if e["name"] == "thread_name"
        }
        # the comm process keeps the same lane/:mem split as rank lanes
        assert (COMM_PID, "gpu0:comm") in threads
        assert (COMM_PID, "gpu0:comm:mem") in threads
        assert (PROFILER_PID, "gpu0") in threads

    def test_no_comm_process_without_comm_lanes(self, profiler):
        from repro.perf.trace_export import COMM_PID

        trace = to_chrome_trace(profiler.record())
        assert not any(
            e.get("pid") == COMM_PID for e in trace["traceEvents"]
        )


class TestModelTrace:
    def test_full_step_exports(self, tmp_path):
        from repro.codes import CodeVersion, runtime_config_for
        from repro.mas.model import MasModel, ModelConfig

        m = MasModel(
            ModelConfig(shape=(8, 6, 8), num_ranks=2, pcg_iters=2,
                        sts_stages=2, extra_model_arrays=0),
            runtime_config_for(CodeVersion.A),
        )
        p = Profiler()
        for r, rt in enumerate(m.ranks):
            p.attach(rt.clock, f"gpu{r}")
        m.step()
        trace = to_chrome_trace(p.record())
        xs = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert len(xs) > 100
        cats = {e["cat"] for e in xs}
        assert "kernel" in cats and "mpi" in cats
