"""Cross-rank critical-path extraction and blame attribution."""

import pytest

from repro.obs.critpath import (
    analyze_dir,
    analyze_record,
    analyze_session,
    _walk,
    blame_group,
    lane_model,
    lane_rank,
    render_compact,
    render_result,
    results_to_json,
)
from tests.obs.records import record_of
from tests.obs.reference_critpath import path_rows


def ev(lane, start, end, category, label=""):
    return (lane, start, end - start, category, label)


class TestBlameGroups:
    @pytest.mark.parametrize("category,label,group", [
        ("compute", "visc_matvec", "compute"),
        ("mpi_pack", "halo_pack_vr", "halo"),
        ("mpi_transfer", "msg_0", "halo"),
        ("launch", "launch(halo_pack_vr)", "halo"),
        ("mpi_wait", "halo_barrier", "halo"),
        ("mpi_wait", "allreduce", "collectives"),
        ("mpi_transfer", "allreduce_many", "collectives"),
        ("launch", "launch(update_vr)", "launch"),
        ("h2d", "h2d(buf)", "memory"),
        ("um_fault", "fault_in(rho)", "memory"),
        ("mpi_wait", "barrier", "mpi_other"),
        ("idle", "", "idle"),
        ("host", "setup", "host"),
    ])
    def test_mapping(self, category, label, group):
        assert blame_group(category, label) == group


class TestLaneParsing:
    def test_model_and_rank(self):
        assert lane_model("m0.rank1") == "m0"
        assert lane_model("m2.rank0:comm") == "m2"
        assert lane_model("gpu0") == ""
        assert lane_rank("m0.rank1") == 1
        assert lane_rank("m0.rank3:comm") == 3
        assert lane_rank("gpu0") == -1


class TestExtraction:
    def test_straggler_blamed_for_peer_wait(self):
        """rank0 waits on rank1's longer compute: the path is rank1's."""
        events = [
            ev("m0.rank0", 0.0, 1.0, "compute", "fast"),
            ev("m0.rank0", 1.0, 2.0, "mpi_wait", "allreduce"),
            ev("m0.rank1", 0.0, 2.0, "compute", "slow"),
        ]
        segments = path_rows(_walk(record_of(events)))
        assert [s.lane for s in segments] == ["m0.rank1"]
        assert segments[0].label == "slow"
        assert sum(s.duration for s in segments) == pytest.approx(2.0)

    def test_wait_with_no_blocker_stays_on_path(self):
        """Every rank blocked at once: the wait is genuine wire cost."""
        events = [
            ev("m0.rank0", 0.0, 1.0, "compute", "k"),
            ev("m0.rank0", 1.0, 2.0, "mpi_wait", "halo_barrier"),
            ev("m0.rank1", 0.0, 1.0, "compute", "k"),
            ev("m0.rank1", 1.0, 2.0, "mpi_wait", "halo_barrier"),
        ]
        segments = path_rows(_walk(record_of(events)))
        assert any(s.category == "mpi_wait" for s in segments)
        assert sum(s.duration for s in segments) == pytest.approx(2.0)

    def test_comm_lane_blocks_residual_wait(self):
        """halo_wait_residual jumps to the same rank's :comm lane."""
        events = [
            ev("m0.rank0", 0.0, 1.0, "compute", "interior"),
            ev("m0.rank0", 1.0, 1.5, "mpi_wait", "halo_wait_residual"),
            ev("m0.rank0", 1.5, 2.0, "compute", "tail"),
            ev("m0.rank0:comm", 0.2, 1.5, "mpi_transfer", "msg_0"),
        ]
        segments = path_rows(_walk(record_of(events)))
        comm = [s for s in segments if s.lane == "m0.rank0:comm"]
        assert comm and comm[0].label == "msg_0"
        assert not any(s.label == "halo_wait_residual" for s in segments)
        assert sum(s.duration for s in segments) == pytest.approx(2.0)

    def test_hole_attributed_as_idle(self):
        events = [
            ev("m0.rank0", 0.0, 1.0, "compute", "a"),
            ev("m0.rank0", 1.5, 2.0, "compute", "b"),
        ]
        segments = path_rows(_walk(record_of(events)))
        idle = [s for s in segments if s.category == "idle"]
        assert len(idle) == 1
        assert idle[0].start == pytest.approx(1.0)
        assert idle[0].end == pytest.approx(1.5)
        assert sum(s.duration for s in segments) == pytest.approx(2.0)

    def test_path_tiles_wall_exactly(self):
        events = [
            ev("m0.rank0", 0.0, 0.4, "compute", "a"),
            ev("m0.rank0", 0.4, 0.6, "mpi_wait", "allreduce"),
            ev("m0.rank0", 0.6, 1.0, "compute", "c"),
            ev("m0.rank1", 0.0, 0.6, "compute", "b"),
            ev("m0.rank1", 0.6, 1.0, "mpi_wait", "allreduce"),
        ]
        segments = path_rows(_walk(record_of(events)))
        assert sum(s.duration for s in segments) == pytest.approx(1.0)
        # time-ordered and non-overlapping
        for a, b in zip(segments, segments[1:]):
            assert a.end == pytest.approx(b.start)

    def test_empty_events(self):
        assert path_rows(_walk(record_of())) == []


class TestAnalyzeEvents:
    def test_multi_model_grouping(self):
        events = [
            ev("m0.rank0", 0.0, 1.0, "compute", "k0"),
            ev("m1.rank0", 0.0, 2.0, "compute", "k1"),
        ]
        results = analyze_record(record_of(events))
        assert set(results) == {"m0", "m1"}
        assert results["m0"].wall == pytest.approx(1.0)
        assert results["m1"].wall == pytest.approx(2.0)
        assert results["m0"].coverage == pytest.approx(1.0)

    def test_busy_idle_and_imbalance(self):
        events = [
            ev("m0.rank0", 0.0, 2.0, "compute", "slow"),
            ev("m0.rank1", 0.0, 1.0, "compute", "fast"),
            ev("m0.rank1", 1.0, 2.0, "mpi_wait", "allreduce"),
            ev("m0.rank1:comm", 0.0, 0.5, "mpi_transfer", "msg_0"),
        ]
        (r,) = analyze_record(record_of(events)).values()
        assert r.num_ranks == 2
        assert r.busy_by_rank == {0: 2.0, 1: 1.0}
        assert r.idle_by_rank == {1: 1.0}
        # comm lanes are excluded from busy/idle accounting
        assert r.load_imbalance_ratio == pytest.approx(2.0 / 1.5)

    def test_phase_attribution_from_spans(self):
        events = [
            ev("m0.rank0", 0.0, 1.0, "compute", "hydro_k"),
            ev("m0.rank0", 1.0, 1.4, "mpi_wait", "allreduce"),
            ev("m0.rank1", 0.0, 1.4, "compute", "hydro_k"),
        ]
        spans = [
            {"span_id": 1, "parent_id": None, "name": "step", "start": 0.0,
             "end": 1.4, "depth": 0, "attrs": {"model": "m0"}},
            {"span_id": 2, "parent_id": 1, "name": "step/hydro", "start": 0.0,
             "end": 1.0, "depth": 1, "attrs": {}},
            {"span_id": 3, "parent_id": 1, "name": "step/cfl", "start": 1.0,
             "end": 1.4, "depth": 1, "attrs": {}},
        ]
        (r,) = analyze_record(record_of(events), spans=spans).values()
        assert r.path_by_phase["step/hydro"] == pytest.approx(1.0)
        assert r.path_by_phase["step/cfl"] == pytest.approx(0.4)
        assert r.idle_by_phase == {"step/cfl": pytest.approx(0.4)}

    def test_unprefixed_lanes_dropped(self):
        assert analyze_record(record_of([ev("gpu0", 0.0, 1.0, "compute", "k")])) == {}


class TestSessionAndDir:
    def _run(self, out_dir=None, ranks=2):
        from repro.codes import CodeVersion, runtime_config_for
        from repro.mas.model import MasModel, ModelConfig
        from repro.obs.telemetry import session

        with session(out_dir) if out_dir else _mem_session() as tel:
            model = MasModel(
                ModelConfig(shape=(8, 6, 8), num_ranks=ranks, pcg_iters=2,
                            sts_stages=2, halo_overlap=True),
                runtime_config_for(CodeVersion.A),
            )
            model.step()
        return tel

    def test_live_session_coverage(self):
        tel = self._run()
        (r,) = analyze_session(tel).values()
        assert r.num_ranks == 2
        assert r.coverage == pytest.approx(1.0, abs=1e-6)
        assert r.path_total > 0
        assert "compute" in r.by_blame

    def test_dir_roundtrip_matches_live(self, tmp_path):
        d = tmp_path / "tel"
        tel = self._run(out_dir=d)
        (live,) = analyze_session(tel).values()
        (loaded,) = analyze_dir(d).values()
        # the record keeps float64 seconds: the directory IS the session
        assert loaded.to_json() == live.to_json()
        assert path_rows(loaded.path) == path_rows(live.path)
        assert loaded.coverage == pytest.approx(1.0, abs=1e-9)

    def test_analyze_dir_missing_trace_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            analyze_dir(tmp_path)

    def test_rendering_and_json(self):
        tel = self._run()
        results = analyze_session(tel)
        (r,) = results.values()
        text = render_result(r)
        assert "critical path [m0]" in text
        assert "Blame groups on the path" in text
        assert "Per-phase path and idle time" in text
        compact = render_compact(results)
        assert "m0" in compact and "coverage" in compact
        doc = results_to_json(results)
        assert doc["schema"] == "repro-critpath/1"
        assert doc["models"]["m0"]["coverage"] == pytest.approx(1.0, abs=1e-6)


def _mem_session():
    """An in-memory telemetry session (no output directory)."""
    from contextlib import contextmanager

    from repro.obs.telemetry import Telemetry, activate, deactivate

    @contextmanager
    def cm():
        tel = Telemetry(None)
        activate(tel)
        try:
            yield tel
        finally:
            deactivate(tel)

    return cm()
