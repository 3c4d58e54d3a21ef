"""Hierarchical regression explanation (``repro telemetry --explain``)."""

import json

import pytest

from repro.obs import telemetry as tmod
from repro.obs.explain import (
    Contribution,
    RunProfile,
    explain,
    explain_dirs,
    load_profile,
    render_explain,
)
from tests.obs.records import DAMAGE, SMALL_ROWS, write_record


def _write_dir(d, *, steps=(), spans=(), metrics=None, events=None):
    d.mkdir(parents=True, exist_ok=True)
    if steps:
        (d / tmod.LOG_FILE).write_text(
            "".join(json.dumps(r) + "\n" for r in steps)
        )
    if spans:
        (d / tmod.SPANS_FILE).write_text(
            "".join(json.dumps(s) + "\n" for s in spans)
        )
    if metrics is not None:
        (d / tmod.METRICS_JSON_FILE).write_text(json.dumps(metrics))
    if events is not None:
        write_record(d, events)
    return d


def _step(wall, categories):
    return {"event": "step", "wall": wall, "categories": categories}


class TestLoadProfile:
    def test_missing_dir_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_profile(tmp_path / "nope")

    def test_empty_dir_all_notes(self, tmp_path):
        prof = load_profile(_write_dir(tmp_path / "a"))
        assert prof.wall == 0.0
        notes = "\n".join(prof.notes)
        assert tmod.LOG_FILE in notes
        assert tmod.SPANS_FILE in notes
        assert tmod.METRICS_JSON_FILE in notes
        assert tmod.EVENTS_FILE in notes

    def test_steps_and_categories_accumulate(self, tmp_path):
        d = _write_dir(
            tmp_path / "a",
            steps=[
                _step(1.0, {"compute": 0.7, "mpi_wait": 0.3}),
                _step(2.0, {"compute": 1.5, "mpi_wait": 0.5}),
            ],
        )
        prof = load_profile(d, name="run-a")
        assert prof.name == "run-a"
        assert prof.wall == pytest.approx(3.0)
        assert prof.categories == {
            "compute": pytest.approx(2.2),
            "mpi_wait": pytest.approx(0.8),
        }

    def test_phases_from_depth1_step_spans_only(self, tmp_path):
        d = _write_dir(
            tmp_path / "a",
            steps=[_step(1.0, {})],
            spans=[
                {"name": "step", "depth": 0, "end": 1.0, "duration": 1.0},
                {"name": "step/hydro", "depth": 1, "end": 0.6, "duration": 0.6},
                {"name": "step/hydro", "depth": 1, "end": 1.0, "duration": 0.2},
                {"name": "setup/x", "depth": 1, "end": 0.1, "duration": 0.1},
                # open span (end=None) must not contribute
                {"name": "step/cfl", "depth": 1, "end": None, "duration": 0.0},
            ],
        )
        prof = load_profile(d)
        assert prof.phases == {"step/hydro": pytest.approx(0.8)}

    def test_kernels_from_metrics(self, tmp_path):
        metrics = {
            "kernel_seconds_total": {
                "samples": [
                    {"labels": {"kernel": "k0", "category": "compute"},
                     "value": 0.4},
                    {"labels": {"kernel": "k0", "category": "mpi_pack"},
                     "value": 0.1},
                    {"labels": {"kernel": "k1", "category": "compute"},
                     "value": 0.2},
                ]
            }
        }
        prof = load_profile(
            _write_dir(tmp_path / "a", steps=[_step(1.0, {})], metrics=metrics)
        )
        assert prof.kernels == {
            "k0": pytest.approx(0.5),
            "k1": pytest.approx(0.2),
        }

    def test_metrics_without_kernel_counters_noted(self, tmp_path):
        prof = load_profile(
            _write_dir(tmp_path / "a", steps=[_step(1.0, {})],
                       metrics={"other_metric": {"samples": []}})
        )
        assert not prof.kernels
        assert any("kernel_seconds_total" in n for n in prof.notes)

    def test_rank_busy_excludes_waits(self, tmp_path):
        events = [
            ("m0.rank0", 0.0, 1.0, "compute", "k"),
            ("m0.rank0", 1.0, 0.5, "mpi_wait", "w"),
        ]
        prof = load_profile(
            _write_dir(tmp_path / "a", steps=[_step(1.5, {})], events=events)
        )
        assert prof.ranks == {"m0.rank0": pytest.approx(1.0)}

    def test_rank_busy_sums_in_stream_order_per_lane(self, tmp_path):
        """One masked bincount: comm lanes stay their own lane, a lane with
        only waits is absent, and each sum is the loop's float."""
        events = [
            ("m0.rank0", 0.0, 0.1, "compute", "a"),
            ("m0.rank1", 0.0, 0.3, "mpi_wait", "w"),
            ("m0.rank0:comm", 0.0, 0.7, "mpi_transfer", "msg_0"),
            ("m0.rank0", 0.1, 0.2, "mpi_pack", "b"),
            ("m0.rank0", 0.3, 0.3, "compute", "c"),
        ]
        prof = load_profile(_write_dir(tmp_path / "a", events=events))
        assert prof.ranks == {"m0.rank0": 0.1 + 0.2 + 0.3, "m0.rank0:comm": 0.7}
        assert list(prof.ranks) == ["m0.rank0", "m0.rank0:comm"]

    @pytest.mark.parametrize("damage", sorted(DAMAGE))
    def test_damaged_event_record_is_a_note(self, tmp_path, damage):
        """Was: only JSONDecodeError/KeyError/TypeError were caught around
        the trace read, so e.g. a string ``ts`` raised out of --explain."""
        d = _write_dir(tmp_path / "a", steps=[_step(1.0, {})], events=SMALL_ROWS)
        DAMAGE[damage](d / tmod.EVENTS_FILE)
        prof = load_profile(d)
        assert prof.wall == pytest.approx(1.0)  # the other axes still load
        assert not prof.ranks
        (note,) = [n for n in prof.notes if tmod.EVENTS_FILE in n]
        assert note.startswith(f"unreadable {tmod.EVENTS_FILE} (")
        assert "\n" not in note


class TestExplainMath:
    def test_contribution_delta(self):
        c = Contribution("x", a=1.0, b=1.5)
        assert c.delta == pytest.approx(0.5)

    def _profiles(self):
        a = RunProfile(name="A", wall=2.0,
                       categories={"compute": 1.0, "mpi_wait": 0.8,
                                   "mpi_transfer": 0.2})
        b = RunProfile(name="B", wall=1.1,
                       categories={"compute": 1.0, "mpi_wait": 0.05,
                                   "mpi_transfer": 0.05})
        return a, b

    def test_mpi_share_of_delta(self):
        exp = explain(*self._profiles())
        assert exp.wall_delta == pytest.approx(-0.9)
        assert exp.mpi_delta == pytest.approx(-0.9)
        assert exp.mpi_share_of_delta == pytest.approx(1.0)

    def test_zero_wall_delta_share_is_zero(self):
        a = RunProfile(name="A", wall=1.0)
        b = RunProfile(name="B", wall=1.0)
        assert explain(a, b).mpi_share_of_delta == 0.0

    def test_contributions_sorted_by_abs_delta(self):
        exp = explain(*self._profiles())
        deltas = [abs(c.delta) for c in exp.categories]
        assert deltas == sorted(deltas, reverse=True)
        assert exp.categories[0].name == "mpi_wait"
        # unchanged-but-nonzero items are kept (compute: 1.0 -> 1.0)
        assert any(c.name == "compute" for c in exp.categories)

    def test_render_smoke(self):
        exp = explain(*self._profiles())
        text = render_explain(exp, a_name="sync", b_name="overlap")
        assert "wall-time delta" in text
        assert "mpi share of delta" in text
        assert "By clock category" in text
        assert "faster" in text


class TestExplainDirs:
    def test_real_run_pair(self, tmp_path):
        from repro.codes import CodeVersion, runtime_config_for
        from repro.mas.model import MasModel, ModelConfig
        from repro.obs.telemetry import session

        for name, overlap in (("sync", False), ("overlap", True)):
            with session(tmp_path / name):
                model = MasModel(
                    ModelConfig(shape=(8, 6, 8), num_ranks=2, pcg_iters=2,
                                sts_stages=2, halo_overlap=overlap),
                    runtime_config_for(CodeVersion.A),
                )
                model.step()
        exp = explain_dirs(tmp_path / "sync", tmp_path / "overlap")
        assert exp.a.wall > 0 and exp.b.wall > 0
        assert exp.wall_delta < 0  # overlap hides traffic
        assert exp.mpi_share_of_delta >= 0.9
        assert exp.kernels and exp.ranks and exp.phases
        assert "mpi share of delta" in render_explain(exp)
