"""Metrics snapshot rotation: long streamed runs keep counter states on disk."""

import json

from repro.obs.telemetry import (
    METRICS_JSON_FILE,
    METRICS_SNAPSHOT_KEEP,
    Telemetry,
    session,
)


def _value(path, name):
    return json.loads(path.read_text())[name]["samples"][0]["value"]


class TestSnapshotMetrics:
    def test_writes_metrics_json(self, tmp_path):
        tel = Telemetry(tmp_path)
        tel.metrics.counter("c", "h").inc(3)
        out = tel.snapshot_metrics()
        assert out == tmp_path / METRICS_JSON_FILE
        assert _value(out, "c") == 3

    def test_no_out_dir_is_noop(self):
        tel = Telemetry(None)
        assert tel.snapshot_metrics() is None

    def test_rotation_shifts_snapshots(self, tmp_path):
        tel = Telemetry(tmp_path)
        c = tel.metrics.counter("c", "h")
        for k in range(1, 4):
            c.inc()
            tel.snapshot_metrics()
        # newest first: live=3, .1=2, .2=1
        assert _value(tmp_path / METRICS_JSON_FILE, "c") == 3
        assert _value(tmp_path / f"{METRICS_JSON_FILE}.1", "c") == 2
        assert _value(tmp_path / f"{METRICS_JSON_FILE}.2", "c") == 1

    def test_oldest_snapshot_falls_off(self, tmp_path):
        tel = Telemetry(tmp_path)
        c = tel.metrics.counter("c", "h")
        for _ in range(METRICS_SNAPSHOT_KEEP + 3):
            c.inc()
            tel.snapshot_metrics()
        rotated = sorted(p.name for p in tmp_path.glob(f"{METRICS_JSON_FILE}.*"))
        assert len(rotated) == METRICS_SNAPSHOT_KEEP
        assert not (tmp_path / f"{METRICS_JSON_FILE}.{METRICS_SNAPSHOT_KEEP + 1}").exists()

    def test_finalize_overwrites_live_snapshot_only(self, tmp_path):
        tel = Telemetry(tmp_path)
        c = tel.metrics.counter("c", "h")
        c.inc()
        tel.snapshot_metrics()
        c.inc(10)
        tel.finalize()
        assert _value(tmp_path / METRICS_JSON_FILE, "c") == 11
        assert not (tmp_path / f"{METRICS_JSON_FILE}.1").exists()


class TestMaybeSnapshot:
    def test_disabled_by_default(self, tmp_path):
        tel = Telemetry(tmp_path)
        for _ in range(10):
            assert tel.maybe_snapshot_metrics() is None
        assert not (tmp_path / METRICS_JSON_FILE).exists()

    def test_snapshots_every_n_steps(self, tmp_path):
        tel = Telemetry(tmp_path, snapshot_every_n=3)
        writes = [tel.maybe_snapshot_metrics() for _ in range(7)]
        assert [w is not None for w in writes] == [
            False, False, True, False, False, True, False
        ]
        assert tel.snapshots_taken == 2


class TestSessionIntegration:
    def test_session_passes_cadence(self, tmp_path):
        with session(tmp_path, snapshot_every_n=2) as tel:
            assert tel.snapshot_every_n == 2

    def test_model_steps_rotate_snapshots(self, tmp_path):
        """A streamed run rotates metrics.json as steps complete."""
        from repro.codes import CodeVersion, runtime_config_for
        from repro.mas.model import MasModel, ModelConfig

        with session(tmp_path, snapshot_every_n=2):
            model = MasModel(
                ModelConfig(shape=(6, 5, 8), num_ranks=1, pcg_iters=2,
                            sts_stages=2),
                runtime_config_for(CodeVersion.A),
            )
            model.run(5)
        # 5 steps at cadence 2 -> snapshots after steps 2 and 4, rotated
        # once; finalize rewrote the live file with the final state.
        assert _value(tmp_path / METRICS_JSON_FILE, "steps_total") == 5
        assert _value(tmp_path / f"{METRICS_JSON_FILE}.1", "steps_total") == 2
