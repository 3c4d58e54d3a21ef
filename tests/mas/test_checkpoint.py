"""Checkpoint / restart."""

import numpy as np
import pytest

from repro.codes import CodeVersion, runtime_config_for
from examples.checkpoint import (
    CheckpointError,
    load_checkpoint,
    read_info,
    save_checkpoint,
)
from repro.mas.model import MasModel, ModelConfig
from repro.mas.state import ALL_FIELDS
from repro.runtime.clock import TimeCategory


def make(num_ranks=1, shape=(8, 6, 8), version=CodeVersion.A, **kw):
    return MasModel(
        ModelConfig(shape=shape, num_ranks=num_ranks, pcg_iters=2,
                    sts_stages=2, extra_model_arrays=0, **kw),
        runtime_config_for(version),
    )


def make_ensemble(members=3, **kw):
    kw.setdefault("nominal_shape", (32, 24, 48))
    kw.setdefault("ensemble_vary",
                  (("b0", tuple(np.linspace(0.5, 2.0, members))),))
    return make(ensemble_size=members, **kw)


class TestRoundTrip:
    def test_bitwise_restore(self, tmp_path):
        m = make()
        m.run(3)
        path = tmp_path / "ckpt.npz"
        info = save_checkpoint(m, path)
        assert info.steps_taken == 3

        fresh = make()
        load_checkpoint(fresh, path)
        for name in ALL_FIELDS:
            assert np.array_equal(fresh.states[0].get(name), m.states[0].get(name))
        assert fresh.time == m.time
        assert fresh.steps_taken == 3

    def test_restarted_run_continues_identically(self, tmp_path):
        straight = make()
        straight.run(4)

        part1 = make()
        part1.run(2)
        path = tmp_path / "mid.npz"
        save_checkpoint(part1, path)
        part2 = make()
        load_checkpoint(part2, path)
        part2.run(2)

        for name in ALL_FIELDS:
            assert np.array_equal(
                straight.states[0].get(name), part2.states[0].get(name)
            ), name

    def test_multi_rank_roundtrip(self, tmp_path):
        m = make(num_ranks=4, shape=(8, 6, 16))
        m.run(2)
        path = tmp_path / "mr.npz"
        save_checkpoint(m, path)
        fresh = make(num_ranks=4, shape=(8, 6, 16))
        load_checkpoint(fresh, path)
        for r in range(4):
            assert np.array_equal(fresh.states[r].rho, m.states[r].rho)


class TestCostAccounting:
    def test_save_charges_d2h(self, tmp_path):
        m = make()
        before = m.ranks[0].clock.by_category.get(TimeCategory.D2H, 0.0)
        save_checkpoint(m, tmp_path / "c.npz")
        after = m.ranks[0].clock.by_category.get(TimeCategory.D2H, 0.0)
        assert after > before

    def test_load_charges_h2d(self, tmp_path):
        m = make()
        save_checkpoint(m, tmp_path / "c.npz")
        fresh = make()
        before = fresh.ranks[0].clock.by_category.get(TimeCategory.H2D, 0.0)
        load_checkpoint(fresh, tmp_path / "c.npz")
        after = fresh.ranks[0].clock.by_category.get(TimeCategory.H2D, 0.0)
        assert after > before

    def test_um_model_pays_nothing_extra(self, tmp_path):
        """Under UM the I/O path has no update directives (they were
        removed in Code 3); paging costs appear at the next kernel touch
        instead."""
        m = make(version=CodeVersion.ADU)
        m.run(1)
        t0 = m.ranks[0].clock.now
        save_checkpoint(m, tmp_path / "um.npz")
        assert m.ranks[0].clock.now == t0


class TestValidation:
    def test_shape_mismatch_refused(self, tmp_path):
        m = make()
        save_checkpoint(m, tmp_path / "c.npz")
        other = make(shape=(10, 6, 8))
        with pytest.raises(CheckpointError, match="grid"):
            load_checkpoint(other, tmp_path / "c.npz")

    def test_rank_mismatch_refused(self, tmp_path):
        m = make(num_ranks=2, shape=(8, 6, 16))
        save_checkpoint(m, tmp_path / "c.npz")
        other = make(num_ranks=1, shape=(8, 6, 16))
        with pytest.raises(CheckpointError, match="ranks"):
            load_checkpoint(other, tmp_path / "c.npz")

    def test_not_a_checkpoint(self, tmp_path):
        path = tmp_path / "junk.npz"
        np.savez(path, x=np.zeros(3))
        with pytest.raises(CheckpointError, match="not a repro checkpoint"):
            read_info(path)

    def test_info_readable_without_model(self, tmp_path):
        m = make()
        m.run(1)
        save_checkpoint(m, tmp_path / "c.npz")
        info = read_info(tmp_path / "c.npz")
        assert info.shape == (8, 6, 8)
        assert info.steps_taken == 1


class TestEnsembleRoundTrip:
    def test_batched_restore_is_bitwise(self, tmp_path):
        m = make_ensemble()
        m.run(2)
        path = tmp_path / "ens.npz"
        info = save_checkpoint(m, path)
        assert info.ensemble_size == 3
        assert info.dtype == "float64"
        assert isinstance(info.time, list) and len(info.time) == 3

        fresh = make_ensemble()
        load_checkpoint(fresh, path)
        for name in ALL_FIELDS:
            got = fresh.states[0].get(name)
            assert got.ndim == 4 and got.shape[0] == 3
            assert np.array_equal(got, m.states[0].get(name)), name
        assert np.array_equal(np.asarray(fresh.time), np.asarray(m.time))
        assert np.array_equal(np.asarray(fresh._last_dt),
                              np.asarray(m._last_dt))

    def test_batched_resume_continues_identically(self, tmp_path):
        straight = make_ensemble()
        straight.run(4)

        part1 = make_ensemble()
        part1.run(2)
        path = tmp_path / "mid.npz"
        save_checkpoint(part1, path)
        part2 = make_ensemble()
        load_checkpoint(part2, path)
        part2.run(2)

        for name in ALL_FIELDS:
            assert np.array_equal(
                straight.states[0].get(name), part2.states[0].get(name)
            ), name
        assert np.array_equal(np.asarray(straight.time),
                              np.asarray(part2.time))

    def test_member_count_mismatch_refused(self, tmp_path):
        m = make_ensemble(members=3)
        save_checkpoint(m, tmp_path / "c.npz")
        other = make_ensemble(members=2)
        with pytest.raises(CheckpointError, match="member"):
            load_checkpoint(other, tmp_path / "c.npz")

    def test_scalar_checkpoint_refused_by_ensemble_model(self, tmp_path):
        m = make()
        save_checkpoint(m, tmp_path / "c.npz")
        other = make_ensemble()
        with pytest.raises(CheckpointError, match="member"):
            load_checkpoint(other, tmp_path / "c.npz")

    def test_stagger_metadata_saved_and_checked(self, tmp_path):
        from repro.mas.state import stagger_axis

        m = make_ensemble()
        path = tmp_path / "c.npz"
        save_checkpoint(m, path)
        info = read_info(path)
        assert info.stagger == {n: stagger_axis(n) for n in ALL_FIELDS}

        # corrupt the stagger map: the restore must refuse it
        import json

        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files}
        meta = json.loads(bytes(arrays["_meta"]).decode())
        meta["stagger"]["br"] = 2
        arrays["_meta"] = np.frombuffer(
            json.dumps(meta).encode(), dtype=np.uint8
        )
        np.savez_compressed(path, **arrays)
        with pytest.raises(CheckpointError, match="stagger"):
            load_checkpoint(make_ensemble(), path)

    def test_dtype_mismatch_refused(self, tmp_path):
        m = make_ensemble()
        path = tmp_path / "c.npz"
        save_checkpoint(m, path)
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files}
        arrays["rank0_rho"] = arrays["rank0_rho"].astype(np.float32)
        np.savez_compressed(path, **arrays)
        with pytest.raises(CheckpointError, match="dtype"):
            load_checkpoint(make_ensemble(), path)


class TestTimestepControllerState:
    def test_dt_limiter_state_restored(self, tmp_path):
        """The dt growth limiter's memory must survive a restart: with a
        tight growth limit, a restarted run's next dt must equal the
        uninterrupted run's."""
        def tight():
            return MasModel(
                ModelConfig(shape=(8, 6, 8), pcg_iters=2, sts_stages=2,
                            extra_model_arrays=0, dt_growth_limit=1.01),
                runtime_config_for(CodeVersion.A),
            )

        straight = tight()
        dts = [straight.step().dt for _ in range(4)]

        part1 = tight()
        part1.step()
        part1.step()
        path = tmp_path / "dt.npz"
        info = save_checkpoint(part1, path)
        assert info.last_dt == pytest.approx(dts[1])
        part2 = tight()
        load_checkpoint(part2, path)
        assert part2.step().dt == pytest.approx(dts[2])
        assert part2.step().dt == pytest.approx(dts[3])
