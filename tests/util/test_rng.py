"""Seeded RNG plumbing."""

import numpy as np
import pytest

from repro.util.rng import make_rng, spawn_rngs


class TestMakeRng:
    def test_deterministic(self):
        a = make_rng("codebase").random(8)
        b = make_rng("codebase").random(8)
        assert np.array_equal(a, b)

    def test_name_separates_streams(self):
        a = make_rng("a").random(8)
        b = make_rng("b").random(8)
        assert not np.array_equal(a, b)

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            make_rng("")


class TestSpawnRngs:
    def test_count(self):
        assert len(spawn_rngs("ranks", 4)) == 4

    def test_children_independent(self):
        a, b = spawn_rngs("ranks", 2)
        assert not np.array_equal(a.random(8), b.random(8))

    def test_deterministic_across_calls(self):
        a1 = spawn_rngs("ranks", 3)[2].random(4)
        a2 = spawn_rngs("ranks", 3)[2].random(4)
        assert np.array_equal(a1, a2)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            spawn_rngs("x", -1)


class TestMemberRng:
    """What a per-member (or per-rank) stream needs of ``spawn_rngs``:
    child ``b`` is the same stream whatever the number of children."""

    def test_deterministic(self):
        a = spawn_rngs("ens", 4)[3].random(8)
        b = spawn_rngs("ens", 4)[3].random(8)
        assert np.array_equal(a, b)

    def test_members_independent(self):
        members = [g.random(8) for g in spawn_rngs("ens", 4)]
        for b in range(1, 4):
            assert not np.array_equal(members[0], members[b]), b

    def test_matches_spawned_child(self):
        # the documented derivation: SeedSequence([seed, crc32(name)]).spawn(n)[b]
        import zlib

        from repro.util.rng import ROOT_SEED

        seq = np.random.SeedSequence([ROOT_SEED, zlib.crc32(b"ens")])
        a = np.random.default_rng(seq.spawn(4)[2]).random(8)
        assert np.array_equal(a, spawn_rngs("ens", 4)[2].random(8))

    def test_member_count_stability(self):
        # widening an ensemble never perturbs existing members
        small = [g.random(4) for g in spawn_rngs("ens", 4)]
        wide = [g.random(4) for g in spawn_rngs("ens", 8)]
        for b in range(4):
            assert np.array_equal(small[b], wide[b]), b

    def test_name_separates_streams(self):
        a = spawn_rngs("perturbation", 1)[0].random(8)
        b = spawn_rngs("jitter", 1)[0].random(8)
        assert not np.array_equal(a, b)

    def test_validation(self):
        assert spawn_rngs("ens", 0) == []
        with pytest.raises(ValueError):
            spawn_rngs("ens", -1)
