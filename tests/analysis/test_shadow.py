"""Runtime shadow checker: RT3xx rules plus the disabled-overhead bound."""

import time

import numpy as np
import pytest

from repro.analysis import shadow
from repro.analysis.dependence import base_name
from repro.analysis.shadow import ShadowChecker, shadow_smoke
from repro.runtime.data_env import DataEnvironment, DataMode
from repro.runtime.kernel import KernelSpec


def _env(mode=DataMode.CPU, **arrays) -> DataEnvironment:
    if mode is DataMode.CPU:
        env = DataEnvironment(mode)
    else:
        from repro.machine.interconnect import PCIE4_X16
        from repro.machine.memory import DeviceMemory
        from repro.util.units import GB

        env = DataEnvironment(
            mode, device_memory=DeviceMemory(40 * GB), host_link=PCIE4_X16
        )
    for name, data in arrays.items():
        env.register(name, 1024, data)
    return env


def _rules(checker):
    return [f.rule_id for f in checker.findings]


class TestResidency:
    def test_unknown_array_is_rt301(self):
        env = _env(a=np.zeros(4))
        c = ShadowChecker()
        c.on_launch(KernelSpec("k", reads=("ghost",)), env, async_launch=False)
        assert _rules(c) == ["RT301"]

    def test_manual_mode_not_resident_is_rt302(self):
        env = _env(mode=DataMode.MANUAL, a=np.zeros(4))
        c = ShadowChecker()
        c.on_launch(KernelSpec("k", writes=("a",)), env, async_launch=False)
        assert _rules(c) == ["RT302"]

    def test_resident_array_is_clean(self):
        env = _env(mode=DataMode.MANUAL, a=np.zeros(4))
        env.enter_data("a")
        c = ShadowChecker()
        c.on_launch(KernelSpec("k", writes=("a",)), env, async_launch=False)
        assert c.findings == []


class TestRaces:
    def _spec(self, name, queue, **kw):
        return KernelSpec(name, tags=frozenset({f"async:{queue}"}), **kw)

    def test_cross_queue_waw_is_rt310(self):
        env = _env(a=np.zeros(4))
        c = ShadowChecker()
        c.on_launch(self._spec("k1", 1, writes=("a",)), env, async_launch=True)
        c.on_launch(self._spec("k2", 2, writes=("a",)), env, async_launch=True)
        assert _rules(c) == ["RT310"]
        assert "WAW" in c.findings[0].message

    def test_same_queue_serializes(self):
        env = _env(a=np.zeros(4))
        c = ShadowChecker()
        c.on_launch(self._spec("k1", 1, writes=("a",)), env, async_launch=True)
        c.on_launch(self._spec("k2", 1, reads=("a",)), env, async_launch=True)
        assert c.findings == []

    def test_wait_retires_in_flight_kernels(self):
        env = _env(a=np.zeros(4))
        c = ShadowChecker()
        c.on_launch(self._spec("k1", 1, writes=("a",)), env, async_launch=True)
        c.sync()
        c.on_launch(self._spec("k2", 2, reads=("a",)), env, async_launch=True)
        assert c.findings == []

    def test_single_queue_sync_only_retires_that_queue(self):
        env = _env(a=np.zeros(4))
        c = ShadowChecker()
        c.on_launch(self._spec("k1", 1, writes=("a",)), env, async_launch=True)
        c.sync(queue=2)  # wrong queue: k1 stays in flight
        c.on_launch(self._spec("k2", 2, reads=("a",)), env, async_launch=True)
        assert _rules(c) == ["RT310"]

    def test_sync_launches_never_race(self):
        env = _env(a=np.zeros(4))
        c = ShadowChecker()
        c.on_launch(self._spec("k1", 1, writes=("a",)), env, async_launch=False)
        c.on_launch(self._spec("k2", 2, writes=("a",)), env, async_launch=False)
        assert c.findings == []


class TestFootprint:
    def test_undeclared_write_is_rt320(self):
        a, b = np.zeros(4), np.zeros(4)

        def body():
            b[:] = 7.0  # mutates an array the spec never declares

        env = _env(a=a, b=b)
        spec = KernelSpec("sneaky", reads=("a",), writes=("a",), body=body)
        c = ShadowChecker()
        c.run_body(spec, env)
        assert _rules(c) == ["RT320"]
        assert "'b'" in c.findings[0].message

    def test_declared_write_never_performed_is_rt321_at_report(self):
        env = _env(a=np.zeros(4))
        spec = KernelSpec("lazy", writes=("a",), body=lambda: None)
        c = ShadowChecker()
        c.run_body(spec, env)
        assert c.findings == []  # aggregated: nothing until report()
        report = c.report()
        assert [f.rule_id for f in report] == ["RT321"]

    def test_write_on_any_launch_clears_drift(self):
        a = np.zeros(4)
        state = {"n": 0}

        def body():
            state["n"] += 1
            if state["n"] == 2:  # idempotent first launch, real write later
                a[:] = 1.0

        env = _env(a=a)
        spec = KernelSpec("sometimes", writes=("a",), body=body)
        c = ShadowChecker()
        c.run_body(spec, env)
        c.run_body(spec, env)
        assert c.report() == []

    def test_untracked_declared_write_disables_attribution(self):
        """A spec writing a data=None array may alias tracked storage
        (the PCG iterate IS the velocity field); mutations must not be
        charged as RT320."""
        v = np.zeros(4)

        def body():
            v[:] = 3.0

        env = _env(v=v)
        env.register("work", 1024, None)
        spec = KernelSpec("matvec", writes=("work",), body=body)
        c = ShadowChecker()
        c.run_body(spec, env)
        assert c.findings == []


class TestModelSmoke:
    @pytest.mark.parametrize("version", ["A", "ADU"])
    def test_clean_model_has_nothing_above_note(self, version):
        findings = shadow_smoke(version, steps=2)
        from repro.analysis.findings import Severity

        bad = [f for f in findings if f.severity >= Severity.WARNING]
        assert bad == [], [f.render() for f in bad]

    #: What every version's smoke prints: declared writes no launch of its
    #: two steps changed (the floors, and velocity ghosts the unpacks
    #: refill with the values they hold).
    DRIFT = {("apply_floors", "rho"), ("apply_floors", "temp")} | {
        (f"halo_unpack_{v}_{axis}{side}", v)
        for v in ("vr", "vt", "vp") for axis in (0, 2) for side in "mp"
    }

    @pytest.mark.parametrize("version", ["A", "ADU", "D2XU"])
    def test_the_smoke_prints_exactly_the_known_drift_notes(self, version):
        findings = shadow_smoke(version, steps=2)
        assert {f.rule_id for f in findings} == {"RT321"}
        assert {(f.file, f.context) for f in findings} == self.DRIFT

    def test_every_unpack_launched_has_a_merged_write_observation(self, monkeypatch):
        """A sweep's payload moves in its first unpack's body, the others
        have none: each unpack kernel a rank launched must still have its
        declared write to a state field observed on some rank, which the
        smoke merges. (Solver iterates hold no data the checker could
        fingerprint.)"""
        launched, checkers = set(), []

        class Watching(ShadowChecker):
            def __init__(self):
                super().__init__()
                checkers.append(self)

            def on_launch(self, spec, env, **kw):
                if spec.name.startswith("halo_unpack_"):
                    launched.update((spec.name, base_name(w)) for w in spec.writes
                                    if env.array(base_name(w)).data is not None)
                super().on_launch(spec, env, **kw)

        monkeypatch.setattr(shadow, "ShadowChecker", Watching)
        shadow_smoke("A", steps=2)
        observed = {key for c in checkers for key in c._write_obs}
        assert len(checkers) == 2 and launched
        assert launched <= observed, sorted(launched - observed)

    def test_a_group_body_writes_for_every_rank_of_its_group(self):
        """The smoke's two ranks are one group: the first rank's body writes
        both ranks' rows, so the second rank's launches writing nothing of
        their own is not footprint drift."""
        grouped = {"continuity", "temp_advection", "update_vr", "update_vt", "update_vp",
                   "ct_update_br", "ct_update_bt", "ct_update_bp", "radiation_heating"}
        drift = {f.file for f in shadow_smoke("A", steps=2) if f.rule_id == "RT321"}
        assert not drift & grouped, sorted(drift & grouped)

    def test_misdeclared_spec_is_caught_end_to_end(self):
        """The gate the checker exists for: corrupt one KernelSpec's
        declared footprint and the shadow run must flag it."""
        from repro.codes import CodeVersion, runtime_config_for
        from repro.mas.model import MasModel, ModelConfig

        model = MasModel(
            ModelConfig(shape=(8, 6, 8), num_ranks=1, pcg_iters=2,
                        sts_stages=2, extra_model_arrays=0),
            runtime_config_for(CodeVersion.A),
        )
        rt = model.ranks[0]
        checker = ShadowChecker()
        rt.attach_shadow(checker)

        orig_loop = rt.loop

        def strip_writes(spec, *a, **kw):
            if spec.name == "update_vr":
                # drop the declared writes: the body still mutates B
                spec = KernelSpec(
                    spec.name, category=spec.category, reads=spec.reads,
                    writes=(), flops_per_byte=spec.flops_per_byte,
                    work_fraction=spec.work_fraction,
                    bytes_override=spec.bytes_override, body=spec.body,
                    tags=spec.tags,
                )
            return orig_loop(spec, *a, **kw)

        rt.loop = strip_writes
        model.run(1)
        assert "RT320" in _rules(checker)


class TestDisabledOverhead:
    """ISSUE acceptance: <1% overhead with the checker detached.

    Same discipline as ``tests/obs/test_overhead.py``: measure the
    per-dispatch cost of the disabled branch (one attribute test)
    directly, bound the implied fraction of a real host step.
    """

    MAX_DISABLED_FRACTION = 0.01

    def test_detached_checker_costs_under_one_percent(self):
        from repro.codes import CodeVersion, runtime_config_for
        from repro.mas.model import MasModel, ModelConfig

        model = MasModel(
            ModelConfig(shape=(8, 6, 8), num_ranks=2, pcg_iters=2,
                        sts_stages=2, extra_model_arrays=0),
            runtime_config_for(CodeVersion.A),
        )
        for rt in model.ranks:
            assert rt._shadow is None  # detached by default
        model.step()  # warm caches
        t0 = time.perf_counter()
        timing = model.step()
        step_host_seconds = time.perf_counter() - t0

        rt = model.ranks[0]
        n = 200000
        t0 = time.perf_counter()
        for _ in range(n):
            if rt._shadow is not None:  # pragma: no cover - always None here
                raise AssertionError("checker must be detached")
        per_check = (time.perf_counter() - t0) / n

        # one residency/race check at launch + one body wrap per dispatch
        est = timing.launches * 2 * per_check
        fraction = est / step_host_seconds
        assert fraction < self.MAX_DISABLED_FRACTION, (
            f"disabled shadow checks cost {fraction:.3%} of a step "
            f"({per_check * 1e9:.0f} ns x {timing.launches * 2} checks "
            f"vs {step_host_seconds * 1e3:.1f} ms step)"
        )
