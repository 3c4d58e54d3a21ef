"""Small-surface coverage: corners the focused suites don't reach."""

import numpy as np
import pytest

from repro.machine.interconnect import SLINGSHOT
from repro.machine.gpu import A100_40GB, GpuDevice
from repro.machine.interconnect import PCIE4_X16
from repro.machine.memory import DeviceMemory
from repro.mpi.collectives import allreduce_max
from repro.runtime.config import Backend, RuntimeConfig, uniform_backend
from repro.runtime.data_env import DataEnvironment, DataMode
from repro.runtime.dispatcher import RankRuntime
from repro.runtime.kernel import KernelSpec
from repro.util.tables import Table
from repro.util.units import GB, MiB


def gpu_rt(unified=False):
    cfg = RuntimeConfig(
        name="t",
        loop_backend=uniform_backend(Backend.ACC),
        fusion=True,
        async_launch=True,
        unified_memory=unified,
    )
    mode = DataMode.UNIFIED if unified else DataMode.MANUAL
    env = DataEnvironment(mode, device_memory=DeviceMemory(40 * GB), host_link=PCIE4_X16)
    return RankRuntime(cfg, env=env, gpu=GpuDevice(A100_40GB, 0))


class TestTableCenterAlignment:
    def test_center(self):
        t = Table(["x"], align=["c"])
        t.add_row(["ab"])
        t.add_row(["abcdef"])
        lines = t.render().splitlines()
        cell = lines[-2]
        assert cell.index("ab") > 2  # centered, not flush left


class TestDispatcherDataDirectives:
    def test_update_host_charges_manual_only(self):
        manual = gpu_rt()
        manual.register_array("a", 64 * MiB)
        t0 = manual.clock.now
        manual.update_host("a")
        assert manual.clock.now > t0

        um = gpu_rt(unified=True)
        um.register_array("a", 64 * MiB)
        t0 = um.clock.now
        um.update_host("a")  # no manual directives under UM: no-op
        assert um.clock.now == t0

    def test_update_device_fraction(self):
        rt = gpu_rt()
        rt.register_array("a", 64 * MiB)
        t0 = rt.clock.now
        rt.update_device("a", 0.25)
        quarter = rt.clock.now - t0
        rt.update_device("a", 1.0)
        full = rt.clock.now - t0 - quarter
        assert quarter < full

    def test_host_access_category_override(self):
        from repro.runtime.clock import TimeCategory

        rt = gpu_rt(unified=True)
        rt.register_array("a", 64 * MiB)
        rt.loop(KernelSpec("touch", reads=("a",)))  # fault to device
        rt.host_access("a", category=TimeCategory.MPI_TRANSFER)
        assert rt.clock.by_category[TimeCategory.MPI_TRANSFER] > 0


class TestAllreduceMax:
    def test_value_and_cost(self):
        ranks = [gpu_rt() for _ in range(3)]
        out = allreduce_max(ranks, [1.0, 5.0, 3.0], SLINGSHOT)
        assert out == 5.0
        assert all(rt.clock.mpi_time > 0 for rt in ranks)

    def test_count_checked(self):
        ranks = [gpu_rt()]
        with pytest.raises(ValueError):
            allreduce_max(ranks, [1.0, 2.0], SLINGSHOT)


class TestVersionMetadataConsistency:
    def test_paper_numbers_equal_generated(self):
        """version_info's recorded paper numbers must equal what the
        pipeline actually produces -- no drift between the two tables."""
        from repro.codes import CodeVersion, version_info
        from repro.fortran.codebase import generate_mas_codebase
        from repro.fortran.metrics import measure
        from repro.fortran.pipeline import build_version

        code1 = generate_mas_codebase()
        for v in CodeVersion:
            met = measure(build_version(v, code1=code1))
            info = version_info(v)
            assert met.total_lines == info.paper_total_lines
            assert met.acc_lines == (info.paper_acc_lines or 0)


class TestQuantityAndPaperString:
    def test_package_metadata(self):
        import repro

        assert repro.__version__
        assert "Caplan" in repro.PAPER

    def test_directive_kind_values_cover_table2_rows(self):
        from repro.fortran.directives import DirectiveKind

        assert len(DirectiveKind) == 8
