"""Self-tests of the benchmark: ``pytest bench/tests`` (not part of tier-1)."""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))


@pytest.fixture
def tiny_step_workload():
    """A model workload small enough to run in a test (about 0.1 s a step)."""
    from bench.workloads import StepWorkload

    return StepWorkload(
        "step_dispatch", "test-sized twin of step_dispatch",
        version="A", shape=(8, 6, 8), ranks=2, steps=2,
    )
