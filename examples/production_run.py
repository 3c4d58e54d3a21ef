#!/usr/bin/env python
"""Production-style run: history, checkpoint/restart, profiler trace.

Drives the model the way a CORHEL production run drives MAS: record the
history file every step, write a restart mid-run, continue from it in a
fresh process-equivalent, verify bitwise continuity, and export a
Chrome-trace (open in Perfetto / chrome://tracing) of one step.

Run:  python examples/production_run.py
"""

import tempfile
from pathlib import Path

import numpy as np

from repro.codes import CodeVersion, runtime_config_for
from repro.mas import MasModel, ModelConfig
from checkpoint import load_checkpoint, read_info, save_checkpoint
from repro.mas.history import RunHistory
from repro.obs.events import Profiler
from repro.perf.trace_export import write_chrome_trace


def make_model() -> MasModel:
    return MasModel(
        ModelConfig(shape=(14, 10, 16), num_ranks=2, pcg_iters=4, sts_stages=4),
        runtime_config_for(CodeVersion.A),
    )


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="repro_run_"))
    print(f"work directory: {workdir}\n")

    # ---- phase 1: run with history, checkpoint at step 5 -----------------
    model = make_model()
    history = RunHistory(model)
    print(f"{'step':>4} {'t':>8} {'dt':>8} {'kinetic':>10} {'thermal':>10} {'max divB':>9}")
    for _ in range(5):
        r = history.step()
        print(f"{r.step:4d} {r.time:8.3f} {r.dt:8.4f} {r.kinetic:10.5f} "
              f"{r.thermal:10.4f} {r.max_divb:9.1e}")
    ckpt = workdir / "restart_0005.npz"
    info = save_checkpoint(model, ckpt)
    print(f"\nwrote restart at step {info.steps_taken} -> {ckpt.name}")

    # ---- phase 2: restart in a fresh model and continue ---------------------
    resumed = make_model()
    load_checkpoint(resumed, ckpt)
    print(f"restarted from {read_info(ckpt).steps_taken} steps, t={resumed.time:.3f}")
    resumed_history = RunHistory(resumed)
    for _ in range(5):
        r = resumed_history.step()
        print(f"{r.step:4d} {r.time:8.3f} {r.dt:8.4f} {r.kinetic:10.5f} "
              f"{r.thermal:10.4f} {r.max_divb:9.1e}")

    # continuity check against an uninterrupted run
    straight = make_model()
    straight.run(10)
    assert np.array_equal(straight.states[0].rho, resumed.states[0].rho)
    print("\nrestarted run is bit-identical to an uninterrupted one  [OK]")

    # ---- phase 3: history file + profiler trace -------------------------------
    hist_file = workdir / "history.csv"
    hist_file.write_text(resumed_history.to_csv() + "\n")
    print(f"history file -> {hist_file.name} ({len(resumed_history.records)} rows)")

    profiler = Profiler()
    for r, rt in enumerate(resumed.ranks):
        profiler.attach(rt.clock, f"gpu{r}")
    resumed.step()
    trace = write_chrome_trace(profiler.record(), workdir / "step_trace.json")
    print(f"profiler trace -> {trace.name} (open in Perfetto / chrome://tracing)")

    print("\n" + resumed_history.render("kinetic", "max_vr"))


if __name__ == "__main__":
    main()
