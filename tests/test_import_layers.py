"""Each entry point imports only the layers it runs.

The analyzer, the porter and the CLI's parser start without numpy, the
model, simulated MPI or the runtime engines; the model starts without the
telemetry readers and the analyzer. And no operation first-imports a
module: what an entry point needs is loaded by its imports, so the
saving is not deferred into the work.

Every case runs in a fresh interpreter (``python -c``), because this
suite's own imports would otherwise hide what a command loads.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")

#: Runs first in every case: ``loaded()`` lists the ``repro`` and numpy
#: modules now imported, ``report`` prints the case's findings as JSON.
PROLOGUE = """
import json, sys

def loaded():
    return {m for m in sys.modules if m.split(".")[0] in ("repro", "numpy")}

def report(before, **extra):
    print(json.dumps({"new": sorted(loaded() - before), "numpy": "numpy" in sys.modules,
                      "loaded": sorted(loaded()), **extra}))
"""


def run_case(body: str, *args: str) -> dict:
    out = subprocess.run(
        [sys.executable, "-c", PROLOGUE + body, *args],
        env={**os.environ, "PYTHONPATH": SRC},
        check=True, capture_output=True, text=True,
    ).stdout
    return json.loads(out.splitlines()[-1])


def test_the_cli_parser_loads_no_model():
    """(a) ``repro --help`` builds every subparser without the model."""
    got = run_case("""
import io, contextlib
import repro.cli
with contextlib.redirect_stdout(io.StringIO()):
    try:
        repro.cli.main(["--help"])
    except SystemExit:
        pass
report(set())
""")
    assert not got["numpy"]
    heavy = [m for m in got["loaded"]
             if m.startswith(("repro.mas", "repro.mpi")) or m == "repro.runtime.engine"]
    assert heavy == []


def test_the_porter_loads_everything_up_front_and_no_numpy():
    """(b) ``port_tree``'s two imports, then Code 5 and the DC port."""
    got = run_case("""
import repro.analysis.port, repro.fortran.pipeline
before = loaded()
from repro import codes
from repro.analysis import port
from repro.fortran import generate_mas_codebase, pipeline

code1 = generate_mas_codebase()
pipeline.build_version(codes.CodeVersion.D2XU, code1=code1)
ported = port.port_codebase(port.PortTarget.DC, code1=code1)
report(before, refused=len(ported.refused))
""")
    assert got["refused"] == 0
    assert got["new"] == []
    assert not got["numpy"]
    assert "repro.obs.summary" not in got["loaded"]


def test_the_analyzer_loads_everything_up_front_and_no_numpy(tmp_path):
    """(c) ``lint_tree``'s four imports, then one front-end, lint and
    interproc pass over a small generated tree."""
    got = run_case("""
import dataclasses
import repro.analysis.fixtures, repro.analysis.fortran_lint
import repro.analysis.interproc, repro.fortran.frontend
before = loaded()
from repro import fortran
from repro.analysis import fixtures, fortran_lint, interproc
from repro.fortran import codebase, frontend

budget = dataclasses.replace(codebase.MAS_BUDGET, total_lines_code1=12000)
fortran.save_tree(fortran.generate_mas_codebase(budget), sys.argv[1])
front = frontend.load_external_tree(sys.argv[1])
clean = fortran_lint.analyze_codebase(front.codebase)
routines = len(interproc.summarize(front.codebase).summaries)
seeded = fortran_lint.analyze_codebase(fixtures.seeded_bug_codebase())
report(before, clean=len(clean), seeded=len(seeded), routines=routines)
""", str(tmp_path / "tree"))
    assert got["clean"] == 0 and got["seeded"] > 0 and got["routines"] > 0
    assert got["new"] == []
    assert not got["numpy"]


def test_the_model_loads_everything_up_front_and_no_reader():
    """(d) the step workloads' imports, then a 2-rank model's two steps."""
    got = run_case("""
import repro.codes, repro.mas
before = loaded()
from repro import codes, mas

model = mas.MasModel(
    mas.ModelConfig(shape=(8, 6, 8), num_ranks=2, pcg_iters=2, sts_stages=2),
    codes.runtime_config_for(codes.CodeVersion.A),
)
model.step()
model.step()
report(before, steps=model.steps_taken)
""")
    assert got["steps"] == 2
    assert got["new"] == []
    never = {
        "repro.obs.critpath", "repro.obs.compare", "repro.obs.explain",
        "repro.obs.summary", "repro.analysis.findings", "repro.mas.history",
        "repro.util.ascii_plot",
    }
    assert never.isdisjoint(got["loaded"])
