"""The eight workloads.

Each drives public functions of ``repro`` the way a user's command does
and is sized so its three rounds fit the driver's time budget on a
2-core host. ``--seconds`` scales the divisible ones (steps per round,
tree size) linearly from the sizes below, which are for
``NOMINAL_SECONDS``; the same ``--seconds`` always gives the same work,
so counts repeat exactly. ``fig2_sweep`` and ``port_tree`` are single
indivisible jobs and ignore it.

Calls into the program go through module attributes at call time
(``fig2.run_fig2(...)``, never a name imported here), so the traced
round's attribute replacement sees them.
"""

from __future__ import annotations

import math
import re
import shutil
import tempfile
import time
from dataclasses import replace
from pathlib import Path
from statistics import median
from types import SimpleNamespace
from typing import Any, Callable, Iterator

from bench import expected
from bench.checks import Check, equal, model_health, state_digest
from bench.hostspeed import reference_pass, speed_factor
from bench.inputs import ENSEMBLE_MEMBERS, Inputs

ROUNDS = 3
NOMINAL_SECONDS = 10.0

#: Fixed solver work per step: the kernel stream is the same for every seed.
MODEL_SETTINGS = dict(
    pcg_variant="ca", pcg_precond="jacobi", pcg_iters=8, pcg_tol=0.0, sts_stages=4
)

#: Scratch space inside the checkout (the driver forbids writing elsewhere).
WORK_DIR = Path(__file__).resolve().parent / ".work"

Op = tuple[str, Callable[[], None]]


def _scaled(at_nominal: int, seconds: float, minimum: int = 1) -> int:
    return max(minimum, round(at_nominal * seconds / NOMINAL_SECONDS))


def _scratch(prefix: str) -> Path:
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=f"{prefix}-", dir=WORK_DIR))


class Workload:
    """One job, run ``ROUNDS`` times on freshly built, identical inputs."""

    name = ""
    why = ""
    work_unit = ""

    def plan(self, seconds: float) -> None:
        """Size one round for the requested measuring time."""

    def import_program(self) -> None:
        """Import what the job needs from ``repro`` (timed into ``setup_s``)."""
        raise NotImplementedError

    def setup(self, inputs: Inputs) -> Any:
        """Build inputs, construct, run one warm-up op (timed as set-up)."""
        return SimpleNamespace()

    def ops(self, ctx: Any) -> Iterator[Op]:
        """The round's operations. The harness materialises this iterator
        before opening the timed region, so code before the first
        ``yield`` is untimed preparation."""
        raise NotImplementedError

    def work(self) -> float:
        """Stated work per round, in ``work_unit``."""
        raise NotImplementedError

    def facts(self, ctx: Any) -> dict[str, Any]:
        """Values that must repeat exactly across rounds, runs and hosts."""
        return {}

    def check_round(self, ctx: Any, facts: dict[str, Any]) -> list[Check]:
        return []

    def layer_counts(self, ctx: Any) -> dict[str, float]:
        """Per-layer metrics read from what the round produced."""
        return {}

    def close(self, ctx: Any) -> None:
        """Release what ``setup`` opened."""

    def check_run(
        self, inputs: Inputs, facts: dict[str, Any], op_ms: dict[str, list[float]]
    ) -> tuple[list[Check], dict[str, float]]:
        """Checks against an independent reference, once per run, given
        the rounds' common facts and the untraced per-op times by label;
        may also return per-layer metrics only such a reference can give."""
        return [], {}


# -- model workloads -------------------------------------------------------------


class StepWorkload(Workload):
    """``MasModel.step()`` in a loop; op = one step."""

    work_unit = "member-cell-updates"

    def __init__(
        self,
        name: str,
        why: str,
        *,
        version: str,
        shape: tuple[int, int, int],
        ranks: int,
        steps: int,
        nominal_shape: tuple[int, int, int] | None = None,
        members: int = 1,
        same_physics_as: str | None = None,
    ) -> None:
        self.name, self.why = name, why
        self.version, self.shape, self.ranks = version, shape, ranks
        self.steps_at_nominal = self.steps = steps
        self.nominal_shape, self.members = nominal_shape, members
        #: Code version whose final state this one must equal bit for bit.
        self.same_physics_as = same_physics_as

    def plan(self, seconds: float) -> None:
        self.steps = _scaled(self.steps_at_nominal, seconds)

    def import_program(self) -> None:
        import repro.codes  # noqa: F401
        import repro.mas  # noqa: F401

    def build(
        self, inputs: Inputs, *, version: str | None = None, serial_member: int | None = None
    ) -> Any:
        """A model on the seeded inputs; ``serial_member`` builds the
        scalar twin of one ensemble member."""
        from repro import codes, mas

        kw: dict[str, Any] = dict(
            shape=self.shape,
            num_ranks=self.ranks,
            perturbation=inputs.perturbation,
            b0=inputs.b0,
            **MODEL_SETTINGS,
        )
        if self.nominal_shape is not None:
            kw["nominal_shape"] = self.nominal_shape
        if serial_member is not None:
            kw["params"] = replace(
                mas.PhysicsParams(), viscosity=inputs.viscosities[serial_member]
            )
        elif self.members > 1:
            kw["ensemble_size"] = self.members
            kw["ensemble_vary"] = (("viscosity", inputs.viscosities),)
        return mas.MasModel(
            mas.ModelConfig(**kw),
            codes.runtime_config_for(codes.CodeVersion[version or self.version]),
        )

    def setup(self, inputs: Inputs) -> Any:
        model = self.build(inputs)
        model.step()
        return SimpleNamespace(model=model, inputs=inputs)

    def ops(self, ctx: Any) -> Iterator[Op]:
        ctx.mass0 = ctx.model.diagnostics()["mass"]
        for _ in range(self.steps):
            yield "step", ctx.model.step

    def work(self) -> float:
        return math.prod(self.shape) * self.members * self.steps

    def check_round(self, ctx: Any, facts: dict[str, Any]) -> list[Check]:
        return model_health(ctx.model, ctx.mass0, self.steps)

    def facts(self, ctx: Any) -> dict[str, Any]:
        out = {
            "steps": ctx.model.steps_taken,
            "digest": state_digest(ctx.model),
            "launches": sum(rt.stats.launches for rt in ctx.model.ranks),
            "sim_wall_s": ctx.model.wall_time(),
        }
        if self.members > 1:
            out["member_digest"] = state_digest(ctx.model, member=ctx.inputs.member)
        return out

    def reference_digest(self, inputs: Inputs, **build: Any) -> str:
        """Final digest of an independently built model run as long as a
        round (warm-up included)."""
        model = self.build(inputs, **build)
        model.run(self.steps + 1)
        return state_digest(model)

    def check_run(
        self, inputs: Inputs, facts: dict[str, Any], op_ms: dict[str, list[float]]
    ) -> tuple[list[Check], dict[str, float]]:
        checks = []
        if self.same_physics_as is not None:
            want = self.reference_digest(inputs, version=self.same_physics_as)
            checks.append(
                equal(f"digest_equals_code_{self.same_physics_as}", facts["digest"], want)
            )
        if self.members > 1:
            want = self.reference_digest(inputs, serial_member=inputs.member)
            checks.append(
                equal(f"member_{inputs.member}_equals_serial", facts["member_digest"], want)
            )
        return checks, {}


class TelemetryRoundtrip(StepWorkload):
    """The ``step_dispatch`` model under ``obs.session``: write, finalize,
    then read back with both readers."""

    work_unit = "steps-written-and-read"

    def import_program(self) -> None:
        super().import_program()
        import repro.obs.critpath  # noqa: F401
        import repro.obs.summary  # noqa: F401

    def setup(self, inputs: Inputs) -> Any:
        from repro import obs

        ctx = SimpleNamespace(inputs=inputs, dir=_scratch(self.name), session=None)
        session = obs.session(ctx.dir)
        session.__enter__()
        ctx.session = session  # bind_model needs the session active at construction
        ctx.model = self.build(inputs)
        ctx.model.step()
        return ctx

    def _finalize(self, ctx: Any) -> None:
        session, ctx.session = ctx.session, None
        session.__exit__(None, None, None)

    def ops(self, ctx: Any) -> Iterator[Op]:
        from repro.obs import critpath, summary

        def summarize() -> None:
            ctx.summary = summary.summarize_dir(ctx.dir)

        def analyze() -> None:
            ctx.critpath = critpath.analyze_dir(ctx.dir)

        yield from super().ops(ctx)
        yield "finalize", lambda: self._finalize(ctx)
        yield "summarize_dir", summarize
        yield "critpath_analyze_dir", analyze

    def work(self) -> float:
        return self.steps

    def check_round(self, ctx: Any, facts: dict[str, Any]) -> list[Check]:
        listed = re.search(
            r"^\| steps .*\n\|[-|]+\n\|\s*(\d+)\s*\|", getattr(ctx, "summary", ""), re.M
        )
        coverage = [r.coverage for r in getattr(ctx, "critpath", {}).values()]
        return [
            *super().check_round(ctx, facts),
            equal("summary_lists_all_steps", listed and int(listed.group(1)), self.steps + 1),
            Check(
                "critpath_coverage_100pct",
                bool(coverage) and all(abs(c - 1.0) < 1e-9 for c in coverage),
                f"coverage {coverage}",
            ),
        ]

    def layer_counts(self, ctx: Any) -> dict[str, float]:
        return {
            "obs.bytes_written": _dir_bytes(ctx.dir),
            "obs.spans": _count_lines(ctx.dir / "spans.jsonl"),
        }

    def close(self, ctx: Any) -> None:
        if ctx.session is not None:
            self._finalize(ctx)
        shutil.rmtree(ctx.dir, ignore_errors=True)

    def check_run(
        self, inputs: Inputs, facts: dict[str, Any], op_ms: dict[str, list[float]]
    ) -> tuple[list[Check], dict[str, float]]:
        # Telemetry on/off is bit-identical physics; the same un-telemetered
        # run also gives the step time that enabling telemetry is charged against.
        model = self.build(inputs)
        model.step()
        plain_ms = []
        before = reference_pass()
        for _ in range(self.steps):
            t0 = time.perf_counter()
            model.step()
            ms = (time.perf_counter() - t0) * 1e3
            after = reference_pass()
            plain_ms.append(ms / speed_factor(before, after))
            before = after
        check = equal("digest_equals_telemetry_off", facts["digest"], state_digest(model))
        overhead = median(op_ms["step"]) / median(plain_ms) - 1.0
        return [check], {"obs.enabled_overhead_frac": overhead}


def _dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def _count_lines(path: Path) -> int:
    with path.open("rb") as fh:
        return sum(1 for _ in fh)


# -- the paper-facing sweep --------------------------------------------------------


class Fig2Sweep(Workload):
    """``run_fig2``: 6 code versions x 1/2/4/8 GPUs, model set-up included."""

    work_unit = "configuration-points"

    def __init__(self, name: str, why: str) -> None:
        self.name, self.why = name, why

    def import_program(self) -> None:
        import repro.experiments.fig2  # noqa: F401

    def ops(self, ctx: Any) -> Iterator[Op]:
        from repro.experiments import fig2
        from repro.perf import calibration

        # One measured step per point instead of two: the simulated step
        # cost repeats exactly, so the projection keeps its value while a
        # run keeps to the driver's time budget.
        cal = replace(calibration.PAPER_CALIBRATION, bench_steps=1)

        def sweep() -> None:
            ctx.result = fig2.run_fig2(cal)

        yield "run_fig2", sweep

    def work(self) -> float:
        from repro.codes import GPU_VERSIONS
        from repro.perf.scaling import GPU_COUNTS

        return len(GPU_VERSIONS) * len(GPU_COUNTS)

    @staticmethod
    def paper_error_pct(result: Any) -> float:
        """Worst relative error over the twelve Fig. 2 anchors, in %."""
        from repro.experiments.fig2 import PAPER_WALL

        return 100.0 * max(
            abs(result.wall(v, n) - paper) / paper
            for v, anchors in PAPER_WALL.items()
            for n, paper in anchors.items()
        )

    def check_round(self, ctx: Any, facts: dict[str, Any]) -> list[Check]:
        walls = facts["wall_minutes"]
        um, manual = ("ADU", "AD2XU", "D2XU"), ("A", "AD", "D2XAD")
        points = range(len(walls["A"]))
        code1_fastest = all(
            walls["A"][i] < walls[v][i] for v in walls if v != "A" for i in points
        )
        um_slowest = all(
            walls[u][i] > walls[m][i] for u in um for m in manual for i in points
        )
        err = facts["paper_error_pct"]
        return [
            Check("code1_fastest_at_every_gpu_count", code1_fastest),
            Check("um_codes_slowest_at_every_gpu_count", um_slowest),
            Check(
                "paper_error_not_increased",
                err <= expected.PAPER_ERROR_PCT_CEILING,
                f"paper_error_pct {err:.4f} (ceiling {expected.PAPER_ERROR_PCT_CEILING})",
            ),
        ]

    def facts(self, ctx: Any) -> dict[str, Any]:
        return {
            "paper_error_pct": self.paper_error_pct(ctx.result),
            "wall_minutes": {
                v.name: [p.wall_minutes for p in s.points]
                for v, s in ctx.result.series.items()
            },
        }

    def layer_counts(self, ctx: Any) -> dict[str, float]:
        return {"experiments.paper_error_pct": self.paper_error_pct(ctx.result)}


# -- analyzer workloads ------------------------------------------------------------


class LintTree(Workload):
    """Front end in set-up; lint + interproc cold then warm in the region."""

    work_unit = "source-lines"

    #: Lines of the generated tree at NOMINAL_SECONDS. Every construct of
    #: the Table I/II budget is kept; only untouched filler physics shrinks
    #: (the paper's 73,865-line tree would take 37 s per run here).
    lines_at_nominal = 16000
    min_lines = 12000

    def __init__(self, name: str, why: str) -> None:
        self.name, self.why = name, why
        self.total_lines = self.lines_at_nominal

    def plan(self, seconds: float) -> None:
        self.total_lines = _scaled(self.lines_at_nominal, seconds, self.min_lines)

    def import_program(self) -> None:
        import repro.analysis.fixtures  # noqa: F401
        import repro.analysis.fortran_lint  # noqa: F401
        import repro.analysis.interproc  # noqa: F401
        import repro.fortran.frontend  # noqa: F401

    def setup(self, inputs: Inputs) -> Any:
        from repro import fortran
        from repro.fortran import codebase, frontend

        ctx = SimpleNamespace(dir=_scratch(self.name))
        budget = replace(codebase.MAS_BUDGET, total_lines_code1=self.total_lines)
        fortran.save_tree(fortran.generate_mas_codebase(budget), ctx.dir / "tree")
        ctx.front = frontend.load_external_tree(ctx.dir / "tree")
        return ctx

    def ops(self, ctx: Any) -> Iterator[Op]:
        from repro.analysis import fortran_lint, interproc

        def lint(slot: str) -> Callable[[], None]:
            def run() -> None:
                setattr(ctx, slot, fortran_lint.analyze_codebase(ctx.front.codebase))
            return run

        interproc.clear_summary_cache()
        yield "lint_cold", lint("cold")
        yield "lint_warm", lint("warm")

    def work(self) -> float:
        return 2 * self.total_lines

    def check_round(self, ctx: Any, facts: dict[str, Any]) -> list[Check]:
        return [
            equal("clean_tree_cold_findings", len(ctx.cold), 0),
            equal("clean_tree_warm_findings", len(ctx.warm), 0),
        ]

    def facts(self, ctx: Any) -> dict[str, Any]:
        census = ctx.front.census
        return {
            "files": len(ctx.front.codebase.files),
            "lines": census.total_lines,
            "opaque_lines": census.opaque_lines,
        }

    def close(self, ctx: Any) -> None:
        shutil.rmtree(ctx.dir, ignore_errors=True)

    def check_run(
        self, inputs: Inputs, facts: dict[str, Any], op_ms: dict[str, list[float]]
    ) -> tuple[list[Check], dict[str, float]]:
        from repro.analysis import fixtures, fortran_lint

        found = fortran_lint.analyze_codebase(fixtures.seeded_bug_codebase())
        got = sorted((f.file, f.rule.id) for f in found)
        return [
            equal("generated_lines", facts["lines"], self.total_lines),
            equal("seeded_corpus_rule_ids", got, sorted(expected.SEEDED_FINDINGS)),
        ], {}


class PortTree(Workload):
    """The transform write path: hand pipeline and analyzer-driven porter
    on the paper-size Code 1 tree."""

    work_unit = "source-lines"

    def __init__(self, name: str, why: str) -> None:
        self.name, self.why = name, why

    def import_program(self) -> None:
        import repro.analysis.port  # noqa: F401
        import repro.fortran.pipeline  # noqa: F401

    def setup(self, inputs: Inputs) -> Any:
        from repro import fortran

        return SimpleNamespace(code1=fortran.generate_mas_codebase())

    def ops(self, ctx: Any) -> Iterator[Op]:
        from repro import codes
        from repro.analysis import port
        from repro.fortran import pipeline

        def build_code5() -> None:
            ctx.code5 = pipeline.build_version(codes.CodeVersion.D2XU, code1=ctx.code1)

        def port_to_code6() -> None:
            ctx.ported = port.port_codebase(port.PortTarget.DC, code1=ctx.code1)

        yield "build_version_code5", build_code5
        yield "port_codebase_dc", port_to_code6

    def work(self) -> float:
        from repro.fortran.codebase import MAS_BUDGET

        return 2 * MAS_BUDGET.total_lines_code1

    def facts(self, ctx: Any) -> dict[str, Any]:
        from repro.fortran import measure

        code5, code6 = measure(ctx.code5), measure(ctx.ported.codebase)
        return {
            "code5": [code5.total_lines, code5.acc_lines],
            "code6": [code6.total_lines, code6.acc_lines],
            "refused": len(ctx.ported.refused),
        }

    def check_round(self, ctx: Any, facts: dict[str, Any]) -> list[Check]:
        return [
            equal("table1_code5_lines_and_acc", tuple(facts["code5"]), expected.TABLE1_CODE5),
            equal("table1_code6_lines_and_acc", tuple(facts["code6"]), expected.TABLE1_CODE6),
            equal("port_refused_regions", facts["refused"], 0),
        ]


# -- registry ------------------------------------------------------------------


def all_workloads() -> dict[str, Workload]:
    """The eight workloads, in reporting order. Names are fixed: later
    issues refer to them."""
    dispatch = dict(shape=(10, 8, 16), ranks=8)
    items: list[Workload] = [
        StepWorkload(
            "step_numerics",
            "40x28x56 on 1 rank: numpy kernel bodies dominate host time; "
            "shows mas gains, bypasses runtime dispatch and mpi",
            version="A", shape=(40, 28, 56), ranks=1, steps=6,
        ),
        StepWorkload(
            "step_dispatch",
            "10x8x16 on 8 ranks, Code 1: 3392 launches per step, so dispatch, pricing "
            "and halo dominate; the configuration Fig. 2/3 price; bypasses numerics",
            version="A", steps=8, **dispatch,
        ),
        StepWorkload(
            "step_um_dc",
            "same grid under Code 5: DC fission, synchronous launches, UM page "
            "migration and UM-staged transport use the same layers differently",
            version="D2XU", steps=8, same_physics_as="A", **dispatch,
        ),
        StepWorkload(
            "ensemble_b8",
            "8 members varying viscosity on 2 ranks: the batched twins of PCG, "
            "operators and halo; guards one-path simplifications",
            version="A", shape=(16, 12, 24), nominal_shape=(150, 300, 100),
            ranks=2, steps=8, members=ENSEMBLE_MEMBERS,
        ),
        Fig2Sweep(
            "fig2_sweep",
            "run_fig2: 24 model set-ups and short runs of identical kernel streams; "
            "the paper-facing job, carries the fidelity check",
        ),
        TelemetryRoundtrip(
            "telemetry_roundtrip",
            "obs.session around the step_dispatch model, finalize, then summarize_dir "
            "and critpath.analyze_dir: telemetry written beside read",
            version="A", steps=6, **dispatch,
        ),
        LintTree(
            "lint_tree",
            "analyzer read path on a generated tree: front end in set-up, lint and "
            "interproc first outside then inside the content-hash cache",
        ),
        PortTree(
            "port_tree",
            "analyzer and transform write path: build_version(Code 5) and "
            "port_codebase(DC) on the 73,865-line Code 1, checked against Table I",
        ),
    ]
    return {w.name: w for w in items}
