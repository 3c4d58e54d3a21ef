"""The experiment table: which experiments exist, under what heading and
what command.

One row per experiment. ``repro report`` walks the rows in order and
writes one ``## `` section each (``repro.experiments.report``);
``repro.cli`` registers one subcommand per row that names a command. The
rows carry names and strings only, so importing this module imports no
experiment: the implementing module is loaded when its command or the
report runs. That module exposes

* ``run(**options)`` -- execute with the paper calibration and return the
  result; ``options`` are the argparse dests of the row's ``pcg`` /
  ``overlap`` / ``ranks`` groups, each defaulting to the command's default;
* ``section(result)`` -- the lines under the row's EXPERIMENTS.md heading;
* for a row with a command, ``render(result)`` (stdout) and optionally
  ``csv(result)`` (header, rows) and ``ok(result)`` (False exits 1).

Adding an experiment is one module plus one row. Every row has a
section; a command is optional.
"""

from __future__ import annotations

from typing import NamedTuple


class Command(NamedTuple):
    """The ``repro <name>`` subcommand of an experiment."""

    name: str
    help: str
    #: Argument groups, in ``--help`` order: of ``csv``, ``telemetry``,
    #: ``pcg``, ``overlap``, ``ranks``.
    options: tuple[str, ...] = ()


class Experiment(NamedTuple):
    """One row: the ``## `` heading, the implementing module's dotted name."""

    heading: str
    module: str
    command: Command | None = None


EXPERIMENTS: tuple[Experiment, ...] = (
    Experiment("Fig. 1 -- test-case solution visualization", "repro.experiments.fig1",
               Command("fig1", "Fig. 1: test-case visualization")),
    Experiment("Table I -- code version summary (exact)", "repro.experiments.table1",
               Command("table1", "Table I: code-version line counts", ("csv",))),
    Experiment("Table II -- OpenACC directive census of Code 1 (exact)",
               "repro.experiments.table2",
               Command("table2", "Table II: OpenACC directive census", ("csv",))),
    Experiment("Table III -- CPU wall clock, Expanse EPYC nodes (minutes)",
               "repro.experiments.table3",
               Command("table3", "Table III: CPU baseline wall clock", ("csv",))),
    Experiment("Fig. 2 -- wall clock vs GPU count (minutes)", "repro.experiments.fig2",
               Command("fig2", "Fig. 2: wall clock vs GPU count", ("csv", "telemetry"))),
    Experiment("Fig. 3 -- MPI / non-MPI split (minutes)", "repro.experiments.fig3",
               Command("fig3", "Fig. 3: MPI / non-MPI split",
                       ("csv", "telemetry", "pcg", "overlap"))),
    Experiment("Fig. 3 ablation -- overlapped halo exchange (Code 1)",
               "repro.experiments.fig3_overlap"),
    Experiment("Critical-path blame migration (beyond the paper)",
               "repro.experiments.critpath_ablation"),
    Experiment("Fig. 4 -- viscosity-solver timeline (8 GPUs)", "repro.experiments.fig4",
               Command("fig4", "Fig. 4: viscosity-solver timeline", ("telemetry",))),
    Experiment("Ensemble sweep ablation -- member batching (beyond the paper)",
               "repro.experiments.ensemble"),
    Experiment("Per-step time by category (beyond the paper)", "repro.perf.categories",
               Command("categories", "per-step time by category per version",
                       ("ranks", "telemetry"))),
    Experiment("Directive count vs performance -- the trade-off (synthesis)",
               "repro.experiments.tradeoff",
               Command("tradeoff", "directive count vs performance synthesis", ("ranks",))),
    Experiment("Problem size vs GPU memory (SV-A sizing)", "repro.perf.memory_fit",
               Command("memfit", "largest problem fitting the GPUs (SV-A sizing)")),
    Experiment("Compiler portability per code version (SIV / SVI)",
               "repro.fortran.portability",
               Command("portability", "compiler portability per code version")),
    Experiment("Multi-node scaling, 8 -> 64 GPUs (beyond the paper)",
               "repro.experiments.multinode",
               Command("multinode", "extension: scaling beyond one node")),
    Experiment("Calibration sensitivity (beyond the paper)",
               "repro.experiments.sensitivity"),
)

#: ``repro --help`` lists the artifact commands in the order they were
#: added, not in report order; ``cli`` registers ``run`` .. ``report``
#: between the two groups, so the help text does not move.
HELP_ORDER: tuple[tuple[str, ...], tuple[str, ...]] = (
    ("table1", "table2", "table3", "fig2", "fig3", "fig4", "fig1",
     "categories", "tradeoff"),
    ("portability", "memfit", "multinode"),
)


def by_command(name: str) -> Experiment:
    """The row whose command is ``name``."""
    for row in EXPERIMENTS:
        if row.command is not None and row.command.name == name:
            return row
    raise KeyError(name)
