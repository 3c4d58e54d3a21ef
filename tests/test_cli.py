"""Command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["nope"])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.version == "A"
        assert args.ranks == 1

    def test_run_version_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--version", "Z"])


class TestCommands:
    def test_port(self, capsys):
        assert main(["port"]) == 0
        out = capsys.readouterr().out
        assert "73865" in out and "68994" in out

    def test_table1_exit_code_and_csv(self, tmp_path, capsys):
        csv = tmp_path / "t1.csv"
        assert main(["table1", "--csv", str(csv)]) == 0
        assert "Table I" in capsys.readouterr().out
        text = csv.read_text()
        assert text.splitlines()[0].startswith("version,")
        assert "1458" in text

    def test_table2(self, capsys):
        assert main(["table2"]) == 0
        assert "parallel, loop" in capsys.readouterr().out

    def test_run_command(self, capsys):
        rc = main(
            ["run", "--version", "AD", "--steps", "2", "--ranks", "2",
             "--shape", "8", "6", "8", "--pcg-iters", "2", "--sts-stages", "2"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "step   0" in out
        assert "max|divB|" in out

    def test_portability(self, capsys):
        assert main(["portability"]) == 0
        out = capsys.readouterr().out
        assert "nvfortran" in out
        assert "202X" in out

    def test_memfit(self, capsys):
        assert main(["memfit"]) == 0
        out = capsys.readouterr().out
        assert "36M cells" in out
        assert "fits: True" in out

    def test_report_writes_file(self, tmp_path):
        """The report itself takes most of a minute (CI runs it and
        compares the bytes); here only that the command is wired."""
        target = str(tmp_path / "E.md")
        args = build_parser().parse_args(["report", "--output", target])
        assert (args.command, args.output) == ("report", target)


class TestNewCommands:
    def test_fig1(self, capsys):
        assert main(["fig1"]) == 0
        out = capsys.readouterr().out
        assert "meridional cut" in out

    def test_categories_parser(self):
        args = build_parser().parse_args(["categories", "--ranks", "4"])
        assert (args.command, args.ranks) == ("categories", 4)

    def test_multinode_parser(self):
        assert build_parser().parse_args(["multinode"]).command == "multinode"


class TestExperimentTable:
    """The artifact commands are the rows of ``repro.experiments.catalog``."""

    #: One flag per argument group a row may name.
    FLAGS = {
        "csv": ["--csv", "rows.csv"],
        "telemetry": ["--telemetry", "dir"],
        "pcg": ["--pcg", "classic", "--precond", "cheby"],
        "overlap": ["--halo-overlap", "--fuse-regions"],
        "ranks": ["--ranks", "2"],
    }

    def test_every_row_with_a_command_parses_with_its_groups(self):
        from repro.experiments.catalog import EXPERIMENTS

        parser = build_parser()
        commands = [row.command for row in EXPERIMENTS if row.command]
        assert len(commands) == 12
        for command in commands:
            flags = [f for group in command.options for f in self.FLAGS[group]]
            args = parser.parse_args([command.name, *flags])
            assert args.command == command.name
            for group in self.FLAGS.keys() - set(command.options):
                with pytest.raises(SystemExit):
                    parser.parse_args([command.name, *self.FLAGS[group]])

    def test_help_order_lists_each_command_once(self):
        from repro.experiments.catalog import EXPERIMENTS, HELP_ORDER

        listed = [name for group in HELP_ORDER for name in group]
        assert sorted(listed) == sorted(
            row.command.name for row in EXPERIMENTS if row.command
        )

    def test_importing_the_cli_imports_no_experiment(self):
        """Rows carry names and strings: ``repro --help`` and ``repro lint
        --explain`` pay for no solver, model or Fortran front end."""
        import os
        import subprocess
        import sys

        import repro

        heavy = ("repro.experiments", "repro.mas", "repro.perf", "repro.fortran")
        out = subprocess.run(
            [sys.executable, "-c",
             "import repro.cli, sys; "
             f"print([m for m in sys.modules if m.startswith({heavy!r})])"],
            env={**os.environ,
                 "PYTHONPATH": os.path.dirname(os.path.dirname(repro.__file__))},
            check=True, capture_output=True, text=True,
        ).stdout
        assert out.strip() == "[]"


class TestTelemetry:
    def test_telemetry_flag_default_none(self):
        for argv in (["run"], ["fig2"], ["fig3"], ["fig4"], ["categories"]):
            assert build_parser().parse_args(argv).telemetry is None

    def test_run_with_telemetry_writes_artifacts(self, tmp_path, capsys):
        out = tmp_path / "tel"
        rc = main(
            ["run", "--steps", "2", "--ranks", "2", "--shape", "8", "6", "8",
             "--pcg-iters", "2", "--sts-stages", "2",
             "--telemetry", str(out)]
        )
        assert rc == 0
        for name in ("manifest.json", "log.jsonl", "spans.jsonl",
                     "metrics.prom", "metrics.json", "events.npz"):
            assert (out / name).exists(), name

    def test_telemetry_summary_command(self, tmp_path, capsys):
        out = tmp_path / "tel"
        main(
            ["run", "--steps", "2", "--ranks", "2", "--shape", "8", "6", "8",
             "--pcg-iters", "2", "--sts-stages", "2",
             "--telemetry", str(out)]
        )
        capsys.readouterr()
        assert main(["telemetry", str(out)]) == 0
        text = capsys.readouterr().out
        assert "run manifest" in text
        assert "kernel_launches_total" in text
        assert "step/viscosity/pcg" in text

    def test_log_does_not_depend_on_the_hash_seed(self, tmp_path):
        """StepTiming.mpi sums its categories in a fixed order: under seeds
        1 and 3 a set of enum members iterates differently, and the sum
        used to move in its last bit."""
        import os
        import subprocess
        import sys

        import repro

        logs = []
        for seed in ("1", "3"):
            out = tmp_path / f"seed{seed}"
            env = {**os.environ, "PYTHONHASHSEED": seed,
                   "PYTHONPATH": os.path.dirname(os.path.dirname(repro.__file__))}
            subprocess.run(
                [sys.executable, "-m", "repro", "run", "--version", "A",
                 "--ranks", "2", "--steps", "3", "--shape", "8", "6", "8",
                 "--pcg-iters", "2", "--sts-stages", "2",
                 "--telemetry", str(out)],
                env=env, check=True, capture_output=True,
            )
            logs.append((out / "log.jsonl").read_bytes())
        assert logs[0] == logs[1]

    def test_telemetry_summary_missing_dir(self, tmp_path, capsys):
        assert main(["telemetry", str(tmp_path / "nope")]) == 1
        assert "error" in capsys.readouterr().err

    def test_run_without_telemetry_stays_disabled(self):
        from repro.obs.telemetry import NULL, current

        main(["run", "--steps", "1", "--shape", "8", "6", "8",
              "--pcg-iters", "2", "--sts-stages", "2"])
        assert current() is NULL


class TestTelemetryCompare:
    def _run(self, out, steps):
        main(
            ["run", "--steps", str(steps), "--ranks", "2",
             "--shape", "8", "6", "8",
             "--pcg-iters", "2", "--sts-stages", "2",
             "--telemetry", str(out)]
        )

    def test_compare_two_runs(self, tmp_path, capsys):
        self._run(tmp_path / "a", steps=2)
        self._run(tmp_path / "b", steps=3)  # more steps -> more launches
        capsys.readouterr()
        assert main(["telemetry", "--compare",
                     str(tmp_path / "a"), str(tmp_path / "b")]) == 0
        text = capsys.readouterr().out
        assert "Metrics diff" in text
        assert "kernel_launches_total" in text
        assert "series changed" in text

    def test_identical_runs_have_no_diff(self, tmp_path, capsys):
        self._run(tmp_path / "a", steps=2)
        self._run(tmp_path / "b", steps=2)
        capsys.readouterr()
        assert main(["telemetry", "--compare",
                     str(tmp_path / "a"), str(tmp_path / "b")]) == 0
        assert "no metric differences" in capsys.readouterr().out

    def test_compare_missing_dir(self, tmp_path, capsys):
        assert main(["telemetry", "--compare",
                     str(tmp_path / "x"), str(tmp_path / "y")]) == 1
        assert "error" in capsys.readouterr().err

    def test_dir_still_optional_only_with_compare(self, capsys):
        assert main(["telemetry"]) == 2
        assert "required" in capsys.readouterr().err

    @pytest.mark.parametrize("damage, why", [
        ('{"kernel_launches_total": {"type": "cou', "Unterminated string"),
        ("[1, 2]", "a JSON list, not an object"),
    ], ids=["truncated", "list"])
    @pytest.mark.parametrize("explain", [False, True], ids=["compare", "explain"])
    def test_damaged_metrics_snapshot(self, tmp_path, capsys, damage, why, explain):
        """One ``error:`` line and exit 1 under ``--compare``; a note under
        ``--explain``, which reads the stream as missing."""
        a, b = tmp_path / "a", tmp_path / "b"
        for d, text in ((a, damage), (b, "{}")):
            d.mkdir()
            (d / "metrics.json").write_text(text)
        rc = main(["telemetry", "--compare", str(a), str(b),
                   *(["--explain"] if explain else [])])
        out, err = capsys.readouterr()
        assert "Traceback" not in out + err
        if explain:
            assert rc == 0 and err == ""
            assert f"{a}: " in out and "metrics.json" in out
        else:
            assert rc == 1 and out == ""
            (line,) = err.splitlines()
            assert line.startswith(f"error: unreadable metrics snapshot {a / 'metrics.json'}: ")
            assert why in line


class TestLint:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["lint"])
        assert args.version == "all"
        assert args.fail_on == "warning"
        assert args.fixtures is None and not args.runtime

    def test_clean_fixtures_exit_zero(self, capsys):
        assert main(["lint", "--fixtures", "clean"]) == 0
        assert "no findings" in capsys.readouterr().out

    def test_seeded_fixtures_fail_gate_and_artifacts(self, tmp_path, capsys):
        js, sarif = tmp_path / "f.json", tmp_path / "f.sarif"
        rc = main(["lint", "--fixtures", "seeded",
                   "--json", str(js), "--sarif", str(sarif)])
        assert rc == 1  # errors >= the default warning threshold
        out = capsys.readouterr().out
        assert "DC001" in out and "findings:" in out
        import json

        assert json.loads(js.read_text())["counts"]["error"] >= 1
        assert json.loads(sarif.read_text())["version"] == "2.1.0"

    def test_seeded_fixtures_never_gate(self):
        assert main(["lint", "--fixtures", "seeded",
                     "--fail-on", "never"]) == 0

    def test_one_version_lints_clean(self, capsys):
        assert main(["lint", "--version", "A"]) == 0
        assert "no findings" in capsys.readouterr().out

    def test_runtime_smoke_stays_below_warning(self, capsys):
        rc = main(["lint", "--version", "A", "--runtime"])
        assert rc == 0  # RT321 notes are below the warning threshold


class TestLintFix:
    def test_fix_repairs_seeded_corpus_to_clean(self, capsys):
        rc = main(["lint", "--fixtures", "seeded", "--fix"])
        assert rc == 0  # post-fix re-lint is the gate: zero findings
        out = capsys.readouterr().out
        assert "edits applied" in out
        assert "no findings" in out

    def test_fix_on_clean_corpus_is_noop(self, capsys):
        rc = main(["lint", "--fixtures", "clean", "--fix"])
        assert rc == 0
        assert "0 edits applied" in capsys.readouterr().out

    def test_explain_prints_catalog_entry(self, capsys):
        assert main(["lint", "--explain", "DC002"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("DC002: undeclared reduction")
        assert "auto-fix" in out

    def test_explain_unknown_rule(self, capsys):
        assert main(["lint", "--explain", "XX123"]) == 0
        assert "unknown rule" in capsys.readouterr().out


class TestLintDeterminism:
    def test_format_sarif_byte_identical_across_runs(self, capsys):
        """Satellite: two independent CLI runs emit identical SARIF."""
        main(["lint", "--fixtures", "seeded", "--format", "sarif",
              "--fail-on", "never"])
        first = capsys.readouterr().out
        main(["lint", "--fixtures", "seeded", "--format", "sarif",
              "--fail-on", "never"])
        second = capsys.readouterr().out
        assert first == second
        import json

        log = json.loads(first)
        assert log["version"] == "2.1.0"
        assert any("fixes" in r for r in log["runs"][0]["results"])

    def test_format_json_stdout(self, capsys):
        main(["lint", "--fixtures", "seeded", "--format", "json",
              "--fail-on", "never"])
        import json

        payload = json.loads(capsys.readouterr().out)
        assert payload["counts"]["error"] >= 1


class TestPortTo:
    def test_parser_accepts_targets(self):
        args = build_parser().parse_args(["port", "--to", "dc", "--verify"])
        assert args.to == "dc" and args.verify

    def test_bad_target_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["port", "--to", "openmp"])

    def test_port_to_acc_opt_verifies(self, capsys):
        assert main(["port", "--to", "acc-opt", "--verify"]) == 0
        out = capsys.readouterr().out
        assert "target acc-opt" in out
        assert "[ok] text" in out
        assert "[ok] table1: 71661 lines / 540 acc" in out


class TestExternalTrees:
    """The real-Fortran front end wired through `lint` and `port`."""

    CORPUS = "tests/fixtures/external"

    def test_lint_external_paths(self, capsys):
        assert main(["lint", self.CORPUS, "--fail-on", "never"]) == 0
        out = capsys.readouterr().out
        assert "DC002" in out and "FE001" in out

    def test_lint_cost_report(self, capsys):
        assert main(["lint", self.CORPUS, "--cost"]) == 0
        out = capsys.readouterr().out
        assert "porting-cost report" in out
        assert "safe_f2018" in out
        assert "front-end parse census" in out

    def test_lint_fix_out_writes_fixed_tree(self, tmp_path, capsys):
        out_dir = tmp_path / "fixed"
        assert main(["lint", self.CORPUS, "--fix", "--fix-out", str(out_dir),
                     "--fail-on", "never"]) == 0
        fixed = (out_dir / "src" / "solve.f90").read_text()
        assert "reduction(+:esum)" in fixed
        # the interface block came back as code, not as opaque comments
        interp = (out_dir / "src" / "interp.f90").read_text()
        assert "repro-fe opaque" not in interp

    def test_port_incremental_external(self, tmp_path, capsys):
        out_dir = tmp_path / "ported"
        rc = main(["port", self.CORPUS, "--to", "dc", "--incremental",
                   "--out", str(out_dir)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "incremental port to dc" in out
        assert "refused: src/solve.f90" in out
        assert (out_dir / "port-manifest.json").exists()

    def test_port_incremental_over_a_damaged_manifest(self, tmp_path, capsys):
        import json

        out_dir = tmp_path / "ported"
        out_dir.mkdir()
        manifest = out_dir / "port-manifest.json"
        manifest.write_text("[]")  # truncated or hand-edited: not ours
        rc = main(["port", self.CORPUS, "--to", "dc", "--incremental",
                   "--out", str(out_dir)])
        assert rc == 0
        captured = capsys.readouterr()
        assert "10 ported, 0 pending, 1 refused" in captured.out
        assert captured.err == (
            f"note: ignoring the damaged port manifest {manifest}: "
            "a JSON list, not an object; porting from scratch\n"
        )
        assert json.loads(manifest.read_text())["schema"] == "repro-port-manifest/1"

    def test_port_external_requires_target(self, capsys):
        assert main(["port", self.CORPUS]) == 2

    @pytest.mark.parametrize("command", [["lint"], ["port", "--to", "dc"]])
    @pytest.mark.parametrize("bad", ["missing", "file", "empty"])
    def test_a_path_without_a_tree_is_one_line_and_exit_2(
        self, command, bad, tmp_path, capsys
    ):
        """Exit 1 is lint's "found an error"; a path that holds no Fortran
        tree is a bad argument, reported like a bad configuration."""
        path = {"missing": tmp_path / "no" / "such", "file": tmp_path / "one.f90",
                "empty": tmp_path / "empty"}[bad]
        (tmp_path / "one.f90").write_text("program p\nend program p\n")
        (tmp_path / "empty").mkdir()
        assert main([command[0], str(path), *command[1:]]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and str(path) in captured.err
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err

    def test_port_incremental_vendored(self, capsys):
        assert main(["port", "--to", "acc-opt", "--incremental"]) == 0
        out = capsys.readouterr().out
        assert "incremental port to acc-opt" in out

    def test_parser_defaults(self):
        args = build_parser().parse_args(["lint"])
        assert args.paths == [] and not args.cost
        args = build_parser().parse_args(["port"])
        assert args.path is None and args.limit is None


class TestSweep:
    ARGS = ["sweep", "--steps", "1", "--ranks", "1", "--shape", "8", "6", "8",
            "--pcg-iters", "2", "--sts-stages", "2",
            "--nominal-shape", "32", "24", "48"]

    def test_sweep_prints_member_table(self, capsys):
        rc = main([*self.ARGS, "--members", "2", "--vary", "b0=0.5:2.0"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "sweep: 2 member(s)" in out
        assert "b0" in out and "pcg_iters" in out and "breakdown" in out

    def test_sweep_writes_manifest(self, tmp_path, capsys):
        import json

        manifest = tmp_path / "sweep.json"
        rc = main([*self.ARGS, "--members", "3", "--vary", "b0=0.5:2.0",
                   "--manifest", str(manifest)])
        assert rc == 0
        doc = json.loads(manifest.read_text())
        assert doc["schema"] == "repro-sweep/1"
        assert doc["members"] == 3
        assert doc["vary"]["b0"] == [0.5, 1.25, 2.0]
        assert len(doc["member_rows"]) == 3

    def test_sweep_log_spacing(self, tmp_path):
        import json

        manifest = tmp_path / "sweep.json"
        assert main([*self.ARGS, "--members", "3",
                     "--vary", "viscosity=1e-4:1e-2:log",
                     "--manifest", str(manifest)]) == 0
        doc = json.loads(manifest.read_text())
        vals = doc["vary"]["viscosity"]
        assert vals[1] == pytest.approx(1e-3)

    def test_sweep_telemetry_dir_gets_sweep_json(self, tmp_path, capsys):
        import json

        tel = tmp_path / "tel"
        assert main([*self.ARGS, "--members", "2", "--vary", "b0=0.5:2.0",
                     "--telemetry", str(tel)]) == 0
        assert json.loads((tel / "sweep.json").read_text())["members"] == 2
        capsys.readouterr()
        assert main(["telemetry", str(tel)]) == 0
        out = capsys.readouterr().out
        assert "per-member convergence (ensemble sweep)" in out

    def test_sweep_rejects_unknown_vary_param(self, capsys):
        assert main([*self.ARGS, "--members", "2", "--vary", "cfl=0.1:0.5"]) == 2
        assert "choose from" in capsys.readouterr().err

    def test_sweep_rejects_log_with_nonpositive_bounds(self, capsys):
        assert main([*self.ARGS, "--members", "2",
                     "--vary", "b0=0:1:log"]) == 2

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("members", ["1", "2"])
    def test_a_bound_that_is_not_finite_is_refused_as_given(self, members, capsys):
        """Spacing an infinite range warns and yields a nan the user never
        typed, and one member would ignore ``hi``: the spec is refused as
        given, in one line."""
        assert main([*self.ARGS, "--members", members, "--vary", "viscosity=1e-3:inf"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "'viscosity=1e-3:inf'" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["run", "--steps", "0"], "--steps must be at least 1"),
            (["run", "--shape", "3", "3", "3"], "at least 4 cells"),
            (["run", "--pcg-iters", "0"], "pcg_iters must be >= 1"),
            (["sweep", "--members", "0"], "--members must be at least 1"),
            (["sweep", "--members", "2", "--vary", "viscosity=-1:1", "--steps", "1",
              "--shape", "8", "6", "8"], "viscosity cannot be negative"),
            (["sweep", "--members", "2", "--vary", "resistivity=nan:1", "--steps", "1",
              "--shape", "8", "6", "8"], "not finite"),
            (["run", "--pcg", "bogus"], "pcg_variant must be one of"),
            (["run", "--precond", "bogus"], "pcg_precond must be one of"),
            (["categories", "--ranks", "0"], "need at least one rank"),
            (["fig3", "--pcg", "bogus"], "pcg_variant must be one of"),
            (["lint", "/nonexistent"], "/nonexistent is not a directory"),
            (["lint", "/nonexistent", "--fix", "--fix-out", "{out}"], "is not a directory"),
            (["port", "/nonexistent", "--to", "dc", "--out", "{out}"], "is not a directory"),
            (["port", "tests/fixtures/external"], "porting an external tree needs --to"),
            (["run", "--pcg-tol", "inf"], "pcg_tol must be finite"),
            (["run", "--pcg-tol", "nan"], "pcg_tol must be finite"),
            (["sweep", "--members", "2", "--vary", "viscosity=1e-3:2e-3",
              "--vary", "viscosity=3e-3:4e-3", "--steps", "1", "--shape", "8", "6", "8"],
             "vary 'viscosity' more than once"),
            (["sweep", "--members", "2", "--vary", "viscosity=abc:1", "--steps", "1",
              "--shape", "8", "6", "8"], "--vary 'viscosity=abc:1': a bound is not a number"),
        ],
    )
    def test_bad_configuration_is_one_line_and_exit_2(
        self, argv, message, tmp_path, capsys
    ):
        """A refused command is reported like a bad ``--vary``: exit code
        2 and one ``error:`` line, no traceback, and nothing written -- no
        telemetry directory, no output tree."""
        from repro.obs.telemetry import current

        out = tmp_path / "out"
        argv = [a.format(out=out) for a in argv]
        assert main([*argv, "--telemetry", str(tmp_path / "tel")]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and message in captured.err
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
        assert captured.out == ""
        assert not current().enabled
        assert not (tmp_path / "tel").exists()
        assert not out.exists()

    @pytest.mark.parametrize("command, flag, value", [
        (["run", "--steps", "1", "--telemetry", "{tel}"], "--telemetry-stream", "-1"),
        (["run", "--steps", "1", "--telemetry", "{tel}"], "--telemetry-snapshots", "-2"),
        (["sweep", "--members", "2", "--telemetry", "{tel}"], "--telemetry-stream", "-1"),
        (["fig4", "--telemetry", "{tel}"], "--telemetry-snapshots", "-1"),
        (["port", "--incremental", "--to", "dc", "--telemetry", "{tel}"], "--limit", "-1"),
        (["critpath", "{tel}"], "--top", "-1"),
    ])
    def test_a_negative_telemetry_cadence_is_one_line_and_exit_2(
        self, command, flag, value, tmp_path, capsys
    ):
        """A negative ``N`` would silently turn streaming or rotation off,
        port nothing, or list all contributors but the last: it is refused
        before any model is built or directory written."""
        tel = tmp_path / "tel"
        assert main([*(a.format(tel=tel) for a in command), flag, value]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {flag} must not be negative\n"
        assert not tel.exists()

    def test_an_experiment_command_reports_it_the_same_way(self, capsys):
        assert main(["categories", "--ranks", "0"]) == 2
        err = capsys.readouterr().err
        assert err == "error: need at least one rank\n"

    def test_one_member_sweep_runs_the_varied_value(self, capsys):
        """``--members 1`` is a run with that parameter set, not the
        default run labelled with it."""
        def dt_column(*vary):
            assert main([*self.ARGS, "--members", "1", *vary]) == 0
            return [line.split("dt=")[1].split()[0]
                    for line in capsys.readouterr().out.splitlines()
                    if line.startswith("step")]

        assert dt_column("--vary", "b0=2:2") != dt_column()
        # a (1,1,1,1) coefficient against 3-D arrays used to raise
        assert dt_column("--vary", "viscosity=4e-3:4e-3") == dt_column()

    def test_critpath_falls_back_on_bare_sweep_dir(self, tmp_path, capsys):
        import json

        d = tmp_path / "sweeponly"
        d.mkdir()
        (d / "sweep.json").write_text(json.dumps({
            "schema": "repro-sweep/1",
            "members": 2,
            "member_rows": [
                {"member": 0, "b0": 0.5, "sim_time": 0.1, "dt": 0.05,
                 "pcg_iterations": 4, "pcg_converged": 0,
                 "pcg_breakdown": False},
                {"member": 1, "b0": 2.0, "sim_time": 0.08, "dt": 0.04,
                 "pcg_iterations": 4, "pcg_converged": 0,
                 "pcg_breakdown": True},
            ],
        }))
        assert main(["critpath", str(d)]) == 0
        out = capsys.readouterr().out
        assert "showing per-member convergence instead" in out
        assert "breakdown" in out

    def test_critpath_still_errors_without_sweep_json(self, tmp_path, capsys):
        d = tmp_path / "empty"
        d.mkdir()
        assert main(["critpath", str(d)]) != 0


class TestOutputErrors:
    """What goes wrong writing output: a closed stdout pipe and an
    unwritable path."""

    RUN = ["run", "--steps", "1", "--shape", "8", "6", "8"]

    @pytest.mark.parametrize("argv", [
        ["table1"], ["lint", "--fixtures", "seeded"], ["telemetry", "{tel}"],
    ])
    def test_a_closed_stdout_pipe_exits_141_without_a_word(self, argv, tmp_path):
        """``repro table1 | head -1`` once head has gone: exit 141 (128 +
        SIGPIPE), nothing on stderr. The reader is closed before the
        command starts, so its first write meets the closed pipe whatever
        the timing; stdout is block-buffered, as in a shell pipeline."""
        import os
        import subprocess
        import sys

        import repro

        tel = tmp_path / "tel"
        if "{tel}" in argv:
            assert main([*self.RUN, "--pcg-iters", "2", "--sts-stages", "2",
                         "--telemetry", str(tel)]) == 0
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(repro.__file__))
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "repro", *(a.format(tel=tel) for a in argv)],
                stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120,
            )
        finally:
            os.close(write_end)
        assert proc.stderr == b""
        assert proc.returncode == 141

    @pytest.mark.parametrize("argv", [
        ["table1", "--csv", "/nonexistent/x.csv"],
        ["lint", "--fixtures", "clean", "--json", "/nonexistent/x.json"],
        [*RUN, "--telemetry", "/dev/null/x"],
    ])
    def test_an_unwritable_path_is_one_line_and_exit_2(self, argv, capsys):
        """Found missing by the job (``--csv``, ``--json``) or by the
        session's finalize (``--telemetry``): one ``error:`` line, exit 2."""
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and argv[-1] in err
