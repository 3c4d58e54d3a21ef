"""Command-line interface: ``python -m repro <command>``.

Commands mirror the paper's artifacts plus utility actions:

* one command per experiment row of ``repro.experiments.catalog`` that
  names one (``table1`` .. ``multinode``) -- run it and print it;
* ``run`` -- run the MHD model under a chosen code version;
* ``port`` -- run the source-porting pipeline and show per-version counts;
* ``lint`` -- DC-safety analyzer over ported code, fixtures, or a
  shadow-checked runtime smoke test (``docs/ANALYSIS.md``);
* ``telemetry`` -- summarize one telemetry directory, ``--compare`` two,
  or ``--compare --explain`` a wall-time regression;
* ``critpath`` -- cross-rank critical-path attribution and roofline
  speed-of-light for one telemetry directory;
* ``report`` -- regenerate EXPERIMENTS.md.
"""

from __future__ import annotations

import argparse
import os
import sys
from importlib import import_module
from typing import Callable, Sequence

from repro.codes import CodeVersion, runtime_config_for, version_info


def _add_csv(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--csv", metavar="FILE", help="also write rows as CSV")


def _add_pcg_options(parser: argparse.ArgumentParser) -> None:
    # No ``choices``: ModelConfig refuses an unknown name with one error
    # line, and the parser stays free of the model and numpy.
    parser.add_argument(
        "--pcg",
        default="ca",
        help="PCG solver variant: ca (Chronopoulos-Gear, 1 fused "
        "allreduce/iter, the calibrated default), classic (3 blocking "
        "allreduces/iter, the paper's reference), pipelined "
        "(Ghysels-Vanroose, the fused allreduce overlaps the matvec)",
    )
    parser.add_argument(
        "--precond",
        default="jacobi",
        help="PCG preconditioner: jacobi (diagonal) or cheby (Chebyshev "
        "polynomial, no extra halo exchanges)",
    )


def _add_overlap_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--halo-overlap",
        action="store_true",
        help="overlap halo exchanges with interior compute (split stencils "
        "into interior + boundary-shell passes; needs a code version with "
        "async queues, others degrade to synchronous exchanges)",
    )
    parser.add_argument(
        "--fuse-regions",
        action="store_true",
        help="cross-region launch fusion: collapse adjacent independent "
        "plain-category kernels between synchronization points into single "
        "launches (plan validated against the dependence core)",
    )


def _add_model_options(parser: argparse.ArgumentParser) -> None:
    """What ``run`` and ``sweep`` share: a sweep is a run with members."""
    parser.add_argument("--version", default="A", choices=[v.name for v in CodeVersion])
    parser.add_argument("--ranks", type=int, default=1)
    parser.add_argument("--steps", type=int, default=5)
    parser.add_argument("--shape", type=int, nargs=3, default=[12, 10, 20],
                        metavar=("NR", "NT", "NP"))
    parser.add_argument("--pcg-iters", type=int, default=5)
    parser.add_argument("--pcg-tol", type=float, default=0.0,
                        help="PCG early-exit relative residual (0 = fixed "
                        "iterations, the paper-scale reference semantics); a "
                        "converged sweep member freezes via mask and never "
                        "stalls the batch")
    parser.add_argument("--cheby-degree", type=int, default=3,
                        help="Chebyshev preconditioner degree (--precond cheby)")
    parser.add_argument("--sts-stages", type=int, default=5)
    _add_pcg_options(parser)
    _add_overlap_options(parser)
    _add_telemetry(parser)


def _add_telemetry(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--telemetry",
        metavar="DIR",
        default=None,
        help="collect metrics/spans/logs and write a telemetry directory "
        "(manifest, JSONL log, Prometheus metrics, merged Chrome trace)",
    )
    parser.add_argument(
        "--telemetry-stream",
        metavar="N",
        type=int,
        default=0,
        help="stream log records and completed spans to their JSONL files "
        "every N events (killed runs still leave parseable telemetry)",
    )
    parser.add_argument(
        "--telemetry-snapshots",
        metavar="N",
        type=int,
        default=0,
        help="rotate metrics.json snapshots every N model steps (long "
        "streamed runs keep recent counter states on disk as "
        "metrics.json.1..3)",
    )


def _add_ranks(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--ranks", type=int, default=8)


#: The argument groups an experiment row may name: what adds the flags,
#: and which parsed values go on to the module's ``run``.
_OPTION_GROUPS = {
    "csv": (_add_csv, ()),
    "telemetry": (_add_telemetry, ()),
    "pcg": (_add_pcg_options, ("pcg", "precond")),
    "overlap": (_add_overlap_options, ("halo_overlap", "fuse_regions")),
    "ranks": (_add_ranks, ("ranks",)),
}


def _telemetry_session(args: argparse.Namespace):
    """Activate a telemetry session for one CLI command (no-op without
    ``--telemetry``); records the command line in the run manifest."""
    from repro.obs import session

    cli = {
        k: v
        for k, v in vars(args).items()
        if k not in ("fn", "telemetry") and not callable(v)
    }
    return session(
        getattr(args, "telemetry", None),
        flush_every_n=getattr(args, "telemetry_stream", 0),
        snapshot_every_n=getattr(args, "telemetry_snapshots", 0),
        command=args.command,
        cli=cli,
    )


#: The ``ModelConfig`` field each ``ranks`` / ``pcg`` group value sets.
_CONFIG_FIELDS = {"ranks": "num_ranks", "pcg": "pcg_variant", "precond": "pcg_precond"}


def cmd_experiment(args: argparse.Namespace) -> Callable[[], int]:
    """Every artifact command: run the table row's module and print its
    rendering (``repro.experiments.catalog`` describes the interface).
    The ``ModelConfig`` its options configure checks them first."""
    from repro.experiments.catalog import by_command

    row = by_command(args.command)
    module = import_module(row.module)
    groups = row.command.options
    options = {dest: getattr(args, dest) for g in groups for dest in _OPTION_GROUPS[g][1]}
    config = {_CONFIG_FIELDS[k]: v for k, v in options.items() if k in _CONFIG_FIELDS}
    if config:
        from repro.mas.model import ModelConfig

        ModelConfig(**config)
    def job() -> int:
        result = module.run(**options)
        print(module.render(result))
        if "csv" in groups and args.csv:
            from repro.util.tables import Table

            header, rows = module.csv(result)
            table = Table(header)
            for r in rows:
                table.add_row(r)
            with open(args.csv, "w") as fh:
                fh.write(table.to_csv() + "\n")
            print(f"wrote {args.csv}")
        ok = getattr(module, "ok", None)
        return 0 if ok is None or ok(result) else 1
    return job


def _model_config(args: argparse.Namespace, **ensemble):
    """The ``ModelConfig`` ``run`` and ``sweep`` share: a sweep is a run
    with members. Raises ``ValueError`` for a refused configuration."""
    from repro.mas.model import ModelConfig

    if args.steps < 1:
        raise ValueError("--steps must be at least 1")
    return ModelConfig(
        shape=tuple(args.shape),
        num_ranks=args.ranks,
        pcg_iters=args.pcg_iters,
        pcg_variant=args.pcg,
        pcg_precond=args.precond,
        pcg_tol=args.pcg_tol,
        cheby_degree=args.cheby_degree,
        sts_stages=args.sts_stages,
        halo_overlap=args.halo_overlap,
        **ensemble,
    )


def _run_model(args: argparse.Namespace, config, banner: str):
    """Build and run the model of ``config``: ``banner``, one line per step."""
    from dataclasses import replace

    from repro.mas.model import MasModel

    rt_cfg = runtime_config_for(CodeVersion[args.version])
    if args.fuse_regions:
        rt_cfg = replace(rt_cfg, cross_region_fusion=True)
    model = MasModel(config, rt_cfg)
    print(banner)
    for i, t in enumerate(model.run(args.steps)):
        print(
            f"step {i:3d}  dt={t.dt:.5f}  wall={t.wall * 1e3:8.2f} ms  "
            f"mpi={t.mpi * 1e3:7.2f} ms  launches={t.launches}"
        )
    return model


def cmd_run(args: argparse.Namespace) -> Callable[[], int]:
    config = _model_config(args)
    info = version_info(CodeVersion[args.version])
    def job() -> int:
        model = _run_model(args, config, f"running {info.tag}: {info.description}")
        d = model.diagnostics()
        print(
            f"done: t={model.time:.4f}, mass={d['mass']:.4f}, "
            f"max|divB|={d['max_divb']:.2e}, max vr={d['max_vr']:.4f}"
        )
        return 0
    return job


def _parse_vary(spec: str, members: int) -> tuple[str, tuple[float, ...]]:
    """Parse one ``param=lo:hi[:log]`` sweep axis into per-member values."""
    import numpy as np

    from repro.mas.model import ENSEMBLE_VARY_PARAMS

    name, sep, rng = spec.partition("=")
    if not sep or not rng:
        raise ValueError(f"--vary {spec!r}: expected param=lo:hi[:log]")
    if name not in ENSEMBLE_VARY_PARAMS:
        raise ValueError(
            f"--vary {name!r}: choose from {', '.join(ENSEMBLE_VARY_PARAMS)}"
        )
    parts = rng.split(":")
    log = parts[-1] == "log"
    if log:
        parts = parts[:-1]
    if len(parts) != 2:
        raise ValueError(f"--vary {spec!r}: expected param=lo:hi[:log]")
    try:
        lo, hi = float(parts[0]), float(parts[1])
    except ValueError:
        raise ValueError(f"--vary {spec!r}: a bound is not a number") from None
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise ValueError(f"--vary {spec!r}: a bound is not finite")
    if log and (lo <= 0 or hi <= 0):
        raise ValueError(f"--vary {spec!r}: log spacing needs positive bounds")
    if members == 1:
        values = np.array([lo])
    elif log:
        values = np.geomspace(lo, hi, members)
    else:
        values = np.linspace(lo, hi, members)
    return name, tuple(float(v) for v in values)


def cmd_sweep(args: argparse.Namespace) -> Callable[[], int]:
    """Ensemble parameter sweep: B members advanced in one batched model."""
    import json as _json
    from pathlib import Path

    from repro.mas.model import ModelConfig
    from repro.obs.reader import decode_members
    from repro.obs.summary import member_table
    from repro.obs.telemetry import SWEEP_FILE

    version = CodeVersion[args.version]
    if args.members < 1:
        raise ValueError("--members must be at least 1")
    vary = tuple(_parse_vary(s, args.members) for s in args.vary)
    if args.nominal_shape is not None:
        nominal = tuple(args.nominal_shape)
    else:
        # The paper grid per member would overflow the simulated device at
        # B >= 4; shrink each member's nominal phi extent so the aggregate
        # batch footprint stays at paper scale.
        nr, nt, nphi = ModelConfig.__dataclass_fields__["nominal_shape"].default
        nominal = (nr, nt, max(1, nphi // args.members))
    config = _model_config(
        args, nominal_shape=nominal, ensemble_size=args.members, ensemble_vary=vary
    )
    def job() -> int:
        model = _run_model(
            args,
            config,
            f"sweep: {args.members} member(s) under "
            f"{version_info(version).tag}, varying "
            f"{', '.join(n for n, _ in vary) if vary else 'nothing'}",
        )
        manifest = {
            "schema": "repro-sweep/1",
            "members": args.members,
            "vary": {name: list(values) for name, values in vary},
            "version": version.name,
            "ranks": args.ranks,
            "steps": args.steps,
            "shape": list(args.shape),
            "nominal_shape": list(nominal),
            "pcg_variant": args.pcg,
            "pcg_precond": args.precond,
            "member_rows": model.ensemble_report(),
        }
        print(f"\n{member_table(decode_members(manifest))}")
        targets = []
        if args.telemetry:
            targets.append(Path(args.telemetry) / SWEEP_FILE)
        if args.manifest:
            targets.append(Path(args.manifest))
        for target in targets:
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(_json.dumps(manifest, indent=2) + "\n")
            print(f"wrote {target}")
        return 0
    return job


def cmd_port(args: argparse.Namespace) -> Callable[[], int]:
    from repro.experiments.table1 import run_table1

    if args.path or args.incremental:
        return _port_external(args)
    if args.to:
        return _port_to(args)
    def job() -> int:
        print("porting pipeline (Code 1 -> all versions):")
        for row in run_table1():
            print(f"  {row.tag:10s} {row.total_lines:6d} lines  {row.acc_lines:5d} !$acc")
        return 0
    return job


def _port_external(args: argparse.Namespace) -> Callable[[], int]:
    """Incremental per-file port of an external tree (front-end lowered)."""
    from repro.analysis.port import (
        PortTarget, port_tree_incremental, read_manifest, write_ported_tree,
    )
    from repro.fortran.frontend import lower_tree
    from repro.fortran.tree_io import load_tree

    if not args.to:
        raise ValueError("porting an external tree needs --to")
    target = PortTarget(args.to)
    tree = load_tree(args.path, recursive=True) if args.path else None
    def job() -> int:
        if tree is not None:
            res = lower_tree(tree)
            for d in res.diagnostics:
                print(f"  {d.render()}")
            cb = res.codebase
        else:
            from repro.fortran.codebase import generate_mas_codebase

            cb = generate_mas_codebase()
        prior = {}
        if args.out:
            try:
                prior = read_manifest(args.out)
            except ValueError as exc:
                print(f"note: ignoring the {exc}; porting from scratch",
                      file=sys.stderr)
        result = port_tree_incremental(cb, target, prior=prior, limit=args.limit)
        print(result.summary())
        for s in sorted(result.statuses, key=lambda s: s.name):
            if s.status != "ported":
                print(f"  {s.status}: {s.name}" + (f" ({s.reason})" if s.reason else ""))
        if args.out:
            write_ported_tree(result, args.out)
            print(f"wrote {args.out}")
        return 0
    return job


def _port_to(args: argparse.Namespace) -> Callable[[], int]:
    """Analyzer-driven port to one target, optionally verified."""
    from repro.analysis.port import PortRefusedError, PortTarget, port_codebase, verify_port
    from repro.fortran.codebase import generate_mas_codebase

    target = PortTarget(args.to)
    def job() -> int:
        code1 = generate_mas_codebase()
        try:
            result = port_codebase(target, code1=code1)
        except PortRefusedError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(result.summary())
        for r in result.refused:
            print(f"  refused: {r.render()}")
        for fname, line in result.dropped_atomics:
            print(f"  dropped atomic (code modification): {fname}:{line}")
        if not args.verify:
            return 0
        report = verify_port(result, code1=code1)
        print(report.render())
        return 0 if report.ok else 1
    return job


def cmd_report(args: argparse.Namespace) -> Callable[[], int]:
    from repro.experiments.report import main as report_main
    def job() -> int:
        report_main(args.output)
        return 0
    return job


def cmd_telemetry(args: argparse.Namespace) -> Callable[[], int]:
    from repro.obs.summary import summarize_dir

    if args.explain and not args.compare:
        raise ValueError("--explain needs --compare A B")
    if not args.compare and args.dir is None:
        raise ValueError("a telemetry DIR (or --compare A B) is required")
    def job() -> int:
        try:
            if args.compare and args.explain:
                from repro.obs.explain import explain_dirs, render_explain

                a_dir, b_dir = args.compare
                print(render_explain(explain_dirs(a_dir, b_dir), a_name=a_dir, b_name=b_dir))
            elif args.compare:
                from repro.obs.compare import compare_metrics, load_metrics, render_compare
                from repro.obs.reader import decode_metrics, skipped_notes

                a_dir, b_dir = args.compare
                try:
                    a, b = decode_metrics(load_metrics(a_dir)), decode_metrics(load_metrics(b_dir))
                except ValueError as exc:  # there, but not a snapshot
                    print(f"error: {exc}", file=sys.stderr)
                    return 1
                print(render_compare(compare_metrics(a, b), a_name=a_dir, b_name=b_dir))
                for where, metrics in ((a_dir, a), (b_dir, b)):
                    for note in skipped_notes(metrics):
                        print(f"note: {where}: {note}")
            elif args.chrome_trace:
                return _export_chrome_trace(args.dir, args.chrome_trace)
            else:
                print(summarize_dir(args.dir))
        except FileNotFoundError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        return 0
    return job


def _export_chrome_trace(tel_dir: str, out: str) -> int:
    """A finalized directory's event record and spans as the Chrome trace
    a live session would export."""
    from repro.obs.reader import TelemetryDir, decode_spans, skipped_notes
    from repro.perf.trace_export import write_chrome_trace

    tel = TelemetryDir(tel_dir)
    events = tel.stream("events")
    lines = tel.lines("spans")
    spans = decode_spans(lines)
    try:
        path = write_chrome_trace(events.required(), out, spans=spans)
    except ValueError as exc:
        print(f"error: cannot export {events.name} in {tel.path}: {exc}", file=sys.stderr)
        return 1
    for note in skipped_notes(lines, spans):  # only once the trace is written
        print(f"note: {note}", file=sys.stderr)
    print(f"wrote {path} ({path.stat().st_size} bytes; open at https://ui.perfetto.dev)")
    return 0


def _sweep_fallback(tel, where: str, reason: str, error: str) -> int:
    """A sweep directory's batched-kernel trace has no per-rank critical
    path: show its per-member convergence instead (``error``, exit 1,
    when there is no sweep manifest). A damaged manifest is one error
    line; member rows the reader drops are one note."""
    from repro.obs.reader import decode_members, skipped_notes
    from repro.obs.summary import member_table

    sweep = tel.stream("sweep")
    if sweep.missing:
        print(f"error: {error}", file=sys.stderr)
    elif sweep.value is None:
        print(f"error: unreadable {sweep.name} in {where}: not a JSON object", file=sys.stderr)
    elif not isinstance(sweep.value.get("member_rows") or [], list):
        print(f"error: {sweep.name} in {where}: member_rows is not a list", file=sys.stderr)
    else:
        print(f"(sweep telemetry directory: {reason}; showing per-member convergence instead)")
        members = decode_members(sweep.value)
        for note in skipped_notes(members):
            print(f"note: {note}", file=sys.stderr)
        if members:
            print(member_table(members))
        return 0
    return 1


def cmd_critpath(args: argparse.Namespace) -> Callable[[], int]:
    from repro.obs.critpath import analyze_record, render_result, results_to_json
    from repro.obs import reader
    from repro.perf.roofline import (
        DEFAULT_SOL_THRESHOLD, peaks_from_manifest, render_roofline, roofline_from_metrics,
    )
    def job() -> int:
        try:
            tel = reader.TelemetryDir(args.dir)
        except FileNotFoundError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        events = tel.stream("events")
        if events.missing:
            missing = f"no {events.name} in {tel.path}"
            return _sweep_fallback(tel, args.dir, missing, missing)
        if events.error is not None:
            print(f"error: unreadable {events.name} in {args.dir}: {events.error}", file=sys.stderr)
            return 1
        lines = tel.lines("spans")
        spans = reader.decode_spans(lines)
        metrics = reader.decode_metrics(tel.stream("metrics").value)
        manifest = tel.stream("manifest").value
        for note in reader.skipped_notes(lines, spans, metrics, reader.decode_models(manifest)):
            print(f"note: {note}", file=sys.stderr)
        results = analyze_record(events.value, spans=spans)
        if not results:
            reason = "trace has no per-rank profiler events"
            return _sweep_fallback(tel, args.dir, reason, f"{reason} to analyze")
        if args.json:
            import json as _json
            from pathlib import Path

            payload = results_to_json(results)
            Path(args.json).write_text(_json.dumps(payload, indent=2) + "\n")
            print(f"wrote {args.json}")
        for result in results.values():
            print(render_result(result, top=args.top))
            print()
        peaks = peaks_from_manifest(manifest)
        if peaks is not None and metrics:
            rows = roofline_from_metrics(metrics, peaks)
            if rows:
                threshold = DEFAULT_SOL_THRESHOLD if args.sol_threshold is None else args.sol_threshold
                print(render_roofline(rows, peaks, threshold=threshold))
        else:
            print("(no machine peaks / kernel counters; roofline table skipped)")
        return 0
    return job


def _lint_codebases(args: argparse.Namespace, trees: list) -> list:
    """The ``(codebase, frontend findings, parse census)`` triples one
    ``repro lint`` invocation covers: the external ``trees`` lowered,
    else a fixture corpus or the ported versions."""
    if trees:
        from repro.fortran.frontend import lower_tree

        return [(r.codebase, r.diagnostics, r.census) for r in map(lower_tree, trees)]
    if args.fixtures:
        from repro.analysis.fixtures import clean_codebase, seeded_bug_codebase

        cb = (
            seeded_bug_codebase() if args.fixtures == "seeded"
            else clean_codebase()
        )
        return [(cb, [], None)]
    from repro.fortran.codebase import generate_mas_codebase
    from repro.fortran.pipeline import build_version

    code1 = generate_mas_codebase()
    versions = (
        list(CodeVersion) if args.version == "all"
        else [CodeVersion[args.version]]
    )
    return [(build_version(v, code1=code1), [], None) for v in versions]


def cmd_lint(args: argparse.Namespace) -> Callable[[], int]:
    from repro.analysis.findings import Severity, max_severity, sort_findings
    from repro.analysis.report import (
        explain_rule, findings_to_json, findings_to_sarif, render_findings,
    )
    from repro.fortran.tree_io import load_tree

    # read before anything runs: a path that holds no Fortran tree is refused
    trees = [] if args.explain else [load_tree(p, recursive=True) for p in args.paths]
    def job() -> int:
        if args.explain:
            print(explain_rule(args.explain))
            return 0
        from repro.analysis.fixes import attach_fixes
        from repro.analysis.fortran_lint import analyze_codebase

        triples = _lint_codebases(args, trees)
        if args.call_graph:
            from repro.analysis.interproc import callgraph_dot, callgraph_json, summarize

            for cb, _fe, _census in triples:
                result = summarize(cb)
                if args.call_graph == "dot":
                    print(callgraph_dot(result), end="")
                else:
                    print(callgraph_json(result), end="")
            return 0
        if args.cost:
            from repro.analysis.cost import estimate_cost

            for cb, _fe, census in triples:
                print(estimate_cost(cb, census=census).render())
            return 0
        per_cb = []  # (codebase, findings) pairs, fixes attached
        for cb, fe_findings, _census in triples:
            merged = sort_findings([*analyze_codebase(cb), *fe_findings])
            per_cb.append(((cb, fe_findings), attach_fixes(cb, merged)))
        findings = [f for _cb, fs in per_cb for f in fs]
        if args.fix:
            from repro.analysis.rewriter import apply_finding_fixes

            findings = []
            for (cb, fe_findings), fs in per_cb:
                rep = apply_finding_fixes(cb, fs)
                print(f"{cb.name}: {rep.summary()}")
                after = attach_fixes(
                    cb, sort_findings([*analyze_codebase(cb), *fe_findings])
                )
                findings.extend(after)
            if args.fix_out:
                from repro.fortran.frontend.lower import restore_opaque
                from repro.fortran.tree_io import write_files

                # invert the front end's opaque degrades so skipped
                # constructs round-trip
                for (cb, _fe), _fs in per_cb:
                    write_files(cb, args.fix_out, line_map=restore_opaque)
                print(f"wrote {args.fix_out}")
        if args.runtime:
            from repro.analysis.fixes import attach_spec_fixes
            from repro.analysis.shadow import shadow_smoke

            rt_version = args.version if args.version != "all" else "A"
            findings.extend(attach_spec_fixes(shadow_smoke(rt_version)))
        if args.format == "json":
            print(findings_to_json(findings))
        elif args.format == "sarif":
            print(findings_to_sarif(findings))
        else:
            print(render_findings(findings))
        if args.json:
            with open(args.json, "w") as fh:
                fh.write(findings_to_json(findings) + "\n")
            print(f"wrote {args.json}")
        if args.sarif:
            with open(args.sarif, "w") as fh:
                fh.write(findings_to_sarif(findings) + "\n")
            print(f"wrote {args.sarif}")
        if args.fail_on == "never" or not findings:
            return 0
        threshold = Severity[args.fail_on.upper()]
        worst = max_severity(findings)
        return 1 if worst is not None and worst >= threshold else 0
    return job


def build_parser() -> argparse.ArgumentParser:
    from repro.experiments.catalog import HELP_ORDER, by_command

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of the MAS OpenACC -> do concurrent paper",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_experiments(names: tuple[str, ...]) -> None:
        for name in names:
            command = by_command(name).command
            p = sub.add_parser(command.name, help=command.help)
            for group in command.options:
                _OPTION_GROUPS[group][0](p)
            p.set_defaults(fn=cmd_experiment)

    add_experiments(HELP_ORDER[0])

    p = sub.add_parser("run", help="run the MHD model under one code version")
    _add_model_options(p)
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser(
        "sweep",
        help="ensemble parameter sweep: advance B members in one batched model",
    )
    p.add_argument("--members", type=int, required=True, metavar="N",
                   help="ensemble size B (all members advance in one "
                   "batched kernel stream; launches and halo messages "
                   "amortize ~B-fold)")
    p.add_argument("--vary", action="append", default=[],
                   metavar="PARAM=LO:HI[:log]",
                   help="sweep one parameter linearly (or log-spaced) "
                   "across members; repeatable; params: b0, perturbation, "
                   "viscosity, resistivity")
    p.add_argument("--manifest", metavar="FILE", default=None,
                   help="also write the sweep manifest JSON here (always "
                   "written into the --telemetry dir as sweep.json)")
    p.add_argument("--nominal-shape", type=int, nargs=3, default=None,
                   metavar=("NR", "NT", "NP"),
                   help="per-member nominal (cost-model) grid; defaults to "
                   "the paper grid with its phi extent divided by B so the "
                   "whole batch fits simulated device memory")
    _add_model_options(p)
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("port", help="run the source-porting pipeline")
    p.add_argument("path", nargs="?", default=None,
                   help="external Fortran tree to port incrementally "
                   "(loaded through the tolerant front end); default: the "
                   "vendored repro codebase")
    p.add_argument("--to", default=None,
                   choices=["acc-opt", "dc", "pure-dc"],
                   help="analyzer-driven port to one target: acc-opt (Code "
                   "2), pure-dc (Code 5), dc (Code 6, the production "
                   "endpoint); default: hand-built pipeline summary")
    p.add_argument("--verify", action="store_true",
                   help="differentially verify the port against the "
                   "hand-built version (lint set, census, region kinds)")
    p.add_argument("--incremental", action="store_true",
                   help="per-file porting with a ported/pending/refused "
                   "manifest (external trees are always ported per file; "
                   "combine with --out and --limit)")
    p.add_argument("--out", metavar="DIR", default=None,
                   help="write the ported tree plus port-manifest.json "
                   "here; re-runs read the manifest back for incremental "
                   "progress")
    p.add_argument("--limit", type=int, default=None, metavar="N",
                   help="port at most N not-yet-ported files this run "
                   "(the rest are recorded as pending)")
    _add_telemetry(p)
    p.set_defaults(fn=cmd_port)

    p = sub.add_parser("report", help="regenerate EXPERIMENTS.md")
    p.add_argument("--output", default=None)
    p.set_defaults(fn=cmd_report)

    add_experiments(HELP_ORDER[1])

    p = sub.add_parser("telemetry", help="summarize a telemetry directory")
    p.add_argument("dir", nargs="?", default=None,
                   help="directory written by a --telemetry run")
    p.add_argument("--compare", nargs=2, metavar=("A", "B"), default=None,
                   help="diff the metrics.json of two telemetry directories")
    p.add_argument("--explain", action="store_true",
                   help="with --compare: decompose the wall-time delta "
                   "hierarchically (category -> phase -> kernel -> rank) "
                   "and rank the top contributors")
    p.add_argument("--chrome-trace", metavar="OUT.json", default=None,
                   help="export DIR's event record and spans as a Chrome "
                   "trace (what trace.json used to be) for Perfetto")
    p.set_defaults(fn=cmd_telemetry)

    p = sub.add_parser(
        "critpath",
        help="cross-rank critical-path attribution for a telemetry directory",
    )
    p.add_argument("dir", help="directory written by a --telemetry run "
                   "(needs its events.npz)")
    p.add_argument("--top", type=int, default=10,
                   help="top critical-path contributors to list (default 10)")
    p.add_argument("--json", metavar="FILE", default=None,
                   help="also write the analysis as JSON")
    p.add_argument("--sol-threshold", type=float, default=None,
                   help="flag kernels below this speed-of-light fraction "
                   "in the roofline table (default 0.5)")
    p.set_defaults(fn=cmd_critpath)

    p = sub.add_parser(
        "lint",
        help="DC-safety analyzer: dependence, directive, and data-region lint",
    )
    p.add_argument("paths", nargs="*", default=[],
                   help="external Fortran trees to lint (lowered through "
                   "the tolerant real-Fortran front end); default: the "
                   "vendored repro code versions")
    p.add_argument("--cost", action="store_true",
                   help="print the porting-cost report (regions bucketed "
                   "by safety class, projected post-port census) instead "
                   "of findings")
    p.add_argument("--call-graph", default=None, choices=["dot", "json"],
                   dest="call_graph", metavar="FMT",
                   help="print the interprocedural call graph (dot|json) "
                   "with per-routine purity verdicts instead of findings")
    p.add_argument("--fix-out", metavar="DIR", default=None,
                   help="with --fix: write the fixed tree here (sources "
                   "are never modified in place; whitespace and "
                   "continuations come out normalized)")
    p.add_argument("--version", default="all",
                   choices=["all"] + [v.name for v in CodeVersion],
                   help="lint one ported code version (default: all six)")
    p.add_argument("--fixtures", choices=["seeded", "clean"], default=None,
                   help="lint a fixture corpus instead of the ported code")
    p.add_argument("--runtime", action="store_true",
                   help="also run the shadow-checked model smoke test")
    p.add_argument("--fix", action="store_true",
                   help="apply the machine-generated fixes in place and "
                   "re-lint; prints the apply report per codebase")
    p.add_argument("--explain", metavar="RULE", default=None,
                   help="print the catalog entry for one rule id and exit")
    p.add_argument("--format", default="table",
                   choices=["table", "json", "sarif"],
                   help="stdout format for the findings (default: table)")
    p.add_argument("--json", metavar="FILE", help="write findings as JSON")
    p.add_argument("--sarif", metavar="FILE",
                   help="write findings as SARIF 2.1.0 (CI code-scanning)")
    p.add_argument("--fail-on", default="warning",
                   choices=["note", "warning", "error", "never"],
                   help="exit 1 when any finding is at or above this severity")
    _add_telemetry(p)
    p.set_defaults(fn=cmd_lint)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns a process exit code.

    The command's check (``args.fn``) refuses bad input before anything
    exists; only then does its job run, under the one telemetry session.
    A refusal, or a ``ValueError``/``OSError`` out of the job or the
    session's finalize, is one ``error:`` line and exit 2. A closed stdout
    pipe exits 141 (128 + SIGPIPE) without a word.
    """
    args = build_parser().parse_args(argv)
    try:
        for flag in ("telemetry_stream", "telemetry_snapshots", "limit", "top"):
            if (getattr(args, flag, None) or 0) < 0:
                raise ValueError(f"--{flag.replace('_', '-')} must not be negative")
        job: Callable[[], int] = args.fn(args)
        with _telemetry_session(args):
            code = job()
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
        return code
    except BrokenPipeError:
        # Python's recipe: the flush at exit then writes to /dev/null
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 141
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via tests of main()
    sys.exit(main())
