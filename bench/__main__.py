"""Command line of the benchmark.

    python3 -m bench                        every workload, traced, results written
    python3 -m bench --workload NAME --seed N --seconds S --trace 0|1
                                            one workload in this process (driver contract)
    python3 -m bench compare A.json B.json  verdict per (workload, metric)
    python3 -m bench aa                     the whole benchmark twice, then compare
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import subprocess
import sys
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent


def _make_repro_importable() -> None:
    """``repro`` is a src-layout package that need not be installed."""
    if importlib.util.find_spec("repro") is None:
        sys.path.insert(0, str(ROOT / "src"))
    if importlib.util.find_spec("repro") is None:
        raise SystemExit("bench: cannot import 'repro' (no src/ next to bench/)")


def _one(args: argparse.Namespace) -> int:
    """Run one workload here; the last stdout line is the driver's JSON."""
    from bench import harness, report, schema, workloads

    w = workloads.all_workloads()[args.workload]
    result = harness.run_workload(
        w, seed=args.seed, seconds=args.seconds, trace=bool(args.trace)
    )
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(result))
    print(report.render_result(result))
    group = "per_layer" if args.trace else "end_to_end"
    print(report.driver_line(result, group, schema.specs(group)), flush=True)
    return 0 if result["correct"] else 1


def _all(args: argparse.Namespace, results_dir: Path | None = None) -> dict[str, Any]:
    """Every workload, each in a fresh process so peak RSS and the
    program's process-global caches are per workload."""
    from bench import harness, report, schema, workloads
    from repro.obs import git_sha

    results_dir = results_dir or harness.RESULTS_DIR
    scratch = workloads.WORK_DIR
    scratch.mkdir(parents=True, exist_ok=True)
    results: dict[str, dict[str, Any]] = {}
    for name in schema.workload_names():
        out = scratch / f"result_{name}.json"
        out.unlink(missing_ok=True)
        proc = subprocess.run(
            [sys.executable, "-m", "bench", "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", "1", "--out", str(out)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )
        # the child printed its table then the driver line; show the table
        print("\n".join(proc.stdout.splitlines()[:-1]), flush=True)
        if not out.exists():
            raise SystemExit(f"bench: workload {name} produced no result (exit {proc.returncode})")
        results[name] = json.loads(out.read_text())
        out.unlink()
    run = report.run_document(
        results, commit=git_sha(ROOT), seed=args.seed, seconds=args.seconds
    )
    report.write_run(run, results_dir)
    return run


def _run_ok(run: dict[str, Any]) -> bool:
    return all(r["correct"] for r in run["workloads"].values())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m bench", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("command", nargs="?", default="run", choices=("run", "compare", "aa"))
    parser.add_argument("files", nargs="*", help="compare: A.json B.json")
    parser.add_argument("--workload", help="run only this workload, in this process")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time the rounds are sized for (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full result document here")
    args = parser.parse_args(argv)

    from bench import schema

    if args.seconds is None:
        args.seconds = float(schema.manifest()["run_seconds"])
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if args.command == "compare":
        from bench import compare

        if len(args.files) != 2:
            parser.error("compare needs two result files: A.json B.json")
        a, b = (json.loads(Path(f).read_text()) for f in args.files)
        rows = compare.compare(a, b)
        print(compare.render(rows))
        return 1 if compare.failing(rows) else 0

    _make_repro_importable()
    if args.command == "aa":
        from bench import compare, workloads

        first = _all(args, workloads.WORK_DIR / "aa_first")
        second = _all(args)
        rows = compare.compare(first, second)
        print(compare.render(rows))
        return 1 if compare.failing(rows) or not (_run_ok(first) and _run_ok(second)) else 0
    if args.workload is not None:
        if args.workload not in schema.workload_names():
            parser.error(f"unknown workload {args.workload!r}; choose from "
                         f"{', '.join(schema.workload_names())}")
        return _one(args)
    return 0 if _run_ok(_all(args)) else 1


if __name__ == "__main__":
    sys.exit(main())
