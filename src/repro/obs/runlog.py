"""Structured JSONL run logging and the run manifest.

:class:`RunLogger` accumulates structured records -- dicts with an
``event`` discriminator plus arbitrary fields -- and serializes them one
JSON object per line. The model emits one ``step`` record per step (dt,
wall, mpi, per-category simulated seconds), the PCG solver one
``pcg_solve`` record per solve, etc.; ``repro telemetry DIR`` aggregates
them back into tables.

:func:`build_manifest` captures run provenance: CLI command and
arguments, code version(s), grid, seed, git SHA, interpreter and numpy
versions. The manifest is what makes two telemetry directories
comparable across PRs.
"""

from __future__ import annotations

import json
import platform
import subprocess
import sys
from pathlib import Path
from typing import Any, Iterable


def _json_default(o: Any) -> Any:
    item = getattr(o, "item", None)  # numpy scalars -> python scalars
    if callable(item):
        return item()
    if isinstance(o, (set, frozenset, tuple)):
        return list(o)
    return str(o)


def json_dumps(obj: Any) -> str:
    """JSON serialization tolerant of numpy scalars and odd types."""
    return json.dumps(obj, default=_json_default)


def json_object(path: Path) -> dict:
    """The JSON object a file holds, read as bytes: the one loader of the
    JSON-object files the readers and the porter take from disk.
    ``FileNotFoundError`` when the file is missing; ``ValueError`` when it
    is not UTF-8, not JSON or not an object."""
    try:
        data = json.loads(path.read_bytes().decode("utf-8"))
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None
    if not isinstance(data, dict):
        raise ValueError(f"a JSON {type(data).__name__}, not an object")
    return data


def to_jsonl(records: Iterable[dict[str, Any]]) -> str:
    """One JSON object per line."""
    return "\n".join(map(json_dumps, records))


class JsonlWriter:
    """What the run log and the tracer share: streaming their records to a
    JSONL file. :meth:`attach_sink` truncates the file; records then queue
    and are appended every ``flush_every_n`` (or on :meth:`flush`), one
    whole JSON object a line, so a run killed mid-flight still leaves a
    parseable file. Finalization rewrites the file in full."""

    _sink: Path | None = None

    def attach_sink(self, path: str | Path, *, flush_every_n: int = 0) -> None:
        """Stream records to ``path`` (truncated now), flushing every N."""
        self._sink = Path(path)
        self._sink.parent.mkdir(parents=True, exist_ok=True)
        self._sink.write_text("")
        self.flush_every_n, self._pending = flush_every_n, []

    def _queue(self, record: dict[str, Any]) -> None:
        self._pending.append(record)
        if 0 < self.flush_every_n <= len(self._pending):
            self.flush()

    def flush(self) -> int:
        """Append every record queued since the last flush; returns how many."""
        if self._sink is None:
            return 0
        pending, self._pending = self._pending, []
        if pending:
            with self._sink.open("a") as fh:
                fh.write(to_jsonl(pending) + "\n")
        return len(pending)


class RunLogger(JsonlWriter):
    """Append-only structured log, serialized as JSONL.

    By default records accumulate in memory and are written once at
    session finalization; :meth:`attach_sink` turns on streaming. A record
    mutated *after* it was flushed keeps its old content on disk until
    finalization rewrites the file.
    """

    def __init__(self) -> None:
        self.records: list[dict[str, Any]] = []

    def log(self, event: str, **fields: Any) -> dict[str, Any]:
        """Append one record; returns it (mutating it later is visible)."""
        rec: dict[str, Any] = {"event": event, **fields}
        self.records.append(rec)
        if self._sink is not None:
            self._queue(rec)
        return rec

    def to_jsonl(self) -> str:
        """One JSON object per line."""
        return to_jsonl(self.records)


def git_sha(cwd: str | Path | None = None) -> str | None:
    """HEAD commit of the enclosing repo, or None outside git / on error."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=str(cwd) if cwd else str(Path(__file__).resolve().parent),
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = proc.stdout.strip()
    return sha if proc.returncode == 0 and sha else None


def build_manifest(**extra: Any) -> dict[str, Any]:
    """Provenance manifest: environment + whatever the caller adds.

    ``extra`` typically carries ``command`` (CLI subcommand), ``cli``
    (parsed arguments) and ``models`` (per-model config recorded by
    :meth:`~repro.obs.telemetry.Telemetry.bind_model`).
    """
    from repro.util.rng import ROOT_SEED

    try:
        import numpy
        numpy_version = numpy.__version__
    except Exception:  # pragma: no cover - numpy is a hard dependency
        numpy_version = None
    manifest: dict[str, Any] = {
        "schema": "repro-telemetry-manifest/1",
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "numpy": numpy_version,
        "seed": ROOT_SEED,
        "git_sha": git_sha(),
        "argv": list(sys.argv),
    }
    manifest.update(extra)
    return manifest
