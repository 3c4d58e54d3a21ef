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
from typing import Any


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


class RunLogger:
    """Append-only structured log, serialized as JSONL.

    By default records accumulate in memory and are written once at
    session finalization. :meth:`attach_sink` turns on streaming: records
    append to a JSONL file as they arrive (every ``flush_every_n``
    records, or on explicit :meth:`flush`), so a run killed mid-flight
    still leaves a parseable log -- every flushed line is a complete JSON
    object. A record mutated *after* it was flushed keeps its old content
    on disk until finalization rewrites the file.
    """

    def __init__(self) -> None:
        self.records: list[dict[str, Any]] = []
        self._sink: Path | None = None
        self.flush_every_n = 0
        self._flushed = 0

    def attach_sink(self, path: str | Path, *, flush_every_n: int = 0) -> None:
        """Stream records to ``path`` (truncated now), flushing every N."""
        self._sink = Path(path)
        self._sink.parent.mkdir(parents=True, exist_ok=True)
        self._sink.write_text("")
        self.flush_every_n = flush_every_n
        self._flushed = 0

    def log(self, event: str, **fields: Any) -> dict[str, Any]:
        """Append one record; returns it (mutating it later is visible)."""
        rec: dict[str, Any] = {"event": event, **fields}
        self.records.append(rec)
        if (
            self._sink is not None
            and self.flush_every_n > 0
            and len(self.records) - self._flushed >= self.flush_every_n
        ):
            self.flush()
        return rec

    def flush(self) -> int:
        """Append every not-yet-flushed record to the sink; returns count."""
        if self._sink is None:
            return 0
        pending = self.records[self._flushed :]
        if not pending:
            return 0
        with self._sink.open("a") as fh:
            for r in pending:
                fh.write(json_dumps(r) + "\n")
        self._flushed = len(self.records)
        return len(pending)

    def to_jsonl(self) -> str:
        """One JSON object per line."""
        return "\n".join(json_dumps(r) for r in self.records)


class NullRunLogger:
    """Logger twin for disabled telemetry."""

    __slots__ = ()

    records: tuple = ()
    flush_every_n = 0

    def log(self, event: str, **fields: Any) -> None:
        return None

    def attach_sink(self, path: Any, *, flush_every_n: int = 0) -> None:
        return None

    def flush(self) -> int:
        return 0

    def to_jsonl(self) -> str:
        return ""


NULL_LOGGER = NullRunLogger()


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
