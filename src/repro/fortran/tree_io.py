"""Write/read codebases as real file trees.

Lets users inspect the generated MAS versions with ordinary tools (diff,
grep, an editor) and feed hand-edited trees back through the metrics and
transformation passes -- the round trip is exact, byte for byte: a byte
that is not UTF-8 (a Latin-1 comment) loads as a lone surrogate
(``surrogateescape``) and is written back as itself.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable

from repro.fortran.source import Codebase, SourceFile

#: File extensions accepted when loading a tree (compared lowercased, so
#: preprocessed ``.F90``/``.F`` spellings load too).
FORTRAN_SUFFIXES = (".f90", ".f", ".f95", ".f03", ".f08", ".for")


def shown(text: str) -> str:
    """Source text for a message: a byte that is not UTF-8 as ``\\xe9``,
    so findings, JSON and SARIF stay valid UTF-8."""
    return text.encode("utf-8", "surrogateescape").decode("utf-8", "backslashreplace")


def write_files(
    cb: Codebase,
    base: str | Path,
    *,
    line_map: Callable[[str], str] | None = None,
) -> None:
    """Write every file of ``cb`` directly under ``base``.

    File names may be relative posix paths (``solve/pcg.f90``); the
    needed subdirectories are created. Names must stay inside the tree.
    ``line_map`` rewrites each line on the way out (the front end's
    ``restore_opaque`` for trees it degraded on the way in).
    """
    base = Path(base)
    base.mkdir(parents=True, exist_ok=True)
    resolved = base.resolve()
    for f in cb.files:
        target = base / f.name
        if not target.resolve().is_relative_to(resolved):
            raise ValueError(f"file name {f.name!r} escapes the tree")
        target.parent.mkdir(parents=True, exist_ok=True)
        lines = f.lines if line_map is None else map(line_map, f.lines)
        target.write_text(
            "\n".join(lines) + "\n", encoding="utf-8", errors="surrogateescape"
        )


def save_tree(cb: Codebase, root: str | Path, *, overwrite: bool = False) -> Path:
    """Write every file of ``cb`` under ``root/<codebase name>/``."""
    base = Path(root) / cb.name
    if base.exists() and not overwrite:
        raise FileExistsError(f"{base} exists; pass overwrite=True to replace")
    write_files(cb, base)
    return base


def load_tree(
    path: str | Path, *, name: str | None = None, recursive: bool = False
) -> Codebase:
    """Load a directory of Fortran files back into a Codebase.

    Files are ordered by name for determinism; a trailing newline (added
    by :meth:`SourceFile.text`) is not counted as an extra line. With
    ``recursive=True`` subdirectories are walked too and file names are
    tree-relative posix paths.
    """
    base = Path(path)
    if not base.is_dir():
        raise NotADirectoryError(f"{base} is not a directory")
    candidates = base.rglob("*") if recursive else base.iterdir()
    found = [
        p for p in candidates
        if p.is_file() and p.suffix.lower() in FORTRAN_SUFFIXES
    ]
    files = []
    for p in sorted(found, key=lambda p: p.relative_to(base).as_posix()):
        text = p.read_text(encoding="utf-8", errors="surrogateescape")
        lines = text.split("\n")
        if lines and lines[-1] == "":
            lines.pop()
        files.append(SourceFile(p.relative_to(base).as_posix(), lines))
    if not files:
        raise ValueError(f"no Fortran sources ({'/'.join(FORTRAN_SUFFIXES)}) in {base}")
    return Codebase(name or base.name, files)

