"""ROADMAP's surface rule, computed from the import graph.

A module under ``src/repro`` stays only if an EXPERIMENTS.md section (a
row of ``repro.experiments.catalog``), a bench workload or a CLI command
reaches it. Tests and examples are not roots: what only they import
belongs beside them. A package ``__init__`` only re-exports here, so its
import lines are not edges; a name imported through a package counts as
an import of the module that defines it.
"""

import ast
from pathlib import Path

from repro.experiments.catalog import EXPERIMENTS

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: Unreachable modules that stay, each with the roadmap item that will
#: reach it. The test fails when an entry becomes reachable, so no entry
#: outlives its excuse.
ALLOWED = {
    "repro.mas.history": "ROADMAP item 4 (c): physics health metrics in telemetry",
}


def _modules(src: Path) -> dict[str, Path]:
    out = {}
    for path in (src / "repro").rglob("*.py"):
        parts = path.relative_to(src).with_suffix("").parts
        out[".".join(parts[:-1] if parts[-1] == "__init__" else parts)] = path
    return out


class Graph:
    def __init__(self, src: Path) -> None:
        self.modules = _modules(src)
        #: package -> {local name: (module, name)} of its ``from m import n``
        self.reexports = {
            m: self._imported_names(p)
            for m, p in self.modules.items()
            if self.is_package(m)
        }

    def is_package(self, module: str) -> bool:
        return self.modules[module].name == "__init__.py"

    @staticmethod
    def _imported_names(path: Path) -> dict[str, tuple[str, str]]:
        out = {}
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ImportFrom):
                for a in node.names:
                    out[a.asname or a.name] = (node.module, a.name)
        return out

    def resolve(self, module: str, name: str) -> str | None:
        """The module behind ``from module import name``."""
        if f"{module}.{name}" in self.modules:
            return f"{module}.{name}"
        if not self.is_package(module):
            return module
        source = self.reexports[module].get(name)
        if source is None or source[0] not in self.modules:
            return None  # a plain attribute of the package (``__version__``)
        return self.resolve(*source)

    def edges(self, path: Path) -> set[str]:
        """Every ``repro`` module one file imports, at any nesting depth,
        or reaches as an attribute of an imported package."""
        tree = ast.parse(path.read_text())
        found: set[str] = set()
        bound: dict[str, str] = {}  # local name -> the package it names
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                found.update(a.name for a in node.names if a.name in self.modules)
            elif isinstance(node, ast.ImportFrom) and node.module in self.modules:
                for a in node.names:
                    target = self.resolve(node.module, a.name)
                    if target is not None:
                        found.add(target)
                        if self.is_package(target):
                            bound[a.asname or a.name] = target
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in bound
            ):
                target = self.resolve(bound[node.value.id], node.attr)
                if target is not None:
                    found.add(target)
        return found

    def reachable(self, roots: set[str], root_files: list[Path]) -> set[str]:
        todo = set(roots)
        for path in root_files:
            todo |= self.edges(path)
        seen: set[str] = set()
        while todo:
            module = todo.pop()
            if module in seen:
                continue
            seen.add(module)
            parent = module.rpartition(".")[0]
            if parent:
                todo.add(parent)
            if not self.is_package(module):
                todo |= self.edges(self.modules[module])
        return seen


def unreachable(src: Path, rows: set[str], bench: Path) -> set[str]:
    graph = Graph(src)
    roots = {"repro.cli", "repro.__main__", "repro.experiments.report", *rows}
    reached = graph.reachable(roots, sorted(bench.glob("*.py")))
    return set(graph.modules) - reached


def test_every_module_is_reached_or_allow_listed():
    rows = {row.module for row in EXPERIMENTS}
    missing = unreachable(SRC, rows, ROOT / "bench")
    assert missing == set(ALLOWED), (
        f"unreachable and not allow-listed: {sorted(missing - set(ALLOWED))}; "
        f"allow-listed but reachable (drop the entry): {sorted(set(ALLOWED) - missing)}"
    )


def test_a_package_reexport_is_not_a_use(tmp_path):
    """The rule's two conventions on a toy tree: ``pkg/__init__`` importing
    ``pkg.b`` does not keep it, a name imported through ``pkg`` reaches
    the module defining it, and so does an attribute of ``pkg``."""
    pkg = tmp_path / "repro"
    (pkg / "pkg").mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    (pkg / "__main__.py").write_text("")
    (pkg / "experiments").mkdir()
    (pkg / "experiments" / "__init__.py").write_text("")
    (pkg / "experiments" / "report.py").write_text("")
    (pkg / "pkg" / "__init__.py").write_text(
        "from repro.pkg.a import A\nfrom repro.pkg.b import B\nfrom repro.pkg.c import C\n"
    )
    for name in "abc":
        (pkg / "pkg" / f"{name}.py").write_text(f"{name.upper()} = 1\n")
    (pkg / "cli.py").write_text(
        "def f():\n    from repro.pkg import A\n    from repro import pkg\n    return pkg.C\n"
    )
    assert unreachable(tmp_path, set(), tmp_path / "nobench") == {"repro.pkg.b"}
