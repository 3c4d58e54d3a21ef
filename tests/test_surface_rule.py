"""ROADMAP's surface rule, computed from the import graph and the names.

A module under ``src/repro`` stays only if an EXPERIMENTS.md section (a
row of ``repro.experiments.catalog``), a bench workload or a CLI command
reaches it. Tests and examples are not roots: what only they import
belongs beside them. A package ``__init__`` only re-exports here, so its
import lines are not edges; a name imported through a package counts as
an import of the module that defines it.

The same holds one level down: a public top-level function or class, and
a public method or property of a top-level class, stays only if some
``src/repro`` or bench file names it besides its definition. A name is a
use wherever it is code (a name, an attribute, an import) or a word of a
string literal (the bench patches methods by name); a docstring, and a
package ``__init__``'s re-exports, are not uses.

And one level further: a ``ModelConfig`` field stays only if some
``src/repro`` file besides ``mas/model.py``, or a bench file, sets it -- passes
it as a keyword or names it as a word of a string literal (the CLI maps
its options to fields by name). A field every program leaves at its
default is a constant.
"""

import ast
import re
from dataclasses import fields
from pathlib import Path

from repro.experiments.catalog import EXPERIMENTS
from repro.mas.model import ModelConfig

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: Unreachable modules that stay, each with the roadmap item that will
#: reach it. The test fails when an entry becomes reachable, so no entry
#: outlives its excuse.
ALLOWED = {
    "repro.mas.history": "ROADMAP item 4 (c): physics health metrics in telemetry",
}

#: Public symbols no program file names, each with its reason; like
#: ``ALLOWED``, an entry fails the test once it is named or gone.
ALLOWED_SYMBOLS = {
    "repro.runtime.clock.SimClock.observer_count": "test hook: leak checks count a clock's observers",
    "repro.obs.events.Profiler.attached_count": "test hook: leak checks count a profiler's clocks",
}


#: ``ModelConfig`` fields no program sets, each with its reason; like
#: ``ALLOWED_SYMBOLS``, an entry fails the test once it is set or gone.
ALLOWED_OPTIONS = {
    "fixed_dt": "test hook: tests fix the step to compare runs step for step",
    "dt_growth_limit": "test hook: tests tighten the step ramp (checkpoint restart, growth cap)",
    "semi_implicit": "physics extension (DESIGN.md section 9) that tests and the migration gate reach",
    "si_theta": "strength of the semi-implicit extension, set with it",
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


_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _docstrings(tree: ast.AST) -> set[int]:
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                out.add(id(first.value))
    return out


def _names_used(path: Path) -> set[str]:
    """Every identifier one file uses (see the module docstring)."""
    tree = ast.parse(path.read_text())
    skipped = _docstrings(tree)
    if path.name == "__init__.py":
        for node in tree.body:
            reexport = isinstance(node, (ast.Import, ast.ImportFrom)) or (
                isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            )
            if reexport:
                skipped.update(id(sub) for sub in ast.walk(node))
    used: set[str] = set()
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name.rpartition(".")[2])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.update(_IDENTIFIER.findall(node.value))
    return used


def _public(body: list[ast.stmt]) -> list[ast.FunctionDef | ast.AsyncFunctionDef | ast.ClassDef]:
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return [n for n in body if isinstance(n, kinds) and not n.name.startswith("_")]


def unnamed_symbols(src: Path, bench: Path, skip: set[str]) -> set[str]:
    """Qualified names of the public symbols under ``src/repro`` (outside
    the modules in ``skip``) that no file of ``src/repro`` or ``bench`` uses."""
    modules = _modules(src)
    used: set[str] = set()
    for path in [*modules.values(), *sorted(bench.glob("**/*.py"))]:
        used |= _names_used(path)
    out = set()
    for module, path in modules.items():
        if module in skip:
            continue
        for node in _public(ast.parse(path.read_text()).body):
            if node.name not in used:
                out.add(f"{module}.{node.name}")
            if isinstance(node, ast.ClassDef):
                out.update(
                    f"{module}.{node.name}.{member.name}"
                    for member in _public(node.body)
                    if not isinstance(member, ast.ClassDef) and member.name not in used
                )
    return out


def options_set(paths: list[Path]) -> set[str]:
    """Every keyword a call in ``paths`` passes, and every word of their
    string literals (docstrings aside)."""
    out: set[str] = set()
    for path in paths:
        tree = ast.parse(path.read_text())
        skipped = _docstrings(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.keyword) and node.arg is not None:
                out.add(node.arg)
            elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and id(node) not in skipped):
                out.update(_IDENTIFIER.findall(node.value))
    return out


def test_every_model_option_is_set_or_allow_listed():
    programs = [p for m, p in _modules(SRC).items() if m != "repro.mas.model"]
    unset = {f.name for f in fields(ModelConfig)} - options_set(
        [*programs, *sorted((ROOT / "bench").glob("**/*.py"))]
    )
    assert unset == set(ALLOWED_OPTIONS), (
        f"set by no program and not allow-listed: {sorted(unset - set(ALLOWED_OPTIONS))}; "
        f"allow-listed but set or gone (drop the entry): {sorted(set(ALLOWED_OPTIONS) - unset)}"
    )


def test_an_option_is_set_by_a_keyword_or_a_string_not_a_docstring(tmp_path):
    path = tmp_path / "a.py"
    path.write_text(
        'def f(cfg):\n    """Leaves ``in_doc`` alone."""\n'
        '    return cfg(by_keyword=1), getattr(cfg, "by_name"), "--x maps to by_word"\n'
    )
    assert options_set([path]) >= {"by_keyword", "by_name", "by_word"}
    assert "in_doc" not in options_set([path])


def test_every_public_symbol_is_named_or_allow_listed():
    missing = unnamed_symbols(SRC, ROOT / "bench", set(ALLOWED))
    assert missing == set(ALLOWED_SYMBOLS), (
        f"named nowhere and not allow-listed: {sorted(missing - set(ALLOWED_SYMBOLS))}; "
        f"allow-listed but named or gone (drop the entry): "
        f"{sorted(set(ALLOWED_SYMBOLS) - missing)}"
    )


def test_a_symbol_is_named_by_a_use_not_by_its_definition(tmp_path):
    """The symbol rule's conventions on a toy tree: a re-export, an
    ``__all__`` entry or a docstring does not keep a symbol; a call, an
    attribute or a bench string naming it does."""
    src = tmp_path / "src"
    (src / "repro" / "pkg").mkdir(parents=True)
    (src / "repro" / "__init__.py").write_text("")
    (src / "repro" / "pkg" / "__init__.py").write_text(
        'from repro.pkg.a import exported\n__all__ = ["exported"]\n'
    )
    (src / "repro" / "pkg" / "a.py").write_text(
        "def exported():\n"
        '    """Documented only: `K.unused` and `exported`."""\n'
        "def called():\n    pass\n"
        "def patched():\n    pass\n"
        "def _private():\n    pass\n"
        "class K:\n"
        "    def used(self):\n        return called()\n"
        "    def unused(self):\n        pass\n"
        "    @property\n"
        "    def prop(self):\n        pass\n"
        "ref = K().used\n"
    )
    (tmp_path / "bench").mkdir()
    (tmp_path / "bench" / "layers.py").write_text('PATCHED = ("patched",)\n')
    assert unnamed_symbols(src, tmp_path / "bench", set()) == {
        "repro.pkg.a.exported", "repro.pkg.a.K.unused", "repro.pkg.a.K.prop",
    }


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
