"""Codebase file-tree round trips."""

import pytest

from repro.codes import CodeVersion
from repro.fortran.codebase import generate_mas_codebase
from repro.fortran.metrics import measure
from repro.fortran.pipeline import build_version
from repro.fortran.source import Codebase, SourceFile
from repro.fortran.tree_io import load_tree, save_tree


def roundtrip_equal(a: Codebase, b: Codebase) -> bool:
    """True if two codebases have identical files (names and lines)."""
    if len(a.files) != len(b.files):
        return False
    by_name = {f.name: f for f in b.files}
    for f in a.files:
        other = by_name.get(f.name)
        if other is None or other.lines != f.lines:
            return False
    return True


@pytest.fixture(scope="module")
def small_cb():
    return Codebase(
        "tiny",
        [
            SourceFile("a.f90", ["module a", "end module a"]),
            SourceFile("b.f90", ["module b", "!$acc declare create(x)", "end module b"]),
        ],
    )


class TestRoundTrip:
    def test_save_load_identical(self, small_cb, tmp_path):
        base = save_tree(small_cb, tmp_path)
        loaded = load_tree(base)
        assert roundtrip_equal(small_cb, loaded)
        assert loaded.name == "tiny"

    def test_full_mas_codebase_roundtrip(self, tmp_path):
        cb = generate_mas_codebase()
        base = save_tree(cb, tmp_path)
        loaded = load_tree(base, name=cb.name)
        assert roundtrip_equal(cb, loaded)
        assert measure(loaded).acc_lines == 1458
        assert measure(loaded).total_lines == 73865

    def test_metrics_survive_roundtrip_for_all_versions(self, tmp_path):
        code1 = generate_mas_codebase()
        for v in (CodeVersion.AD, CodeVersion.D2XU):
            cb = build_version(v, code1=code1)
            base = save_tree(cb, tmp_path)
            loaded = load_tree(base)
            assert measure(loaded).acc_lines == measure(cb).acc_lines
            assert measure(loaded).total_lines == measure(cb).total_lines


class TestValidation:
    def test_no_silent_overwrite(self, small_cb, tmp_path):
        save_tree(small_cb, tmp_path)
        with pytest.raises(FileExistsError):
            save_tree(small_cb, tmp_path)
        save_tree(small_cb, tmp_path, overwrite=True)  # explicit is fine

    def test_escaping_name_rejected(self, tmp_path):
        cb = Codebase("bad", [SourceFile("../evil.f90", ["x"])])
        with pytest.raises(ValueError, match="escapes"):
            save_tree(cb, tmp_path)

    def test_load_missing_dir(self, tmp_path):
        with pytest.raises(NotADirectoryError):
            load_tree(tmp_path / "nope")

    def test_load_empty_dir(self, tmp_path):
        (tmp_path / "empty").mkdir()
        with pytest.raises(ValueError, match="no Fortran sources"):
            load_tree(tmp_path / "empty")

    def test_non_fortran_files_ignored(self, small_cb, tmp_path):
        base = save_tree(small_cb, tmp_path)
        (base / "README.txt").write_text("not fortran\n")
        loaded = load_tree(base)
        assert len(loaded.files) == 2


class TestRoundtripEqual:
    def test_detects_line_difference(self, small_cb):
        other = small_cb.copy()
        other.files[0].lines[0] = "module zzz"
        assert not roundtrip_equal(small_cb, other)

    def test_detects_missing_file(self, small_cb):
        other = Codebase("t", [small_cb.files[0].copy()])
        assert not roundtrip_equal(small_cb, other)
