"""Every script under ``examples/`` runs to completion.

Nothing else executes them, and ``checkpoint.py`` / ``fieldlines.py``
live there because one example each is their only user: this is their
smoke test. In-process (``runpy``), so seven interpreter start-ups are
not paid.
"""

import runpy
import tempfile
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parents[1] / "examples"
#: Sibling modules the scripts import, not scripts themselves.
LIBRARIES = {"checkpoint.py", "fieldlines.py"}
SCRIPTS = sorted(p.name for p in EXAMPLES.glob("*.py") if p.name not in LIBRARIES)


def test_there_are_seven_examples():
    assert len(SCRIPTS) == 7


@pytest.mark.parametrize("script", SCRIPTS)
def test_example_runs(script, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))  # production_run's work dir
    monkeypatch.syspath_prepend(str(EXAMPLES))  # what `python examples/x.py` does
    runpy.run_path(str(EXAMPLES / script), run_name="__main__")
    assert capsys.readouterr().out.strip()
