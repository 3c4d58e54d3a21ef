"""The loop table (``LineScan.loops``) against the level walks it replaced
(``reference_scans``).

One stack pass over the lines holding ``do`` pairs every ``do`` and
``do concurrent`` header with its ``enddo``. Each header's end must be the
one the walk from that header finds (None where the walk raises), the
nest parser must return what it did, result or error, and the two scans
that read the table for DC loops (``parallel_spans``, ``atomic_dc_loops``)
must too. The inputs are every file of the seven version trees and of the
seeded, clean, interproc and external corpora, raw and lowered, and
generated nests: ``do while``, bare ``do``, labeled ``do 10``, every
spelling of ``enddo``, stray ``enddo``s and unterminated loops, plus lines
where the nest parser's ``_DO_RE`` and ``classify_line`` could disagree.
"""

from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import facts, fixtures
from repro.codes import CodeVersion
from repro.fortran import generate_mas_codebase, parser
from repro.fortran.frontend import lower_tree
from repro.fortran.lexer import LineKind, classify_line
from repro.fortran.parser import LineScan, find_parallel_regions
from repro.fortran.pipeline import build_version
from repro.fortran.source import Codebase, SourceFile
from repro.fortran.transforms import pure_dc
from repro.fortran.tree_io import load_tree
from tests.fortran import reference_scans as ref

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def outcome(fn, *args):
    """What ``fn`` returns, or the error it raises."""
    try:
        return fn(*args)
    except (ValueError, IndexError) as exc:
        return (type(exc).__name__, str(exc))


def table_disagreements(lines: list[str]) -> list[tuple[int, object, object]]:
    """(line, table, walk) wherever the loop table and the level walks
    differ; also checks that the table holds every header and only those."""
    scan = LineScan(lines)
    kinds = [classify_line(ln) for ln in lines]
    headers = [i for i, k in enumerate(kinds) if k in (LineKind.DO, LineKind.DO_CONCURRENT)]
    assert list(scan.loops) == headers
    assert scan.dc_headers == [i for i, k in enumerate(kinds) if k is LineKind.DO_CONCURRENT]
    out = []
    for i in headers:  # the walk's error is dc_end's, on any header
        new, old = outcome(scan.dc_end, i), outcome(ref.find_dc_loop_end, lines, i)
        if new != old:
            out.append((i, new, old))
    for i in range(len(lines)):
        new = outcome(parser.parse_loop_nest, scan, i)
        old = outcome(ref.parse_loop_nest, lines, i)
        if new != old:
            out.append((i, new, old))
    return out


def spans(f: SourceFile) -> tuple[list, list]:
    """(new, old) parallel spans of ``f``; none where its regions do not
    parse (the lint part keeps that error instead)."""
    try:
        regions = find_parallel_regions(f)
    except ValueError:
        return [], []
    return facts.parallel_spans(LineScan(f.lines), regions), ref.parallel_spans(f, regions)


def atomics_agree(lines: list[str]) -> bool:
    new = outcome(lambda: list(pure_dc.atomic_dc_loops(lines)))
    return new == outcome(lambda: list(ref.atomic_dc_loops(lines)))


# -- the trees -----------------------------------------------------------------


def _raw(name: str) -> Codebase:
    return load_tree(FIXTURES / name, name=name, recursive=True)


@pytest.fixture(scope="module")
def trees() -> list[Codebase]:
    code1 = generate_mas_codebase()
    corpora = [
        fixtures.seeded_bug_codebase(), fixtures.clean_codebase(),
        _raw("interproc"), _raw("external"),
    ]
    return [
        *(build_version(v, code1=code1) for v in CodeVersion),
        *corpora,
        *(lower_tree(cb.copy(f"{cb.name}_lowered")).codebase for cb in corpora),
    ]


class TestOnEveryTree:
    def test_table_ends_are_the_walks_ends(self, trees):
        headers = dc = 0
        for cb in trees:
            for f in cb.files:
                assert table_disagreements(f.lines) == [], (cb.name, f.name)
                scan = LineScan(f.lines)
                headers += len(scan.loops)
                dc += len(scan.dc_headers)
        assert headers > 4000 and dc > 1500  # every loop terminates: see below

    def test_parallel_spans_and_atomic_dc_loops(self, trees):
        dc_spans = atomic_nests = 0
        for cb in trees:
            for f in cb.files:
                new, old = spans(f)
                assert new == old, (cb.name, f.name)
                assert atomics_agree(f.lines), (cb.name, f.name)
                dc_spans += sum(label.startswith("the do concurrent") for *_, label in new)
                atomic_nests += len(outcome(lambda: list(pure_dc.atomic_dc_loops(f.lines))))
        assert dc_spans > 0 and atomic_nests > 0


# -- generated nests -----------------------------------------------------------

#: Loop headers, terminators and near-misses. ``do i=`` and ``do i =``
#: classify as ``do`` headers that ``_DO_RE`` does not match (no bound);
#: ``do concurrent = 1, n`` is a DC header ``_DO_RE`` matches; the
#: no-break space and tab are whitespace to both.
FRAGMENTS = [
    "      do i=1,n", "      DO J = 1, M", "do k = 1, 2 ! inner", "\tdo l=1,3",
    "\u00a0     do n=1,2",
    "  do m=1,4", "      do i=", "      do i =", "      do concurrent = 1, n",
    "      do concurrent (i=1:n)", "      DO CONCURRENT (i=1:n, j=1:m)",
    "      Do Concurrent(k=1:2) reduce(+:s)", "      do", "      do ! forever",
    "      do while (x < 1)", "      DoWhile (x)", "      do 10 i=1,n", "   10 continue",
    "      enddo", "      end do", "      ENDDO", "      End Do", "      enddo outer",
    "      end do ! i", "      endif", "      end", "! do i=1,n", "! enddo",
    "      x = 1", "      double precision :: d", "      done = .true.",
    "      doi = 3", "      do_x(i) = 2", "!$acc atomic update",
    "        a(i) = a(i) + b(i)", "!$acc loop", "", "İ",
]

files = st.lists(st.sampled_from(FRAGMENTS), max_size=16)


class TestOnGeneratedNests:
    @given(files)
    @settings(max_examples=500, deadline=None)
    def test_table_and_nest_parser(self, lines):
        assert table_disagreements(lines) == []

    @given(files)
    @settings(max_examples=300, deadline=None)
    def test_parallel_spans_and_atomic_dc_loops(self, lines):
        new, old = spans(SourceFile("t.f90", lines))
        assert new == old
        assert atomics_agree(lines)

    @pytest.mark.parametrize("lines, loops", [
        (["do i=1,n", "enddo", "enddo"], {0: 1}),                   # stray enddo
        (["enddo", "do i=1,n", "enddo"], {1: 2}),                   # stray first
        (["do i=1,n", "do j=1,n", "enddo"], {0: None, 1: 2}),       # unterminated
        (["do while (x)", "do concurrent (i=1:n)", "end do", "ENDDO"], {0: 3, 1: 2}),
        (["do 10 i=1,n", "do", "10 continue", "enddo"], {1: 3}),   # labeled: invisible
        (["do i=", "do j=1,n", "enddo", "enddo"], {0: 3, 1: 2}),
    ])
    def test_directed(self, lines, loops):
        assert LineScan(lines).loops == loops
        assert table_disagreements(lines) == []

    def test_an_unterminated_dc_loop_raises_the_walks_error(self):
        scan = LineScan(["do concurrent (i=1:n)", "  x = 1"])
        with pytest.raises(ValueError, match="unterminated do concurrent at line 0"):
            scan.dc_end(0)
        with pytest.raises(ValueError, match="unterminated do concurrent at line 0"):
            ref.find_dc_loop_end(scan.lines, 0)
