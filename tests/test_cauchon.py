import importlib.util
import io
import json
import sys
import tracemalloc
from collections import Counter
from contextlib import redirect_stdout
from itertools import product
from math import factorial

import pytest

from qcgl import cauchon
from qcgl.cauchon import (COUNT_LIMIT, CauchonDiagram, _row_patterns, count,
                          count_by_black, diagram_cells, diagram_drawings, diagram_json,
                          draw, enumerate_diagrams, is_valid)
from qcgl.cli import main

SMALL_SHAPES = [(m, n) for m in range(1, 13) for n in range(1, 13) if m * n <= 12]


def brute_force(m, n):
    cells = [(r, c) for r in range(1, m + 1) for c in range(1, n + 1)]
    out = set()
    for bits in product((False, True), repeat=len(cells)):
        black = frozenset(cell for cell, bit in zip(cells, bits) if bit)
        if is_valid(m, n, black):
            out.add(black)
    return out


def test_validity_examples():
    assert is_valid(2, 2, set())
    assert not is_valid(2, 2, {(2, 2)})
    assert is_valid(2, 2, {(1, 2), (2, 2)})
    assert is_valid(2, 2, {(2, 1), (2, 2)})
    assert is_valid(1, 3, {(1, 2)})
    with pytest.raises(ValueError):
        is_valid(2, 2, {(3, 1)})


def test_counts():
    assert count(1, 1) == 2
    assert count(2, 2) == 14
    # oracle detail: exactly the two colourings with (2,2) black and both
    # neighbours white are invalid
    invalid = [black for black in
               (frozenset(s) for s in [{(2, 2)}, {(1, 1), (2, 2)}])
               if not is_valid(2, 2, black)]
    assert len(invalid) == 2
    assert count_by_black(2, 2).get(1) == 3


@pytest.mark.parametrize("shape", [(1, 1), (1, 4), (2, 2), (2, 3), (3, 2), (3, 3)])
def test_enumeration_agrees_with_brute_force(shape):
    m, n = shape
    enumerated = [d.black for d in enumerate_diagrams(m, n)]
    assert len(enumerated) == len(set(enumerated))
    assert set(enumerated) == brute_force(m, n)


def _reference_diagrams(m, n):
    """The plain row-wise recursion, one pattern at a time, with no memo."""
    def rec(r, fullcols, acc):
        if r > m:
            yield CauchonDiagram(m, n, frozenset(acc))
            return
        for pattern in _row_patterns(n, fullcols):
            pat = set(pattern)
            yield from rec(r + 1, fullcols & pat, acc + [(r, c) for c in pattern])

    return list(rec(1, frozenset(range(1, n + 1)), []))


def _reference_drawing(d):
    """One row at a time, one set lookup per cell."""
    return "\n".join("".join("#" if (r, c) in d.black else "." for c in range(1, d.n + 1))
                     for r in range(1, d.m + 1))


def test_drawing_matches_the_reference():
    for m, n in SMALL_SHAPES:
        for cells in diagram_cells(m, n):
            d = CauchonDiagram(m, n, frozenset(cells))
            assert draw(m, n, cells) == str(d) == _reference_drawing(d), (m, n, cells)


def test_enumeration_order_matches_the_reference():
    # `cauchon list` prints diagrams in this order
    for m, n in SMALL_SHAPES + [(4, 4)]:
        assert list(enumerate_diagrams(m, n)) == _reference_diagrams(m, n), (m, n)


def test_enumeration_is_transpose_symmetric():
    # transposing swaps left-filled and top-filled; counting relies on it
    for m, n in SMALL_SHAPES:
        transposed = {frozenset((c, r) for r, c in d.black)
                      for d in enumerate_diagrams(m, n)}
        assert transposed == {d.black for d in enumerate_diagrams(n, m)}, (m, n)


def poly_bernoulli(m, n):
    """sum_j (j!)^2 S(m+1, j+1) S(n+1, j+1), the closed form for count(m, n)."""
    def stirling2(a, b):
        row = [1] + [0] * b
        for _ in range(a):
            row = [0] + [j * row[j] + row[j - 1] for j in range(1, b + 1)]
        return row[b]

    return sum(factorial(j) ** 2 * stirling2(m + 1, j + 1) * stirling2(n + 1, j + 1)
               for j in range(min(m, n) + 1))


def test_count_matches_the_closed_form():
    assert poly_bernoulli(2, 2) == 14 and poly_bernoulli(4, 5) == 41506
    assert poly_bernoulli(5, 5) == 329462 and poly_bernoulli(8, 8) == 276054834902
    for m in range(1, 9):
        for n in range(1, 9):
            assert count(m, n) == poly_bernoulli(m, n), (m, n)


def _reference_count_by_black(m, n):
    """The row-transfer program with one {black cells: ways} dict per state,
    stepped entry by entry for every (state, row pattern) pair."""
    if n > m:
        m, n = n, m
    states = {frozenset(range(1, n + 1)): {0: 1}}
    for _ in range(m):
        nxt = {}
        for fullcols, hist in states.items():
            for pattern in _row_patterns(n, fullcols):
                out = nxt.setdefault(fullcols.intersection(pattern), {})
                k = len(pattern)
                for black, ways in hist.items():
                    out[black + k] = out.get(black + k, 0) + ways
        states = nxt
    total = {}
    for hist in states.values():
        for black, ways in hist.items():
            total[black] = total.get(black, 0) + ways
    return dict(sorted(total.items()))


def test_packed_histograms_match_the_reference_program():
    # 1x64 and 64x1 have the widest slots (65 bits) over the fewest states
    shapes = [(m, n) for m in range(1, 31) for n in range(1, 31) if m * n <= 30]
    for m, n in shapes + [(6, 6), (8, 8), (1, 64), (64, 1)]:
        hist = count_by_black(m, n)
        assert list(hist.items()) == list(_reference_count_by_black(m, n).items()), (m, n)


def _cli(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(argv) == 0, argv
    return out.getvalue()


def test_cli_list_prints_the_reference_bytes():
    # --json writes each diagram's sorted cells, up to 1x16's 65,536 of them;
    # the text, which joins the drawings, is checked on the smaller grids
    shapes = [(m, n) for m in range(1, 17) for n in range(1, 17) if m * n <= 16]
    for m, n in shapes + [(3, 5), (5, 3)]:
        reference = _reference_diagrams(m, n)
        doc = {"algebra": None, "command": "cauchon", "ok": True,
               "result": {"diagrams": [sorted(d.black) for d in reference], "m": m, "n": n}}
        assert _cli(["cauchon", "list", str(m), str(n), "--json"]) == (
            json.dumps(doc, sort_keys=True) + "\n"), (m, n)
        if m * n <= 12 or min(m, n) > 2:
            assert _cli(["cauchon", "list", str(m), str(n)]) == (
                "\n\n".join(map(_reference_drawing, reference)) + "\n"), (m, n)


@pytest.mark.parametrize("shape", SMALL_SHAPES + [(1, 16), (4, 4)])
def test_list_fragments_match_the_cell_tuples(shape):
    # the per-row JSON and drawn fragments against json.dumps and draw of the
    # cell tuples, per diagram and through the CLI's envelope, byte for byte
    m, n = shape
    diagrams = list(diagram_cells(m, n))
    assert list(diagram_json(m, n)) == [json.dumps(cells) for cells in diagrams]
    drawings = [draw(m, n, cells) for cells in diagrams]
    assert list(diagram_drawings(m, n)) == drawings
    doc = {"algebra": None, "command": "cauchon", "ok": True,
           "result": {"diagrams": diagrams, "m": m, "n": n}}
    assert _cli(["cauchon", "list", str(m), str(n), "--json"]) == (
        json.dumps(doc, sort_keys=True) + "\n")
    assert _cli(["cauchon", "list", str(m), str(n)]) == "\n\n".join(drawings) + "\n"


def test_no_memo_outlives_a_call(monkeypatch):
    # a fresh copy of the module, so no cache that other tests filled can
    # make the first call of a pair as cheap as the second
    spec = importlib.util.spec_from_file_location("cauchon_fresh", cauchon.__file__)
    fresh = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, fresh)
    spec.loader.exec_module(fresh)
    patterns = fresh._row_patterns
    calls = 0

    def counted(n, fullcols):
        nonlocal calls
        calls += 1
        return patterns(n, fullcols)

    fresh._row_patterns = counted
    for run in (lambda: fresh.count_by_black(4, 5),
                lambda: list(fresh.enumerate_diagrams(3, 4))):
        made = []
        for _ in range(2):
            calls = 0
            run()
            made.append(calls)
        assert made[0] == made[1] > 0


def test_enumeration_streams():
    # a full 2x10 walk peaked at 16.3 MB when each row state kept its
    # patterns; the list of all 117,074 diagrams' cell tuples alone is
    # 15.7 MB, so half the first figure admits no enumerator that builds it
    tracemalloc.start()
    try:
        walked = sum(1 for _ in enumerate_diagrams(2, 10))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert walked == count(2, 10) == 117074
    assert peak < 8 * 2**20


def test_histogram_matches_enumeration():
    for m, n in SMALL_SHAPES:
        hist = count_by_black(m, n)
        assert hist == Counter(len(d.black) for d in enumerate_diagrams(m, n)), (m, n)
        assert list(hist) == sorted(hist)


def test_height_one_diagrams():
    # one black cell: exactly the m+n-1 singletons in the first row or column
    for m, n in SMALL_SHAPES:
        listed = [d.black for d in enumerate_diagrams(m, n) if len(d.black) == 1]
        expected = ({frozenset({(1, c)}) for c in range(1, n + 1)}
                    | {frozenset({(r, 1)}) for r in range(2, m + 1)})
        assert len(listed) == len(expected) == m + n - 1, (m, n)
        assert set(listed) == expected == {b for b in brute_force(m, n) if len(b) == 1}


def test_histogram_totals():
    hist = count_by_black(2, 3)
    assert sum(hist.values()) == count(2, 3)
    assert hist[0] == 1
    assert hist[1] == 4
    assert max(hist) == 6


def test_validate_and_formats():
    # a diagram draws row-major, '#' black; is_valid refuses a black cell with
    # neither its row-segment to the left nor its column-segment above black,
    # and a cell off the grid
    assert str(CauchonDiagram(2, 2, frozenset({(1, 2), (2, 2)}))) == ".#\n.#"
    assert str(CauchonDiagram(2, 3, frozenset({(1, 1), (2, 1), (2, 2)}))) == "#..\n##."
    assert ((1, 2), (2, 2)) in diagram_cells(2, 2)
    assert not is_valid(2, 2, {(2, 2)})
    assert not is_valid(2, 3, {(1, 1), (2, 3)})
    for cell in ((0, 1), (1, 3), (3, 1)):
        with pytest.raises(ValueError, match="outside the 2x2 grid"):
            is_valid(2, 2, {(1, 1), cell})


def test_empty_grids_are_refused():
    for m, n in ((0, 3), (2, 0), (0, 0), (-1, 2)):
        for make in (lambda: count(m, n), lambda: count_by_black(m, n),
                     lambda: list(enumerate_diagrams(m, n))):
            with pytest.raises(ValueError, match="grid dimensions must be positive"):
                make()


def test_size_limit():
    assert count(5, 5) == 329462
    with pytest.raises(ValueError):
        list(enumerate_diagrams(5, 5))
    with pytest.raises(ValueError):
        count(1, COUNT_LIMIT + 1)
    with pytest.raises(ValueError):
        count_by_black(COUNT_LIMIT + 1, 1)
    with pytest.raises(ValueError):
        count(0, 3)
