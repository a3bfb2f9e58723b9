import json
from collections import Counter
from itertools import product
from math import factorial

import pytest

from qcgl.cauchon import (COUNT_LIMIT, CauchonDiagram, _row_patterns, count,
                          count_by_black, enumerate_diagrams, is_valid)

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
    d = CauchonDiagram.validate(2, 2, {(1, 2), (2, 2)})
    assert str(d) == ".#\n.#"
    assert CauchonDiagram.from_text(str(d)) == d
    assert json.loads(json.dumps(d.to_cells())) == [[1, 2], [2, 2]]
    with pytest.raises(ValueError):
        CauchonDiagram.validate(2, 2, {(2, 2)})
    with pytest.raises(ValueError):
        CauchonDiagram.from_text(".#\n#?")


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
