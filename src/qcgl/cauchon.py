"""Cauchon diagram combinatorics on an m x n grid.

A diagram colours each cell black or white; it is valid when every black
cell has either its whole row-segment to the left black or its whole
column-segment above black.  Rows are numbered top to bottom and columns
left to right, matching matrix indexing.  Valid diagrams index the torus
invariant primes of the corresponding quantum matrix algebra, with the
number of black cells giving the height.

Diagrams are built row by row: a row is admissible given only the set of
columns that are black in every row above it (``_row_patterns``).
``enumerate_diagrams`` lists every diagram that way, up to SIZE_LIMIT cells.
``count_by_black`` and ``count`` never list them: a row-transfer dynamic
program keeps, for each such set of all-black columns, the histogram of
black-cell counts of the partial diagrams reaching it, which is feasible up
to COUNT_LIMIT cells.  Transposing a grid swaps "left-filled" and
"top-filled", so it maps the valid m x n diagrams one to one onto the valid
n x m ones; the program therefore runs with the shorter side as columns,
which bounds its states by 2^min(m, n).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import combinations

SIZE_LIMIT = 20  # cells, for listing diagrams one by one
COUNT_LIMIT = 64  # cells, for counting them; 8x8 takes about 0.3 s


@dataclass(frozen=True)
class CauchonDiagram:
    m: int
    n: int
    black: frozenset

    @classmethod
    def validate(cls, m, n, black):
        """Build a diagram after checking the defining condition."""
        cells = frozenset((int(r), int(c)) for r, c in black)
        if not is_valid(m, n, cells):
            raise ValueError("not a valid Cauchon diagram")
        return cls(m, n, cells)

    def __str__(self):
        rows = []
        for r in range(1, self.m + 1):
            rows.append("".join("#" if (r, c) in self.black else "."
                                for c in range(1, self.n + 1)))
        return "\n".join(rows)

    @classmethod
    def from_text(cls, text):
        rows = [line.strip() for line in text.strip().splitlines()]
        m = len(rows)
        n = len(rows[0]) if rows else 0
        if any(len(row) != n for row in rows):
            raise ValueError("ragged diagram text")
        cells = set()
        for r, row in enumerate(rows, start=1):
            for c, ch in enumerate(row, start=1):
                if ch == "#":
                    cells.add((r, c))
                elif ch != ".":
                    raise ValueError("diagram text uses only '.' and '#'")
        return cls.validate(m, n, cells)

    def to_cells(self):
        """JSON form: the sorted black (row, col) pairs, written as [row, col] arrays."""
        return sorted(self.black)


def is_valid(m, n, black):
    """The defining condition: each black cell is left-filled or top-filled."""
    cells = set()
    for r, c in black:
        if not (1 <= r <= m and 1 <= c <= n):
            raise ValueError("cell (%d,%d) outside the %dx%d grid" % (r, c, m, n))
        cells.add((r, c))
    for r, c in cells:
        if all((r, cc) in cells for cc in range(1, c)):
            continue
        if all((rr, c) in cells for rr in range(1, r)):
            continue
        return False
    return True


def _check_size(m, n, limit, what):
    if m < 1 or n < 1:
        raise ValueError("grid dimensions must be positive")
    if m * n > limit:
        raise ValueError("grid with %d cells exceeds the %s limit of %d"
                         % (m * n, what, limit))


def _row_patterns(n, fullcols):
    """Admissible black sets for one row given the all-black-so-far columns.

    A row is a black prefix {1..p} plus any black cells in columns beyond
    p+1 whose whole column above is already black.
    """
    for p in range(n + 1):
        prefix = tuple(range(1, p + 1))
        extras = sorted(c for c in fullcols if c > p + 1)
        for k in range(len(extras) + 1):
            for chosen in combinations(extras, k):
                yield prefix + chosen


def enumerate_diagrams(m, n):
    """All valid diagrams, exactly once, by row-wise construction.

    Each (row, all-black columns) state lists its patterns once, as shared
    cell tuples with the next state (none after the last row), so the memo
    holds few objects for the garbage collector to walk.
    """
    _check_size(m, n, SIZE_LIMIT, "enumeration")
    grid = [[(r, c) for c in range(n + 1)] for r in range(m + 1)]

    @cache
    def moves(r, fullcols):
        cell = grid[r].__getitem__
        return [(tuple(map(cell, pattern)),
                 fullcols.intersection(pattern) if r < m else None)
                for pattern in _row_patterns(n, fullcols)]

    def rec(r, fullcols, acc):
        if r == m:
            for cells, _ in moves(r, fullcols):
                yield CauchonDiagram(m, n, frozenset(acc + cells))
            return
        for cells, nxt in moves(r, fullcols):
            yield from rec(r + 1, nxt, acc + cells)

    yield from rec(1, frozenset(range(1, n + 1)), ())


def count(m, n):
    return sum(count_by_black(m, n).values())


def count_by_black(m, n):
    """Histogram keyed by number of black cells (the height distribution).

    Row-transfer dynamic program: each state is the set of columns black in
    every row so far, mapped to {black cells: number of partial diagrams}.
    """
    _check_size(m, n, COUNT_LIMIT, "counting")
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
