"""Cauchon diagram combinatorics on an m x n grid.

A diagram colours each cell black or white; it is valid when every black
cell has either its whole row-segment to the left black or its whole
column-segment above black.  Rows are numbered top to bottom and columns
left to right, matching matrix indexing.  Valid diagrams index the torus
invariant primes of the corresponding quantum matrix algebra, with the
number of black cells giving the height.

Diagrams are built row by row: a row is admissible given only the set of
columns that are black in every row above it (``_row_patterns``).  One
walk lists every diagram that way, up to SIZE_LIMIT cells, as a join of
per-row fragments: the row-major tuple of black cells (``diagram_cells``,
wrapped by ``enumerate_diagrams``), or the JSON text or drawing that
``cauchon list`` writes (``diagram_json``, ``diagram_drawings``).
``count_by_black`` and ``count`` never list them: a
row-transfer dynamic program keeps, for each such set of all-black columns,
the histogram of black-cell counts of the partial diagrams reaching it,
which is feasible up to COUNT_LIMIT cells.  A histogram is one packed
integer with a slot of m*n+1 bits per black-cell count, so a row step is a
big-integer multiply-add; no slot ever carries into the next, because each
counts distinct colourings of the m*n cells, fewer than 2^(m*n+1).
Transposing a grid swaps "left-filled" and "top-filled", so it maps the
valid m x n diagrams one to one onto the valid n x m ones; the program
therefore runs with the shorter side as columns, which bounds its states by
2^min(m, n).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

SIZE_LIMIT = 20  # cells, for listing diagrams one by one
COUNT_LIMIT = 64  # cells, for counting them; 8x8 takes about 0.08 s


@dataclass(frozen=True)
class CauchonDiagram:
    m: int
    n: int
    black: frozenset

    def __str__(self):
        return draw(self.m, self.n, self.black)


def draw(m, n, cells):
    """m lines of n characters, '#' at each black (row, col) cell and '.'
    elsewhere: one row-major grid, written once per black cell."""
    grid = list(("." * n + "\n") * m)
    for r, c in cells:
        grid[(r - 1) * (n + 1) + c - 1] = "#"
    return "".join(grid[:-1])


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


def _check_size(m, n, limit=None, what=None):
    if m < 1 or n < 1:
        raise ValueError("grid dimensions must be positive")
    if limit is not None and m * n > limit:
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


def _walk(m, n, fragment, empty):
    """Every valid diagram as empty + fragment(1, row 1's black columns) +
    ... + fragment(m, row m's), in the order `enumerate_diagrams` lists; a
    fragment, tuple or string, carries its own leading separator.

    Depth first over an explicit stack, so each diagram is one join in one
    generator frame.  A (row, all-black columns) state's fragments and next
    states are built once per call; rows 1 and 2 meet each state once (row 1
    starts from every column, and distinct first rows leave distinct
    all-black sets), so only rows from 3 on keep theirs.
    """
    _check_size(m, n, SIZE_LIMIT, "enumeration")
    built = {}

    def moves(r, fullcols):
        out = built.get((r, fullcols))
        if out is None:
            out = (fragment(r, p) if r == m else (fragment(r, p), fullcols.intersection(p))
                   for p in _row_patterns(n, fullcols))
            if r > 2:
                out = built[r, fullcols] = list(out)
        return out

    stack = [(1, frozenset(range(1, n + 1)), empty)]
    while stack:
        r, fullcols, acc = stack.pop()
        if r == m:
            for part in moves(r, fullcols):
                yield acc + part
        else:
            stack += [(r + 1, nxt, acc + part)
                      for part, nxt in moves(r, fullcols)][::-1]


def diagram_cells(m, n):
    """Every valid diagram as its row-major tuple of black (row, col) cells,
    which is also its sorted order."""
    return _walk(m, n, lambda r, p: tuple([(r, c) for c in p]), ())


def diagram_json(m, n):
    """Every valid diagram as the JSON text that json.dumps writes for its
    `diagram_cells` tuple: rows add ", [r, c]" per black cell."""
    return ("[" + text[2:] + "]" for text in
            _walk(m, n, lambda r, p: "".join([", [%d, %d]" % (r, c) for c in p]), ""))


def diagram_drawings(m, n):
    """Every valid diagram as `draw` draws it: rows add a newline and their line."""
    return (text[1:] for text in
            _walk(m, n, lambda r, p: "\n" + draw(1, n, [(1, c) for c in p]), ""))


def enumerate_diagrams(m, n):
    """All valid diagrams, exactly once, by row-wise construction."""
    for cells in diagram_cells(m, n):
        yield CauchonDiagram(m, n, frozenset(cells))


def count(m, n):
    return sum(count_by_black(m, n).values())


def count_by_black(m, n):
    """Histogram keyed by number of black cells (the height distribution).

    Row-transfer dynamic program: each state is the set of columns black in
    every row so far, and its histogram is one packed integer whose slot b,
    m*n+1 bits wide, holds the number of partial diagrams with b black cells.
    A state's row patterns are grouped by next state once per call into the
    polynomial sum of 2^(width * black cells in the pattern), so a row step
    is one multiply-add per (state, next state) pair.  No slot carries into
    the next: every slot, of a product or of a sum, counts distinct partial
    colourings of the grid, at most 2^(m*n) < 2^width of them.
    """
    _check_size(m, n, COUNT_LIMIT, "counting")
    if n > m:
        m, n = n, m
    width = m * n + 1
    table = {}  # all-black columns -> [(next state, packed pattern counts)]

    def moves(fullcols):
        step = table.get(fullcols)
        if step is None:
            by_next = {}
            for pattern in _row_patterns(n, fullcols):
                nxt = fullcols.intersection(pattern)
                by_next[nxt] = by_next.get(nxt, 0) + (1 << width * len(pattern))
            step = table[fullcols] = list(by_next.items())
        return step

    states = {frozenset(range(1, n + 1)): 1}
    for _ in range(m - 1):
        nxt = {}
        for fullcols, hist in states.items():
            for state, poly in moves(fullcols):
                nxt[state] = nxt.get(state, 0) + hist * poly
        states = nxt
    # after the last row only the black-cell counts matter, not the next states
    total = sum(hist * sum(poly for _, poly in moves(fullcols))
                for fullcols, hist in states.items())
    mask = (1 << width) - 1
    hist = {}
    for black in range(m * n + 1):
        ways = total >> (width * black) & mask
        if ways:
            hist[black] = ways
    return hist
