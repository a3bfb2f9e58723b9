"""Quantum matrix algebras, quantum minors, and the height-one generators.

The algebra on an m x n grid of generators x[i,j] carries the four standard
relation families (row, column, antidiagonal commutation, and the corrected
diagonal relation with (q - q^-1) x_il x_kj) encoded as straightening data in
row-major generator order, together with the rank m+n diagonal torus action
alpha_i beta_j x_ij.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

from .coef import MINUS_ONE, ONE, Q, qpow
from .ncalg import NcPoly, OreAlgebra, add_terms


@dataclass(frozen=True)
class MinorIndex:
    """A row set and column set of equal size, both strictly increasing."""

    rows: tuple
    cols: tuple

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(self.rows))
        object.__setattr__(self, "cols", tuple(self.cols))
        if len(self.rows) != len(self.cols) or not self.rows:
            raise ValueError("minor index needs equally many rows and columns, at least one")
        for seq in (self.rows, self.cols):
            if any(seq[t] >= seq[t + 1] for t in range(len(seq) - 1)):
                raise ValueError("minor index sets must be strictly increasing")

    @property
    def size(self):
        return len(self.rows)

    def __str__(self):
        return "[%s|%s]" % (",".join(map(str, self.rows)), ",".join(map(str, self.cols)))


class QuantumMatrixAlgebra(OreAlgebra):
    """O_q of the m x n quantum matrices, generators in row-major order."""

    def __init__(self, m, n, steps_budget=10**6):
        if m < 1 or n < 1:
            raise ValueError("grid dimensions must be positive")
        self.m = m
        self.n = n
        self.qmat_shape = (m, n)
        names = ["x[%d,%d]" % (i, j) for i in range(1, m + 1) for j in range(1, n + 1)]
        q_inv = qpow(-1)
        minus_corr = -(Q - q_inv)
        lam = {}
        delta = {}
        for k in range(1, m + 1):
            for l in range(1, n + 1):
                jidx = (k - 1) * n + l
                for i in range(1, k + 1):
                    for j in range(1, n + 1):
                        iidx = (i - 1) * n + j
                        if iidx >= jidx:
                            continue
                        if i == k or j == l:
                            lam[(jidx, iidx)] = q_inv
                        elif j > l:
                            lam[(jidx, iidx)] = ONE
                        else:
                            lam[(jidx, iidx)] = ONE
                            word = ((i - 1) * n + l, (k - 1) * n + j)
                            delta[(jidx, iidx)] = NcPoly({word: minus_corr})
        level_q = {j: qpow(-2) for j in range(2, m * n + 1)}
        r = m + n
        weights = []
        h_elems = []
        for k in range(1, m + 1):
            for l in range(1, n + 1):
                w = [0] * r
                w[k - 1] = 1
                w[m + l - 1] = 1
                weights.append(tuple(w))
                h = [ONE] * r
                h[k - 1] = q_inv
                h[m + l - 1] = q_inv
                h_elems.append(tuple(h))
        super().__init__(names, lam, delta, level_q, r, weights, h_elems,
                         steps_budget=steps_budget)
        self._transposed = None

    # -- indexing ----------------------------------------------------------

    def gen_index(self, i, j):
        if not (1 <= i <= self.m and 1 <= j <= self.n):
            raise ValueError("x[%d,%d] out of the %dx%d grid" % (i, j, self.m, self.n))
        return (i - 1) * self.n + j

    def x(self, i, j):
        return self.gen(self.gen_index(i, j))

    # -- minors -------------------------------------------------------------

    def minor(self, rows, cols=None):
        """Quantum minor [I|J]: the signed permutation sum over S_t."""
        idx = rows if isinstance(rows, MinorIndex) else MinorIndex(tuple(rows), tuple(cols))
        if idx.rows[-1] > self.m or idx.cols[-1] > self.n:
            raise ValueError("minor %s does not fit the %dx%d grid" % (idx, self.m, self.n))
        t = idx.size
        terms = {}
        for perm in permutations(range(t)):
            inv = sum(1 for a in range(t) for b in range(a + 1, t) if perm[a] > perm[b])
            word = tuple(self.gen_index(idx.rows[a], idx.cols[perm[a]]) for a in range(t))
            terms[word] = (MINUS_ONE * Q) ** inv if inv else ONE
        return NcPoly(terms)

    def det(self):
        if self.m != self.n:
            raise ValueError("quantum determinant needs a square grid")
        rng = tuple(range(1, self.n + 1))
        return self.minor(rng, rng)

    def b_minor(self, i):
        """The i-th top-right minor b_i, for 1 <= i <= n (needs m <= n above m)."""
        m, n = self.m, self.n
        if 1 <= i <= min(m, n):
            return self.minor(tuple(range(1, i + 1)), tuple(range(n - i + 1, n + 1)))
        if m < i <= n:
            return self.minor(tuple(range(1, m + 1)),
                              tuple(range(n - i + 1, n + m - i + 1)))
        raise ValueError("b_%d undefined for the %dx%d grid" % (i, m, n))

    def c_minor(self, i):
        """The i-th bottom-left minor c_i, for 1 <= i <= m."""
        m = self.m
        if not 1 <= i <= m:
            raise ValueError("c_%d undefined for the %dx%d grid" % (i, m, self.n))
        return self.minor(tuple(range(m - i + 1, m + 1)), tuple(range(1, i + 1)))

    def height_one_hprime_generators(self):
        """The m+n-1 elements b_1..b_n, c_1..c_{m-1} (requires m <= n)."""
        if self.m > self.n:
            raise ValueError("defined for m <= n; transpose first")
        out = [self.b_minor(i) for i in range(1, self.n + 1)]
        out.extend(self.c_minor(i) for i in range(1, self.m))
        return out

    # -- transposition ---------------------------------------------------------

    def transposed(self):
        if self._transposed is None:
            self._transposed = QuantumMatrixAlgebra(self.n, self.m,
                                                    steps_budget=self.steps_budget)
        return self._transposed

    def transpose_poly(self, a):
        """Image of a under x[i,j] -> x[j,i], renormalised in the n x m algebra."""
        target = self.transposed()
        out = {}
        for w, c in a.terms.items():
            image = []
            for g in w:
                i, j = divmod(g - 1, self.n)
                image.append(target.gen_index(j + 1, i + 1))
            add_terms(out, target.normal_form_word(tuple(image)).terms.items(), c)
        return NcPoly(out)


def oqm(m, n, steps_budget=10**6):
    """The generic quantum matrix algebra on an m x n grid."""
    return QuantumMatrixAlgebra(m, n, steps_budget=steps_budget)


def project(a, src, dst):
    """Row projection: x[i,j] -> x[i,j] for i <= dst.m, else 0.

    src and dst must have the same number of columns with dst.m <= src.m, so
    generator indices carry over unchanged on the surviving rows.
    """
    if src.n != dst.n or dst.m > src.m:
        raise ValueError("projection needs equal column count and fewer rows")
    cutoff = dst.m * dst.n
    out = {}
    for w, c in a.terms.items():
        if all(g <= cutoff for g in w):
            out[w] = c
    return NcPoly(out)
