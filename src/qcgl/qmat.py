"""Quantum matrix algebras, quantum minors, and the height-one generators.

The algebra on an m x n grid of generators x[i,j] carries the four standard
relation families (row, column, antidiagonal commutation, and the corrected
diagonal relation with (q - q^-1) x_il x_kj) encoded as straightening data in
row-major generator order, together with the rank m+n diagonal torus action
alpha_i beta_j x_ij.  The grid is the `"qmat": [m, n]` tag of the algebra's
spec document, which presets writes and reads.
"""

from __future__ import annotations

from itertools import permutations

from .coef import ONE, Q, qpow
from .ncalg import NcPoly, OreAlgebra


# The straightening datum holds about (mn)^2/2 eigenvalues.  On a 2-CPU
# machine under Python 3.11, 20x20 took 0.65-0.84 s and 86 MB to build,
# 40x40 16 s and 1.3 GB.
MAX_GENERATORS = 400

# A minor on t rows sums t! words.  On that machine the 8x8 det_q took
# 0.83 s and the 9x9 one 8.7 s and 189 MB, printing 24.8 MB of text.
MAX_MINOR_ROWS = 9


class QuantumMatrixAlgebra(OreAlgebra):
    """O_q of the m x n quantum matrices, generators in row-major order."""

    def __init__(self, m, n):
        if m < 1 or n < 1:
            raise ValueError("grid dimensions must be positive")
        if m * n > MAX_GENERATORS:
            raise ValueError("a %dx%d grid has %d generators; at most %d are supported"
                             % (m, n, m * n, MAX_GENERATORS))
        self.m = m
        self.n = n
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
                        lam[(jidx, iidx)] = q_inv if i == k or j == l else ONE
                        if i < k and j < l:
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
        super().__init__(names, lam, delta, level_q, r, weights, h_elems)

    # -- indexing ----------------------------------------------------------

    def gen_index(self, i, j):
        if not (1 <= i <= self.m and 1 <= j <= self.n):
            raise ValueError("x[%d,%d] out of the %dx%d grid" % (i, j, self.m, self.n))
        return (i - 1) * self.n + j

    def x(self, i, j):
        return self.gen(self.gen_index(i, j))

    def symmetries(self):
        """rho: x_ij -> x_{m+1-i,n+1-j}, which is index reversal in row-major
        order, an anti-automorphism on every grid; on a square grid also the
        transposition T: x_ij -> x_ji, an automorphism, and
        rho T: x_ij -> x_{n+1-j,n+1-i}, an anti-automorphism.  Each fixes
        det_q; is_normal certifies them before use."""
        maps, n = super().symmetries(), self.n
        if self.m != n:
            return maps
        cells = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
        return maps + (
            (tuple(self.gen_index(j, i) for i, j in cells), False),
            (tuple(self.gen_index(n + 1 - j, n + 1 - i) for i, j in cells), True))

    # -- minors -------------------------------------------------------------

    def minor(self, rows, cols):
        """Quantum minor [I|J]: the signed permutation sum over S_t."""
        rows, cols = tuple(rows), tuple(cols)
        if len(rows) != len(cols) or not rows:
            raise ValueError("minor index needs equally many rows and columns, at least one")
        if any(s[t] >= s[t + 1] for s in (rows, cols) for t in range(len(s) - 1)):
            raise ValueError("minor index sets must be strictly increasing")
        if rows[0] < 1 or cols[0] < 1 or rows[-1] > self.m or cols[-1] > self.n:
            raise ValueError("minor [%s|%s] does not fit the %dx%d grid"
                             % (",".join(map(str, rows)), ",".join(map(str, cols)),
                                self.m, self.n))
        t = len(rows)
        if t > MAX_MINOR_ROWS:
            raise ValueError("a %d-row minor sums %d! terms; at most %d rows are supported"
                             % (t, t, MAX_MINOR_ROWS))
        terms = {}
        for perm in permutations(range(t)):
            inv = sum(1 for a in range(t) for b in range(a + 1, t) if perm[a] > perm[b])
            word = tuple(self.gen_index(rows[a], cols[perm[a]]) for a in range(t))
            terms[word] = ONE.times_qpow(inv, (-1) ** inv)
        return NcPoly(terms)

    def det(self):
        if self.m != self.n:
            raise ValueError("quantum determinant needs a square grid")
        rng = tuple(range(1, self.n + 1))
        return self.minor(rng, rng)

    def b_minor(self, i):
        """The i-th top-right minor b_i, for 1 <= i <= n: with t = min(i, m),
        rows 1..t and columns n-i+1..n-i+t."""
        m, n = self.m, self.n
        if not 1 <= i <= n:
            raise ValueError("b_%d undefined for the %dx%d grid" % (i, m, n))
        t = min(i, m)
        return self.minor(tuple(range(1, t + 1)), tuple(range(n - i + 1, n - i + t + 1)))

    def c_minor(self, i):
        """The i-th bottom-left minor c_i, for 1 <= i <= m."""
        m = self.m
        if not 1 <= i <= m:
            raise ValueError("c_%d undefined for the %dx%d grid" % (i, m, self.n))
        return self.minor(tuple(range(m - i + 1, m + 1)), tuple(range(1, i + 1)))

    def height_one_hprime_generators(self):
        """The m+n-1 elements b_1..b_n, c_1..c_{m-1} (requires m <= n)."""
        if self.m > self.n:
            raise ValueError("b_i and c_i are defined for m <= n; use qmat:%d,%d"
                             % (self.n, self.m))
        out = [self.b_minor(i) for i in range(1, self.n + 1)]
        out.extend(self.c_minor(i) for i in range(1, self.m))
        return out


def oqm(m, n):
    """The generic quantum matrix algebra on an m x n grid."""
    return QuantumMatrixAlgebra(m, n)

