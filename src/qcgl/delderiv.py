"""Deleting derivations at the top level of a CGL algebra.

For R = A[X; s, d] with X the top generator, elements of the localization
at the powers of X are finite sums sum_i a_i X^i with a_i in the base
algebra A, and X a = s(a) X + d(a).  Under CGL axiom (a), s d = q d s with
q the top-level constant q_N, one level sum

    sum_n  c_n d^n(s^(m-n)(a)) X^(m-n)

gives both the powers of X and the embedding of A.  With c_n the Gaussian
binomial [m n]_q it is X^m a, for every integer m: n runs up to m for
m >= 0 and ends by the local nilpotence of d for m < 0, where
[-1 n]_q = (-1)^n q^(-n(n+1)/2) turns it into the walk
X^-1 a = sum_n (-1)^n s^-1(T^n a) X^-(n+1) with T = d s^-1.  With m = 0
and c_n = ((1-q)^n [n]!_q)^-1 it is the deleting-derivations map

    a  |->  sum_n (1-q)^-n / [n]!_q  d^n(s^-n(a)) X^-n.

Each level sums the powers d^n(w) of the PBW words w of a, kept in the
algebra's `_delta_chains`, over the Laurent coefficients of s^(m-n)(a), and
is scaled once by c_n, so a denominator that is not a power of q costs one
product per output word.  theta's c_n are built once per algebra, in
`_theta_factors`; the binomials [m n]_q of `laurent_mul` are built per level
sum, and most ask only for [m 0] = 1, which needs no row walk.
`_delta_chains` takes no key past STORE_BOUND keys.
`theta_alt` reads neither store and stays an independent check on both: its
twisted factors q^(n^2) ((1-q)^n [n]!_q)^-1 have a store of their own,
`_alt_factors`, built by their own recurrence.  Both factor stores grow only
to the depth of a finished expansion, at most the nilpotence bound.
The closed forms hold only under axiom (a): spec files are axiom-checked when
they load, and an algebra made in the library is for its caller to check.
"""

from __future__ import annotations

import functools

from .coef import ONE, ZERO, RatFunc, q_int
from .ncalg import (NILPOTENCE_BOUND, NcPoly, NilpotenceBoundExceeded, TermMap, _format_terms,
                    add_terms)

STORE_BOUND = 2**18    # entries in _delta_chains


class LaurentElem(TermMap):
    """Finite map X-exponent -> base-algebra coefficient, coefficients on the left."""

    __slots__ = ()

    @staticmethod
    def from_poly(p, exp=0):
        return LaurentElem({exp: p} if not p.is_zero() else {})

    @staticmethod
    def x_power(k):
        return LaurentElem({k: NcPoly.scalar(ONE)})

    def scaled(self, c):
        c = c if isinstance(c, RatFunc) else RatFunc(c)
        if not c:
            return LaurentElem.zero()
        return LaurentElem({k: p.scaled(c) for k, p in self.terms.items()})

    def scalar_x_power(self):
        """(c, k) if the element is a scalar multiple of X^k, else None."""
        if len(self.terms) != 1:
            return None
        (k, p), = self.terms.items()
        c = p.scalar_value()
        if c is None or not c:
            return None
        return c, k

    def __repr__(self):
        items = sorted(self.terms.items(), reverse=True)
        return "LaurentElem({%s})" % ", ".join("%d: %r" % (k, p) for k, p in items)


def format_laurent(names, u):
    """Render with exponents descending; coefficients distribute over terms."""
    return _format_terms(names, (
        (w, c, "" if k == 0 else "X" if k == 1 else "X^%d" % k)
        for k in sorted(u.terms, reverse=True) for w, c in u.terms[k].sorted_terms()))


# ---------------------------------------------------------------------------
# the one level sum behind theta and every power of X


def _level_sum(alg, a, m, factors, bound, what):
    """sum_n c_n d^n(s^(m-n)(a)) X^(m-n), with (c_0, ..., c_(k-1)) = factors(k)
    for the k nonzero levels; a zero level makes every later one 0.

    With no bound the levels also end after level m.  With one, a nonzero
    level at index bound raises before any factor is built, so the verdict
    costs no more than the level sums.
    """
    u = t = alg.apply_sigma(alg.N, a, m)
    levels = []
    while t:
        if len(levels) == bound:
            raise NilpotenceBoundExceeded(
                "%s did not terminate within bound %d" % (what, bound), bound, a)
        levels.append(t)
        if bound is None and len(levels) > m:
            break
        u = alg.apply_sigma(alg.N, u, -1)
        acc = {}
        for w, c in u.terms.items():
            add_terms(acc, _delta_power(alg, w, len(levels)).terms.items(), c)
        t = NcPoly(acc)
    out = {}
    for n, (t, c) in enumerate(zip(levels, factors(len(levels)))):
        if c:
            out[m - n] = t if c.is_one() else t.scaled(c)
    return LaurentElem(out)


def _delta_power(alg, w, n):
    """d^n(w) for a PBW word w, from the algebra's chain [w, d(w), ...],
    which ends with 0 once d has killed w."""
    chain = alg._delta_chains.get(w)
    if chain is None:
        chain = [NcPoly({w: ONE})]
        if len(alg._delta_chains) < STORE_BOUND:
            alg._delta_chains[w] = chain
    while len(chain) <= n and chain[-1]:
        chain.append(alg.apply_delta(alg.N, chain[-1]))
    return chain[n] if n < len(chain) else chain[-1]


def _binomials(q, m, k):
    """The Gaussian binomials [m n]_q for n < k, by q-Pascal rows from
    [0 n] = (n == 0): up by [r n] = [r-1 n-1] + q^n [r-1 n], down by
    [r-1 n] = q^-n ([r n] - [r-1 n-1]).  No step divides, so q = 1 gives
    the ordinary binomials; [-1 n] = (-1)^n q^(-n(n+1)/2)."""
    if k == 1:
        return [ONE]  # [m 0] = 1 needs no row walk; X^m X asks only for it
    step = q if m >= 0 else q.inverse()
    pw = [ONE]
    while len(pw) < k:
        pw.append(pw[-1] * step)
    row = [ONE] + [ZERO] * (k - 1)
    for _ in range(abs(m)):
        new = [ONE]
        for n in range(1, k):
            new.append(row[n - 1] + pw[n] * row[n] if m > 0
                       else pw[n] * (row[n] - new[n - 1]))
        row = new
    return row[:k]


def laurent_mul(alg, u, v, bound=NILPOTENCE_BOUND):
    """Product in the localised skew extension, in canonical form: X^i v_j
    is the level sum with the Gaussian binomials [i n]_{q_N}, whose depth
    bound limits only i < 0."""
    qN = alg.level_q[alg.N]
    out = {}
    for i, ui in u.items():
        for j, vj in v.items():
            w = _level_sum(alg, vj, i, functools.partial(_binomials, qN, i),
                           bound if i < 0 else None, "X^-1 commutation")
            add_terms(out, ((k + j, alg.multiply(ui, wk)) for k, wk in w.items()))
    return LaurentElem(out)


# ---------------------------------------------------------------------------
# the deleting-derivations embedding


def _check_theta_ready(alg, a):
    if alg.N < 2:
        raise ValueError("theta needs at least two generators")
    if alg.level_q[alg.N] == ONE:
        raise ValueError("top-level constant q_N is 1; theta is undefined")
    if a.max_index() >= alg.N:
        raise ValueError("theta applies to elements of the base algebra only")


def _level_factors(alg, k):
    """The first k level factors ((1-q_N)^n [n]!_{q_N})^-1, from the algebra's list."""
    factors = alg._theta_factors
    qN = alg.level_q[alg.N]
    while len(factors) < k:
        factors.append(factors[-1] / ((ONE - qN) * q_int(len(factors), qN)))
    return factors[:k]


def theta(alg, a, bound=NILPOTENCE_BOUND):
    """Image of a base-algebra element under the deleting-derivations map:
    the level sum with m = 0 and the level factors of `_theta_factors`.

    The bound raises exactly when the term at index bound is nonzero,
    whatever the stores hold.
    """
    _check_theta_ready(alg, a)
    return _level_sum(alg, a, 0, functools.partial(_level_factors, alg), bound, "theta")


def theta_alt(alg, a, bound=NILPOTENCE_BOUND):
    """The equivalent expansion with the q^(n^2) twist and maps in swapped
    order.  The powers d^n(a) come first, so the bound raises before any
    level factor is built.  The factors q_N^(n^2) ((1-q_N)^n [n]!_{q_N})^-1
    are `_alt_factors`, each the one before times q_N^(2n-1) ((1-q_N) [n])^-1."""
    _check_theta_ready(alg, a)
    powers = alg.delta_powers(alg.N, a, bound, "theta")
    factors = alg._alt_factors
    qN = alg.level_q[alg.N]
    while len(factors) < len(powers):
        n = len(factors)
        factors.append(factors[-1] * qN ** (2 * n - 1) / ((ONE - qN) * q_int(n, qN)))
    return LaurentElem({-n: alg.apply_sigma(alg.N, t, -n).scaled(c)
                        for n, (t, c) in enumerate(zip(powers, factors))})
