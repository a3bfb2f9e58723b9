"""Deleting derivations at the top level of a CGL algebra.

For R = A[X; s, d] with X the top generator, elements of the localization
at the powers of X are finite sums sum_i a_i X^i with a_i in the base
algebra A.  Commuting X forward uses X a = s(a) X + d(a).  Commuting X^-1
forward unrolls X^-1 a = s^-1(a) X^-1 - X^-1 d(s^-1(a)) X^-1 into the sum

    X^-1 a  =  sum_n (-1)^n s^-1(T^n a) X^-(n+1),    T = d s^-1,

which is finite because d is locally nilpotent.  The embedding of A sends

    a  |->  sum_n (1-q)^-n / [n]!_q  d^n(s^-n(a)) X^-n

with q the top-level constant q_N; the sum is finite by nilpotence.
`theta` sums each level n over the Laurent coefficients of s^-n(a) and scales
the sum once by the level factor ((1-q)^n [n]!_q)^-1, so a denominator that is
not a power of q costs one product per output word.  Two stores on the
algebra serve it: `_theta_factors`, the level factors for its q_N, and
`_delta_chains`, the powers d^n(w) of each PBW word w.  `theta_alt` reads
neither and stays an independent check on both.
"""

from __future__ import annotations

from .coef import ONE, RatFunc, q_int
from .ncalg import (NILPOTENCE_BOUND, NcPoly, NilpotenceBoundExceeded, TermMap, _format_terms,
                    add_terms)


class LaurentElem(TermMap):
    """Finite map X-exponent -> base-algebra coefficient, coefficients on the left."""

    __slots__ = ()

    @staticmethod
    def from_poly(p, exp=0):
        return LaurentElem({exp: p} if not p.is_zero() else {})

    @staticmethod
    def one():
        return LaurentElem({0: NcPoly.scalar(ONE)})

    @staticmethod
    def x_power(k):
        return LaurentElem({k: NcPoly.scalar(ONE)})

    def min_exp(self):
        return min(self.terms) if self.terms else 0

    def scaled(self, c):
        c = c if isinstance(c, RatFunc) else RatFunc(c)
        if not c:
            return LaurentElem.zero()
        return LaurentElem({k: p.scaled(c) for k, p in self.terms.items()})

    def shifted(self, d):
        """Right multiplication by X^d (X commutes with itself)."""
        if d == 0:
            return self
        return LaurentElem({k + d: p for k, p in self.terms.items()})

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
# commuting powers of X across base elements


def _xinv_times_poly(alg, c, bound):
    """X^-1 * c for a nonzero c, as a LaurentElem, by the closed sum over the
    chain c, Tc, T^2 c, ...

    The walk stops at the first chain element whose product the algebra has
    cached (0 included) and then caches the product of every element it met,
    or stops after bound elements.  The product of T^n c has one X-power per
    nonzero chain element, so its depth is -min_exp(): past bound it raises,
    warm as cold.
    """
    cache = alg._xinv_cache
    met = []   # (T^n c, s^-1(T^n c)) for the uncached chain elements
    e, tail = c, cache.get(c)
    while tail is None and len(met) < bound:
        s = alg.apply_sigma_inv(alg.N, e)
        met.append((e, s))
        e = alg.apply_delta(alg.N, s)
        tail = cache.get(e) if e else LaurentElem.zero()
    if tail is not None:
        for e, s in reversed(met):
            tail = cache[e] = LaurentElem.from_poly(s, -1) - tail.shifted(-1)
    if tail is None or -tail.min_exp() > bound:
        raise NilpotenceBoundExceeded(
            "X^-1 commutation did not terminate within bound %d" % bound, bound, c)
    return tail


def _x_power_times(alg, i, p, bound):
    """X^i * p for p in the base algebra, as a LaurentElem, one X^+-1 at a time."""
    u = LaurentElem.from_poly(p)
    for _ in range(abs(i)):
        out = {}
        for k, c in u.items():
            if i > 0:
                step = ((1, alg.apply_sigma(alg.N, c)), (0, alg.apply_delta(alg.N, c)))
            else:
                step = _xinv_times_poly(alg, c, bound).items()
            add_terms(out, ((k + e, v) for e, v in step))
        u = LaurentElem(out)
    return u


def laurent_mul(alg, u, v, bound=NILPOTENCE_BOUND):
    """Product in the localised skew extension, in canonical form."""
    out = {}
    for i, ui in u.items():
        for j, vj in v.items():
            w = _x_power_times(alg, i, vj, bound)
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


def _level_factor(alg, n):
    """((1-q_N)^n [n]!_{q_N})^-1, from the algebra's list of level factors."""
    factors = alg._theta_factors
    qN = alg.level_q[alg.N]
    while len(factors) <= n:
        m = len(factors)
        factors.append(factors[-1] / ((ONE - qN) * q_int(m, qN)))
    return factors[n]


def _delta_power(alg, w, n):
    """d^n(w) for a PBW word w, from the algebra's chain [w, d(w), ...],
    which ends with 0 once d has killed w."""
    chain = alg._delta_chains.get(w)
    if chain is None:
        chain = alg._delta_chains[w] = [NcPoly({w: ONE})]
    while len(chain) <= n and chain[-1]:
        chain.append(alg.apply_delta(alg.N, chain[-1]))
    return chain[n] if n < len(chain) else chain[-1]


def theta(alg, a, bound=NILPOTENCE_BOUND):
    """Image of a base-algebra element under the deleting-derivations map.

    sigma^-1 scales each PBW word w of a, so d^n(s^-n(a)) is the sum over
    the words of a of (the coefficient of w in s^-n(a)) * d^n(w).  Each
    level is summed with those Laurent coefficients and then scaled once by
    its level factor; d^n(w) comes from the algebra's `_delta_chains` and the
    factor from its `_theta_factors`.  The bound raises exactly when the term
    at index bound is nonzero, whatever the stores hold.
    """
    _check_theta_ready(alg, a)
    out = {}
    u = a
    n = 0
    while True:
        t = {}
        for w in a.terms:
            add_terms(t, _delta_power(alg, w, n).terms.items(), u.terms[w])
        if not t:
            break
        out[-n] = NcPoly(t).scaled(_level_factor(alg, n)) if n else NcPoly(t)
        n += 1
        if n > bound:
            raise NilpotenceBoundExceeded("theta did not terminate within bound %d" % bound,
                                          bound, a)
        u = alg.apply_sigma_inv(alg.N, u)
    return LaurentElem(out)


def theta_alt(alg, a, bound=NILPOTENCE_BOUND):
    """The equivalent expansion with the q^(n^2) twist and maps in swapped order."""
    _check_theta_ready(alg, a)
    qN = alg.level_q[alg.N]
    one_minus = ONE - qN
    out = {}
    t = a
    factor = ONE
    n = 0
    while not t.is_zero():
        s = t
        for _ in range(n):
            s = alg.apply_sigma_inv(alg.N, s)
        out[-n] = s.scaled(factor * qN ** (n * n))
        t = alg.apply_delta(alg.N, t)
        n += 1
        if n > bound:
            raise NilpotenceBoundExceeded("theta did not terminate within bound %d" % bound,
                                          bound, a)
        factor = factor / (one_minus * q_int(n, qN))
    return LaurentElem(out)

