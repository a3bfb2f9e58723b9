"""Deleting derivations at the top level of a CGL algebra.

For R = A[X; s, d] with X the top generator, elements of the localization
at the powers of X are finite sums sum_i a_i X^i with a_i in the base
algebra A.  Commuting X forward uses X a = s(a) X + d(a); commuting X^-1
forward uses the recursion

    X^-1 a = s^-1(a) X^-1 - X^-1 d(s^-1(a)) X^-1,

which terminates because d is locally nilpotent.  The embedding of A sends

    a  |->  sum_n (1-q)^-n / [n]!_q  d^n(s^-n(a)) X^-n

with q the top-level constant q_N; the sum is finite by nilpotence.
"""

from __future__ import annotations

from .coef import ONE, RatFunc, q_int
from .ncalg import NcPoly, NilpotenceBoundExceeded, OreAlgebra, add_terms


class LaurentElem:
    """Finite map X-exponent -> base-algebra coefficient, coefficients on the left."""

    __slots__ = ("coeffs", "_hash")

    def __init__(self, coeffs):
        self.coeffs = coeffs
        self._hash = None

    @staticmethod
    def zero():
        return LaurentElem({})

    @staticmethod
    def from_poly(p, exp=0):
        return LaurentElem({exp: p} if not p.is_zero() else {})

    @staticmethod
    def one():
        return LaurentElem({0: NcPoly.scalar(ONE)})

    @staticmethod
    def x_power(k):
        return LaurentElem({k: NcPoly.scalar(ONE)})

    def is_zero(self):
        return not self.coeffs

    def min_exp(self):
        return min(self.coeffs) if self.coeffs else 0

    def items(self):
        return self.coeffs.items()

    def __add__(self, other):
        if not isinstance(other, LaurentElem):
            return NotImplemented
        return LaurentElem(add_terms(dict(self.coeffs), other.coeffs.items()))

    def __sub__(self, other):
        if not isinstance(other, LaurentElem):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return LaurentElem({k: -p for k, p in self.coeffs.items()})

    def scaled(self, c):
        c = c if isinstance(c, RatFunc) else RatFunc(c)
        if not c:
            return LaurentElem.zero()
        return LaurentElem({k: p.scaled(c) for k, p in self.coeffs.items()})

    def shifted(self, d):
        """Right multiplication by X^d (X commutes with itself)."""
        if d == 0:
            return self
        return LaurentElem({k + d: p for k, p in self.coeffs.items()})

    def scalar_x_power(self):
        """(c, k) if the element is a scalar multiple of X^k, else None."""
        if len(self.coeffs) != 1:
            return None
        (k, p), = self.coeffs.items()
        c = p.scalar_value()
        if c is None or not c:
            return None
        return c, k

    def __eq__(self, other):
        if not isinstance(other, LaurentElem):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset(self.coeffs.items()))
        return self._hash

    def __repr__(self):
        items = sorted(self.coeffs.items(), reverse=True)
        return "LaurentElem({%s})" % ", ".join("%d: %r" % (k, p) for k, p in items)


def format_laurent(names, u):
    """Render with exponents descending; coefficients distribute over terms."""
    from .ncalg import _format_terms

    items = []
    for k in sorted(u.coeffs, reverse=True):
        xfac = "" if k == 0 else ("X" if k == 1 else "X^%d" % k)
        p = u.coeffs[k]
        for w, c in sorted(p.terms.items(), key=lambda t: (len(t[0]), t[0])):
            items.append((w, c, xfac))
    if not items:
        return "0"
    chunks = []
    for w, c, xfac in items:
        piece = _format_terms(names, [(w, c)], xexp_for=(lambda _w, f=xfac: f))
        if not chunks:
            chunks.append(piece)
        elif piece.startswith("-"):
            chunks.append(" - ")
            chunks.append(piece[1:])
        else:
            chunks.append(" + ")
            chunks.append(piece)
    return "".join(chunks)


# ---------------------------------------------------------------------------
# commuting powers of X across base elements


def _xinv_times_poly(alg, c, bound):
    """X^-1 * c as a LaurentElem, by the nilpotence-terminated recursion."""
    if c.is_zero():
        return LaurentElem.zero()
    hit = alg._xinv_cache.get(c)
    if hit is not None:
        return hit
    if bound <= 0:
        raise NilpotenceBoundExceeded("X^-1 commutation did not terminate within bound")
    s = alg.apply_sigma_inv(alg.N, c)
    d = alg.apply_delta(alg.N, s)
    res = LaurentElem.from_poly(s, -1)
    if not d.is_zero():
        res = res - _xinv_times_poly(alg, d, bound - 1).shifted(-1)
    alg._xinv_cache[c] = res
    return res


def _x_times(alg, u):
    """X * u for a LaurentElem u."""
    out = {}
    for k, p in u.items():
        add_terms(out, ((k + 1, alg.apply_sigma(alg.N, p)), (k, alg.apply_delta(alg.N, p))))
    return LaurentElem(out)


def _x_power_times(alg, i, p, bound):
    """X^i * p for p in the base algebra, as a LaurentElem."""
    u = LaurentElem.from_poly(p)
    if i > 0:
        for _ in range(i):
            u = _x_times(alg, u)
    elif i < 0:
        for _ in range(-i):
            out = {}
            for k, c in u.items():
                add_terms(out, _xinv_times_poly(alg, c, bound).shifted(k).items())
            u = LaurentElem(out)
    return u


def laurent_mul(alg, u, v, bound=64):
    """Product in the localised skew extension, in canonical form."""
    out = {}
    for i, ui in u.items():
        for j, vj in v.items():
            w = _x_power_times(alg, i, vj, bound)
            add_terms(out, ((k + j, alg.multiply(ui, wk)) for k, wk in w.items()))
    return LaurentElem(out)


# ---------------------------------------------------------------------------
# the deleting-derivations embedding


def _check_theta_ready(alg):
    if alg.N < 2:
        raise ValueError("theta needs at least two generators")
    if alg.level_q[alg.N] == ONE:
        raise ValueError("top-level constant q_N is 1; theta is undefined")


def theta(alg, a, bound=64):
    """Image of a base-algebra element under the deleting-derivations map.

    sigma^-1 scales each PBW word w of a, so d^n(s^-n(a)) is the sum over
    the words of a of (the coefficient of w in s^-n(a)) * d^n(w); each word
    keeps its own chain d^n(w), extended by one application of d per level.
    """
    _check_theta_ready(alg)
    if a.max_index() >= alg.N:
        raise ValueError("theta applies to elements of the base algebra only")
    qN = alg.level_q[alg.N]
    one_minus = ONE - qN
    out = {}
    u = a
    chains = {w: NcPoly({w: ONE}) for w in a.terms}
    factor = ONE
    n = 0
    while True:
        t = {}
        for w, d in chains.items():
            add_terms(t, d.terms.items(), u.terms[w] * factor)
        if not t:
            break
        out[-n] = NcPoly(t)
        n += 1
        if n > bound:
            raise NilpotenceBoundExceeded("theta did not terminate within bound %d" % bound)
        factor = factor / (one_minus * q_int(n, qN))
        u = alg.apply_sigma_inv(alg.N, u)
        chains = {w: alg.apply_delta(alg.N, d) for w, d in chains.items()}
        chains = {w: d for w, d in chains.items() if d}
    return LaurentElem(out)


def theta_alt(alg, a, bound=64):
    """The equivalent expansion with the q^(n^2) twist and maps in swapped order."""
    _check_theta_ready(alg)
    if a.max_index() >= alg.N:
        raise ValueError("theta applies to elements of the base algebra only")
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
            raise NilpotenceBoundExceeded("theta did not terminate within bound %d" % bound)
        factor = factor / (one_minus * q_int(n, qN))
    return LaurentElem(out)


def min_shift(alg, a, bound=64):
    """Smallest s >= 0 with theta(a) X^s free of negative exponents."""
    if a.is_zero():
        raise ValueError("min_shift of 0 is undefined")
    img = theta(alg, a, bound=bound)
    return max(0, -img.min_exp())


def delete_top_variable(alg):
    """The same algebra datum with the top-level correction terms removed,
    i.e. the pure skew extension B[X;alpha] the embedding converts to."""
    delta = {k: v for k, v in alg.delta.items() if k[0] != alg.N}
    return OreAlgebra(alg.names, alg.lam, delta, alg.level_q, alg.torus_rank,
                      alg.weights, alg.h_elems, steps_budget=alg.steps_budget)
