"""Iterated Ore extensions of CGL type with PBW normal forms.

An OreAlgebra holds the full straightening datum of an iterated skew
polynomial extension k[x_1][x_2;s_2,d_2]...[x_N;s_N,d_N]: the eigenvalue
table lambda_ji with s_j(x_i) = lambda_ji x_i, the correction polynomials
d_j(x_i), the per-level constants q_j with s_j d_j = q_j d_j s_j, and the
diagonal torus data (integer weight vectors plus the distinguished torus
elements h_j).  Elements are NcPoly values: maps from nondecreasing words of
generator indices to Q(q) coefficients.  Products are normalised by
insertion sort: from left to right, each letter x_i moves left past the
larger letters before it, one step per inversion, each step rewriting x_j x_i
(j > i) as lambda_ji x_i x_j + d_j(x_i) by the entry for j in x_i's rule row;
each term of d_j(x_i) starts a path of its own.  That is the engine's one
reduction order: check (g) straightens both one-step reducts of each overlap
with it.  No normal form is stored: every word a product, a derivation, an
overlap check or normal_form_word forms is straightened where it is formed,
its paths starting from the word's coefficient.  The engine imports no qcgl
module but coef; the spec document an algebra is written to and read from is
presets'.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .coef import ONE, ZERO, RatFunc, is_root_of_unity

_NAME_RE = re.compile(r"^(?:x\[\d+,\d+\]|g_\d+)$")

STEPS_BUDGET = 10**6      # rewriting steps per straightened word, by default
NILPOTENCE_BOUND = 64     # powers of a derivation tried before giving up, by default
MAX_WEIGHT = 64           # bound on |e| for a torus weight entry: h_eigenvalue raises to it


class StepBudgetExceeded(RuntimeError):
    """Raised when straightening exceeds the reduction-step budget.

    word is the word being straightened, as generator indices, and steps the
    number of rewriting steps taken when it stopped: one past the budget.
    """

    def __init__(self, message, word, steps):
        super().__init__(message)
        self.word = word
        self.steps = steps


class NilpotenceBoundExceeded(RuntimeError):
    """Raised when a derivation fails to vanish within the allowed bound.

    bound is the bound that was passed, and element the NcPoly being worked
    on: theta's argument, the base element X^-1 was commuted past, or the
    element whose delta powers were sought.
    """

    def __init__(self, message, bound, element):
        super().__init__(message)
        self.bound = bound
        self.element = element


def _qpow_parts(c):
    """(sign, k, rest) with c = rest * sign * q^k, where rest is None for a
    signed power of q and (1, 0, c) is returned for any other c."""
    sp = c.as_signed_q_power()
    return (1, 0, c) if sp is None else (sp[0], sp[1], None)


# ---------------------------------------------------------------------------
# polynomials


def add_terms(out, items, c=None):
    """Add (key, value) pairs into the dict out in place and return it.

    Each value is first multiplied by the scalar c when one is given.  A key
    whose sum cancels is dropped, so out never stores a zero.  Values are
    RatFunc coefficients or, for Laurent elements, NcPoly coefficients.
    """
    for k, v in items:
        if c is not None:
            v = v * c
        acc = out.get(k)
        if acc is not None:
            v = acc + v
        if v:
            out[k] = v
        elif acc is not None:
            del out[k]
    return out


class TermMap:
    """A finite map from keys to nonzero coefficients, treated as immutable.

    NcPoly maps PBW words to RatFunc coefficients and delderiv.LaurentElem
    maps X-exponents to NcPoly coefficients; the arithmetic they share lives
    here, and every sum goes through add_terms, so no zero is ever stored.
    """

    __slots__ = ("terms",)

    def __init__(self, terms):
        self.terms = terms

    @classmethod
    def zero(cls):
        return cls({})

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def items(self):
        return self.terms.items()

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return type(self)(add_terms(dict(self.terms), other.terms.items()))

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return type(self)({k: -v for k, v in self.terms.items()})

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.terms == other.terms


class NcPoly(TermMap):
    """Noncommutative polynomial in PBW normal form.

    terms maps words (nondecreasing tuples of 1-based generator indices) to
    nonzero RatFunc coefficients.
    """

    __slots__ = ()

    @staticmethod
    def scalar(c):
        c = c if isinstance(c, RatFunc) else RatFunc(c)
        return NcPoly({(): c} if c else {})

    def max_index(self):
        """Largest generator index occurring, 0 for scalar polynomials."""
        return max((w[-1] for w in self.terms if w), default=0)

    def scalar_value(self):
        """The RatFunc value if the polynomial is a scalar, else None."""
        if not self.terms:
            return ZERO
        if len(self.terms) == 1 and () in self.terms:
            return self.terms[()]
        return None

    def scaled(self, c):
        """c times the polynomial, through add_terms."""
        c = c if isinstance(c, RatFunc) else RatFunc(c)
        return NcPoly(add_terms({}, self.terms.items(), c))

    def sorted_terms(self):
        """The (word, coefficient) pairs ordered by (degree, word)."""
        return sorted(self.terms.items(), key=lambda t: (len(t[0]), t[0]))

    def __repr__(self):
        body = ", ".join("%r: %s" % (w, c) for w, c in self.sorted_terms())
        return "NcPoly({%s})" % body


def format_poly(names, p):
    """Render a polynomial deterministically: terms by (degree, word)."""
    return _format_terms(names, ((w, c, "") for w, c in p.sorted_terms()))


def _format_terms(names, triples):
    """Join (word, coefficient, trailing X-factor) triples into a signed sum."""
    chunks = []
    for w, c, xfac in triples:
        neg = c.display_negative()
        if neg:
            c = -c
        factors = []
        if not c.is_one() or (not w and not xfac):
            cs = str(c)
            if c.den == (1,) and sum(1 for x in c.num if x) > 1:
                cs = "(" + cs + ")"
            factors.append(cs)
        i = 0
        while i < len(w):
            j = i
            while j < len(w) and w[j] == w[i]:
                j += 1
            name = names[w[i] - 1]
            factors.append(name if j - i == 1 else "%s^%d" % (name, j - i))
            i = j
        if xfac:
            factors.append(xfac)
        body = "*".join(factors)
        if not chunks:
            chunks.append("-" + body if neg else body)
        else:
            chunks.append((" - " if neg else " + ") + body)
    return "".join(chunks) or "0"


# ---------------------------------------------------------------------------
# reports


@dataclass
class NormalityReport:
    names: tuple
    exponents: tuple  # int per generator, or None where no power of q works

    @property
    def ok(self):
        return all(e is not None for e in self.exponents)

    def __str__(self):
        lines = []
        for name, e in zip(self.names, self.exponents):
            lines.append("  %-10s %s" % (name, "none" if e is None else "q^%d" % e))
        verdict = "normal" if self.ok else "not normal (no q-power against some generator)"
        return "\n".join(lines + [verdict])


@dataclass
class AxiomCheck:
    level: int
    axiom: str
    ok: bool
    detail: str = ""


@dataclass
class AxiomReport:
    checks: list

    @property
    def ok(self):
        return all(c.ok for c in self.checks)

    def failures(self):
        return [c for c in self.checks if not c.ok]

    def __str__(self):
        lines = []
        for c in self.checks:
            mark = "ok  " if c.ok else "FAIL"
            detail = " -- " + c.detail if c.detail else ""
            lines.append("%s level %d %s%s" % (mark, c.level, c.axiom, detail))
        lines.append("axioms: " + ("all pass" if self.ok else "%d failure(s)" % len(self.failures())))
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# the algebra


class OreAlgebra:
    """Straightening datum of an iterated Ore extension of CGL type.

    Shape is validated at construction; the mathematical axioms (nonzero
    eigenvalues, nilpotence, the q_j twist, torus compatibility) are checked
    by check_cgl_axioms so that deliberately broken specs can be built and
    then rejected by the checker.
    """

    def __init__(self, names, lam, delta, level_q, torus_rank, weights, h_elems):
        names = tuple(names)
        N = len(names)
        if N == 0:
            raise ValueError("an algebra needs at least one generator")
        for name in names:
            if not _NAME_RE.match(name):
                raise ValueError("generator name %r is not of the form x[i,j] or g_k" % name)
        if len(set(names)) != N:
            raise ValueError("generator names must be distinct")

        self.names = names
        self.N = N
        self.lam = {}
        for j in range(2, N + 1):
            for i in range(1, j):
                try:
                    v = lam[(j, i)]
                except KeyError:
                    raise ValueError("missing straightening coefficient lambda(%d,%d)" % (j, i))
                self.lam[(j, i)] = v if isinstance(v, RatFunc) else RatFunc(v)
        for j, i in lam:
            if (j, i) not in self.lam:
                raise ValueError("lambda index (%s,%s) out of range" % (j, i))
        self.delta = {}
        for (j, i), p in delta.items():
            if not (1 <= i < j <= N):
                raise ValueError("delta index (%d,%d) out of range" % (j, i))
            if p.is_zero():
                continue
            if p.max_index() >= j:  # the hypothesis of criterion 7's order lemma
                raise ValueError("delta(%d,%d) uses a generator index >= %d" % (j, i, j))
            for w in p.terms:
                if any(w[t] > w[t + 1] for t in range(len(w) - 1)):
                    raise ValueError("delta(%d,%d) is not in normal form" % (j, i))
            self.delta[(j, i)] = p
        # The rewrite rows: rows[i][j], for j > i, rewrites x_j x_i as
        # (lam, dterms).  lam is lambda_ji split as by _qpow_parts, or None
        # when lambda_ji = 0, so that the swap to x_i x_j is left out; dterms
        # holds one (word, sign, k, rest) per term of d_j(x_i), its word a
        # list to join the list slices of a path.  A factor that is a signed
        # power of q thus costs integer updates.
        self._lam_parts = {}
        self._rows = rows = [[None] * (N + 1) for _ in range(N + 1)]
        for (j, i), v in self.lam.items():
            parts = self._lam_parts[(j, i)] = _qpow_parts(v)
            rows[i][j] = (parts if parts[2] is None or v else None, ())
        for (j, i), p in self.delta.items():
            rows[i][j] = (rows[i][j][0],
                          tuple((list(dw),) + _qpow_parts(dc) for dw, dc in p.terms.items()))
        self.level_q = {}
        for j in range(2, N + 1):
            try:
                v = level_q[j]
            except KeyError:
                raise ValueError("missing level constant q_%d" % j)
            self.level_q[j] = v if isinstance(v, RatFunc) else RatFunc(v)
        for j in level_q:
            if j not in self.level_q:
                raise ValueError("level_q index %s out of range" % (j,))
        if type(torus_rank) is not int:
            raise ValueError("torus rank must be an integer, not %r" % (torus_rank,))
        self.torus_rank = torus_rank
        weights = [tuple(w) for w in weights]
        if len(weights) != N or any(len(w) != self.torus_rank for w in weights):
            raise ValueError("need one weight vector of length %d per generator" % self.torus_rank)
        if any(type(e) is not int for w in weights for e in w):
            raise ValueError("torus weights must be integers")
        for name, w in zip(names, weights):
            if any(abs(e) > MAX_WEIGHT for e in w):
                raise ValueError("torus weight %s of %s is past the bound |e| <= %d"
                                 % (list(w), name, MAX_WEIGHT))
        self.weights = tuple(weights)
        hs = []
        for h in h_elems:
            h = tuple(v if isinstance(v, RatFunc) else RatFunc(v) for v in h)
            if len(h) != self.torus_rank:
                raise ValueError("torus elements must have length %d" % self.torus_rank)
            if not all(h):
                raise ValueError("torus elements must have nonzero entries")
            hs.append(h)
        if len(hs) != N:
            raise ValueError("need one distinguished torus element per level")
        self.h_elems = tuple(hs)
        # the step budget of each straightened word; the CLI sets it after loading
        self.steps_budget = STEPS_BUDGET
        # no normal form is stored: each word is straightened where it is
        # formed.  delderiv fills these stores: the chains [w, d_N(w), ...]
        # per PBW word w, theta's level factors ((1-q_N)^n [n]!)^-1 and
        # theta_alt's q_N^(n^2) times those
        self._delta_chains = {}
        self._theta_factors = [ONE]
        self._alt_factors = [ONE]

    # -- constructors of elements -------------------------------------------

    def gen(self, i):
        if not 1 <= i <= self.N:
            raise ValueError("generator index %d out of range" % i)
        return NcPoly({(i,): ONE})

    def gen_named(self, name):
        try:
            return self.gen(self.names.index(name) + 1)
        except ValueError:
            raise ValueError("unknown generator %r" % name)

    # -- rewriting -------------------------------------------------------------

    def normal_form_word(self, word):
        """PBW normal form of an arbitrary word of generator indices, by
        leftmost reduction; each call straightens afresh."""
        return NcPoly(self._straighten({}, tuple(word), ONE))

    def _straighten(self, out, word, c):
        """Add c * NF(word) into the dict out, as add_terms does, and return it.

        Leftmost reduction is insertion sort: with the prefix cur[:n] sorted,
        x = cur[n] moves left past each larger letter j, one rewriting step
        per inversion, by the row entry rows[x][j].  A path follows its
        lambda branch in place; each term of d_j(x) starts a new path whose
        sorted prefix is the letters before j, and lambda_jx = 0 ends the
        path.  Every path starts from c, split as by _qpow_parts, so a c that
        is a signed power of q costs no Q(q) product; out is left as it was
        when the step budget runs out.
        """
        rows = self._rows
        budget = self.steps_budget
        leaves = []
        # a path is (letters, n, sign, k, rest): its letters[:n] are sorted and
        # its coefficient is rest * sign * q^k, rest None standing for 1
        stack = [(list(word), 1) + _qpow_parts(c)]
        steps = 0
        while stack:
            cur, n, sign, k, rest = stack.pop()
            size = len(cur)
            while n < size:
                x = cur[n]
                p = n
                n += 1
                while p and cur[p - 1] > x:
                    j = cur[p - 1]
                    steps += 1
                    if steps > budget:
                        raise StepBudgetExceeded("straightening %s exceeded %d steps"
                                                 % (self.word_text(word), budget),
                                                 word, steps)
                    lam, dterms = rows[x][j]
                    if dterms:
                        head, tail = cur[:p - 1], cur[p + 1:]
                        for dw, s, e, c in dterms:
                            if c is None:
                                c = rest
                            elif rest is not None:
                                c = rest * c
                            stack.append((head + dw + tail, p - 1 or 1, sign * s, k + e, c))
                    if lam is None:
                        break  # lambda_jx = 0 ends this path
                    s, e, c = lam
                    sign *= s
                    k += e
                    if c is not None:
                        rest = c if rest is None else rest * c
                    cur[p] = j
                    p -= 1
                else:
                    cur[p] = x
                    continue
                break
            else:  # sorted: a leaf
                leaves.append((tuple(cur), (ONE if rest is None else rest).times_qpow(k, sign)))
        return add_terms(out, leaves)

    def multiply(self, a, b):
        out = {}
        for wa, ca in a.terms.items():
            for wb, cb in b.terms.items():
                c = cb if ca.is_one() else ca if cb.is_one() else ca * cb
                self._straighten(out, wa + wb, c)
        return NcPoly(out)

    def word_text(self, word):
        """A word of generator indices in generator names, as x[1,2]*x[1,1]."""
        return "*".join(self.names[g - 1] for g in word)

    # -- level maps -------------------------------------------------------------

    def _require_level(self, j):
        if not 2 <= j <= self.N:
            raise ValueError("level %d out of range (2..%d)" % (j, self.N))

    def _require_below(self, a, j):
        if a.max_index() >= j:
            raise ValueError("element uses generator index >= level %d" % j)

    def apply_sigma(self, j, a, e=1):
        """s_j^e on the subalgebra on generators < j, for any integer e: each
        word w scales by the product of lambda_jg^e over its letters g."""
        self._require_level(j)
        self._require_below(a, j)
        if e == 0:
            return a
        out = {}
        for w, c in a.terms.items():
            sign, k = 1, 0
            for g in w:
                s, m, rest = self._lam_parts[(j, g)]
                sign *= s
                k += m
                if rest is not None:
                    c = c * rest ** e
            c = c.times_qpow(e * k, sign if e % 2 else 1)
            if c:
                out[w] = c
        return NcPoly(out)

    def apply_delta(self, j, a):
        """The s_j-derivation d_j, extended by d(ab) = s(a)d(b) + d(a)b."""
        self._require_level(j)
        self._require_below(a, j)
        out = {}
        for w, c in a.terms.items():
            # s_j of the letters before t scales by c * sign * q^k
            sign, k = 1, 0
            for t, g in enumerate(w):
                d = self.delta.get((j, g))
                if d is not None:
                    head, tail = w[:t], w[t + 1:]
                    ct = c.times_qpow(k, sign)
                    for dw, dc in d.terms.items():
                        self._straighten(out, head + dw + tail, ct * dc)
                s, m, rest = self._lam_parts[(j, g)]
                sign *= s
                k += m
                if rest is not None:
                    c = c * rest
        return NcPoly(out)

    def delta_powers(self, j, a, bound, what):
        """[a, d_j(a), d_j^2(a), ...] up to the last nonzero power; raises
        when d_j^bound(a) is nonzero, naming what did not terminate."""
        powers, t = [], a
        while t:
            if len(powers) == bound:
                raise NilpotenceBoundExceeded(
                    "%s did not terminate within bound %d" % (what, bound), bound, a)
            powers.append(t)
            t = self.apply_delta(j, t)
        return powers

    # -- torus ---------------------------------------------------------------

    def word_weight(self, w):
        out = [0] * self.torus_rank
        for g in w:
            wg = self.weights[g - 1]
            for t in range(self.torus_rank):
                out[t] += wg[t]
        return tuple(out)

    def torus_weight(self, a):
        """Common weight vector of all monomials, or None if inhomogeneous."""
        if a.is_zero():
            raise ValueError("torus weight of 0 is undefined")
        weight = None
        for w in a.terms:
            cur = self.word_weight(w)
            if weight is None:
                weight = cur
            elif cur != weight:
                return None
        return weight

    def h_eigenvalue(self, j, i):
        """Action of the level-j torus element on generator i, via weights."""
        acc = ONE
        h = self.h_elems[j - 1]
        for t, e in enumerate(self.weights[i - 1]):
            acc = acc * h[t] ** e
        return acc

    # -- q-commutation ----------------------------------------------------------

    def qcommute_exponent(self, a, b):
        """The integer s with a*b == q^s * b*a, or None if no such power."""
        if a.is_zero() or b.is_zero():
            raise ValueError("q-commutation needs nonzero elements")
        ab = self.multiply(a, b)
        ba = self.multiply(b, a)
        if set(ab.terms) != set(ba.terms):
            return None
        if ab.is_zero():
            return None
        w0 = next(iter(ab.terms))
        ratio = ab.terms[w0] / ba.terms[w0]
        sp = ratio.as_signed_q_power()
        if sp is None:
            return None
        s = sp[1]
        for w, c in ab.terms.items():
            if c != ba.terms[w].times_qpow(s):
                return None
        return s

    def is_normal(self, a):
        """q-commutation exponents of a against every generator."""
        exps = tuple(self.qcommute_exponent(a, self.gen(i)) for i in range(1, self.N + 1))
        return NormalityReport(self.names, exps)

    # -- CGL axioms ----------------------------------------------------------

    def check_cgl_axioms(self, nilpotence_bound=NILPOTENCE_BOUND):
        """Per-level axiom verdicts; failures are report entries, never raises.

        (a) s_j d_j = q_j d_j s_j on each generator below j
        (b) d_j nilpotent within bound on each generator below j
        (c) q_j is not a root of unity
        (d) the torus element h_j acts on each earlier generator by lambda_ji
        (e) the h_j-eigenvalue of x_j is not a root of unity
        (f) every lambda_ji is nonzero
        (g) from level 3 on, the two one-step reducts of every overlap word
            x_k x_j x_i (k > j > i) have the same normal form; with
            criterion 7's order lemma, Bergman's diamond lemma gives the PBW basis

        Checking (a) and (b) on generators suffices.  (a): D = s_j d_j -
        q_j d_j s_j is an (s_j^2, s_j)-derivation, D(ab) = s_j^2(a) D(b) +
        D(a) s_j(b), so D vanishes on A_{j-1} once it vanishes on generators.
        (b): given (a), d_j^n(ab) = sum_k [n k]_{q_j^-1} s_j^k(d_j^(n-k)(a))
        d_j^k(b), so d_j^(r+t-1)(ab) = 0 once d_j^r(a) = 0 = d_j^t(b), and d_j
        nilpotent on generators is locally nilpotent on A_{j-1}.
        """
        checks = []
        for j in range(2, self.N + 1):
            bad = [i for i in range(1, j) if not self.lam[(j, i)]]
            checks.append(AxiomCheck(j, "(f) nonzero eigenvalues", not bad,
                                     "" if not bad else "lambda(%d,%d) = 0" % (j, bad[0])))
            qj = self.level_q[j]
            ok = bool(qj) and not is_root_of_unity(qj)
            checks.append(AxiomCheck(j, "(c) q_j not a root of unity", ok,
                                     "" if ok else "q_%d = %s" % (j, qj)))
            twist_ok, twist_detail = True, ""
            if bad:
                twist_detail = "skipped: zero eigenvalue at this level"
            else:
                for i in range(1, j):
                    lhs = self.apply_sigma(j, self.apply_delta(j, self.gen(i)))
                    rhs = self.apply_delta(j, self.apply_sigma(j, self.gen(i))).scaled(qj)
                    if lhs != rhs:
                        twist_ok = False
                        twist_detail = "sigma.delta != q_j delta.sigma on %s" % self.names[i - 1]
                        break
            checks.append(AxiomCheck(j, "(a) sigma-delta twist", twist_ok, twist_detail))
            nil_ok, nil_detail = True, ""
            for i in range(1, j):
                try:
                    self.delta_powers(j, self.gen(i), nilpotence_bound + 1, "delta_%d" % j)
                except NilpotenceBoundExceeded:
                    nil_ok = False
                    nil_detail = "delta_%d not nilpotent within %d" % (j, nilpotence_bound)
                    break
            checks.append(AxiomCheck(j, "(b) locally nilpotent delta", nil_ok, nil_detail))
        for j in range(1, self.N + 1):
            act_ok, act_detail = True, ""
            for i in range(1, j):
                if self.h_eigenvalue(j, i) != self.lam[(j, i)]:
                    act_ok = False
                    act_detail = "h_%d acts on %s by %s, expected %s" % (
                        j, self.names[i - 1], self.h_eigenvalue(j, i), self.lam[(j, i)])
                    break
            checks.append(AxiomCheck(j, "(d) h_j realises sigma_j", act_ok, act_detail))
            eig = self.h_eigenvalue(j, j)
            ok = bool(eig) and not is_root_of_unity(eig)
            checks.append(AxiomCheck(j, "(e) h_j-eigenvalue of x_j generic", ok,
                                     "" if ok else "eigenvalue %s" % eig))
            if j >= 3:
                detail = self.overlap_failure(j)
                checks.append(AxiomCheck(j, "(g) overlaps resolve", not detail, detail))
        checks.sort(key=lambda c: (c.level, c.axiom))
        return AxiomReport(checks)

    def overlap_failure(self, k):
        """Why some overlap x_k x_j x_i (k > j > i) is unresolved, or ''.

        Bergman's form: the one-step reducts (lambda_kj x_j x_k + d_k(x_j)) x_i
        and x_k (lambda_ji x_i x_j + d_j(x_i)) are straightened term by term,
        each into a dict of its own, and the overlap resolves when the two
        agree.  A swap term with lambda = 0 is left out.
        """
        for j in range(2, k):
            for i in range(1, j):
                left = [(self.lam[(k, j)], (j, k, i))]
                left += [(dc, dw + (i,)) for dw, dc in self.delta.get((k, j), {}).items()]
                right = [(self.lam[(j, i)], (k, i, j))]
                right += [(dc, (k,) + dw) for dw, dc in self.delta.get((j, i), {}).items()]
                forms = []
                try:
                    for reduct in (left, right):
                        out = {}
                        for c, w in reduct:
                            if c:
                                self._straighten(out, w, c)
                        forms.append(out)
                except StepBudgetExceeded:
                    return "straightening %s exceeded the step budget" % self.word_text((k, j, i))
                if forms[0] != forms[1]:
                    return "the one-step reducts of %s differ in normal form" % self.word_text((k, j, i))
        return ""

    def is_torsionfree(self):
        """True/False when decidable (all lambda of the form +-q^k), else None.

        The group generated by lambda_i = sign_i q^(k_i) sits inside {+-q^Z},
        whose only torsion element besides 1 is -1.  With g = gcd(k_i) > 0 the
        group misses -1 exactly when sign_i = eps^(k_i/g) for one eps in
        {1, -1}; with g = 0 it is generated by the signs alone.
        """
        parts = []
        for v in self.lam.values():
            sp = v.as_signed_q_power()
            if sp is None:
                return None
            parts.append(sp)
        g = math.gcd(*(k for _, k in parts))
        if g == 0:
            return all(sign > 0 for sign, _ in parts)
        return any(all(sign == eps ** abs(k // g) for sign, k in parts) for eps in (1, -1))

    # -- comparison ----------------------------------------------------------

    def spec_equals(self, other):
        return (isinstance(other, OreAlgebra)
                and self.names == other.names
                and self.lam == other.lam
                and self.delta == other.delta
                and self.level_q == other.level_q
                and self.torus_rank == other.torus_rank
                and self.weights == other.weights
                and self.h_elems == other.h_elems)

    def __repr__(self):
        return "<OreAlgebra on %d generators: %s>" % (self.N, ", ".join(self.names))
