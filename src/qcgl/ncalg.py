"""Iterated Ore extensions of CGL type with PBW normal forms.

An OreAlgebra holds the full straightening datum of an iterated skew
polynomial extension k[x_1][x_2;s_2,d_2]...[x_N;s_N,d_N]: the eigenvalue
table lambda_ji with s_j(x_i) = lambda_ji x_i, the correction polynomials
d_j(x_i), the per-level constants q_j with s_j d_j = q_j d_j s_j, and the
diagonal torus data (integer weight vectors plus the distinguished torus
elements h_j).  Elements are NcPoly values: maps from nondecreasing words of
generator indices to Q(q) coefficients.  Products are normalised by
replacing each inversion x_j x_i (j > i) with lambda_ji x_i x_j + d_j(x_i)
until the word is sorted.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass

from .coef import ONE, ZERO, RatFunc, is_root_of_unity, qpow

_NAME_RE = re.compile(r"^(?:x\[\d+,\d+\]|g_\d+)$")


class StepBudgetExceeded(RuntimeError):
    """Raised when straightening exceeds the reduction-step budget."""


class NilpotenceBoundExceeded(RuntimeError):
    """Raised when a derivation fails to vanish within the allowed bound."""


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


class NcPoly:
    """Noncommutative polynomial in PBW normal form.

    terms maps words (nondecreasing tuples of 1-based generator indices) to
    nonzero RatFunc coefficients.  Instances are treated as immutable.
    """

    __slots__ = ("terms", "_hash")

    def __init__(self, terms):
        self.terms = terms
        self._hash = None

    @staticmethod
    def zero():
        return NcPoly({})

    @staticmethod
    def scalar(c):
        c = c if isinstance(c, RatFunc) else RatFunc(c)
        return NcPoly({(): c} if c else {})

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def nterms(self):
        return len(self.terms)

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

    def __add__(self, other):
        if not isinstance(other, NcPoly):
            return NotImplemented
        return NcPoly(add_terms(dict(self.terms), other.terms.items()))

    def __sub__(self, other):
        if not isinstance(other, NcPoly):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return NcPoly({w: -c for w, c in self.terms.items()})

    def scaled(self, c):
        c = c if isinstance(c, RatFunc) else RatFunc(c)
        if not c:
            return NcPoly.zero()
        return NcPoly({w: cw * c for w, cw in self.terms.items()})

    def __eq__(self, other):
        if not isinstance(other, NcPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset(self.terms.items()))
        return self._hash

    def __repr__(self):
        items = sorted(self.terms.items(), key=lambda t: (len(t[0]), t[0]))
        body = ", ".join("%r: %s" % (w, c) for w, c in items)
        return "NcPoly({%s})" % body


def format_poly(names, p):
    """Render a polynomial deterministically: terms by (degree, word)."""
    return _format_terms(names, sorted(p.terms.items(), key=lambda t: (len(t[0]), t[0])))


def _format_terms(names, term_items, xexp_for=None):
    if not term_items:
        return "0"
    chunks = []
    for w, c in term_items:
        xfac = xexp_for(w) if xexp_for else ""
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
            chunks.append(" - " if neg else " + ")
            chunks.append(body)
    return "".join(chunks)


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

    def __init__(self, names, lam, delta, level_q, torus_rank, weights,
                 h_elems, steps_budget=10**6):
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
        self.delta = {}
        for (j, i), p in delta.items():
            if not (1 <= i < j <= N):
                raise ValueError("delta index (%d,%d) out of range" % (j, i))
            if p.is_zero():
                continue
            if p.max_index() >= j:
                raise ValueError("delta(%d,%d) uses a generator index >= %d" % (j, i, j))
            for w in p.terms:
                if any(w[t] > w[t + 1] for t in range(len(w) - 1)):
                    raise ValueError("delta(%d,%d) is not in normal form" % (j, i))
            self.delta[(j, i)] = p
        self.level_q = {}
        for j in range(2, N + 1):
            try:
                v = level_q[j]
            except KeyError:
                raise ValueError("missing level constant q_%d" % j)
            self.level_q[j] = v if isinstance(v, RatFunc) else RatFunc(v)
        self.torus_rank = int(torus_rank)
        weights = [tuple(w) for w in weights]
        if len(weights) != N or any(len(w) != self.torus_rank for w in weights):
            raise ValueError("need one weight vector of length %d per generator" % self.torus_rank)
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
        self.steps_budget = steps_budget
        self._nf_cache = {}
        self._xinv_cache = {}  # top-level X^-1 commutations, filled by delderiv

    # -- constructors of elements -------------------------------------------

    def zero(self):
        return NcPoly.zero()

    def one(self):
        return NcPoly.scalar(ONE)

    def scalar(self, c):
        return NcPoly.scalar(c)

    def gen(self, i):
        if not 1 <= i <= self.N:
            raise ValueError("generator index %d out of range" % i)
        return NcPoly({(i,): ONE})

    def gens(self):
        return [self.gen(i) for i in range(1, self.N + 1)]

    def gen_named(self, name):
        try:
            return self.gen(self.names.index(name) + 1)
        except ValueError:
            raise ValueError("unknown generator %r" % name)

    # -- rewriting -------------------------------------------------------------

    def normal_form_word(self, word, strategy="leftmost"):
        """PBW normal form of an arbitrary word of generator indices."""
        word = tuple(word)
        key = (word, strategy)
        cached = self._nf_cache.get(key)
        if cached is not None:
            return cached
        if strategy not in ("leftmost", "rightmost"):
            raise ValueError("unknown strategy %r" % strategy)
        leftmost = strategy == "leftmost"
        leaves = []
        stack = [(ONE, word)]
        steps = 0
        while stack:
            c, w = stack.pop()
            pos = None
            rng = range(len(w) - 1) if leftmost else range(len(w) - 2, -1, -1)
            for t in rng:
                if w[t] > w[t + 1]:
                    pos = t
                    break
            if pos is None:
                leaves.append((w, c))
                continue
            steps += 1
            if steps > self.steps_budget:
                raise StepBudgetExceeded(
                    "straightening exceeded %d steps; ill-formed spec?" % self.steps_budget)
            j, i = w[pos], w[pos + 1]
            head, tail = w[:pos], w[pos + 2:]
            lam = self.lam[(j, i)]
            if lam:
                stack.append((c * lam, head + (i, j) + tail))
            d = self.delta.get((j, i))
            if d is not None:
                for dw, dc in d.terms.items():
                    stack.append((c * dc, head + dw + tail))
        result = NcPoly(add_terms({}, leaves))
        self._nf_cache[key] = result
        return result

    def multiply(self, a, b, strategy="leftmost"):
        out = {}
        for wa, ca in a.terms.items():
            for wb, cb in b.terms.items():
                add_terms(out, self.normal_form_word(wa + wb, strategy).terms.items(), ca * cb)
        return NcPoly(out)

    # -- level maps -------------------------------------------------------------

    def _require_level(self, j):
        if not 2 <= j <= self.N:
            raise ValueError("level %d out of range (2..%d)" % (j, self.N))

    def _require_below(self, a, j):
        if a.max_index() >= j:
            raise ValueError("element uses generator index >= level %d" % j)

    def apply_sigma(self, j, a):
        """The automorphism s_j of the subalgebra on generators < j."""
        self._require_level(j)
        self._require_below(a, j)
        out = {}
        for w, c in a.terms.items():
            for g in w:
                c = c * self.lam[(j, g)]
            if c:
                out[w] = c
        return NcPoly(out)

    def apply_sigma_inv(self, j, a):
        self._require_level(j)
        self._require_below(a, j)
        out = {}
        for w, c in a.terms.items():
            for g in w:
                c = c * self.lam[(j, g)].inverse()
            if c:
                out[w] = c
        return NcPoly(out)

    def apply_delta(self, j, a):
        """The s_j-derivation d_j, extended by d(ab) = s(a)d(b) + d(a)b."""
        self._require_level(j)
        self._require_below(a, j)
        out = {}
        for w, c in a.terms.items():
            for t, g in enumerate(w):
                d = self.delta.get((j, g))
                if d is not None:
                    piece = d
                    if t + 1 < len(w):
                        piece = self.multiply(piece, NcPoly({w[t + 1:]: ONE}))
                    if t > 0:
                        piece = self.multiply(NcPoly({w[:t]: ONE}), piece)
                    add_terms(out, piece.terms.items(), c)
                c = c * self.lam[(j, g)]
        return NcPoly(out)

    def nilpotency_index(self, j, a, bound=64):
        """Smallest d with d_j^(d+1)(a) = 0, for nonzero a."""
        if a.is_zero():
            raise ValueError("nilpotency index of 0 is undefined")
        cur = self.apply_delta(j, a)
        d = 0
        while not cur.is_zero():
            d += 1
            if d > bound:
                raise NilpotenceBoundExceeded(
                    "delta_%d not nilpotent on sample within bound %d" % (j, bound))
            cur = self.apply_delta(j, cur)
        return d

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
        s = ratio.as_unit_q_power()
        if s is None:
            return None
        qs = qpow(s)
        for w, c in ab.terms.items():
            if c != qs * ba.terms[w]:
                return None
        return s

    def is_normal(self, a):
        """q-commutation exponents of a against every generator."""
        exps = tuple(self.qcommute_exponent(a, self.gen(i)) for i in range(1, self.N + 1))
        return NormalityReport(self.names, exps)

    # -- CGL axioms ----------------------------------------------------------

    def check_cgl_axioms(self, nilpotence_bound=64, rng=None, sample_count=3,
                         sample_degree=3):
        """Per-level axiom verdicts; failures are report entries, never raises.

        (a) s_j d_j = q_j d_j s_j on each generator below j
        (b) d_j nilpotent within bound on generators (and random samples if
            an rng is supplied)
        (c) q_j is not a root of unity
        (d) the torus element h_j acts on each earlier generator by lambda_ji
        (e) the h_j-eigenvalue of x_j is not a root of unity
        (f) every lambda_ji is nonzero
        (g) from level 3 on, every overlap word x_k x_j x_i (k > j > i) has
            the same normal form under leftmost and rightmost reduction;
            by Bergman's diamond lemma this certifies the PBW basis
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
            samples = [self.gen(i) for i in range(1, j)]
            if rng is not None:
                for _ in range(sample_count):
                    p = random_poly(self, rng, max_degree=sample_degree, max_level=j - 1)
                    if not p.is_zero():
                        samples.append(p)
            for p in samples:
                try:
                    self.nilpotency_index(j, p, bound=nilpotence_bound)
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
                detail = self._overlap_failure(j)
                checks.append(AxiomCheck(j, "(g) overlaps resolve", not detail, detail))
        checks.sort(key=lambda c: (c.level, c.axiom))
        return AxiomReport(checks)

    def _overlap_failure(self, k):
        """Why some overlap x_k x_j x_i (k > j > i) is unresolved, or ''."""
        for j in range(2, k):
            for i in range(1, j):
                word = (k, j, i)
                try:
                    if self.normal_form_word(word) == self.normal_form_word(word, "rightmost"):
                        continue
                    why = "leftmost and rightmost normal forms of %s differ"
                except StepBudgetExceeded:
                    why = "straightening %s exceeded the step budget"
                return why % "*".join(self.names[g - 1] for g in word)
        return ""

    def is_torsionfree(self):
        """True/False when decidable (all lambda of the form +-q^k), else None.

        The subgroup of k* generated by such eigenvalues sits inside
        {+-q^Z}, whose only nontrivial torsion element is -1; membership of
        -1 is an integer-lattice computation.
        """
        rows = []
        for v in self.lam.values():
            sp = v.as_signed_q_power()
            if sp is None:
                return None
            sign, k = sp
            rows.append((k, 0 if sign > 0 else 1))
        if all(e == 0 for _, e in rows):
            return True
        rows.append((0, 2))
        a, b = 0, 0
        seconds = []
        for k, e in rows:
            while k:
                if a == 0:
                    a, b, k, e = k, e, 0, 0
                    break
                t = a // k
                a, b, k, e = k, e, a - t * k, b - t * e
            seconds.append(e)
        c = 0
        for e in seconds:
            c = math.gcd(c, e)
        # -1 lies in the subgroup iff (0,1) is in the generated lattice
        return not (c == 1)

    # -- comparison / serialization -----------------------------------------

    def spec_equals(self, other):
        return (isinstance(other, OreAlgebra)
                and self.names == other.names
                and self.lam == other.lam
                and self.delta == other.delta
                and self.level_q == other.level_q
                and self.torus_rank == other.torus_rank
                and self.weights == other.weights
                and self.h_elems == other.h_elems)

    def to_json(self):
        doc = {
            "format": "cgl-spec-v1",
            "names": list(self.names),
            "torus_rank": self.torus_rank,
            "lambda": [[j, i, str(v)] for (j, i), v in sorted(self.lam.items())],
            "delta": [[j, i, format_poly(self.names, p)]
                      for (j, i), p in sorted(self.delta.items())],
            "level_q": [[j, str(v)] for j, v in sorted(self.level_q.items())],
            "weights": [list(w) for w in self.weights],
            "h": [[str(v) for v in h] for h in self.h_elems],
        }
        qshape = getattr(self, "qmat_shape", None)
        if qshape:
            doc["qmat"] = list(qshape)
        return doc

    @classmethod
    def from_json(cls, doc, steps_budget=10**6):
        from .expr import eval_free, parse, parse_scalar

        if doc.get("format") != "cgl-spec-v1":
            raise ValueError("not a cgl-spec-v1 document")
        names = list(doc["names"])
        lam = {(j, i): parse_scalar(s) for j, i, s in doc["lambda"]}
        delta = {(j, i): eval_free(parse(s), names) for j, i, s in doc["delta"]}
        level_q = {j: parse_scalar(s) for j, s in doc["level_q"]}
        weights = [tuple(w) for w in doc["weights"]]
        h = [tuple(parse_scalar(s) for s in row) for row in doc["h"]]
        shape = doc.get("qmat")
        if shape:
            from .qmat import oqm

            alg = oqm(shape[0], shape[1], steps_budget=steps_budget)
            rebuilt = cls(names, lam, delta, level_q, doc["torus_rank"], weights, h,
                          steps_budget=steps_budget)
            if not alg.spec_equals(rebuilt):
                raise ValueError("qmat-tagged document does not match oqm(%d,%d)" % tuple(shape))
            return alg
        return cls(names, lam, delta, level_q, doc["torus_rank"], weights, h,
                   steps_budget=steps_budget)

    def dumps(self, indent=2):
        return json.dumps(self.to_json(), indent=indent)

    @classmethod
    def loads(cls, text, steps_budget=10**6):
        return cls.from_json(json.loads(text), steps_budget=steps_budget)

    def __repr__(self):
        return "<OreAlgebra on %d generators: %s>" % (self.N, ", ".join(self.names))


# ---------------------------------------------------------------------------
# presets and sampling


def quantum_plane():
    """The quantum affine plane: g_2 g_1 = q g_1 g_2, no correction terms."""
    from .coef import Q

    return OreAlgebra(
        names=("g_1", "g_2"),
        lam={(2, 1): Q},
        delta={},
        level_q={2: Q},
        torus_rank=2,
        weights=[(1, 0), (0, 1)],
        h_elems=[(Q, ONE), (Q, Q)],
    )


def random_word(alg, rng, max_len=3, max_level=None):
    top = max_level if max_level is not None else alg.N
    length = rng.randint(0, max_len)
    return tuple(rng.randint(1, top) for _ in range(length))


def random_poly(alg, rng, max_degree=3, max_terms=3, max_level=None):
    """Random element: a few random (unsorted) words with small coefficients,
    normalised.  May be zero after cancellation."""
    out = {}
    for _ in range(rng.randint(1, max_terms)):
        c = RatFunc(rng.choice((1, 1, 2, -1, 3))) * qpow(rng.randint(-2, 2))
        w = random_word(alg, rng, max_len=max_degree, max_level=max_level)
        add_terms(out, alg.normal_form_word(w).terms.items(), c)
    return NcPoly(out)
