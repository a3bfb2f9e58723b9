"""The claims-verification suite behind `verify paper` and the acceptance tests.

Each criterion is one check_* function, declared by @_criterion(name): its
body returns (ok, detail), and the check returns a timed CheckResult and never
raises, since exceptions become failures, so the CLI can aggregate.  A check
names each algebra it reads by its --algebra token (qmat:M,N, qplane,
uq-sl3-plus), so a failing detail can be rerun with `qcgl axioms -a TOKEN`,
and builds it by resolve(token): presets.load_algebra, or run_paper_suite's
one cached table of it per run, so a failed load fails each check that reads
it.  _mutant builds six of criterion 6's seven mutants from a named algebra's
constructor arguments.  No check draws samples: criterion 3 certifies that
the enumeration lists every valid Cauchon diagram by counting them in closed
form, criterion 4 certifies theta multiplicative up to total degree
THETA_DEGREE + 1 from the relations of A_(N-1) and one product per PBW word up
to that degree, criterion 5 that theta = theta_alt on every PBW word up to
degree THETA_DEGREE, criterion 6 the axioms (a) and (b) on generators by two
lemmas, and criterion 7 unique normal forms by (g) and an order lemma.
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from dataclasses import dataclass
from itertools import combinations_with_replacement
from math import factorial

from .coef import MINUS_ONE, ONE, Q, qpow
from .cauchon import count_by_black, enumerate_diagrams, is_valid
from .delderiv import LaurentElem, laurent_mul, theta, theta_alt
from .grassmann import extremal_normality_report
from .ncalg import NcPoly, OreAlgebra, format_poly
from .presets import load_algebra

DEFAULT_SIZES = ((2, 2), (2, 3), (3, 3))
THETA_DEGREE = 3  # criteria 4 and 5 check words of A_(N-1) up to this degree


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str
    seconds: float


def _criterion(name):
    """Makes a function that returns (ok, detail) into the check `name`: a
    timed CheckResult, with an exception reported as a failure."""

    def wrap(fn):
        @functools.wraps(fn)
        def check(*args, **kwargs):
            start = time.perf_counter()
            try:
                ok, detail = fn(*args, **kwargs)
            except Exception as exc:  # noqa: BLE001 - aggregated, not swallowed
                ok, detail = False, "raised %s: %s" % (type(exc).__name__, exc)
            return CheckResult(name, ok, detail, time.perf_counter() - start)

        return check

    return wrap


# -- criterion 1 ------------------------------------------------------------


@_criterion("1-height-one-hprime-generators")
def check_height_one_generators(sizes=DEFAULT_SIZES, resolve=load_algebra):
    problems = []
    for m, n in sizes:
        alg = resolve("qmat:%d,%d" % (m, n))
        gens = alg.height_one_hprime_generators()
        if len(gens) != m + n - 1:
            problems.append("(%d,%d): %d generators" % (m, n, len(gens)))
        seen = set()
        for g in gens:
            key = frozenset(g.terms.items())
            if key in seen:
                problems.append("(%d,%d): repeated generator" % (m, n))
            seen.add(key)
        for k, g in enumerate(gens):
            if not alg.is_normal(g).ok:
                problems.append("(%d,%d): generator %d not normal" % (m, n, k))
            if alg.torus_weight(g) is None:
                problems.append("(%d,%d): generator %d inhomogeneous" % (m, n, k))
        if alg.c_minor(m) != alg.b_minor(n):
            problems.append("(%d,%d): c_m != b_n" % (m, n))
    if problems:
        return False, "; ".join(problems)
    sizes_s = ", ".join("%dx%d" % s for s in sizes)
    return True, "m+n-1 distinct normal eigenvector generators at %s" % sizes_s


# -- criterion 2 ------------------------------------------------------------


@_criterion("2-quantum-determinant-central")
def check_det_centrality(ns=(2, 3), resolve=load_algebra):
    for n in ns:
        alg = resolve("qmat:%d,%d" % (n, n))
        det = alg.det()
        for i in range(1, alg.N + 1):
            s = alg.qcommute_exponent(det, alg.gen(i))
            if s != 0:
                return False, "det_q vs %s gives %r" % (alg.names[i - 1], s)
    return True, "det_q central in O_q(M_n) for n in %s" % (list(ns),)


# -- criterion 3 ------------------------------------------------------------


def _stirling2(n):
    """S(n, 0), ..., S(n, n): Stirling numbers of the second kind."""
    row = [1]
    for _ in range(n):
        row = [k * a + b for k, (a, b) in enumerate(zip(row + [0], [0] + row))]
    return row


def cauchon_total(m, n):
    """The number of m x n Cauchon diagrams, the poly-Bernoulli number
    sum_j (j!)^2 S(m+1, j+1) S(n+1, j+1) (Launois, J. Algebra 309 (2007))."""
    rows, cols = _stirling2(m + 1), _stirling2(n + 1)
    return sum(factorial(j) ** 2 * rows[j + 1] * cols[j + 1] for j in range(min(m, n) + 1))


@_criterion("3-cauchon-diagram-counts")
def check_cauchon_counts(sizes=DEFAULT_SIZES):
    """Criterion 3: the enumeration lists distinct diagrams, each valid by the
    definition, and as many as the closed form counts, so it lists all of
    them; the counting program's histogram agrees with it."""
    details = []
    for m, n in sizes:
        enumerated = [d.black for d in enumerate_diagrams(m, n)]
        if len(enumerated) != len(set(enumerated)):
            return False, "(%d,%d): enumeration repeats a diagram" % (m, n)
        invalid = next((black for black in enumerated if not is_valid(m, n, black)), None)
        if invalid is not None:
            return False, "(%d,%d): enumeration lists the invalid diagram %s" % (
                m, n, sorted(invalid))
        total = cauchon_total(m, n)
        if len(enumerated) != total:
            return False, "(%d,%d): enumerated %d diagrams, the poly-Bernoulli number is %d" % (
                m, n, len(enumerated), total)
        hist = count_by_black(m, n)
        if hist != Counter(len(black) for black in enumerated):
            return False, "(%d,%d): counted %d diagrams by height %r, enumerated %d" % (
                m, n, sum(hist.values()), hist, len(enumerated))
        if hist.get(1) != m + n - 1:
            return False, "(%d,%d): %r height-one diagrams, expected %d" % (
                m, n, hist.get(1), m + n - 1)
        details.append("%dx%d: %d diagrams, %d with one black box"
                       % (m, n, len(enumerated), hist[1]))
    details.append("enumeration lists distinct valid diagrams, as many as the "
                   "poly-Bernoulli number, and counting agrees")
    return True, "; ".join(details)


# -- criteria 4 and 5 --------------------------------------------------------


def _pbw_words(alg, degree):
    """The PBW words of A_(N-1), the algebra on the generators below the top,
    of degree at most `degree`: the sorted tuples over 1..N-1."""
    return [w for d in range(degree + 1)
            for w in combinations_with_replacement(range(1, alg.N), d)]


@_criterion("4-theta-is-a-homomorphism")
def check_theta_homomorphism(shapes=((2, 2), (2, 3)), resolve=load_algebra):
    """Criterion 4: theta(ab) = theta(a)theta(b) whenever deg a + deg b <=
    D = THETA_DEGREE + 1, certified on A_(N-1) by a presentation lemma.

    A_(N-1) is presented by its generators x_i and the relations
    x_j x_i = lambda_ji x_i x_j + delta_j(x_i) for i < j < N (criterion 7
    certifies the presentation by the diamond lemma).  The checks are:
    theta(1) = 1; every delta_ji word has length at most 2, so a product of
    terms of degrees d and e has terms of degree at most d + e; theta(u) =
    theta(x_(u_1))theta(u_2 ... u_d) for each PBW word u of degree 2 to D;
    and, for each pair i < j < N,

        theta(x_j)theta(x_i) = lambda_ji theta(x_i)theta(x_j) + sum_w c_w theta(w)

    where delta_j(x_i) = sum_w c_w w.

    Lemma.  Let phi be the homomorphism from the free algebra on the x_i
    with phi(x_i) = theta(x_i).  The word checks give theta(u) = phi(u) for
    every PBW word u of degree at most D, by induction on degree.  The delta
    words are PBW words of length at most 2, so the relation checks read
    phi(x_j x_i - lambda_ji x_i x_j - delta_j(x_i)) = 0, and phi factors
    through A_(N-1).  theta and phi are linear, and ab has degree at most
    deg a + deg b, so for deg a + deg b <= D

        theta(ab) = phi(ab) = phi(a)phi(b) = theta(a)theta(b).
    """
    a = resolve("qmat:2,2")
    expected = LaurentElem({0: a.x(1, 1), -1: a.multiply(a.x(1, 2), a.x(2, 1)).scaled(-Q)})
    if theta(a, a.x(1, 1)) != expected:
        return False, "theta(x[1,1]) disagrees with the frozen hand value"
    labels = ["qmat:%d,%d" % s for s in shapes] + ["uq-sl3-plus"]
    words = relations = 0
    for label in labels:
        alg = resolve(label)
        for (j, i), p in alg.delta.items():
            if any(len(w) > 2 for w in p.terms):
                return False, "%s: delta(%d,%d) has a word longer than 2" % (label, j, i)
        images = {w: theta(alg, NcPoly({w: ONE}))
                  for w in _pbw_words(alg, THETA_DEGREE + 1)}
        if images[()] != LaurentElem.x_power(0):
            return False, "%s: theta(1) != 1" % label
        for u, image in images.items():
            if len(u) < 2:
                continue
            if image != laurent_mul(alg, images[u[:1]], images[u[1:]]):
                return False, "%s: theta(%s) != theta(%s)theta(%s)" % (
                    label, format_poly(alg.names, NcPoly({u: ONE})), alg.names[u[0] - 1],
                    format_poly(alg.names, NcPoly({u[1:]: ONE})))
            words += 1
        for (j, i), lam in alg.lam.items():
            if j == alg.N:
                continue
            xi, xj = images[(i,)], images[(j,)]
            rhs = laurent_mul(alg, xi, xj).scaled(lam)
            for w, c in alg.delta.get((j, i), NcPoly.zero()).items():
                rhs = rhs + images[w].scaled(c)
            if laurent_mul(alg, xj, xi) != rhs:
                xi_name, xj_name = alg.names[i - 1], alg.names[j - 1]
                return False, ("%s: relation %s %s = lambda(%d,%d) %s %s + delta(%d,%d) "
                               "fails under theta" % (label, xj_name, xi_name, j, i,
                                                      xi_name, xj_name, j, i))
            relations += 1
    return True, ("theta(ab) = theta(a)theta(b) up to total degree %d on A_(N-1) of %s: "
                  "theta(1) = 1, delta words have length <= 2, theta respects the %d "
                  "relations x_j x_i = lambda_ji x_i x_j + delta_j(x_i), and "
                  "theta(u) = theta(x_(u_1))theta(u_2 ... u_d) on %d PBW words u of "
                  "degree 2 to %d"
                  % (THETA_DEGREE + 1, ", ".join(labels),
                     relations, words, THETA_DEGREE + 1))


@_criterion("5-theta-expansions-agree")
def check_theta_expansions(shapes=((2, 2), (2, 3)), resolve=load_algebra):
    """Criterion 5: theta = theta_alt on every PBW word of A_(N-1) of degree
    at most THETA_DEGREE; both maps are linear, so they agree on every
    element of that degree."""
    labels = ["qmat:%d,%d" % s for s in shapes] + ["uq-sl3-plus"]
    words = 0
    for label in labels:
        alg = resolve(label)
        for w in _pbw_words(alg, THETA_DEGREE):
            p = NcPoly({w: ONE})
            if theta(alg, p) != theta_alt(alg, p):
                return False, "%s: the two expansions disagree on %s" % (
                    label, format_poly(alg.names, p))
            words += 1
    return True, ("both expansions agree on all %d PBW words of degree <= %d in "
                  "A_(N-1) of %s, so on every element of that degree"
                  % (words, THETA_DEGREE, ", ".join(labels)))


# -- criterion 6 ------------------------------------------------------------


def _mutant(base, **changes):
    """An OreAlgebra on base's seven constructor arguments, but for `changes`."""
    args = dict(names=base.names, lam=base.lam, delta=base.delta, level_q=base.level_q,
                torus_rank=base.torus_rank, weights=base.weights, h_elems=base.h_elems)
    return OreAlgebra(**dict(args, **changes))


def mutated_specs(resolve=load_algebra):
    """Mutations of named algebras: (label, algebra, expected_to_fail).

    Each but non-derivation-correction changes one table of qmat:2,2 or of
    the quantum plane.  Scaling a whole correction term (the sign flip)
    yields another valid CGL datum - it is the transpose presentation - so
    that mutation is expected to PASS and documents the checker's
    mathematical boundary.
    """
    base = resolve("qmat:2,2")
    return [
        ("wrong-level-constant", _mutant(base, level_q={**base.level_q, 4: Q}), True),
        ("zero-straightening-coefficient", _mutant(base, lam={**base.lam, (4, 2): 0}), True),
        ("root-of-unity-level-constant",
         _mutant(base, level_q={**base.level_q, 4: MINUS_ONE}), True),
        ("wrong-torus-element",
         _mutant(base, h_elems=base.h_elems[:3] + ((ONE,) * base.torus_rank,)), True),
        ("non-nilpotent-derivation",
         _mutant(resolve("qplane"), delta={(2, 1): NcPoly({(1,): ONE})}), True),
        # every per-generator axiom holds, but d_3 is no sigma_3-derivation of
        # the lower algebra: only the overlap g_3 g_2 g_1 exposes it
        ("non-derivation-correction",
         OreAlgebra(("g_1", "g_2", "g_3"),
                    {(2, 1): Q, (3, 1): qpow(-1), (3, 2): ONE},
                    {(3, 1): NcPoly({(2,): ONE})}, {2: Q, 3: Q}, 3,
                    [(1, 0, 0), (0, 1, 0), (0, 0, 1)],
                    [(Q, ONE, ONE), (Q, Q, ONE), (qpow(-1), ONE, Q)]), True),
        ("sign-flipped-correction",
         _mutant(base, delta={**base.delta, (4, 1): -base.delta[(4, 1)]}), False),
    ]


@_criterion("6-cgl-axiom-checker")
def check_cgl_axioms(resolve=load_algebra):
    for label in ("qmat:2,2", "qmat:2,3", "qplane", "uq-sl3-plus"):
        report = resolve(label).check_cgl_axioms()
        if not report.ok:
            return False, "%s rejected: %s" % (label, report.failures()[0].detail)
    failing = 0
    for label, alg, expect_fail in mutated_specs(resolve):
        report = alg.check_cgl_axioms(nilpotence_bound=16)
        if expect_fail and report.ok:
            return False, "mutation %s was not rejected" % label
        if not expect_fail and not report.ok:
            return False, "mutation %s unexpectedly rejected: %s" % (
                label, report.failures()[0].detail)
        if expect_fail:
            failing += 1
    if failing < 3:
        return False, "only %d failing mutations" % failing
    return True, ("presets pass, %d mutations rejected; (a) and (b) certified on "
                  "generators" % failing)


# -- criterion 7 ------------------------------------------------------------


@_criterion("7-rewriting-soundness")
def check_rewriting_soundness(resolve=load_algebra):
    """Criterion 7: unique normal forms by the diamond lemma, from an order lemma and (g).
    The algebras checked here come straight from their constructors, which
    refuse a delta(j,i) with a letter not below x_j: the lemma's hypothesis."""
    labels = ["qmat:2,2", "qmat:2,3", "qmat:3,3", "qmat:4,4", "qplane", "uq-sl3-plus"]
    for label in labels:
        alg = resolve(label)
        for why in filter(None, (alg.overlap_failure(k) for k in range(3, alg.N + 1))):
            return False, "%s: %s" % (label, why)
    return True, ("a swap removes an inversion and a delta_ji word trades x_j for lower "
                  "letters, so rules lower words ordered by letter counts, then inversions; "
                  "every overlap resolves on " + ", ".join(labels))


# -- criterion 8 ------------------------------------------------------------


@_criterion("8-grassmannian-extremal-normality")
def check_grassmann(sizes=((2, 3), (2, 4))):
    twists = []
    for m, n in sizes:
        report = extremal_normality_report(m, n)
        if not report.ok:
            return False, ("extremal normality fails at (%d,%d), twist %s"
                           % (m, n, report.twist))
        twists.append(report.twist)
    return True, ("extremal minors q-commute with all maximal minors at %s; "
                  "dehomogenisation twist on adjacent minors q^s, s = %s"
                  % (", ".join("%dx%d" % s for s in sizes),
                     ", ".join(sorted(set(map(str, twists))))))


# -- criterion 9 ------------------------------------------------------------


@_criterion("9-torsionfree-verdicts")
def check_torsionfree(sizes=DEFAULT_SIZES, resolve=load_algebra):
    for label in ["qmat:%d,%d" % s for s in sizes] + ["qplane", "uq-sl3-plus"]:
        verdict = resolve(label).is_torsionfree()
        if verdict is not True:
            return False, "%s verdict %r" % (label, verdict)
    return True, "all presets torsionfree"


# ---------------------------------------------------------------------------


def run_paper_suite(size=None):
    """All acceptance checks; size=(m,n) restricts size-parameterised ones."""
    if size is None:
        sizes = DEFAULT_SIZES
        det_ns = (2, 3)
        theta_shapes = ((2, 2), (2, 3))
        grass_sizes = ((2, 3), (2, 4))
    else:
        size = tuple(size)
        sizes = (size,)
        det_ns = (min(size),)
        theta_shapes = (size,) if size in ((2, 2), (2, 3)) else ((2, 2),)
        grass_sizes = (size,) if size in ((2, 3), (2, 4)) else ((2, 3),)
    resolve = functools.cache(load_algebra)
    return [
        check_height_one_generators(sizes, resolve),
        check_det_centrality(det_ns, resolve),
        check_cauchon_counts(sizes),
        check_theta_homomorphism(theta_shapes, resolve),
        check_theta_expansions(theta_shapes, resolve),
        check_cgl_axioms(resolve),
        check_rewriting_soundness(resolve),
        check_grassmann(grass_sizes),
        check_torsionfree(sizes, resolve),
    ]
