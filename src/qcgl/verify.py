"""The claims-verification suite behind `verify paper` and the acceptance tests.

Each check returns a CheckResult and never raises: exceptions are converted
into failures so the CLI can aggregate.  No check draws samples: criterion
4 certifies that theta is multiplicative up to total degree THETA_DEGREE + 1
from the relations presenting A_(N-1) and one product per PBW word up to
that degree, criterion 5 that theta = theta_alt on every PBW word up to
degree THETA_DEGREE, criterion 6 the axioms (a) and (b) on generators by two
lemmas, and criterion 7 unique normal forms by check (g) and an order lemma.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass
from itertools import combinations_with_replacement, product

from .coef import MINUS_ONE, ONE, Q, qpow
from .cauchon import count_by_black, enumerate_diagrams, is_valid
from .delderiv import LaurentElem, laurent_mul, theta, theta_alt
from .grassmann import extremal_normality_report
from .ncalg import NcPoly, OreAlgebra, format_poly, quantum_plane
from .presets import load_preset
from .qmat import oqm

DEFAULT_SIZES = ((2, 2), (2, 3), (3, 3))
THETA_DEGREE = 3  # criteria 4 and 5 check words of A_(N-1) up to this degree


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str
    seconds: float


def _run(name, fn):
    start = time.perf_counter()
    try:
        ok, detail = fn()
    except Exception as exc:  # noqa: BLE001 - aggregated, not swallowed
        ok, detail = False, "raised %s: %s" % (type(exc).__name__, exc)
    return CheckResult(name, ok, detail, time.perf_counter() - start)


# -- criterion 1 ------------------------------------------------------------


def check_height_one_generators(sizes=DEFAULT_SIZES):
    def body():
        problems = []
        for m, n in sizes:
            alg = oqm(m, n)
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

    return _run("1-height-one-hprime-generators", body)


# -- criterion 2 ------------------------------------------------------------


def check_det_centrality(ns=(2, 3)):
    def body():
        for n in ns:
            alg = oqm(n, n)
            det = alg.det()
            for i in range(1, alg.N + 1):
                s = alg.qcommute_exponent(det, alg.gen(i))
                if s != 0:
                    return False, "det_q vs %s gives %r" % (alg.names[i - 1], s)
        return True, "det_q central in O_q(M_n) for n in %s" % (list(ns),)

    return _run("2-quantum-determinant-central", body)


# -- criterion 3 ------------------------------------------------------------


def brute_force_diagrams(m, n):
    """Independent oracle: filter all 2^(mn) colourings by the definition."""
    cells = [(r, c) for r in range(1, m + 1) for c in range(1, n + 1)]
    out = []
    for bits in product((False, True), repeat=len(cells)):
        black = frozenset(cell for cell, bit in zip(cells, bits) if bit)
        if is_valid(m, n, black):
            out.append(black)
    return out


def check_cauchon_counts(sizes=DEFAULT_SIZES):
    def body():
        details = []
        for m, n in sizes:
            enumerated = [d.black for d in enumerate_diagrams(m, n)]
            brute = brute_force_diagrams(m, n)
            if len(enumerated) != len(set(enumerated)):
                return False, "(%d,%d): enumeration repeats a diagram" % (m, n)
            if set(enumerated) != set(brute):
                return False, "(%d,%d): enumeration disagrees with brute force" % (m, n)
            if (m, n) == (2, 2) and len(enumerated) != 14:
                return False, "(2,2): count %d != 14" % len(enumerated)
            hist = count_by_black(m, n)
            if hist != Counter(len(black) for black in enumerated):
                return False, "(%d,%d): counted %d diagrams by height %r, enumerated %d" % (
                    m, n, sum(hist.values()), hist, len(enumerated))
            if hist.get(1) != m + n - 1:
                return False, "(%d,%d): %r height-one diagrams, expected %d" % (
                    m, n, hist.get(1), m + n - 1)
            details.append("%dx%d: %d diagrams, %d with one black box"
                           % (m, n, len(enumerated), hist[1]))
        details.append("brute force, enumeration and counting agree")
        return True, "; ".join(details)

    return _run("3-cauchon-diagram-counts", body)


# -- criteria 4 and 5 --------------------------------------------------------


def _theta_algebras(shapes):
    return ([("oqm(%d,%d)" % s, oqm(*s)) for s in shapes]
            + [("uq-sl3-plus", load_preset("uq-sl3-plus"))])


def _pbw_words(alg, degree):
    """The PBW words of A_(N-1), the algebra on the generators below the top,
    of degree at most `degree`: the sorted tuples over 1..N-1."""
    return [w for d in range(degree + 1)
            for w in combinations_with_replacement(range(1, alg.N), d)]


def check_theta_homomorphism(shapes=((2, 2), (2, 3))):
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

    def body():
        alg22 = oqm(2, 2)
        expected = LaurentElem({
            0: alg22.x(1, 1),
            -1: alg22.multiply(alg22.x(1, 2), alg22.x(2, 1)).scaled(-Q),
        })
        if theta(alg22, alg22.x(1, 1)) != expected:
            return False, "theta(x[1,1]) disagrees with the frozen hand value"
        algebras = _theta_algebras(shapes)
        words = relations = 0
        for label, alg in algebras:
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
                      % (THETA_DEGREE + 1, ", ".join(label for label, _ in algebras),
                         relations, words, THETA_DEGREE + 1))

    return _run("4-theta-is-a-homomorphism", body)


def check_theta_expansions(shapes=((2, 2), (2, 3))):
    """Criterion 5: theta = theta_alt on every PBW word of A_(N-1) of degree
    at most THETA_DEGREE; both maps are linear, so they agree on every
    element of that degree."""

    def body():
        algebras = _theta_algebras(shapes)
        words = 0
        for label, alg in algebras:
            for w in _pbw_words(alg, THETA_DEGREE):
                p = NcPoly({w: ONE})
                if theta(alg, p) != theta_alt(alg, p):
                    return False, "%s: the two expansions disagree on %s" % (
                        label, format_poly(alg.names, p))
                words += 1
        return True, ("both expansions agree on all %d PBW words of degree <= %d in "
                      "A_(N-1) of %s, so on every element of that degree"
                      % (words, THETA_DEGREE, ", ".join(label for label, _ in algebras)))

    return _run("5-theta-expansions-agree", body)


# -- criterion 6 ------------------------------------------------------------


def mutated_specs():
    """Seeded mutations of presets: (label, algebra, expected_to_fail).

    Scaling a whole correction term (the sign flip) yields another valid CGL
    datum - it is the transpose presentation - so that mutation is expected
    to PASS and documents the checker's mathematical boundary.
    """
    base = oqm(2, 2)
    muts = []

    lq = dict(base.level_q)
    lq[4] = Q
    muts.append(("wrong-level-constant",
                 OreAlgebra(base.names, base.lam, base.delta, lq, base.torus_rank,
                            base.weights, base.h_elems), True))

    lam = dict(base.lam)
    lam[(4, 2)] = 0
    muts.append(("zero-straightening-coefficient",
                 OreAlgebra(base.names, lam, base.delta, base.level_q,
                            base.torus_rank, base.weights, base.h_elems), True))

    lq = dict(base.level_q)
    lq[4] = MINUS_ONE
    muts.append(("root-of-unity-level-constant",
                 OreAlgebra(base.names, base.lam, base.delta, lq, base.torus_rank,
                            base.weights, base.h_elems), True))

    h = list(base.h_elems)
    h[3] = (ONE,) * base.torus_rank
    muts.append(("wrong-torus-element",
                 OreAlgebra(base.names, base.lam, base.delta, base.level_q,
                            base.torus_rank, base.weights, h), True))

    muts.append(("non-nilpotent-derivation",
                 OreAlgebra(("g_1", "g_2"), {(2, 1): Q},
                            {(2, 1): NcPoly({(1,): ONE})}, {2: Q}, 2,
                            [(1, 0), (0, 1)], [(Q, ONE), (Q, Q)]), True))

    # every per-generator axiom holds, but d_3 is no sigma_3-derivation of
    # the lower algebra: only the overlap g_3 g_2 g_1 exposes it
    muts.append(("non-derivation-correction",
                 OreAlgebra(("g_1", "g_2", "g_3"),
                            {(2, 1): Q, (3, 1): qpow(-1), (3, 2): ONE},
                            {(3, 1): NcPoly({(2,): ONE})}, {2: Q, 3: Q}, 3,
                            [(1, 0, 0), (0, 1, 0), (0, 0, 1)],
                            [(Q, ONE, ONE), (Q, Q, ONE), (qpow(-1), ONE, Q)]), True))

    delta = dict(base.delta)
    delta[(4, 1)] = -base.delta[(4, 1)]
    muts.append(("sign-flipped-correction",
                 OreAlgebra(base.names, base.lam, delta, base.level_q,
                            base.torus_rank, base.weights, base.h_elems), False))
    return muts


def check_cgl_axioms():
    def body():
        good = [("oqm(2,2)", oqm(2, 2)), ("oqm(2,3)", oqm(2, 3)),
                ("qplane", quantum_plane()), ("uq-sl3-plus", load_preset("uq-sl3-plus"))]
        for label, alg in good:
            report = alg.check_cgl_axioms()
            if not report.ok:
                return False, "%s rejected: %s" % (label, report.failures()[0].detail)
        failing = 0
        for label, alg, expect_fail in mutated_specs():
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

    return _run("6-cgl-axiom-checker", body)


# -- criterion 7 ------------------------------------------------------------


def check_rewriting_soundness():
    """Criterion 7: unique normal forms by the diamond lemma, from an order lemma and (g)."""

    def body():
        algebras = [("oqm(%d,%d)" % s, oqm(*s)) for s in ((2, 2), (2, 3), (3, 3), (4, 4))]
        algebras += [("qplane", quantum_plane()), ("uq-sl3-plus", load_preset("uq-sl3-plus"))]
        for label, alg in algebras:
            whys = ["delta(%d,%d) has a letter not below x_%d" % (j, i, j)
                    for (j, i), p in alg.delta.items() if p.max_index() >= j]
            whys += [alg._overlap_failure(k) for k in range(3, alg.N + 1)]
            for why in filter(None, whys):
                return False, "%s: %s" % (label, why)
        return True, ("a swap removes an inversion and a delta_ji word trades x_j for lower "
                      "letters, so rules lower words ordered by letter counts, then inversions; "
                      "every overlap resolves on " + ", ".join(label for label, _ in algebras))

    return _run("7-rewriting-soundness", body)


# -- criterion 8 ------------------------------------------------------------


def check_grassmann(sizes=((2, 3), (2, 4))):
    def body():
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

    return _run("8-grassmannian-extremal-normality", body)


# -- criterion 9 ------------------------------------------------------------


def check_torsionfree(sizes=DEFAULT_SIZES):
    def body():
        for m, n in sizes:
            verdict = oqm(m, n).is_torsionfree()
            if verdict is not True:
                return False, "oqm(%d,%d) verdict %r" % (m, n, verdict)
        for label, alg in (("qplane", quantum_plane()),
                           ("uq-sl3-plus", load_preset("uq-sl3-plus"))):
            if alg.is_torsionfree() is not True:
                return False, "%s not recognised as torsionfree" % label
        return True, "all presets torsionfree"

    return _run("9-torsionfree-verdicts", body)


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
        det_ns = (size[0],) if size[0] == size[1] else (min(size),)
        theta_shapes = (size,) if size in ((2, 2), (2, 3)) else ((2, 2),)
        grass_sizes = (size,) if size in ((2, 3), (2, 4)) else ((2, 3),)
    return [
        check_height_one_generators(sizes),
        check_det_centrality(det_ns),
        check_cauchon_counts(sizes),
        check_theta_homomorphism(theta_shapes),
        check_theta_expansions(theta_shapes),
        check_cgl_axioms(),
        check_rewriting_soundness(),
        check_grassmann(grass_sizes),
        check_torsionfree(sizes),
    ]
