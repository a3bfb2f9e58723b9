"""The claims-verification suite behind `verify paper` and the acceptance tests.

Each check returns a CheckResult and never raises: exceptions are converted
into failures so the CLI can aggregate.  Randomised checks are seeded and
deterministic for a given seed.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from itertools import product

from .coef import MINUS_ONE, ONE, Q, qpow
from .cauchon import count_by_black, enumerate_diagrams, is_valid
from .delderiv import LaurentElem, laurent_mul, theta, theta_alt
from .grassmann import extremal_normality_report, phi_scaling_check
from .ncalg import NcPoly, OreAlgebra, quantum_plane, random_poly, random_word
from .presets import load_preset
from .qmat import oqm

DEFAULT_SEED = 20240801
DEFAULT_SIZES = ((2, 2), (2, 3), (3, 3))


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
            if hist.get(1) != m + n - 1:
                return False, "(%d,%d): %r height-one diagrams, expected %d" % (
                    m, n, hist.get(1), m + n - 1)
            details.append("%dx%d: %d diagrams, %d with one black box"
                           % (m, n, len(enumerated), hist[1]))
        return True, "; ".join(details)

    return _run("3-cauchon-diagram-counts", body)


# -- criteria 4 and 5 --------------------------------------------------------


def _theta_sample_pairs(shape, pairs, seed):
    alg = oqm(*shape)
    rng = random.Random("%d:%d,%d" % (seed, shape[0], shape[1]))
    out = []
    while len(out) < pairs:
        a = random_poly(alg, rng, max_degree=3, max_terms=2, max_level=alg.N - 1)
        b = random_poly(alg, rng, max_degree=3, max_terms=2, max_level=alg.N - 1)
        out.append((a, b))
    return alg, out


def check_theta_homomorphism(shapes=((2, 2), (2, 3)), pairs=100, seed=DEFAULT_SEED):
    def body():
        alg22 = oqm(2, 2)
        expected = LaurentElem({
            0: alg22.x(1, 1),
            -1: alg22.multiply(alg22.x(1, 2), alg22.x(2, 1)).scaled(-Q),
        })
        if theta(alg22, alg22.x(1, 1)) != expected:
            return False, "theta(x[1,1]) disagrees with the frozen hand value"
        checked = 0
        for shape in shapes:
            alg, sample = _theta_sample_pairs(shape, pairs, seed)
            for a, b in sample:
                ta, tb = theta(alg, a), theta(alg, b)
                if theta(alg, alg.multiply(a, b)) != laurent_mul(alg, ta, tb):
                    return False, "theta(ab) != theta(a)theta(b) over %dx%d" % shape
                if theta(alg, a + b) != ta + tb:
                    return False, "theta not additive over %dx%d" % shape
                checked += 1
        return True, "theta multiplicative and additive on %d seeded pairs" % checked

    return _run("4-theta-is-a-homomorphism", body)


def check_theta_expansions(shapes=((2, 2), (2, 3)), pairs=100, seed=DEFAULT_SEED):
    def body():
        checked = 0
        for shape in shapes:
            alg, sample = _theta_sample_pairs(shape, pairs, seed)
            for a, b in sample:
                for p in (a, b):
                    if theta(alg, p) != theta_alt(alg, p):
                        return False, "the two expansions disagree over %dx%d" % shape
                    checked += 1
        return True, "both expansions agree on %d seeded samples" % checked

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


def check_cgl_axioms(seed=DEFAULT_SEED, nilpotence_bound=64, level_samples=50):
    def body():
        rng = random.Random(seed)
        good = [("oqm(2,2)", oqm(2, 2)), ("oqm(2,3)", oqm(2, 3)),
                ("qplane", quantum_plane()), ("uq-sl3-plus", load_preset("uq-sl3-plus"))]
        for label, alg in good:
            report = alg.check_cgl_axioms(nilpotence_bound=nilpotence_bound, rng=rng)
            if not report.ok:
                return False, "%s rejected: %s" % (label, report.failures()[0].detail)
        failing = 0
        for label, alg, expect_fail in mutated_specs():
            report = alg.check_cgl_axioms(nilpotence_bound=16, rng=rng)
            if expect_fail and report.ok:
                return False, "mutation %s was not rejected" % label
            if not expect_fail and not report.ok:
                return False, "mutation %s unexpectedly rejected: %s" % (
                    label, report.failures()[0].detail)
            if expect_fail:
                failing += 1
        if failing < 3:
            return False, "only %d failing mutations" % failing
        for label, alg in (("oqm(2,2)", oqm(2, 2)), ("qplane", quantum_plane())):
            for j in range(2, alg.N + 1):
                qj = alg.level_q[j]
                for _ in range(level_samples):
                    a = random_poly(alg, rng, max_degree=3, max_level=j - 1)
                    lhs = alg.apply_sigma(j, alg.apply_delta(j, a))
                    rhs = alg.apply_delta(j, alg.apply_sigma(j, a)).scaled(qj)
                    if lhs != rhs:
                        return False, "twist identity fails on a sample at level %d of %s" % (
                            j, label)
        return True, ("presets pass, %d mutations rejected, twist identity holds on "
                      "%d samples per level" % (failing, level_samples))

    return _run("6-cgl-axiom-checker", body)


# -- criterion 7 ------------------------------------------------------------


def check_rewriting_soundness(count=500, seed=DEFAULT_SEED):
    def body():
        alg = oqm(2, 3)
        rng = random.Random(seed)
        for _ in range(count):
            a = random_poly(alg, rng, max_degree=3, max_terms=2)
            b = random_poly(alg, rng, max_degree=3, max_terms=2)
            c = random_poly(alg, rng, max_degree=3, max_terms=2)
            if alg.multiply(alg.multiply(a, b), c) != alg.multiply(a, alg.multiply(b, c)):
                return False, "associativity fails on a seeded triple"
        for _ in range(count):
            w = random_word(alg, rng, max_len=6)
            if alg.normal_form_word(w, "leftmost") != alg.normal_form_word(w, "rightmost"):
                return False, "reduction strategies disagree on %r" % (w,)
        return True, "associativity and strategy-independence on %d seeded cases each" % count

    return _run("7-rewriting-soundness", body)


# -- criterion 8 ------------------------------------------------------------


def check_grassmann(sizes=((2, 3), (2, 4))):
    def body():
        for m, n in sizes:
            report = extremal_normality_report(m, n)
            if not report.ok:
                return False, "extremal normality fails at (%d,%d)" % (m, n)
        scaling = phi_scaling_check(2, 2)
        if not scaling.ok:
            return False, "phi does not scale some minor of the 2x2 algebra by q^-t"
        return True, ("extremal minors q-commute with all maximal minors at %s; "
                      "phi scaling verified on the 2x2 grid"
                      % ", ".join("%dx%d" % s for s in sizes))

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


def run_paper_suite(size=None, seed=DEFAULT_SEED, pairs=100, triples=500,
                    level_samples=50):
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
        check_theta_homomorphism(theta_shapes, pairs=pairs, seed=seed),
        check_theta_expansions(theta_shapes, pairs=pairs, seed=seed),
        check_cgl_axioms(seed=seed, level_samples=level_samples),
        check_rewriting_soundness(count=triples, seed=seed),
        check_grassmann(grass_sizes),
        check_torsionfree(sizes),
    ]
