import json
import math
import random

import pytest

from qcgl.coef import MINUS_ONE, ONE, Q, ZERO, qpow
from qcgl.delderiv import _binomials
from qcgl.ncalg import (NILPOTENCE_BOUND, NcPoly, NilpotenceBoundExceeded, OreAlgebra,
                        StepBudgetExceeded, format_poly, quantum_plane)
from qcgl.presets import load_preset
from qcgl.qmat import oqm
from qcgl.verify import mutated_specs
from sampling import random_poly, random_word

ALG22 = oqm(2, 2)
ALG23 = oqm(2, 3)
CORR = Q - qpow(-1)  # q - q^-1


def x22(i, j):
    return ALG22.x(i, j)


def test_multiply_row_relation():
    assert ALG22.multiply(x22(1, 2), x22(1, 1)) == NcPoly({(1, 2): qpow(-1)})


def test_multiply_diagonal_relation():
    expected = NcPoly({(1, 4): ONE, (2, 3): -CORR})
    assert ALG22.multiply(x22(2, 2), x22(1, 1)) == expected


def test_multiply_identity():
    rng = random.Random(0)
    one = NcPoly.scalar(ONE)
    for _ in range(20):
        b = random_poly(ALG22, rng)
        assert ALG22.multiply(one, b) == b
        assert ALG22.multiply(b, one) == b


def test_sigma_on_generators():
    assert ALG22.apply_sigma(4, x22(1, 2)) == x22(1, 2).scaled(qpow(-1))
    assert ALG22.apply_sigma(4, x22(1, 1)) == x22(1, 1)


def test_sigma_inverse_round_trip():
    rng = random.Random(1)
    for _ in range(20):
        a = random_poly(ALG22, rng, max_level=3)
        assert ALG22.apply_sigma(4, ALG22.apply_sigma(4, a), -1) == a


def test_sigma_rejects_high_indices():
    with pytest.raises(ValueError):
        ALG22.apply_sigma(4, x22(2, 2))
    with pytest.raises(ValueError):
        ALG22.apply_delta(2, x22(2, 1))


def test_delta_on_generators():
    expected = NcPoly({(2, 3): -CORR})
    assert ALG22.apply_delta(4, x22(1, 1)) == expected
    assert ALG22.apply_delta(4, x22(1, 2)).is_zero()
    assert ALG22.apply_delta(4, ALG22.apply_delta(4, x22(1, 1))).is_zero()


def _nilpotency_index(alg, j, a):
    return len(alg.delta_powers(j, a, NILPOTENCE_BOUND, "delta_%d" % j)) - 1


def test_nilpotency_index():
    assert _nilpotency_index(ALG22, 4, x22(1, 1)) == 1
    assert _nilpotency_index(ALG22, 4, x22(2, 1)) == 0
    sq = ALG22.multiply(x22(1, 1), x22(1, 1))
    # oracle: brute-force iteration of apply_delta
    it, d = ALG22.apply_delta(4, sq), 0
    while not it.is_zero():
        it, d = ALG22.apply_delta(4, it), d + 1
    assert d == 2
    assert _nilpotency_index(ALG22, 4, sq) == 2
    assert ALG22.delta_powers(4, NcPoly.zero(), NILPOTENCE_BOUND, "delta_4") == []


def test_delta_powers_raise_exactly_past_the_bound():
    # delta_powers(j, a, B) raises iff d_j^B(a) != 0, with B and a in the
    # error, and otherwise lists the nonzero powers d_j^n(a) one map at a time
    nonnil = _mutation("non-nilpotent-derivation")
    sq = ALG22.multiply(x22(1, 1), x22(1, 1))
    for alg, a in ((ALG22, x22(1, 1)), (ALG22, sq), (nonnil, nonnil.gen(1))):
        literal = [a]
        for _ in range(3):
            literal.append(alg.apply_delta(alg.N, literal[-1]))
        for bound in range(4):
            if literal[bound]:
                message = "^delta did not terminate within bound %d$" % bound
                with pytest.raises(NilpotenceBoundExceeded, match=message) as info:
                    alg.delta_powers(alg.N, a, bound, "delta")
                assert info.value.bound == bound and info.value.element == a
            else:
                nonzero = [t for t in literal if t]
                assert alg.delta_powers(alg.N, a, bound, "delta") == nonzero


def test_torus_weights():
    assert ALG22.torus_weight(x22(1, 1)) == (1, 0, 1, 0)
    assert ALG22.torus_weight(ALG22.det()) == (1, 1, 1, 1)
    assert ALG22.torus_weight(x22(1, 1) + x22(1, 2)) is None
    with pytest.raises(ValueError):
        ALG22.torus_weight(NcPoly.zero())


def test_weight_additivity_on_products():
    rng = random.Random(2)
    for _ in range(30):
        wa = random_word(ALG23, rng, max_len=3)
        wb = random_word(ALG23, rng, max_len=3)
        a = ALG23.normal_form_word(wa)
        b = ALG23.normal_form_word(wb)
        ab = ALG23.multiply(a, b)
        if ab.is_zero():
            continue
        assert ALG23.torus_weight(ab) == tuple(
            u + v for u, v in zip(ALG23.word_weight(wa), ALG23.word_weight(wb)))


def test_qcommute_exponents():
    assert ALG22.qcommute_exponent(x22(1, 2), x22(1, 1)) == -1
    assert ALG22.qcommute_exponent(ALG22.det(), x22(1, 1)) == 0
    with pytest.raises(ValueError):
        ALG22.qcommute_exponent(NcPoly.zero(), x22(1, 1))


def test_qcommute_exponent_is_none_on_each_branch():
    general = _general_coefficient_algebra()
    g = general.gen

    def products(alg, a, b):
        return alg.multiply(a, b), alg.multiply(b, a)

    # different supports: x[2,2] x[1,1] has a term x[1,2] x[2,1], x[1,1] x[2,2] none
    ab, ba = products(ALG22, x22(1, 1), x22(2, 2))
    assert set(ab.terms) != set(ba.terms)
    assert ALG22.qcommute_exponent(x22(1, 1), x22(2, 2)) is None
    # lambda_42 = -q: g_2 g_4 = -q^-1 g_4 g_2, a power of q with sign -1
    ab, ba = products(general, g(2), g(4))
    assert ab.terms[(2, 4)] == -ba.terms[(2, 4)].times_qpow(-1)
    assert general.qcommute_exponent(g(2), g(4)) is None
    # lambda_21 = 2: g_1 g_2 = g_2 g_1 / 2, not a power of q
    ab, ba = products(general, g(1), g(2))
    assert (ab.terms[(1, 2)] / ba.terms[(1, 2)]).as_signed_q_power() is None
    assert general.qcommute_exponent(g(1), g(2)) is None
    # (g_1 + g_2) g_1 = g_1^2 + q g_1 g_2 and g_1 (g_1 + g_2) = g_1^2 + g_1 g_2:
    # the first term's ratio is q^0, the later term's q
    plane = quantum_plane()
    a, b = NcPoly({(1,): ONE, (2,): ONE}), plane.gen(1)
    ab, ba = products(plane, a, b)
    assert list(ab.terms) == [(1, 1), (1, 2)] and set(ba.terms) == set(ab.terms)
    assert ab.terms[(1, 1)] == ba.terms[(1, 1)] and ab.terms[(1, 2)] == Q * ba.terms[(1, 2)]
    assert plane.qcommute_exponent(a, b) is None


def test_qcommute_antisymmetry():
    rng = random.Random(3)
    gens = [ALG23.gen(i) for i in range(1, ALG23.N + 1)]
    for _ in range(60):
        a = rng.choice(gens)
        b = rng.choice(gens)
        s = ALG23.qcommute_exponent(a, b)
        t = ALG23.qcommute_exponent(b, a)
        if s is None:
            assert t is None
        else:
            assert t == -s


def test_is_normal():
    report = ALG22.is_normal(x22(1, 2))
    assert report.ok
    assert report.exponents == (-1, 0, 0, 1)
    assert ALG22.is_normal(ALG22.det()).exponents == (0, 0, 0, 0)
    assert not ALG22.is_normal(x22(1, 1)).ok


def test_axioms_pass_on_presets():
    report = ALG22.check_cgl_axioms()
    assert report.ok, str(report)
    assert ALG22.level_q[4] == qpow(-2)
    assert quantum_plane().check_cgl_axioms().ok


def test_axioms_reject_broken_specs():
    base = ALG22
    lq = dict(base.level_q)
    lq[4] = Q
    wrong_q = OreAlgebra(base.names, base.lam, base.delta, lq, base.torus_rank,
                         base.weights, base.h_elems)
    report = wrong_q.check_cgl_axioms()
    assert any(not c.ok and c.axiom.startswith("(a)") for c in report.checks)

    lam = dict(base.lam)
    lam[(4, 2)] = ZERO
    zero_lam = OreAlgebra(base.names, lam, base.delta, base.level_q,
                          base.torus_rank, base.weights, base.h_elems)
    report = zero_lam.check_cgl_axioms()
    assert any(not c.ok and c.axiom.startswith("(f)") for c in report.checks)

    nonnil = OreAlgebra(("g_1", "g_2"), {(2, 1): Q}, {(2, 1): NcPoly({(1,): ONE})},
                        {2: Q}, 2, [(1, 0), (0, 1)], [(Q, ONE), (Q, Q)])
    report = nonnil.check_cgl_axioms(nilpotence_bound=8)
    assert any(not c.ok and c.axiom.startswith("(b)") for c in report.checks)


def _mutation(label):
    return next(alg for name, alg, _ in mutated_specs() if name == label)


def _overlap_checks(alg):
    return [c for c in alg.check_cgl_axioms().checks if c.axiom.startswith("(g)")]


def test_overlap_check_catches_a_correction_that_is_no_derivation():
    alg = _mutation("non-derivation-correction")
    report = alg.check_cgl_axioms()
    assert [(c.level, c.axiom) for c in report.failures()] == [(3, "(g) overlaps resolve")]
    assert "g_3*g_2*g_1" in report.failures()[0].detail
    assert alg.is_torsionfree() is True
    g1, g2, g3 = (alg.gen(i) for i in (1, 2, 3))
    assert (alg.multiply(alg.multiply(g3, g2), g1)
            != alg.multiply(g3, alg.multiply(g2, g1)))


def test_checker_verdicts_on_the_mutation_set():
    failures = {label: [(c.level, c.axiom[:3])
                        for c in alg.check_cgl_axioms(nilpotence_bound=16).failures()]
                for label, alg, _ in mutated_specs()}
    assert failures == {
        "wrong-level-constant": [(4, "(a)")],
        "zero-straightening-coefficient": [(4, "(d)"), (4, "(f)"), (4, "(g)")],
        "root-of-unity-level-constant": [(4, "(a)"), (4, "(c)")],
        "wrong-torus-element": [(4, "(d)"), (4, "(e)")],
        "non-nilpotent-derivation": [(2, "(a)"), (2, "(b)")],
        "non-derivation-correction": [(3, "(g)")],
        "sign-flipped-correction": [],
    }


def _sample_pair(alg, rng, j):
    return tuple(random_poly(alg, rng, max_level=j - 1) for _ in range(2))


def test_twist_defect_is_a_twisted_derivation():
    # why check (a) on generators suffices: D = s_j d_j - q_j d_j s_j obeys
    # D(ab) = s_j^2(a) D(b) + D(a) s_j(b); these mutations are where D != 0
    rng = random.Random(13)
    for label in ("wrong-level-constant", "root-of-unity-level-constant",
                  "non-nilpotent-derivation"):
        alg = _mutation(label)
        nonzero = 0
        for j in range(2, alg.N + 1):
            def defect(a):
                return (alg.apply_sigma(j, alg.apply_delta(j, a))
                        - alg.apply_delta(j, alg.apply_sigma(j, a)).scaled(alg.level_q[j]))

            for _ in range(20):
                a, b = _sample_pair(alg, rng, j)
                lhs = defect(alg.multiply(a, b))
                assert lhs == (alg.multiply(alg.apply_sigma(j, a, 2), defect(b))
                               + alg.multiply(defect(a), alg.apply_sigma(j, b))), (label, j)
                nonzero += bool(lhs)
        assert nonzero, label


def test_delta_powers_of_a_product_follow_the_q_leibniz_rule():
    # why check (b) on generators suffices: given (a), d_j^n(ab) =
    # sum_k [n k]_{q_j^-1} s_j^k(d_j^(n-k)(a)) d_j^k(b)
    rng = random.Random(14)
    for alg in (oqm(3, 3), load_preset("uq-sl3-plus")):
        nonzero = 0
        for j in range(2, alg.N + 1):
            for _ in range(6):
                a, b = _sample_pair(alg, rng, j)
                da, db, dab = (alg.delta_powers(j, p, NILPOTENCE_BOUND, "delta")
                               for p in (a, b, alg.multiply(a, b)))
                for n in range(1, 5):
                    binomials = _binomials(alg.level_q[j].inverse(), n, n + 1)
                    rhs = NcPoly({})
                    for k in range(max(0, n - len(da) + 1), min(n, len(db) - 1) + 1):
                        rhs += alg.multiply(alg.apply_sigma(j, da[n - k], k),
                                            db[k]).scaled(binomials[k])
                    assert (dab[n] if n < len(dab) else NcPoly({})) == rhs, (alg, j, n)
                    nonzero += bool(rhs)
        assert nonzero, alg


def test_overlap_check_passes_on_valid_data():
    for alg in (ALG22, ALG23, load_preset("uq-sl3-plus"),
                _mutation("sign-flipped-correction")):
        checks = _overlap_checks(alg)
        assert [c.level for c in checks] == list(range(3, alg.N + 1))
        assert all(c.ok for c in checks), alg
    assert _overlap_checks(quantum_plane()) == []


def test_overlaps_resolve_beyond_the_suite():
    # criterion 7 runs check (g) up to oqm(4,4); these grids go further
    for m, n in ((4, 5), (2, 6), (3, 4)):
        alg = oqm(m, n)
        assert [alg._overlap_failure(k) for k in range(3, alg.N + 1)] == [""] * (alg.N - 2)


def test_a_correction_above_its_level_is_refused():
    # the order lemma behind criterion 7 needs each delta(j,i) below x_j
    plane = quantum_plane()
    with pytest.raises(ValueError, match=r"^delta\(2,1\) uses a generator index >= 2$"):
        OreAlgebra(plane.names, plane.lam, {(2, 1): plane.gen(2)}, plane.level_q,
                   plane.torus_rank, plane.weights, plane.h_elems)


def test_overlap_check_reports_an_exhausted_budget():
    checks = _overlap_checks(oqm(2, 2, steps_budget=1))
    assert not all(c.ok for c in checks)
    assert any("step budget" in c.detail for c in checks)


def test_cancellation_leaves_no_stored_zeros():
    det = ALG22.det()
    assert (det - det).terms == {}
    # the two cross terms of (x11 + x12)(x11 - q^-1 x12) cancel
    left = x22(1, 1) + x22(1, 2)
    right = x22(1, 1) - x22(1, 2).scaled(qpow(-1))
    assert ALG22.multiply(left, right) == NcPoly({(1, 1): ONE, (2, 2): -qpow(-1)})


def test_scaled_correction_term_is_still_a_valid_cgl_datum():
    # scaling a whole correction entry is the transpose presentation in
    # disguise: every axiom still holds, and the checker must say so
    base = ALG22
    delta = dict(base.delta)
    delta[(4, 1)] = -base.delta[(4, 1)]
    flipped = OreAlgebra(base.names, base.lam, delta, base.level_q,
                         base.torus_rank, base.weights, base.h_elems)
    assert flipped.check_cgl_axioms().ok
    rng = random.Random(10)
    for _ in range(20):
        a = random_poly(flipped, rng)
        b = random_poly(flipped, rng)
        c = random_poly(flipped, rng)
        lhs = flipped.multiply(flipped.multiply(a, b), c)
        assert lhs == flipped.multiply(a, flipped.multiply(b, c))


def test_twist_identity_extends_to_random_elements():
    rng = random.Random(5)
    for alg in (ALG22, quantum_plane()):
        for j in range(2, alg.N + 1):
            qj = alg.level_q[j]
            for _ in range(25):
                a = random_poly(alg, rng, max_level=j - 1)
                lhs = alg.apply_sigma(j, alg.apply_delta(j, a))
                rhs = alg.apply_delta(j, alg.apply_sigma(j, a)).scaled(qj)
                assert lhs == rhs


def test_sigma_is_an_algebra_map():
    rng = random.Random(6)
    for _ in range(30):
        a = random_poly(ALG23, rng, max_level=5)
        b = random_poly(ALG23, rng, max_level=5)
        lhs = ALG23.apply_sigma(6, ALG23.multiply(a, b))
        rhs = ALG23.multiply(ALG23.apply_sigma(6, a), ALG23.apply_sigma(6, b))
        assert lhs == rhs


def test_twisted_leibniz():
    rng = random.Random(7)
    for _ in range(30):
        a = random_poly(ALG23, rng, max_level=5)
        b = random_poly(ALG23, rng, max_level=5)
        lhs = ALG23.apply_delta(6, ALG23.multiply(a, b))
        rhs = (ALG23.multiply(ALG23.apply_sigma(6, a), ALG23.apply_delta(6, b))
               + ALG23.multiply(ALG23.apply_delta(6, a), b))
        assert lhs == rhs


def test_associativity_random():
    rng = random.Random(8)
    for alg in (ALG22, ALG23):
        for _ in range(60):
            a = random_poly(alg, rng, max_terms=2)
            b = random_poly(alg, rng, max_terms=2)
            c = random_poly(alg, rng, max_terms=2)
            assert alg.multiply(alg.multiply(a, b), c) == alg.multiply(a, alg.multiply(b, c))


def test_strategy_independence():
    rng = random.Random(9)
    for _ in range(120):
        w = random_word(ALG23, rng, max_len=6)
        assert (ALG23.normal_form_word(w, "leftmost")
                == ALG23.normal_form_word(w, "rightmost"))


def test_steps_budget_guard():
    tiny = oqm(2, 2, steps_budget=1)
    with pytest.raises(StepBudgetExceeded) as info:
        tiny.normal_form_word((4, 4, 1, 1))
    assert info.value.word == (4, 4, 1, 1)
    assert info.value.steps == 2
    assert str(info.value) == "straightening x[2,2]*x[2,2]*x[1,1]*x[1,1] exceeded 1 steps"


# The reference straightener: one Q(q) product per rewriting step and per
# correction term, read straight off lam and delta.  normal_form_word must
# agree with it on every word, under both strategies, and take as many steps.

def _reference_normal_form(alg, word, strategy):
    leftmost = strategy == "leftmost"
    out = {}
    stack = [(ONE, tuple(word))]
    steps = 0
    while stack:
        c, w = stack.pop()
        inversions = [t for t in range(len(w) - 1) if w[t] > w[t + 1]]
        if not inversions:
            out[w] = out.get(w, ZERO) + c
            continue
        steps += 1
        pos = inversions[0] if leftmost else inversions[-1]
        j, i = w[pos], w[pos + 1]
        head, tail = w[:pos], w[pos + 2:]
        lam = alg.lam[(j, i)]
        if lam:
            stack.append((c * lam, head + (i, j) + tail))
        d = alg.delta.get((j, i))
        if d is not None:
            for dw, dc in d.terms.items():
                stack.append((c * dc, head + dw + tail))
    return NcPoly({w: c for w, c in out.items() if c}), steps


def _general_coefficient_algebra():
    """Straightening data whose coefficients are mostly not powers of q:
    2, q+1, 1/(1-q), with -q and 1/q among them and one lambda equal to 0."""
    two = ONE + ONE
    geo = (ONE - Q).inverse()
    lam = {(2, 1): two, (3, 1): ONE + Q, (3, 2): geo,
           (4, 1): ZERO, (4, 2): -Q, (4, 3): qpow(-1)}
    delta = {(3, 1): NcPoly({(1, 1): geo, (2,): Q}),
             (4, 1): NcPoly({(2, 3): ONE + Q, (): two}),
             (4, 3): NcPoly({(1, 2): -ONE})}
    return OreAlgebra(("g_1", "g_2", "g_3", "g_4"), lam, delta,
                      {j: Q for j in (2, 3, 4)}, 1, [(1,)] * 4, [(Q,)] * 4)


def _with_budget(alg, budget):
    return OreAlgebra(alg.names, alg.lam, alg.delta, alg.level_q, alg.torus_rank,
                      alg.weights, alg.h_elems, steps_budget=budget)


def test_rewrite_table_matches_the_reference_straightener():
    rng = random.Random(11)
    algebras = [oqm(2, 3), oqm(3, 3), quantum_plane(), load_preset("uq-sl3-plus"),
                _general_coefficient_algebra()]
    for alg in algebras:
        for _ in range(60):
            w = random_word(alg, rng, max_len=6)
            for strategy in ("leftmost", "rightmost"):
                expected, _ = _reference_normal_form(alg, w, strategy)
                assert alg.normal_form_word(w, strategy) == expected, (alg, w, strategy)
    # the general coefficients reach the normal forms
    general = _general_coefficient_algebra().normal_form_word((4, 2, 3, 1))
    assert any(c.as_signed_q_power() is None for c in general.terms.values())


def _budget_message(alg, w, budget):
    return "straightening %s exceeded %d steps" % (alg.word_text(w), budget)


def test_rewrite_table_keeps_the_step_count():
    # Both strategies take the reference's steps, and a rightmost error names
    # the word it was given, not its mirror.  In x_4 x_3 x_1 of the general
    # algebra, x_3 passes x_4 and leaves the d_43 child pending; then x_1
    # meets x_4, and lambda_41 = 0 ends the path partway through x_1's
    # insertion, with d_41's two children pending too.
    rng = random.Random(12)
    general = _general_coefficient_algebra()
    assert not general.lam[(4, 1)] and general.lam[(4, 3)] and (4, 3) in general.delta
    for alg, fixed in ((oqm(2, 3), []), (general, [(4, 3, 1)])):
        for w in [random_word(alg, rng, max_len=6) for _ in range(8)] + fixed:
            for strategy in ("leftmost", "rightmost"):
                expected, steps = _reference_normal_form(alg, w, strategy)
                assert _with_budget(alg, steps).normal_form_word(w, strategy) == expected
                if steps:
                    with pytest.raises(StepBudgetExceeded) as info:
                        _with_budget(alg, steps - 1).normal_form_word(w, strategy)
                    assert (info.value.word, info.value.steps, str(info.value)) == \
                        (w, steps, _budget_message(alg, w, steps - 1)), (alg, w, strategy)


# multiply, apply_delta and transpose_poly add c * NF(w) for each word w they
# form, straightened straight into the sum with c as its starting
# coefficient.  Each must give the reference normal forms.

def _reference_sum(alg, scaled_words):
    """Sum of c * NF(w) over (c, w) pairs, by the reference straightener."""
    out = NcPoly.zero()
    for c, w in scaled_words:
        out = out + _reference_normal_form(alg, w, "leftmost")[0].scaled(c)
    return out


def _cancelling_pair(alg):
    """a, b whose product loses its term x_i x_j: with j > i and
    lambda_ji != 0, (x_j - lambda_ji x_i)(x_i + x_j) cancels it."""
    (j, i), lam = next((ji, lam) for ji, lam in sorted(alg.lam.items()) if lam)
    return NcPoly({(j,): ONE, (i,): -lam}), NcPoly({(i,): ONE, (j,): ONE})


def _straightener_algebras():
    return [oqm(2, 3), oqm(3, 3), quantum_plane(), load_preset("uq-sl3-plus"),
            _general_coefficient_algebra()]


def test_product_paths_match_the_reference_straightener():
    rng = random.Random(14)
    for alg in _straightener_algebras():
        pairs = [(random_poly(alg, rng), random_poly(alg, rng)) for _ in range(12)]
        pairs.append((alg.gen(alg.N).scaled(ONE + Q), alg.gen(1).scaled(qpow(-2))))
        pairs.append(_cancelling_pair(alg))
        for a, b in pairs:
            expected = _reference_sum(alg, [(ca * cb, wa + wb) for wa, ca in a.items()
                                            for wb, cb in b.items()])
            product = alg.multiply(a, b)
            assert product == expected, (alg, a, b)
            assert all(product.terms.values())
        a, b = pairs[-1]
        wi, wj = sorted(b.terms)
        assert wi + wj not in alg.multiply(a, b).terms


def test_straightening_leaves_no_per_word_state():
    # every word is straightened where it is formed: normality checks,
    # leftmost normal forms and d_N store nothing per word, so the algebra's
    # containers keep their sizes (the mirrored rows are built on first use)
    alg = oqm(4, 4)
    det = alg.det()

    def sizes():
        return {name: len(v) for name, v in vars(alg).items()
                if isinstance(v, (dict, set, list)) and name != "_mirror_rows"}

    before = sizes()
    for _ in range(2):
        assert alg.is_normal(det).ok
    words = [w for w, _ in det.sorted_terms()]
    for w in words:
        assert alg.normal_form_word(w[::-1]) == alg.normal_form_word(w[::-1], "rightmost")
    low = alg.minor((1, 2, 3), (1, 2, 3))
    assert alg.apply_delta(alg.N, low.scaled(ONE + Q)) == alg.apply_delta(alg.N, low).scaled(ONE + Q)
    assert sizes() == before


def test_delta_and_transpose_paths_match_the_reference_straightener():
    rng = random.Random(16)
    for alg in _straightener_algebras():
        for j in range(2, alg.N + 1):
            samples = [random_poly(alg, rng, max_level=j - 1) for _ in range(4)]
            for a in samples:
                # d_j(w) = sum over t of s_j(w[:t]) d_j(w[t]) w[t+1:]
                scaled_words = []
                for w, c in a.items():
                    for t, g in enumerate(w):
                        d = alg.delta.get((j, g))
                        if d is not None:
                            scaled_words += [(c * dc, w[:t] + dw + w[t + 1:])
                                             for dw, dc in d.items()]
                        c = c * alg.lam[(j, g)]
                expected = _reference_sum(alg, scaled_words)
                assert alg.apply_delta(j, a) == expected, (alg, j, a)
    for m, n in ((2, 3), (3, 3), (3, 2)):
        samples = [random_poly(oqm(m, n), rng, max_degree=4) for _ in range(10)]
        source = oqm(m, n)
        target = source.transposed()
        for a in samples:
            scaled_words = []
            for w, c in a.items():
                scaled_words.append((c, tuple(target.gen_index(j + 1, i + 1)
                                              for i, j in (divmod(g - 1, n) for g in w))))
            expected = _reference_sum(target, scaled_words)
            assert source.transpose_poly(a) == expected, (m, n, a)


def test_first_sight_budget_error_matches_normal_form_word():
    rng = random.Random(17)
    for alg in (oqm(2, 3), _general_coefficient_algebra()):
        for _ in range(8):
            w = random_word(alg, rng, max_len=6)
            _, steps = _reference_normal_form(alg, w, "rightmost")
            if steps:
                with pytest.raises(StepBudgetExceeded) as info:
                    _with_budget(alg, steps - 1).normal_form_word(w, "rightmost")
                assert (info.value.word, info.value.steps, str(info.value)) == \
                    (w, steps, _budget_message(alg, w, steps - 1))
            _, steps = _reference_normal_form(alg, w, "leftmost")
            if not steps:
                continue
            with pytest.raises(StepBudgetExceeded) as direct:
                _with_budget(alg, steps - 1).normal_form_word(w)
            assert (direct.value.word, direct.value.steps, str(direct.value)) == \
                (w, steps, _budget_message(alg, w, steps - 1))
            tight = _with_budget(alg, steps - 1)
            out = {(): ONE}
            for _ in range(2):
                with pytest.raises(StepBudgetExceeded) as info:
                    tight._straighten(out, w, ONE + Q)
                assert (info.value.word, info.value.steps, str(info.value)) == \
                    (direct.value.word, direct.value.steps, str(direct.value))
                assert out == {(): ONE}
            with pytest.raises(StepBudgetExceeded) as info:
                tight.multiply(NcPoly({w[:1]: ONE}), NcPoly({w[1:]: Q}))
            assert info.value.word == w and info.value.steps == steps


def test_level_maps_match_their_definitions():
    # s_j scales each word by the product of its letters' lambda_jg, and
    # d_j(w) = sum over t of s_j(w[:t]) d_j(w[t]) w[t+1:]
    rng = random.Random(13)
    for alg in (_general_coefficient_algebra(), load_preset("uq-sl3-plus"), ALG23):
        for j in range(2, alg.N + 1):
            for _ in range(10):
                a = random_poly(alg, rng, max_level=j - 1)
                sigma, delta = {}, NcPoly.zero()
                for w, c in a.terms.items():
                    lam = ONE
                    for t, g in enumerate(w):
                        d = alg.delta.get((j, g))
                        if d is not None and lam:
                            left = NcPoly({w[:t]: c * lam})
                            right = NcPoly({w[t + 1:]: ONE})
                            delta = delta + alg.multiply(alg.multiply(left, d), right)
                        lam = lam * alg.lam[(j, g)]
                    if lam:
                        sigma[w] = c * lam
                assert alg.apply_sigma(j, a) == NcPoly(sigma)
                assert alg.apply_delta(j, a) == delta
                if all(alg.lam[(j, g)] for w in a.terms for g in w):
                    assert alg.apply_sigma(j, NcPoly(sigma), -1) == a


def test_is_torsionfree():
    assert ALG22.is_torsionfree() is True
    assert ALG23.is_torsionfree() is True
    minus = OreAlgebra(("g_1", "g_2"), {(2, 1): MINUS_ONE}, {}, {2: Q}, 2,
                       [(1, 0), (0, 1)], [(Q, ONE), (MINUS_ONE, Q)])
    assert minus.is_torsionfree() is False
    undecided = OreAlgebra(("g_1", "g_2"), {(2, 1): ONE + Q}, {}, {2: Q}, 2,
                           [(1, 0), (0, 1)], [(Q, ONE), (ONE + Q, Q)])
    assert undecided.is_torsionfree() is None
    # -q alone generates an infinite cyclic group: no torsion
    minus_q = OreAlgebra(("g_1", "g_2"), {(2, 1): -Q}, {}, {2: Q}, 2,
                         [(1, 0), (0, 1)], [(Q, ONE), (-Q, Q)])
    assert minus_q.is_torsionfree() is True
    # -q and q together reach -1
    both = OreAlgebra(("g_1", "g_2", "g_3"),
                      {(2, 1): -Q, (3, 1): Q, (3, 2): ONE}, {},
                      {2: Q, 3: Q}, 3,
                      [(1, 0, 0), (0, 1, 0), (0, 0, 1)],
                      [(Q, ONE, ONE), (-Q, Q, ONE), (Q, ONE, Q)])
    assert both.is_torsionfree() is False


def _reference_torsionfree(lams):
    """The lattice test: -1 lies in the group generated by the sign_i q^(k_i)
    iff (0, 1) lies in the lattice spanned by the (k_i, e_i), sign_i = (-1)^e_i,
    and (0, 2)."""
    rows = []
    for v in lams:
        sign, k = v.as_signed_q_power()
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
    return c != 1


def test_is_torsionfree_matches_the_lattice_reference():
    rng = random.Random(18)
    for _ in range(600):
        n = rng.choice((2, 3, 4))
        pairs = [(j, i) for j in range(2, n + 1) for i in range(1, j)]
        lam = {ji: rng.choice((ONE, MINUS_ONE)) * qpow(rng.randint(-4, 4)) for ji in pairs}
        alg = OreAlgebra(tuple("g_%d" % k for k in range(1, n + 1)), lam, {},
                         {j: Q for j in range(2, n + 1)}, 1, [(1,)] * n, [(Q,)] * n)
        assert alg.is_torsionfree() is _reference_torsionfree(lam.values()), lam


def test_serialization_round_trip():
    for alg in (ALG22, ALG23, quantum_plane()):
        doc = json.loads(json.dumps(alg.to_json()))
        again = OreAlgebra.from_json(doc)
        assert again.spec_equals(alg)
    with pytest.raises(ValueError):
        OreAlgebra.from_json({"format": "something-else"})


def test_constructor_validation():
    with pytest.raises(ValueError):
        OreAlgebra(("y",), {}, {}, {}, 1, [(1,)], [(Q,)])  # bad name
    with pytest.raises(ValueError):
        OreAlgebra(("g_1", "g_2"), {}, {}, {2: Q}, 2,
                   [(1, 0), (0, 1)], [(Q, ONE), (Q, Q)])  # missing lambda
    with pytest.raises(ValueError):
        OreAlgebra(("g_1", "g_2"), {(2, 1): Q},
                   {(2, 1): NcPoly({(2,): ONE})},  # delta uses index >= level
                   {2: Q}, 2, [(1, 0), (0, 1)], [(Q, ONE), (Q, Q)])


def test_format_poly_is_deterministic():
    p = ALG22.multiply(x22(2, 2), x22(1, 1))
    s1 = format_poly(ALG22.names, p)
    s2 = format_poly(ALG22.names, ALG22.multiply(x22(2, 2), x22(1, 1)))
    assert s1 == s2
    assert format_poly(ALG22.names, NcPoly.zero()) == "0"
    assert format_poly(ALG22.names, NcPoly.scalar(ONE)) == "1"
