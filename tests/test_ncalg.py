import json
import random

import pytest

from qcgl.coef import MINUS_ONE, ONE, Q, ZERO, qpow
from qcgl.ncalg import (NcPoly, OreAlgebra, StepBudgetExceeded, format_poly,
                        quantum_plane, random_poly, random_word)
from qcgl.presets import load_preset
from qcgl.qmat import oqm
from qcgl.verify import mutated_specs

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
    one = ALG22.one()
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
        assert ALG22.apply_sigma_inv(4, ALG22.apply_sigma(4, a)) == a


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


def test_nilpotency_index():
    assert ALG22.nilpotency_index(4, x22(1, 1)) == 1
    assert ALG22.nilpotency_index(4, x22(2, 1)) == 0
    sq = ALG22.multiply(x22(1, 1), x22(1, 1))
    # oracle: brute-force iteration of apply_delta
    it, d = ALG22.apply_delta(4, sq), 0
    while not it.is_zero():
        it, d = ALG22.apply_delta(4, it), d + 1
    assert d == 2
    assert ALG22.nilpotency_index(4, sq) == 2
    with pytest.raises(ValueError):
        ALG22.nilpotency_index(4, NcPoly.zero())


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
    assert ALG22.qcommute_exponent(x22(1, 1), x22(2, 2)) is None
    with pytest.raises(ValueError):
        ALG22.qcommute_exponent(NcPoly.zero(), x22(1, 1))


def test_qcommute_antisymmetry():
    rng = random.Random(3)
    gens = ALG23.gens()
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
    rng = random.Random(4)
    report = ALG22.check_cgl_axioms(rng=rng)
    assert report.ok, str(report)
    assert ALG22.level_q[4] == qpow(-2)
    assert quantum_plane().check_cgl_axioms(rng=rng).ok


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
    report = alg.check_cgl_axioms(rng=random.Random(12))
    assert [(c.level, c.axiom) for c in report.failures()] == [(3, "(g) overlaps resolve")]
    assert "g_3*g_2*g_1" in report.failures()[0].detail
    assert alg.is_torsionfree() is True
    g1, g2, g3 = alg.gens()
    assert (alg.multiply(alg.multiply(g3, g2), g1)
            != alg.multiply(g3, alg.multiply(g2, g1)))


def test_overlap_check_passes_on_valid_data():
    for alg in (ALG22, ALG23, load_preset("uq-sl3-plus"),
                _mutation("sign-flipped-correction")):
        checks = _overlap_checks(alg)
        assert [c.level for c in checks] == list(range(3, alg.N + 1))
        assert all(c.ok for c in checks), alg
    assert _overlap_checks(quantum_plane()) == []


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
    assert flipped.check_cgl_axioms(rng=random.Random(9)).ok
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
    with pytest.raises(StepBudgetExceeded):
        tiny.normal_form_word((4, 4, 1, 1))


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
    assert format_poly(ALG22.names, ALG22.one()) == "1"
