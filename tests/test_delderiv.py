import random

import pytest

from qcgl.coef import ONE, Q, q_factorial, qpow
from qcgl.delderiv import (LaurentElem, delete_top_variable, format_laurent,
                           laurent_mul, min_shift, theta, theta_alt)
from qcgl.ncalg import (NcPoly, NilpotenceBoundExceeded, OreAlgebra,
                        random_poly)
from qcgl.presets import load_preset
from qcgl.qmat import oqm

ALG = oqm(2, 2)
X = LaurentElem.x_power(1)
XINV = LaurentElem.x_power(-1)


def test_xinv_past_a_generator():
    # sigma^-1(x12) = q x12 and delta(x12) = 0, so X^-1 x12 = q x12 X^-1
    lhs = laurent_mul(ALG, XINV, LaurentElem.from_poly(ALG.x(1, 2)))
    assert lhs == LaurentElem.from_poly(ALG.x(1, 2).scaled(Q), -1)


def test_x_times_x_inverse():
    assert laurent_mul(ALG, X, XINV) == LaurentElem.one()
    assert laurent_mul(ALG, XINV, X) == LaurentElem.one()


def test_laurent_associativity_with_x11():
    a = LaurentElem.from_poly(ALG.x(1, 1))
    lhs = laurent_mul(ALG, laurent_mul(ALG, XINV, a), X)
    rhs = laurent_mul(ALG, XINV, laurent_mul(ALG, a, X))
    assert lhs == rhs


def test_laurent_ring_identities_random():
    rng = random.Random(0)
    for _ in range(15):
        us = []
        for _ in range(3):
            u = LaurentElem.zero()
            for _ in range(rng.randint(1, 2)):
                p = random_poly(ALG, rng, max_degree=2, max_terms=2, max_level=3)
                u = u + LaurentElem.from_poly(p, rng.randint(-1, 1))
            us.append(u)
        u, v, w = us
        assert laurent_mul(ALG, laurent_mul(ALG, u, v), w) \
            == laurent_mul(ALG, u, laurent_mul(ALG, v, w))
        assert laurent_mul(ALG, u, v + w) \
            == laurent_mul(ALG, u, v) + laurent_mul(ALG, u, w)


def test_theta_kills_nothing_without_corrections():
    assert theta(ALG, ALG.x(2, 1)) == LaurentElem.from_poly(ALG.x(2, 1))
    assert theta(ALG, ALG.one()) == LaurentElem.one()
    assert theta(ALG, ALG.zero()).is_zero()


def test_theta_hand_value():
    m = ALG.multiply(ALG.x(1, 2), ALG.x(2, 1))
    expected = LaurentElem({0: ALG.x(1, 1), -1: m.scaled(-Q)})
    assert theta(ALG, ALG.x(1, 1)) == expected


def test_theta_alt_agrees():
    assert theta_alt(ALG, ALG.x(2, 1)) == theta(ALG, ALG.x(2, 1))
    assert theta_alt(ALG, ALG.x(1, 1)) == theta(ALG, ALG.x(1, 1))
    rng = random.Random(1)
    for _ in range(50):
        a = random_poly(ALG, rng, max_level=3)
        assert theta(ALG, a) == theta_alt(ALG, a)


def test_theta_is_multiplicative_on_samples():
    rng = random.Random(2)
    for alg in (ALG, oqm(2, 3)):
        for _ in range(25):
            a = random_poly(alg, rng, max_terms=2, max_level=alg.N - 1)
            b = random_poly(alg, rng, max_terms=2, max_level=alg.N - 1)
            assert theta(alg, alg.multiply(a, b)) \
                == laurent_mul(alg, theta(alg, a), theta(alg, b))
            assert theta(alg, a + b) == theta(alg, a) + theta(alg, b)


def _literal_theta_terms(alg, a, limit=32):
    """The terms (1-q)^-n/[n]! d^n(s^-n(a)) of the defining sum, up to the
    first zero one, with s^-n and d^n applied one map at a time."""
    qN = alg.level_q[alg.N]
    terms = []
    for n in range(limit):
        t = a
        for _ in range(n):
            t = alg.apply_sigma_inv(alg.N, t)
        for _ in range(n):
            t = alg.apply_delta(alg.N, t)
        if t.is_zero():
            break
        terms.append(t.scaled(((ONE - qN) ** n * q_factorial(n, qN)).inverse()))
    return terms


def test_theta_matches_its_literal_definition():
    rng = random.Random(5)
    raised = kept = 0
    for alg in (oqm(2, 3), load_preset("uq-sl3-plus")):
        for _ in range(15):
            a = random_poly(alg, rng, max_degree=3, max_level=alg.N - 1)
            terms = _literal_theta_terms(alg, a)
            expected = LaurentElem({-n: t for n, t in enumerate(terms)})
            assert theta(alg, a) == expected
            # the bound is exceeded exactly when the term at index bound is nonzero
            for bound in range(3):
                if bound < len(terms):
                    with pytest.raises(NilpotenceBoundExceeded):
                        theta(alg, a, bound=bound)
                    raised += 1
                else:
                    assert theta(alg, a, bound=bound) == expected
                    kept += 1
    assert raised and kept


def test_laurent_cancellation_leaves_no_stored_zeros():
    u = theta(ALG, ALG.x(1, 1))
    assert (u - u).coeffs == {}
    # X x12 = q^-1 x12 X, so the x12*X terms of (X - q^-1 x12)(x12 + X) cancel
    x12 = LaurentElem.from_poly(ALG.x(1, 2))
    product = laurent_mul(ALG, X - x12.scaled(qpow(-1)), x12 + X)
    square = ALG.multiply(ALG.x(1, 2), ALG.x(1, 2))
    assert product == LaurentElem({2: ALG.one(), 0: square.scaled(-qpow(-1))})


def test_theta_injectivity_spot_check():
    rng = random.Random(3)
    for _ in range(40):
        a = random_poly(ALG, rng, max_level=3)
        assert theta(ALG, a).is_zero() == a.is_zero()


def test_theta_rejects_top_generator():
    with pytest.raises(ValueError):
        theta(ALG, ALG.x(2, 2))


def test_theta_needs_generic_top_constant():
    deformed = OreAlgebra(("g_1", "g_2"), {(2, 1): Q}, {}, {2: ONE}, 2,
                          [(1, 0), (0, 1)], [(Q, ONE), (Q, Q)])
    with pytest.raises(ValueError):
        theta(deformed, deformed.gen(1))


def test_nilpotence_bound_is_enforced():
    nonnil = OreAlgebra(("g_1", "g_2"), {(2, 1): Q},
                        {(2, 1): NcPoly({(1,): ONE})}, {2: Q}, 2,
                        [(1, 0), (0, 1)], [(Q, ONE), (Q, Q)])
    with pytest.raises(NilpotenceBoundExceeded):
        theta(nonnil, nonnil.gen(1), bound=8)
    with pytest.raises(NilpotenceBoundExceeded):
        laurent_mul(nonnil, LaurentElem.x_power(-1),
                    LaurentElem.from_poly(nonnil.gen(1)), bound=8)


def test_min_shift_matches_nilpotency_index():
    assert min_shift(ALG, ALG.x(1, 1)) == 1
    assert min_shift(ALG, ALG.x(2, 1)) == 0
    sq = ALG.multiply(ALG.x(1, 1), ALG.x(1, 1))
    assert min_shift(ALG, sq) == 2
    rng = random.Random(4)
    for _ in range(30):
        a = random_poly(ALG, rng, max_level=3)
        if a.is_zero():
            continue
        assert min_shift(ALG, a) == ALG.nilpotency_index(4, a)
    with pytest.raises(ValueError):
        min_shift(ALG, ALG.zero())


def test_image_commutation_with_x():
    # X theta(x_i) = lambda_Ni theta(x_i) X for every base generator
    for alg in (ALG, oqm(2, 3)):
        for i in range(1, alg.N):
            b = theta(alg, alg.gen(i))
            lam = alg.lam[(alg.N, i)]
            assert laurent_mul(alg, LaurentElem.x_power(1), b) \
                == laurent_mul(alg, b, LaurentElem.x_power(1)).scaled(lam)


def test_theta_preserves_torus_weights():
    # each X-coefficient of theta(a), shifted by the X-weight, carries the
    # weight of a homogeneous argument
    for alg in (ALG, oqm(2, 3)):
        wx = alg.weights[alg.N - 1]
        for i in range(1, alg.N):
            a = alg.gen(i)
            wa = alg.torus_weight(a)
            for k, coeff in theta(alg, a).items():
                wc = alg.torus_weight(coeff)
                assert wa == tuple(c + k * x for c, x in zip(wc, wx))


def test_delete_top_variable():
    deleted = delete_top_variable(ALG)
    assert all(j != ALG.N for j, _ in deleted.delta)
    assert deleted.lam == ALG.lam
    assert deleted.check_cgl_axioms().ok
    assert delete_top_variable(deleted).spec_equals(deleted)
    assert not deleted.spec_equals(ALG)
    # in the deleted algebra the old correction pair now plainly commutes
    assert deleted.qcommute_exponent(deleted.gen(1), deleted.gen(4)) == 0


def test_format_laurent():
    img = theta(ALG, ALG.x(1, 1))
    assert format_laurent(ALG.names, img) == "x[1,1] - q*x[1,2]*x[2,1]*X^-1"
    assert format_laurent(ALG.names, LaurentElem.zero()) == "0"
    assert format_laurent(ALG.names, LaurentElem.x_power(2)) == "X^2"
    assert format_laurent(ALG.names, LaurentElem.x_power(1)) == "X"
