import random

import pytest

from qcgl.coef import (MINUS_ONE, ONE, Q, ZERO, RatFunc, is_root_of_unity,
                       q_factorial, q_int, qpow)
from qcgl.expr import parse_scalar


def test_add_examples():
    assert Q + (-Q) == ZERO
    assert Q + qpow(-1) == RatFunc((1, 0, 1), (0, 1))  # (q^2+1)/q
    assert (Q - qpow(-1)) + ZERO == RatFunc((-1, 0, 1), (0, 1))


def test_mul_inv_examples():
    assert Q * qpow(-1) == ONE
    assert qpow(-2) == RatFunc(1, (0, 0, 1))
    assert (ONE - qpow(-2)).inverse() == RatFunc((0, 0, 1), (-1, 0, 1))  # q^2/(q^2-1)
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()
    with pytest.raises(ZeroDivisionError):
        RatFunc(1, 0)


def test_q_factorial_against_product_oracle():
    assert q_factorial(0, Q) == ONE
    assert q_factorial(2, Q) == ONE + Q
    assert q_factorial(3, Q) == (ONE + Q) * (ONE + Q + Q * Q)
    # oracle: direct product of q-integers, any base
    base = qpow(-2)
    expected = ONE
    for i in range(1, 6):
        expected = expected * q_int(i, base)
    assert q_factorial(5, base) == expected


def test_is_root_of_unity():
    assert is_root_of_unity(MINUS_ONE)
    assert is_root_of_unity(ONE)
    assert not is_root_of_unity(Q)
    assert not is_root_of_unity(qpow(-2))
    with pytest.raises(ValueError):
        is_root_of_unity(ZERO)


def _random_ratfunc(rng):
    num = tuple(rng.randint(-4, 4) for _ in range(rng.randint(1, 4)))
    den = tuple(rng.randint(-4, 4) for _ in range(rng.randint(1, 3)))
    if not any(den):
        den = (1,)
    return RatFunc(num, den)


def test_field_axioms_on_random_samples():
    rng = random.Random(42)
    for _ in range(200):
        a, b, c = (_random_ratfunc(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a
        if a:
            assert a * a.inverse() == ONE


def test_canonical_form_is_idempotent_and_unique():
    rng = random.Random(7)
    for _ in range(100):
        a = _random_ratfunc(rng)
        again = RatFunc(a.num, a.den)
        assert again.num == a.num and again.den == a.den
    # same value through different unreduced representations
    assert RatFunc((0, 2), (0, 0, 4)) == RatFunc(1, (0, 2))  # 2q/4q^2 == 1/2q
    assert RatFunc((2, 2), (2,)) == ONE + Q
    assert RatFunc((0, -1), (-1,)) == Q
    # denominator sign is normalised
    assert RatFunc((1,), (-1, 1)).den[-1] > 0


def test_qpow_is_a_homomorphism():
    rng = random.Random(5)
    for _ in range(100):
        s = rng.randint(-20, 20)
        t = rng.randint(-20, 20)
        assert qpow(s) * qpow(t) == qpow(s + t)
    assert qpow(0) == ONE


def test_integer_interop():
    assert Q + 1 == 1 + Q
    assert RatFunc(3) == 3
    assert hash(RatFunc(3)) == hash(3)
    assert 2 * Q - Q == Q
    assert (Q ** 2) / Q == Q
    assert Q ** 0 == 1


def test_integer_constructor_builds_the_canonical_form():
    for k in (0, 1, -1, 7, -7, 3 ** 80, -(2 ** 70), True):
        built = RatFunc(k)
        reference = RatFunc((k,), (1,))
        assert (built.n, built.d, built.e) == (reference.n, reference.d, reference.e), k
        assert hash(built) == hash(reference) == hash(k), k
        assert all(type(c) is int for c in built.n + built.d)
    # a bool becomes the integer 1
    assert RatFunc(True) == ONE
    assert (RatFunc(True).n, RatFunc(True).d, RatFunc(True).e) == (ONE.n, ONE.d, ONE.e)
    # a negative denominator moves its sign up; a float is refused
    assert RatFunc((0, 2), (0, -4)) == RatFunc(-1, 2)
    for bad in (1.5, (1.5,), (1, 2.0)):
        with pytest.raises(TypeError):
            RatFunc(bad)
    with pytest.raises(ZeroDivisionError):
        RatFunc((1,), (0, 0))


def test_unit_q_power_detection():
    assert qpow(3).as_signed_q_power() == (1, 3)
    assert qpow(-2).as_signed_q_power() == (1, -2)
    assert ONE.as_signed_q_power() == (1, 0)
    assert (-Q).as_signed_q_power() == (-1, 1)
    assert (-qpow(-2)).as_signed_q_power() == (-1, -2)
    assert (Q + 1).as_signed_q_power() is None
    assert (2 * Q).as_signed_q_power() is None
    assert (Q / 2).as_signed_q_power() is None


def test_reference_renderings():
    assert str(Q) == "q"
    assert str(qpow(-1)) == "q^-1"
    assert str(Q - qpow(-1)) == "(q^2-1)/q"
    assert str(ZERO) == "0"
    assert str(RatFunc(-5)) == "-5"
    assert str(ONE / (2 * Q)) == "1/(2*q)"


def test_render_parse_round_trip():
    rng = random.Random(11)
    samples = [ZERO, ONE, MINUS_ONE, Q, qpow(-1), qpow(-5), Q - qpow(-1),
               (ONE + Q) / (Q * Q - 1)] + [_random_ratfunc(rng) for _ in range(60)]
    for a in samples:
        assert parse_scalar(str(a)) == a


def test_signed_q_powers_power_by_exponent():
    # (±q^s)^k is (±1)^k q^(s k), with no k products
    assert (-Q) ** 4097 == -qpow(4097)
    assert (-Q) ** 4096 == qpow(4096)
    assert qpow(-3) ** -5 == qpow(15)
    assert qpow(7) ** 10**6 == qpow(7 * 10**6)
    assert MINUS_ONE ** -3 == MINUS_ONE
    assert ((Q + 1) ** 3) == (Q + 1) * (Q + 1) * (Q + 1)
    assert ((Q + 1) ** -2) * (Q + 1) ** 2 == ONE
