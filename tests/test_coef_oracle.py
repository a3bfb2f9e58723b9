"""Q(q) arithmetic against two oracles: the general gcd path and sympy.

Operands are Laurent elements n/q^a, whose sums and products skip the gcds
of RatFunc.__mul__/__add__, and general canonical fractions, which take the
gcd path.  Every sum, difference and product must equal, field for field, the
canonical form that RatFunc(num, den) builds from the unreduced fraction, and
must agree with sympy.cancel of the same expression.
"""

import pytest

pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from qcgl import coef  # noqa: E402
from qcgl.coef import RatFunc, _padd, _pfullgcd, _pmul, _pneg  # noqa: E402

QS = sympy.Symbol("q")

polys = st.lists(st.integers(-6, 6), max_size=5).map(tuple)
nonzero_polys = polys.filter(any)
# q^v * core / q^a, reduced: both exponents are drawn so that q often cancels
laurents = st.builds(lambda core, v, a: RatFunc((0,) * v + core, (0,) * a + (1,)),
                     polys, st.integers(0, 3), st.integers(0, 4))
generals = st.builds(RatFunc, polys, nonzero_polys)
operands = st.one_of(laurents, generals)

ORACLE = settings(max_examples=150, derandomize=True, database=None, deadline=None)


def _unreduced(a, b, op):
    """(num, den) of a op b before any cancellation."""
    if op == "*":
        return _pmul(a.num, b.num), _pmul(a.den, b.den)
    nb = b.num if op == "+" else _pneg(b.num)
    return _padd(_pmul(a.num, b.den), _pmul(nb, a.den)), _pmul(a.den, b.den)


def _sym(r):
    return sympy.Poly(r.num[::-1] or [0], QS).as_expr() / sympy.Poly(r.den[::-1], QS).as_expr()


def _q_power_exponent(den):
    """a when den is q^a, else None."""
    if den[-1] == 1 and not any(den[:-1]):
        return len(den) - 1
    return None


def _check(a, b, op):
    result = {"*": a * b, "+": a + b, "-": a - b}[op]
    reference = RatFunc(*_unreduced(a, b, op))
    assert (result.num, result.den) == (reference.num, reference.den)

    expected = sympy.cancel({"*": _sym(a) * _sym(b), "+": _sym(a) + _sym(b),
                             "-": _sym(a) - _sym(b)}[op])
    assert sympy.cancel(expected - _sym(result)) == 0
    # fully reduced: the denominator matches sympy's up to a constant factor
    _, den = sympy.fraction(expected)
    assert sympy.Poly(den, QS).monic() == sympy.Poly(result.den[::-1], QS).monic()

    a_exp = _q_power_exponent(result.den)
    if a_exp:
        assert result.num[0] != 0


@ORACLE
@given(operands, operands)
def test_product_matches_oracles(a, b):
    _check(a, b, "*")


@ORACLE
@given(operands, operands)
def test_sum_matches_oracles(a, b):
    _check(a, b, "+")


@ORACLE
@given(operands, operands)
def test_difference_matches_oracles(a, b):
    _check(a, b, "-")


@ORACLE
@given(laurents, laurents)
def test_laurent_operands_skip_the_gcds(a, b):
    def fail(*args):
        raise AssertionError("gcd path taken by Laurent operands")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(coef, "_pfullgcd", fail)
        for result in (a * b, a + b, a - b):
            assert _q_power_exponent(result.den) is not None


@ORACLE
@given(operands, st.integers(-6, 6), st.sampled_from((1, -1)))
def test_times_qpow_matches_the_product(c, k, sign):
    result = c.times_qpow(k, sign)
    reference = c * (coef.qpow(k) * sign)
    assert (result.num, result.den) == (reference.num, reference.den)


# Laurent operands n/q^e with e = 0, 1 and 2 (the denominator 1 included),
# against general partners whose numerators have valuation 0, 2 and 3, below,
# at and above e; the last partner's denominator q(1+q) also cancels against
# the Laurent numerator
LAURENT_CASES = (RatFunc((3, 1)), RatFunc((3, 1), (0, 0, 1)), RatFunc((0, 2, -1), (0, 0, 1)),
                 RatFunc((0, 0, 0, 1), (0, 0, 1)))
GENERAL_CASES = (RatFunc((1, 1), (1, 1, 1)), RatFunc((0, 0, 2), (1, 1)),
                 RatFunc((0, 0, 0, 4, 1), (-2, 0, 1)), RatFunc((0, 5), (0, 0, 1, 1)))


@pytest.mark.parametrize("laurent", LAURENT_CASES)
@pytest.mark.parametrize("general", GENERAL_CASES)
def test_laurent_times_general_matches_oracles(laurent, general):
    assert _q_power_exponent(laurent.den) is not None
    assert _q_power_exponent(general.den) is None
    _check(laurent, general, "*")
    _check(general, laurent, "*")


def _assert_canonical(r):
    """r is the triple q^e n/d: zero as ((), (1,), 0), else n and d with
    nonzero constant terms, coprime in Z[q], and d[-1] > 0."""
    if not r:
        assert (r.n, r.d, r.e) == ((), (1,), 0)
    else:
        assert r.n[0] != 0 and r.d[0] != 0 and r.d[-1] > 0
        assert _pfullgcd(r.n, r.d) == (1,)
    again = RatFunc(r.num, r.den)
    assert (again.n, again.d, again.e) == (r.n, r.d, r.e)
    assert hash(again) == hash(r)
    if r.d == (1,) and r.e == 0 and len(r.n) <= 1:
        value = r.n[0] if r.n else 0
        assert r == value and hash(r) == hash(value)


@ORACLE
@given(operands, operands, st.integers(-6, 6), st.sampled_from((1, -1)))
def test_every_result_is_canonical(a, b, k, sign):
    results = [a + b, a - b, a * b, a.times_qpow(k, sign), b - b, a * 0 + 3]
    if b:
        results += [a / b, b.inverse()]
    for r in results:
        _assert_canonical(r)


def test_a_laurent_product_that_divides_exactly_takes_no_gcd():
    # ((q^2-1)/q) * (q^2/(q^2-1)): the Laurent numerator q^2-1 is divisible
    # by the other denominator, so the product is q with no gcd
    def fail(*args):
        raise AssertionError("gcd taken for an exact division")

    a = RatFunc((-1, 0, 1), (0, 1))
    b = RatFunc((0, 0, 1), (-1, 0, 1))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(coef, "_pfullgcd", fail)
        assert a * b == coef.Q
        assert b * a == coef.Q
