import io
import random
import sys
import tracemalloc
from contextlib import redirect_stdout

import pytest

from qcgl import delderiv
from qcgl.cli import main
from qcgl.coef import ONE, Q, ZERO, q_factorial, qpow
from qcgl.delderiv import (LaurentElem, _binomials, format_laurent, laurent_mul, theta,
                           theta_alt)
from qcgl.ncalg import NILPOTENCE_BOUND, NcPoly, NilpotenceBoundExceeded, OreAlgebra
from qcgl.presets import load_preset
from qcgl.qmat import oqm
from qcgl.verify import mutated_specs
from sampling import random_poly

ALG = oqm(2, 2)
X = LaurentElem.x_power(1)
XINV = LaurentElem.x_power(-1)


def test_xinv_past_a_generator():
    # sigma^-1(x12) = q x12 and delta(x12) = 0, so X^-1 x12 = q x12 X^-1
    lhs = laurent_mul(ALG, XINV, LaurentElem.from_poly(ALG.x(1, 2)))
    assert lhs == LaurentElem.from_poly(ALG.x(1, 2).scaled(Q), -1)


def test_x_times_x_inverse():
    assert laurent_mul(ALG, X, XINV) == LaurentElem.x_power(0)
    assert laurent_mul(ALG, XINV, X) == LaurentElem.x_power(0)


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
    assert theta(ALG, NcPoly.scalar(ONE)) == LaurentElem.x_power(0)
    assert theta(ALG, NcPoly.zero()).is_zero()


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
            t = alg.apply_sigma(alg.N, t, -1)
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


def _weyl():
    """The quantum Weyl algebra g_2 g_1 = q g_1 g_2 + 1, with q_2 = q^-1."""
    return OreAlgebra(("g_1", "g_2"), {(2, 1): Q}, {(2, 1): NcPoly({(): ONE})},
                      {2: qpow(-1)}, 1, [(1,), (-1,)], [(Q,), (Q,)])


def test_theta_matches_its_literal_definition_across_top_constants():
    # q_N is q^-1 on the Weyl algebra and q^-2 on oqm(2,3); both share words
    # such as (1,) and (1, 1), so a level factor or a delta chain that leaked
    # from one algebra to the other would give the wrong terms
    weyl = _weyl()
    assert weyl.check_cgl_axioms().ok
    rng = random.Random(6)
    for alg in (weyl, oqm(2, 3), weyl):
        for _ in range(10):
            a = random_poly(alg, rng, max_degree=3, max_level=alg.N - 1)
            terms = _literal_theta_terms(alg, a)
            assert theta(alg, a) == LaurentElem({-n: t for n, t in enumerate(terms)})
    assert len(weyl._theta_factors) > 2


def _outcome(call, alg):
    """call(alg), or ("raised", bound) for the NilpotenceBoundExceeded it raised."""
    try:
        return call(alg)
    except NilpotenceBoundExceeded as exc:
        return ("raised", exc.bound)


def _bounded_calls(p, bound):
    return (lambda alg: theta(alg, p, bound=bound),
            lambda alg: laurent_mul(alg, XINV, LaurentElem.from_poly(p), bound=bound),
            lambda alg: laurent_mul(alg, LaurentElem.x_power(-2), LaurentElem.from_poly(p),
                                    bound=bound))


def test_theta_stores_give_the_cold_values_warm():
    alg = oqm(2, 3)
    rng = random.Random(7)
    sample = [random_poly(alg, rng, max_degree=3, max_level=alg.N - 1) for _ in range(15)]
    cold = [theta(alg, a) for a in sample]
    assert alg._delta_chains and len(alg._theta_factors) > 1
    assert [theta(alg, a) for a in sample] == cold
    fresh = [theta(oqm(2, 3), a) for a in sample]
    assert fresh == cold


def test_warm_stores_keep_the_bound_verdicts():
    for make in (lambda: oqm(2, 2), lambda: oqm(2, 3), _weyl):
        alg = make()
        x1 = alg.gen(1)
        rng = random.Random(8)
        elems = [x1, alg.multiply(x1, x1), alg.multiply(alg.multiply(x1, x1), x1)]
        elems += [random_poly(alg, rng, max_degree=3, max_level=alg.N - 1) for _ in range(3)]
        warm = make()
        for p in elems:
            for call in _bounded_calls(p, NILPOTENCE_BOUND):
                call(warm)
        seen = set()
        for p in elems:
            for bound in range(4):
                cold = [_outcome(call, make()) for call in _bounded_calls(p, bound)]
                assert [_outcome(call, warm) for call in _bounded_calls(p, bound)] == cold
                seen.update(("raised", bound) == c for c in cold)
        assert seen == {True, False}
    # X^-1 past x[1,1]^2 needs more than one level, also once a default-bound
    # call has filled the chain store
    alg = oqm(2, 2)
    sq = LaurentElem.from_poly(alg.multiply(alg.x(1, 1), alg.x(1, 1)))
    laurent_mul(alg, XINV, sq)
    with pytest.raises(NilpotenceBoundExceeded):
        laurent_mul(alg, XINV, sq, bound=1)


def test_theta_alt_reads_no_theta_store():
    alg = oqm(2, 3)
    rng = random.Random(9)
    sample = [random_poly(alg, rng, max_degree=3, max_level=alg.N - 1) for _ in range(15)]
    expected = [theta(alg, a) for a in sample]
    for w, chain in alg._delta_chains.items():
        alg._delta_chains[w] = chain[:1] + [d.scaled(Q) for d in chain[1:]]
    alg._theta_factors[1:] = [f * 3 for f in alg._theta_factors[1:]]
    assert [theta(alg, a) for a in sample] != expected
    assert [theta_alt(alg, a) for a in sample] == expected
    # and the other way round: theta_alt reads its own factor store, which
    # theta does not read
    alg = oqm(2, 3)
    assert [theta_alt(alg, a) for a in sample] == expected
    assert len(alg._alt_factors) > 1
    alg._alt_factors[1:] = [f * 3 for f in alg._alt_factors[1:]]
    assert [theta_alt(alg, a) for a in sample] != expected
    assert [theta(alg, a) for a in sample] == expected


def test_nilpotence_errors_carry_bound_and_element():
    a = ALG.multiply(ALG.x(1, 1), ALG.x(1, 1))
    for f in (theta, theta_alt):
        with pytest.raises(NilpotenceBoundExceeded, match="bound 1") as info:
            f(ALG, a, bound=1)
        assert (info.value.bound, info.value.element) == (1, a)
    with pytest.raises(NilpotenceBoundExceeded, match="bound 1") as info:
        laurent_mul(ALG, XINV, LaurentElem.from_poly(a), bound=1)
    assert (info.value.bound, info.value.element) == (1, a)
    nonnil = OreAlgebra(("g_1", "g_2"), {(2, 1): Q},
                        {(2, 1): NcPoly({(1,): ONE})}, {2: Q}, 2,
                        [(1, 0), (0, 1)], [(Q, ONE), (Q, Q)])
    with pytest.raises(NilpotenceBoundExceeded, match="bound 5") as info:
        nonnil.delta_powers(2, nonnil.gen(1), 5, "delta_2")
    assert (info.value.bound, info.value.element) == (5, nonnil.gen(1))


def test_laurent_cancellation_leaves_no_stored_zeros():
    u = theta(ALG, ALG.x(1, 1))
    assert (u - u).terms == {}
    # X x12 = q^-1 x12 X, so the x12*X terms of (X - q^-1 x12)(x12 + X) cancel
    x12 = LaurentElem.from_poly(ALG.x(1, 2))
    product = laurent_mul(ALG, X - x12.scaled(qpow(-1)), x12 + X)
    square = ALG.multiply(ALG.x(1, 2), ALG.x(1, 2))
    assert product == LaurentElem({2: NcPoly.scalar(ONE), 0: square.scaled(-qpow(-1))})


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


def test_xinv_commutation_depth_is_bounded_not_recursive():
    # at a bound far past the interpreter's recursion limit, a non-nilpotent
    # d still ends in the bound's own error
    nonnil = next(alg for name, alg, _ in mutated_specs() if name == "non-nilpotent-derivation")
    g1 = nonnil.gen(1)
    with pytest.raises(NilpotenceBoundExceeded) as info:
        laurent_mul(nonnil, XINV, LaurentElem.from_poly(g1), bound=5000)
    assert (info.value.bound, info.value.element) == (5000, g1)


def test_theta_bound_verdict_builds_no_level_factor():
    # in both expansions the depth is found before any level factor
    # ((1-q)^n [n]!)^-1 is built, so a verdict at a large bound costs only
    # the level sums
    nonnil = next(alg for name, alg, _ in mutated_specs() if name == "non-nilpotent-derivation")
    g1 = nonnil.gen(1)
    for f in (theta, theta_alt):
        with pytest.raises(NilpotenceBoundExceeded, match="theta did not terminate") as info:
            f(nonnil, g1, bound=5000)
        assert (info.value.bound, info.value.element) == (5000, g1)
    assert len(nonnil._theta_factors) == 1
    assert len(nonnil._alt_factors) == 1


def test_binomials_match_closed_forms():
    # [m 0] = 1; for m >= 0, [m m] = 1 and [m n] = 0 past it; and
    # [-1 n] = (-1)^n q^(-n(n+1)/2).  A shorter row is a prefix of a longer one.
    for q in (Q, qpow(-2), Q + 1):
        for m in range(-3, 5):
            row = _binomials(q, m, 7)
            assert row[0] == ONE
            if m >= 0:
                assert row[m:] == [ONE] + [ZERO] * (6 - m), (q, m)
            for k in range(1, 7):
                assert _binomials(q, m, k) == row[:k], (q, m, k)
        assert _binomials(q, -1, 7) == [q ** -(n * (n + 1) // 2) * (-1) ** n
                                        for n in range(7)], q


def test_delderiv_stores_take_nothing_past_their_bound(monkeypatch):
    # a full _delta_chains takes no new chain; a chain it leaves out is built
    # for the call alone, so the values stay
    rng = random.Random(21)
    sample = [random_poly(oqm(2, 3), rng, max_degree=3, max_level=5) for _ in range(8)]
    powers = [LaurentElem.x_power(k) for k in range(-3, 4)]

    def values(alg):
        return ([theta(alg, a) for a in sample], [theta_alt(alg, a) for a in sample],
                [laurent_mul(alg, x, LaurentElem.from_poly(a)) for x in powers
                 for a in sample[:3]])

    free = oqm(2, 3)
    expected = values(free)
    assert len(free._delta_chains) > 2
    monkeypatch.setattr(delderiv, "STORE_BOUND", 2)
    bounded = oqm(2, 3)
    for _ in range(2):
        assert values(bounded) == expected
        assert len(bounded._delta_chains) == 2


def test_x_power_binomial_work_is_linear_in_the_exponent():
    # `nf "X^k"` is k Laurent products X^i * X, each asking _binomials for
    # [i 0] = 1 alone; lines run inside _binomials stay within a fixed number
    # per product, where a walk of |i| Pascal rows made X^4096 quadratic
    for exponent in (1024, 4096):
        budget = 4 * exponent
        lines = 0

        def count_lines(frame, event, arg):
            nonlocal lines
            if event == "line":
                lines += 1
                if lines > budget:
                    raise AssertionError("_binomials ran past %d lines" % budget)
            return count_lines

        def on_call(frame, event, arg):
            return count_lines if frame.f_code is _binomials.__code__ else None

        out = io.StringIO()
        sys.settrace(on_call)
        try:
            with redirect_stdout(out):
                rc = main(["nf", "X^%d" % exponent])
        finally:
            sys.settrace(None)
        assert rc == 0 and out.getvalue() == "X^%d\n" % exponent
        assert exponent <= lines <= budget


def test_bound_verdict_memory_is_flat_in_the_bound():
    # level n of the non-nilpotent spec is g_1 times q^-n (theta) or
    # q^-(n+1) (X^-1); a power of q is one exponent, so each kept level is
    # O(1) and a verdict at bound 5000 stays far under a dense-tuple
    # coefficient's quadratic growth (about 100 MB)
    nonnil = next(alg for name, alg, _ in mutated_specs() if name == "non-nilpotent-derivation")
    g1 = nonnil.gen(1)
    for call in (lambda: theta(nonnil, g1, bound=5000),
                 lambda: laurent_mul(nonnil, XINV, LaurentElem.from_poly(g1), bound=5000)):
        tracemalloc.start()
        try:
            with pytest.raises(NilpotenceBoundExceeded):
                call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


def _walk_xinv(alg, c, bound):
    """X^-1 c as the literal sum of (-1)^n s^-1(T^n c) X^-(n+1), T = d s^-1,
    raising once more than bound chain elements T^n c are nonzero."""
    out, t, n = {}, c, 0
    while t:
        if n == bound:
            raise NilpotenceBoundExceeded("walk", bound, c)
        s = alg.apply_sigma(alg.N, t, -1)
        out[-(n + 1)] = s.scaled((-1) ** n)
        t, n = alg.apply_delta(alg.N, s), n + 1
    return LaurentElem(out)


def _walk_x_power(alg, m, p, bound):
    """X^m p one X^+-1 at a time: X c = s(c) X + d(c), and X^-1 c by the walk."""
    u = LaurentElem.from_poly(p)
    for _ in range(abs(m)):
        v = LaurentElem.zero()
        for k, c in u.items():
            if m > 0:
                step = (LaurentElem.from_poly(alg.apply_sigma(alg.N, c), 1)
                        + LaurentElem.from_poly(alg.apply_delta(alg.N, c)))
            else:
                step = _walk_xinv(alg, c, bound)
            v = v + LaurentElem({e + k: w for e, w in step.items()})
        u = v
    return u


def _raised_or_value(call):
    try:
        return call()
    except NilpotenceBoundExceeded as exc:
        return ("raised", exc.bound, exc.element)


def test_x_powers_match_the_literal_walk():
    # X^m p is one level sum with the Gaussian binomials [m n]_{q_N}; the
    # literal walks above are its oracle, in value and in bound verdict
    rng = random.Random(10)
    seen = set()
    for alg in (oqm(2, 2), oqm(2, 3), load_preset("uq-sl3-plus"), _weyl()):
        x1 = alg.gen(1)
        sample = [x1, alg.multiply(x1, x1)]
        sample += [random_poly(alg, rng, max_degree=3, max_level=alg.N - 1) for _ in range(3)]
        for p in filter(None, sample):
            for m in range(-3, 4):
                for bound in (0, 1, 2, 3, NILPOTENCE_BOUND):
                    got = _raised_or_value(lambda: laurent_mul(
                        alg, LaurentElem.x_power(m), LaurentElem.from_poly(p), bound=bound))
                    assert got == _raised_or_value(lambda: _walk_x_power(alg, m, p, bound))
                    seen.add(isinstance(got, tuple))
    assert seen == {True, False}


def test_min_shift_matches_nilpotency_index():
    # the minimal shift s >= 0 with theta(a) X^s free of negative exponents
    # is the nilpotency index of d_N on a
    assert -min(theta(ALG, ALG.x(1, 1)).terms) == 1
    assert -min(theta(ALG, ALG.x(2, 1)).terms) == 0
    sq = ALG.multiply(ALG.x(1, 1), ALG.x(1, 1))
    assert -min(theta(ALG, sq).terms) == 2
    rng = random.Random(4)
    for _ in range(30):
        a = random_poly(ALG, rng, max_level=3)
        if a.is_zero():
            continue
        powers = ALG.delta_powers(4, a, NILPOTENCE_BOUND, "delta_4")
        assert -min(theta(ALG, a).terms) == len(powers) - 1


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


def test_dropping_the_top_derivation_leaves_a_cgl_algebra():
    # the pure skew extension B[X; alpha] behind the embedding
    plain = OreAlgebra(ALG.names, ALG.lam, {k: v for k, v in ALG.delta.items() if k[0] != ALG.N},
                       ALG.level_q, ALG.torus_rank, ALG.weights, ALG.h_elems)
    assert all(j != ALG.N for j, _ in plain.delta)
    assert plain.lam == ALG.lam
    assert plain.check_cgl_axioms().ok
    assert not plain.spec_equals(ALG)
    # the old correction pair now plainly commutes
    assert plain.qcommute_exponent(plain.gen(1), plain.gen(4)) == 0


def test_format_laurent():
    img = theta(ALG, ALG.x(1, 1))
    assert format_laurent(ALG.names, img) == "x[1,1] - q*x[1,2]*x[2,1]*X^-1"
    assert format_laurent(ALG.names, LaurentElem.zero()) == "0"
    assert format_laurent(ALG.names, LaurentElem.x_power(2)) == "X^2"
    assert format_laurent(ALG.names, LaurentElem.x_power(1)) == "X"
