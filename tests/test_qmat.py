import random
from itertools import permutations

import pytest

from qcgl.coef import MINUS_ONE, ONE, Q, qpow
from qcgl.ncalg import NcPoly
from qcgl.qmat import oqm
from sampling import random_poly

ALG22 = oqm(2, 2)
ALG23 = oqm(2, 3)
CORR = Q - qpow(-1)


def test_oqm_tables():
    # level x[2,2] (index 4): eigenvalue on x[1,2] and correction on x[1,1]
    assert ALG22.lam[(4, 2)] == qpow(-1)
    assert ALG22.delta[(4, 1)] == NcPoly({(2, 3): -CORR})
    assert (4, 2) not in ALG22.delta
    assert ALG22.lam[(4, 1)] == ONE
    assert ALG22.lam[(3, 1)] == qpow(-1)  # same column
    assert ALG22.lam[(3, 2)] == ONE       # antidiagonal pair commutes


def test_oqm_1x1():
    alg = oqm(1, 1)
    assert alg.N == 1
    assert not alg.lam and not alg.delta
    assert alg.check_cgl_axioms().ok


def test_oqm_axioms_2x3():
    assert ALG23.check_cgl_axioms().ok


def test_minor_2x2():
    det = ALG22.minor((1, 2), (1, 2))
    assert det == NcPoly({(1, 4): ONE, (2, 3): -Q})
    assert det == ALG22.det()
    assert ALG22.minor((1,), (2,)) == ALG22.x(1, 2)


def test_minor_s3_against_permutation_oracle():
    alg = oqm(3, 3)
    det = alg.det()
    assert len(det.terms) == 6
    # oracle: inversion count computed independently per permutation
    for perm in permutations((1, 2, 3)):
        word = tuple(alg.gen_index(i + 1, perm[i] - 1 + 1) for i in range(3))
        inversions = sum(1 for a in range(3) for b in range(a + 1, 3)
                         if perm[a] > perm[b])
        assert det.terms[word] == (MINUS_ONE * Q) ** inversions


def test_b_and_c_minors():
    assert ALG22.b_minor(1) == ALG22.x(1, 2)
    assert ALG22.c_minor(1) == ALG22.x(2, 1)
    assert ALG23.b_minor(3) == ALG23.minor((1, 2), (1, 2))
    assert ALG23.c_minor(2) == ALG23.b_minor(3)  # c_m == b_n
    assert ALG22.c_minor(2) == ALG22.b_minor(2) == ALG22.det()
    with pytest.raises(ValueError):
        ALG23.b_minor(4)
    with pytest.raises(ValueError):
        ALG23.c_minor(3)


def test_minor_index_validation():
    with pytest.raises(ValueError, match="strictly increasing"):
        ALG22.minor((1, 1), (1, 2))
    with pytest.raises(ValueError, match="strictly increasing"):
        ALG22.minor((1, 2), (2, 1))
    with pytest.raises(ValueError, match="equally many"):
        ALG22.minor((1,), (1, 2))
    with pytest.raises(ValueError, match="at least one"):
        ALG22.minor((), ())
    with pytest.raises(ValueError, match=r"minor \[1,3\|1,2\] does not fit the 2x2 grid"):
        ALG22.minor((1, 3), (1, 2))
    assert ALG22.minor([1, 2], iter((1, 2))) == ALG22.det()


def test_transpose():
    assert ALG23.transpose_poly(ALG23.x(1, 2)) == ALG23.transposed().x(2, 1)
    det = ALG22.det()
    assert ALG22.transpose_poly(det) == ALG22.transposed().det()
    rng = random.Random(1)
    for _ in range(25):
        a = random_poly(ALG23, rng)
        back = ALG23.transposed().transpose_poly(ALG23.transpose_poly(a))
        assert back == a


def test_transpose_is_an_algebra_map():
    rng = random.Random(2)
    t = ALG23.transposed()
    for _ in range(25):
        a = random_poly(ALG23, rng, max_terms=2)
        b = random_poly(ALG23, rng, max_terms=2)
        lhs = ALG23.transpose_poly(ALG23.multiply(a, b))
        rhs = t.multiply(ALG23.transpose_poly(a), ALG23.transpose_poly(b))
        assert lhs == rhs


def test_height_one_generators():
    gens = ALG22.height_one_hprime_generators()
    assert gens == [ALG22.x(1, 2), ALG22.det(), ALG22.x(2, 1)]
    assert oqm(1, 1).height_one_hprime_generators() == [oqm(1, 1).gen(1)]
    assert len(ALG23.height_one_hprime_generators()) == 4
    with pytest.raises(ValueError):
        oqm(3, 2).height_one_hprime_generators()


@pytest.mark.parametrize("shape", [(1, 2), (2, 2), (2, 3), (3, 3)])
def test_bc_minors_are_normal_eigenvectors(shape):
    alg = oqm(*shape)
    minors = [alg.b_minor(i) for i in range(1, alg.n + 1)]
    minors += [alg.c_minor(i) for i in range(1, alg.m + 1)]
    for g in minors:
        assert alg.is_normal(g).ok
        assert alg.torus_weight(g) is not None


def test_det_central():
    for n in (2, 3):
        alg = oqm(n, n)
        det = alg.det()
        for i in range(1, alg.N + 1):
            assert alg.qcommute_exponent(det, alg.gen(i)) == 0


def test_laplace_consistency_via_subalgebra_embedding():
    # a minor equals the determinant of the corresponding subalgebra,
    # re-embedded along the index map of the sub-grid
    big = oqm(3, 4)
    for rows, cols in [((1, 2), (2, 4)), ((1, 3), (1, 2)), ((2, 3), (3, 4)),
                       ((1, 2, 3), (1, 2, 4))]:
        t = len(rows)
        sub = oqm(t, t)
        det = sub.det()
        embedded = NcPoly.zero()
        for w, c in det.terms.items():
            image = []
            for g in w:
                a, b = divmod(g - 1, t)
                image.append(big.gen_index(rows[a], cols[b]))
            embedded = embedded + big.normal_form_word(tuple(image)).scaled(c)
        assert embedded == big.minor(rows, cols)


def _project(a, dst):
    """Row projection x[i,j] -> x[i,j] for i <= dst.m, else 0, from an algebra
    with dst's column count: generator indices carry over on the kept rows."""
    cutoff = dst.m * dst.n
    return NcPoly({w: c for w, c in a.terms.items() if all(g <= cutoff for g in w)})


def test_projection_respects_multiplication():
    src = oqm(3, 3)
    dst = oqm(2, 3)
    rng = random.Random(3)
    for _ in range(30):
        a = random_poly(src, rng, max_terms=2)
        b = random_poly(src, rng, max_terms=2)
        lhs = _project(src.multiply(a, b), dst)
        rhs = dst.multiply(_project(a, dst), _project(b, dst))
        assert lhs == rhs
