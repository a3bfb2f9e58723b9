"""Seeded random words and elements for the property tests."""

from qcgl.coef import RatFunc
from qcgl.ncalg import NcPoly


def random_word(alg, rng, max_len=3, max_level=None):
    top = max_level if max_level is not None else alg.N
    length = rng.randint(0, max_len)
    return tuple(rng.randint(1, top) for _ in range(length))


def random_poly(alg, rng, max_degree=3, max_terms=3, max_level=None):
    """Random element: a few random (unsorted) words with small coefficients,
    normalised.  May be zero after cancellation."""
    out = {}
    for _ in range(rng.randint(1, max_terms)):
        c = RatFunc(rng.choice((1, 1, 2, -1, 3))).times_qpow(rng.randint(-2, 2))
        w = random_word(alg, rng, max_len=max_degree, max_level=max_level)
        alg._straighten(out, w, c)
    return NcPoly(out)
