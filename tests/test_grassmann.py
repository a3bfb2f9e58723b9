from math import comb

import pytest

from qcgl import verify
from qcgl.grassmann import extremal_normality_report, maximal_minors
from qcgl.ncalg import OreAlgebra


def test_maximal_minor_counts():
    assert len(maximal_minors(2, 4)[1]) == 6
    alg, minors = maximal_minors(1, 3)
    assert list(minors.values()) == [alg.x(1, j) for j in (1, 2, 3)]
    alg22, minors22 = maximal_minors(2, 2)
    assert list(minors22.values()) == [alg22.det()]


def test_maximal_minor_weights():
    alg, minors = maximal_minors(2, 4)
    for J, minor in minors.items():
        expected = (1, 1) + tuple(1 if j in J else 0 for j in range(1, 5))
        assert alg.torus_weight(minor) == expected


@pytest.mark.parametrize("shape", [(1, 2), (2, 2), (2, 3), (2, 4)])
def test_extremal_normality(shape):
    report = extremal_normality_report(*shape)
    assert report.ok, str(report)
    assert len(report.entries) == 2 * comb(shape[1], shape[0])


def test_extremal_normality_desk_scale_guard():
    with pytest.raises(ValueError):
        extremal_normality_report(3, 9)


def _adjacent(report, which, extreme):
    """Exponents of the extreme against the minors that differ from it in one column."""
    return [e for w, J, e in report.entries if w == which and len(set(J) - set(extreme)) == 1]


@pytest.mark.parametrize("shape", [(1, 2), (2, 3), (2, 4), (2, 5), (3, 5)])
def test_dehomogenisation_twist(shape):
    # conjugation by u = [1..m] scales each of its m(n-m) adjacent minors by
    # q, and by u = [n-m+1..n] by q^-1
    m, n = shape
    report = extremal_normality_report(m, n)
    assert report.ok and report.twist == (1, -1)
    left = _adjacent(report, "[1..m]", range(1, m + 1))
    right = _adjacent(report, "[n-m+1..n]", range(n - m + 1, n + 1))
    assert left == [1] * (m * (n - m)) and right == [-1] * (m * (n - m))


def test_square_twist_is_vacuous():
    report = extremal_normality_report(2, 2)
    assert report.ok and report.twist == (0, 0)
    assert _adjacent(report, "[1..m]", (1, 2)) == []


def test_a_split_twist_fails_the_report_and_criterion_8(monkeypatch):
    # shift the exponent of [1,2] against the adjacent [1,3] by one: every
    # exponent still exists, but the twist is no longer one power of q
    alg, minors = maximal_minors(2, 3)
    original = OreAlgebra.qcommute_exponent

    def shifted(self, a, b):
        e = original(self, a, b)
        return e + 1 if (a, b) == (minors[(1, 2)], minors[(1, 3)]) else e

    monkeypatch.setattr(OreAlgebra, "qcommute_exponent", shifted)
    report = extremal_normality_report(2, 3)
    assert all(e is not None for _, _, e in report.entries)
    assert report.twist == (None, -1) and not report.ok
    assert not verify.check_grassmann(((2, 3),)).ok
