"""Computational layer for the quantum grassmannian inside the matrix algebra.

Its generators are the m x m maximal minors [1..m|J] of the m x n quantum
matrix algebra.  Normality of the two extreme minors is certified by
q-commutation against the whole generating set.  Dehomogenisation at an
extreme minor u sends the generators of O_q(M_{m,n-m}) to [J]u^-1 for the
m(n-m) minors [J] adjacent to u (one column differs), so conjugation by u is
the twist sigma of O_q(M_{m,n-m})[y^+-1; sigma] exactly when u q-commutes with
all of them by one power of q.
"""

from __future__ import annotations

from itertools import combinations
from math import comb

from .presets import load_algebra


class ExtremalNormalityReport:
    def __init__(self, m, n, entries, twist):
        self.m = m
        self.n = n
        self.entries = entries  # (which, J, exponent or None)
        self.twist = twist      # per extreme: common exponent on its adjacent minors, or None

    @property
    def ok(self):
        return (all(e is not None for _, _, e in self.entries)
                and all(s is not None for s in self.twist))


def maximal_minors(m, n, resolve=load_algebra):
    """(algebra, {J: minor}) for the m x m minors [1..m|J] of the m x n
    algebra, which resolve builds from its token qmat:m,n."""
    if m > n:
        raise ValueError("needs m <= n")
    alg = resolve("qmat:%d,%d" % (m, n))
    rows = tuple(range(1, m + 1))
    return alg, {J: alg.minor(rows, J) for J in combinations(range(1, n + 1), m)}


def _common(exps):
    """The one value of exps, 0 when there is none, None when they differ."""
    values = set(exps)
    if len(values) > 1:
        return None
    return values.pop() if values else 0


def extremal_normality_report(m, n, resolve=load_algebra):
    """q-commutation of the two extreme minors against every maximal minor,
    and the twist each one induces on its adjacent minors."""
    if comb(n, m) > 20:
        raise ValueError("more than 20 maximal minors; out of desk scale")
    alg, minors = maximal_minors(m, n, resolve)
    extremes = (("[1..m]", tuple(range(1, m + 1))),
                ("[n-m+1..n]", tuple(range(n - m + 1, n + 1))))
    entries = [(which, J, alg.qcommute_exponent(minors[u], minor))
               for J, minor in sorted(minors.items()) for which, u in extremes]
    twist = tuple(_common(e for w, J, e in entries if w == which and len(set(J) - set(u)) == 1)
                  for which, u in extremes)
    return ExtremalNormalityReport(m, n, entries, twist)
