"""Answer checks for every benchmark job; none of them calls qcgl.

``check(job, rc, stdout, golden, validator)`` returns None for a correct
answer and otherwise a one-line reason.  Cauchon answers are checked against
the poly-Bernoulli closed form and the definition of a Cauchon diagram, the
minors answers against the exponent tables frozen in ``golden_minors.json``.
"""

from __future__ import annotations

import json
from math import factorial
from pathlib import Path

GOLDEN_PATH = Path(__file__).resolve().parent / "golden_minors.json"

PAPER_CHECKS = (
    "1-height-one-hprime-generators",
    "2-quantum-determinant-central",
    "3-cauchon-diagram-counts",
    "4-theta-is-a-homomorphism",
    "5-theta-expansions-agree",
    "6-cgl-axiom-checker",
    "7-rewriting-soundness",
    "8-grassmannian-extremal-normality",
    "9-torsionfree-verdicts",
)


def job_key(job):
    return " ".join(job.argv)


def load_golden():
    with open(GOLDEN_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


def stirling2(n, k):
    """Stirling number of the second kind S(n, k)."""
    row = [1] + [0] * k          # S(0, j)
    for i in range(1, n + 1):
        new = [0] * (k + 1)
        for j in range(1, min(i, k) + 1):
            new[j] = j * row[j] + row[j - 1]
        row = new
    return row[k]


def cauchon_count(m, n):
    """Number of m x n Cauchon diagrams: the poly-Bernoulli number
    sum_j (j!)^2 S(m+1, j+1) S(n+1, j+1)."""
    return sum(factorial(j) ** 2 * stirling2(m + 1, j + 1) * stirling2(n + 1, j + 1)
               for j in range(min(m, n) + 1))


def _is_cauchon(m, n, cells):
    for r, c in cells:
        if not (1 <= r <= m and 1 <= c <= n):
            return False
        if not (all((r, k) in cells for k in range(1, c))
                or all((k, c) in cells for k in range(1, r))):
            return False
    return True


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


def _check_paper(job, result, golden):
    names = tuple(c["name"] for c in result["checks"])
    if names != PAPER_CHECKS:
        return "checks %s, expected the nine criteria" % (names,)
    failed = [c["name"] for c in result["checks"] if not c["ok"]]
    if failed or not result["ok"]:
        return "failing checks: %s" % ", ".join(failed)
    return None


def _check_normal(job, result, golden):
    if not result["normal"]:
        return "not normal"
    exps = result["exponents"]
    if not all(_is_int(e) for e in exps):
        return "non-integer exponent in %r" % (exps,)
    if job.kind == "det" and any(exps):
        return "det_q is not central: %r" % (exps,)
    want = golden.get(job_key(job))
    if want is None:
        return "no golden table"
    if result["names"] != want["names"] or exps != want["exponents"]:
        return "exponents %r differ from golden %r" % (exps, want["exponents"])
    return None


def _check_extremal(job, result, golden):
    s = result["exponent"]
    if not _is_int(s):
        return "exponent %r is not an integer" % (s,)
    want = golden.get(job_key(job))
    if want is None:
        return "no golden table"
    if s != want["exponent"]:
        return "exponent %d differs from golden %d" % (s, want["exponent"])
    return None


def _check_cauchon(job, result, golden):
    m, n = job.params
    if (result["m"], result["n"]) != (m, n):
        return "shape %r" % ((result["m"], result["n"]),)
    expected = cauchon_count(m, n)
    if job.kind == "count":
        if result.get("count") != expected:
            return "count %r != %d" % (result.get("count"), expected)
        return None
    if job.kind == "histogram":
        hist = result.get("histogram")
        if not hist:
            return "no histogram"
        if sum(hist.values()) != expected:
            return "histogram sums to %d, not %d" % (sum(hist.values()), expected)
        for height, want in ((0, 1), (1, m + n - 1), (m * n, 1)):
            if hist.get(str(height)) != want:
                return "height %d: %r diagrams, expected %d" % (height, hist.get(str(height)), want)
        if any(not 0 <= int(k) <= m * n for k in hist):
            return "height outside 0..%d" % (m * n)
        return None
    diagrams = result.get("diagrams")
    if diagrams is None or len(diagrams) != expected:
        return "%s diagrams listed, expected %d" % (
            "no" if diagrams is None else len(diagrams), expected)
    seen = set()
    for cells in diagrams:
        black = frozenset(tuple(cell) for cell in cells)
        if len(black) != len(cells) or not _is_cauchon(m, n, black):
            return "invalid diagram %r" % (cells,)
        seen.add(black)
    if len(seen) != len(diagrams):
        return "a diagram is listed twice"
    return None


_CHECKERS = {
    "paper": _check_paper,
    "det": _check_normal,
    "height-one": _check_normal,
    "extremal": _check_extremal,
    "count": _check_cauchon,
    "histogram": _check_cauchon,
    "list": _check_cauchon,
}


def check(job, rc, stdout, golden, validator):
    """None if the job's output is a correct answer, else the reason."""
    if rc != 0:
        return "exit code %r" % (rc,)
    try:
        doc = json.loads(stdout)
    except ValueError:
        return "stdout is not JSON"
    errors = list(validator.iter_errors(doc))
    if errors:
        return "schema: %s" % errors[0].message
    if doc["command"] != job.argv[0] or not doc["ok"]:
        return "envelope command %r ok %r" % (doc["command"], doc["ok"])
    return _CHECKERS[job.kind](job, doc["result"], golden)
