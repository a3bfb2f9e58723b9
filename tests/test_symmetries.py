"""Certified (anti-)automorphisms and normality per orbit: index reversal on
every algebra, and on square quantum matrices also T and rho T.

is_normal checks one generator per orbit of the certified maps that fix its
argument and fills in the rest by rule; every table here is compared with
the full check, qcommute_exponent against each generator.
"""

import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from qcgl import verify
from qcgl.cli import main
from qcgl.coef import Q
from qcgl.expr import evaluate
from qcgl.ncalg import NormalityReport, OreAlgebra, StepBudgetExceeded
from qcgl.presets import load_preset
from qcgl.qmat import oqm

GOLDEN_MINORS = Path(__file__).resolve().parent.parent / "perfbench" / "golden_minors.json"


def full_check(alg, a):
    return tuple(alg.qcommute_exponent(a, alg.gen(i)) for i in range(1, alg.N + 1))


def counting_calls(monkeypatch):
    calls = []
    original = OreAlgebra.qcommute_exponent

    def counted(self, a, b):
        calls.append(b)
        return original(self, a, b)

    monkeypatch.setattr(OreAlgebra, "qcommute_exponent", counted)
    return calls


def test_quantum_matrix_symmetries_are_certified():
    for m, n in ((1, 1), (1, 3), (2, 2), (2, 3), (3, 2), (3, 3), (4, 5), (5, 5)):
        alg = oqm(m, n)
        maps = alg.symmetries()
        assert [anti for _, anti in maps] == ([True, False, True] if m == n else [True])
        for table, anti in maps:
            assert alg.respects_relations(table, anti), (m, n, table)


def test_rho_is_index_reversal_on_every_grid():
    for m in range(1, 5):
        for n in range(1, 6):
            alg = oqm(m, n)
            rho = tuple(alg.gen_index(m + 1 - i, n + 1 - j)
                        for i in range(1, m + 1) for j in range(1, n + 1))
            assert alg.symmetries()[0] == (rho, True) == (tuple(range(m * n, 0, -1)), True)


def test_index_reversal_is_certified_on_the_presets():
    for name in ("qplane", "uq-sl3-plus"):
        alg = load_preset(name)
        ((table, anti),) = alg.symmetries()
        assert anti and table == tuple(range(alg.N, 0, -1))
        assert alg.respects_relations(table, True), name
        assert not alg.respects_relations(table, False), name


# elements of the presets: index reversal fixes all but g_1, whose image is g_3
PRESET_ELEMENTS = [("uq-sl3-plus", "g_2"), ("uq-sl3-plus", "g_1*g_3"),
                   ("uq-sl3-plus", "(1-q^2)*g_1*g_3+q^2*g_2"), ("uq-sl3-plus", "g_1+g_3"),
                   ("qplane", "g_1*g_2"), ("uq-sl3-plus", "g_1")]


@pytest.mark.parametrize("name, text", PRESET_ELEMENTS)
def test_preset_orbit_route_matches_the_full_check(monkeypatch, name, text):
    alg = load_preset(name)
    a = evaluate(alg, text)
    want = full_check(alg, a)
    (table, anti), = alg.symmetries()
    calls = counting_calls(monkeypatch)
    assert alg.is_normal(a).exponents == want
    # a fixed element checks one generator per orbit: {1, N}, {2} on uq-sl3-plus
    fixed = alg.image(table, anti, a) == a
    assert fixed == (text != "g_1")
    assert len(calls) == ((alg.N + 1) // 2 if fixed else alg.N)


@pytest.mark.parametrize("name, text", PRESET_ELEMENTS)
def test_preset_orbit_route_stops_where_the_full_check_stops(name, text):
    for budget in range(8):
        alg = load_preset(name)
        a = evaluate(alg, text)
        alg.steps_budget = budget
        try:
            want = full_check(alg, a)
        except StepBudgetExceeded as exc:
            with pytest.raises(StepBudgetExceeded) as got:
                alg.is_normal(a)
            assert str(got.value) == str(exc), (budget, text)
        else:
            assert alg.is_normal(a).exponents == want, (budget, text)


@pytest.mark.parametrize("m, n", [(2, 2), (3, 3), (4, 4), (5, 5),
                                  (2, 3), (3, 2), (3, 5), (4, 5)])
def test_orbit_route_matches_the_full_check(m, n):
    alg = oqm(m, n)
    elements = [alg.b_minor(i) for i in range(1, n + 1)]
    elements += [alg.c_minor(i) for i in range(1, min(m, n) + 1)]
    if m == n:
        elements.append(alg.det())
    # no map fixes x[1,1] + x[1,2], so every generator is checked
    elements.append(alg.x(1, 1) + alg.x(1, 2))
    for a in elements:
        assert alg.is_normal(a).exponents == full_check(alg, a)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_det_is_checked_once_per_orbit(monkeypatch, n):
    alg = oqm(n, n)
    det = alg.det()
    orbits = {frozenset({(i, j), (j, i), (n + 1 - i, n + 1 - j), (n + 1 - j, n + 1 - i)})
              for i in range(1, n + 1) for j in range(1, n + 1)}
    calls = counting_calls(monkeypatch)
    assert alg.is_normal(det).exponents == (0,) * alg.N
    assert len(calls) == len(orbits)


def test_an_empty_stabiliser_checks_every_generator(monkeypatch):
    alg = oqm(3, 3)
    a = alg.x(1, 1) + alg.x(1, 2)
    calls = counting_calls(monkeypatch)
    alg.is_normal(a)
    assert len(calls) == alg.N


@pytest.mark.parametrize("budget", [0, 1, 2, 3, 5])
def test_a_step_budget_stops_where_the_full_check_stops(budget):
    # a map whose image or certificate runs out of steps is not kept, so the
    # orbit route raises at the word the full check raises at
    alg = oqm(3, 3)
    alg.steps_budget = budget
    det = alg.det()
    try:
        want = full_check(alg, det)
    except StepBudgetExceeded as exc:
        with pytest.raises(StepBudgetExceeded) as got:
            alg.is_normal(det)
        assert (got.value.word, got.value.steps, str(got.value)) == (exc.word, exc.steps, str(exc))
    else:
        assert alg.is_normal(det).exponents == want


def test_golden_minors_tables_through_the_cli_and_by_rule():
    golden = json.loads(GOLDEN_MINORS.read_text())
    entries = [(key, want) for key, want in golden.items() if key.startswith("normal ")]
    assert len(entries) == 18  # the 19 normal jobs; b_5 of 5x5 is det_q
    ruled = 0
    for key, want in entries:
        argv = key.split(" ")
        out = io.StringIO()
        with redirect_stdout(out):
            assert main(argv) == 0
        result = json.loads(out.getvalue())["result"]
        assert result["exponents"] == want["exponents"], key
        # the golden table obeys the rules of every map that fixes the element
        m, n = map(int, argv[3][len("qmat:"):].split(","))
        alg = oqm(m, n)
        rows, cols = (tuple(map(int, part.split(","))) for part in argv[4][1:-1].split("|"))
        a = alg.minor(rows, cols)
        exps = want["exponents"]
        for table, anti in alg.symmetries():
            if alg.image(table, anti, a) == a:
                ruled += 1
                for i, s in enumerate(exps):
                    assert exps[table[i] - 1] == (-s if anti else s), (key, i)
    # det_q of 4x4 and 5x5 by all three maps, and b_1..b_4, c_1..c_4 of 5x5 by rho T
    assert ruled == 3 + 3 + 4 + 4


@pytest.mark.parametrize("m, n", [(2, 2), (3, 3), (4, 4)])
def test_certificate_refuses_a_wrong_direction(m, n):
    alg = oqm(m, n)
    (rho, _), (t, _), (rho_t, _) = alg.symmetries()
    assert not alg.respects_relations(rho, False)
    assert not alg.respects_relations(t, True)
    assert not alg.respects_relations(rho_t, False)


def test_certificate_refuses_a_transposition_of_a_non_square_grid():
    alg = oqm(2, 3)
    # x[i,j] -> x[j,i], numbered row-major on the 3x2 grid: a permutation
    table = tuple((j - 1) * 2 + i for i in range(1, 3) for j in range(1, 4))
    assert sorted(table) == list(range(1, 7))
    for anti in (False, True):
        assert not alg.respects_relations(table, anti)


def test_certificate_refuses_tables_that_are_no_symmetry():
    alg = oqm(3, 3)
    rest = tuple(range(3, 10))
    for anti in (False, True):
        assert not alg.respects_relations((2, 1) + rest, anti)  # swaps x[1,1], x[1,2]
        assert not alg.respects_relations((1, 1) + rest, anti)  # not a permutation
        assert not alg.respects_relations((2, 3, 1) + tuple(range(4, 10)), anti)  # no involution
        assert not alg.respects_relations((1, 2) + rest[:-1], anti)  # too short
        assert not alg.respects_relations((0, 2) + rest, anti)  # out of range


def test_certificate_requires_an_involution():
    # every permutation of the generators respects the relations of a
    # polynomial ring, but only an involution is accepted
    names = ("g_1", "g_2", "g_3")
    ring = OreAlgebra(names, {(2, 1): 1, (3, 1): 1, (3, 2): 1}, {}, {2: Q, 3: Q},
                      0, [()] * 3, [()] * 3)
    for anti in (False, True):
        assert ring.respects_relations((2, 1, 3), anti)
        assert not ring.respects_relations((2, 3, 1), anti)


@pytest.mark.parametrize("shape, doctor, element", [
    ((2, 2), lambda alg: alg.lam.update({(3, 1): alg.lam[(3, 1)] * Q}),
     lambda alg: alg.det()),
    ((2, 3), lambda alg: alg.delta.update({(5, 1): alg.delta[(5, 1)].scaled(2)}),
     lambda alg: alg.minor((1, 2), (1, 3))),
])
def test_a_doctored_algebra_takes_no_shortcut(monkeypatch, shape, doctor, element):
    # doctored in place as criterion 4's tests do: the declared relations
    # change, so no map is certified, though it still fixes the element
    alg = oqm(*shape)
    doctor(alg)
    a = element(alg)
    assert all(alg.image(table, anti, a) == a for table, anti in alg.symmetries())
    assert not any(alg.respects_relations(table, anti) for table, anti in alg.symmetries())
    want = full_check(alg, a)
    calls = counting_calls(monkeypatch)
    assert alg.is_normal(a).exponents == want
    assert len(calls) == alg.N


def test_criterion_2_reads_is_normal(monkeypatch):
    def report(self, a):
        return NormalityReport(self.names, (0, 1) + (0,) * (self.N - 2))

    monkeypatch.setattr(OreAlgebra, "is_normal", report)
    result = verify.check_det_centrality()
    assert not result.ok and result.detail == "det_q vs x[1,2] gives 1", result.detail
