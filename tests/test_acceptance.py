"""Acceptance gate: every criterion runs at its stated size, tolerance exact.

Each test prints one PASS/FAIL line (visible with -v or on failure) and
asserts the criterion's verdict.
"""

import ast
import io
import json
import pathlib
import re
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout

import pytest

from qcgl import cauchon, delderiv, presets, verify
from qcgl.cli import main
from qcgl.coef import Q

TIME_BUDGETS = {
    "1-height-one-hprime-generators": 10.0,
    "2-quantum-determinant-central": 5.0,
    "3-cauchon-diagram-counts": 10.0,
    "4-theta-is-a-homomorphism": 60.0,
    "5-theta-expansions-agree": 60.0,
    "6-cgl-axiom-checker": 30.0,
    "7-rewriting-soundness": 60.0,
    "8-grassmannian-extremal-normality": 30.0,
    "9-torsionfree-verdicts": 1.0,
}


def _report(result):
    line = "%s %s (%.2fs): %s" % ("PASS" if result.ok else "FAIL",
                                  result.name, result.seconds, result.detail)
    print(line)
    assert result.ok, line
    assert result.seconds < TIME_BUDGETS[result.name], \
        "%s exceeded its %.0fs budget" % (result.name, TIME_BUDGETS[result.name])


def test_criterion_1_height_one_hprime_generators():
    _report(verify.check_height_one_generators(((2, 2), (2, 3), (3, 3))))


def test_criterion_2_quantum_determinant_central():
    _report(verify.check_det_centrality((2, 3)))


def test_criterion_3_cauchon_diagram_counts():
    # 4x5 has 20 cells, the most --size admits; no check filters its 2^20 colourings
    result = verify.check_cauchon_counts(((2, 2), (2, 3), (3, 3), (4, 5)))
    _report(result)
    assert "; 4x5: 41506 diagrams, 8 with one black box;" in result.detail


@pytest.mark.parametrize("edit, why", [
    (lambda ds: ds[1:], "(2,2): enumerated 13 diagrams, the poly-Bernoulli number is 14"),
    (lambda ds: ds[:-1] + ds[:1], "(2,2): enumeration repeats a diagram"),
    # the same cells in another order are the same diagram
    (lambda ds: ds[:-1] + [ds[-2][::-1]], "(2,2): enumeration repeats a diagram"),
    (lambda ds: ds[:-1] + [((2, 2),)],
     "(2,2): enumeration lists the invalid diagram [(2, 2)]"),
])
def test_criterion_3_fails_on_a_doctored_enumeration(monkeypatch, edit, why):
    # a repeat or an invalid diagram keeps the total, so only those checks see it
    monkeypatch.setattr(verify, "enumerate_diagrams",
                        lambda m, n: edit(list(cauchon.enumerate_diagrams(m, n))))
    result = verify.check_cauchon_counts(((2, 2),))
    assert not result.ok and result.detail == why, result.detail


def test_criterion_3_streams_the_enumeration():
    # a seen-table of 2^16 bytes and the height counts; listing the 4,050
    # diagrams and setting their cell sets peaked at 5.38 MiB
    tracemalloc.start()
    try:
        result = verify.check_cauchon_counts(((4, 4),))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.ok, result.detail
    assert peak < 2**20, peak


@pytest.mark.parametrize("m, n", [(5, 5), (8, 8)])
def test_criterion_3_refuses_a_grid_past_the_enumeration_limit(m, n):
    # the enumerator's own refusal, before any 2^(m*n) table is made
    result = verify.check_cauchon_counts(((m, n),))
    assert not result.ok
    assert result.detail == ("raised ValueError: grid with %d cells exceeds the "
                             "enumeration limit of 20" % (m * n)), result.detail


def test_criterion_4_theta_is_a_homomorphism():
    result = verify.check_theta_homomorphism(((2, 2), (2, 3)))
    _report(result)
    assert "up to total degree 4" in result.detail
    assert "qmat:2,2, qmat:2,3, uq-sl3-plus" in result.detail


def test_criterion_5_theta_expansions_agree():
    result = verify.check_theta_expansions(((2, 2), (2, 3)))
    _report(result)
    assert "qmat:2,2, qmat:2,3, uq-sl3-plus" in result.detail


def _doubled_level_factor(n):
    level_factors = delderiv._level_factors

    def doubled(alg, k):
        factors = level_factors(alg, k)
        if n < k:
            factors[n] = 2 * factors[n]
        return factors

    return doubled


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_criterion_4_fails_on_a_wrong_level_factor(monkeypatch, n):
    monkeypatch.setattr(delderiv, "_level_factors", _doubled_level_factor(n))
    result = verify.check_theta_homomorphism()
    assert not result.ok and "x[1,1]" in result.detail, result.detail


@pytest.mark.parametrize("n", [1, 2, 3])
def test_criterion_5_fails_on_a_wrong_level_factor(monkeypatch, n):
    monkeypatch.setattr(delderiv, "_level_factors", _doubled_level_factor(n))
    assert not verify.check_theta_expansions().ok


@pytest.mark.parametrize("n", [1, 2, 3])
def test_criterion_4_fails_on_a_wrong_negative_binomial(monkeypatch, n):
    # [m n]_q for m < 0 is what theta(x_i), with its powers X^-n, multiplies by
    binomials = delderiv._binomials

    def scaled(q, m, k):
        row = binomials(q, m, k)
        if m < 0 and n < k:
            row[n] = row[n] * Q
        return row

    monkeypatch.setattr(delderiv, "_binomials", scaled)
    assert not verify.check_theta_homomorphism().ok


def test_criterion_4_counts_relations_and_sorted_words():
    # 3 + 10 + 1 pairs i < j < N, and 31 + 120 + 12 PBW words of degree 2 to 4
    detail = verify.check_theta_homomorphism(((2, 2), (2, 3))).detail
    assert "the 14 relations" in detail and "on 163 PBW words" in detail, detail


@pytest.mark.parametrize("k, doctor, relation", [
    (0, lambda alg: alg.lam.update({(3, 1): alg.lam[(3, 1)] * Q}),
     "qmat:2,2: relation x[2,1] x[1,1]"),
    (1, lambda alg: alg.delta.update({(5, 1): alg.delta[(5, 1)].scaled(2)}),
     "qmat:2,3: relation x[2,2] x[1,1]"),
])
def test_criterion_4_fails_on_a_wrong_relation(k, doctor, relation):
    # theta and the straightening rows read no lambda_ji or delta_ji with
    # j < N, so only the relation checks see such an entry change; the
    # doctored algebra is the k-th of the check's default shapes
    def doctored(label):
        alg = presets.load_algebra(label)
        if label == ("qmat:2,2", "qmat:2,3")[k]:
            doctor(alg)
        return alg

    result = verify.check_theta_homomorphism(resolve=doctored)
    assert not result.ok and relation in result.detail, result.detail


def test_theta_certificates_at_other_degrees(monkeypatch):
    for degree, shapes in ((4, ((2, 2), (2, 3))), (2, ((3, 3), (2, 4), (3, 2)))):
        monkeypatch.setattr(verify, "THETA_DEGREE", degree)
        product = verify.check_theta_homomorphism(shapes)
        assert product.ok and "up to total degree %d" % (degree + 1) in product.detail
        expansions = verify.check_theta_expansions(shapes)
        assert expansions.ok, expansions.detail


def test_criterion_6_cgl_axiom_checker():
    _report(verify.check_cgl_axioms())


def test_criterion_7_rewriting_soundness():
    _report(verify.check_rewriting_soundness())


def test_criterion_7_fails_on_an_unresolved_overlap():
    # every per-generator axiom holds on this mutation, but its overlap
    # g_3 g_2 g_1 does not resolve
    mutation, = (alg for label, alg, _ in verify.mutated_specs()
                 if label == "non-derivation-correction")
    result = verify.check_rewriting_soundness(
        lambda label: mutation if label == "uq-sl3-plus" else presets.load_algebra(label))
    assert not result.ok
    assert "uq-sl3-plus" in result.detail and "g_3*g_2*g_1" in result.detail


def test_criterion_7_reads_no_seed():
    # nor does any other criterion: --seed is parsed and ignored
    docs = []
    for extra in (["--seed", "1"], ["--seed", "2"], []):
        out = io.StringIO()
        with redirect_stdout(out):
            assert main(["verify", "paper", "--json"] + extra) == 0
        doc = json.loads(out.getvalue())
        for check in doc["result"]["checks"]:
            del check["seconds"]
        docs.append(doc)
    assert docs[0] == docs[1] == docs[2]


def test_criterion_8_grassmannian_extremal_normality():
    _report(verify.check_grassmann(((2, 3), (2, 4))))


def test_criterion_9_torsionfree_verdicts():
    _report(verify.check_torsionfree(((2, 2), (2, 3), (3, 3))))


def test_full_suite_through_the_cli_entry_point():
    # tests/test_bench_hooks.py checks the names against the benchmark's oracle
    results = verify.run_paper_suite()
    assert len(results) == 9
    assert all(r.ok for r in results), [r.name for r in results if not r.ok]


def test_one_suite_run_builds_each_algebra_once(monkeypatch):
    # the table lives for one run: a second run reads the two preset files
    # again, and no criterion changes an algebra that the others read
    built, reads = [], []
    build, from_json = verify.load_algebra, presets.from_json

    def counted_build(label):
        built.append((label, build(label)))
        return built[-1][1]

    def counted_read(doc):
        reads.append(doc)
        return from_json(doc)

    monkeypatch.setattr(verify, "load_algebra", counted_build)
    monkeypatch.setattr(presets, "from_json", counted_read)
    assert all(r.ok for r in verify.run_paper_suite())
    labels = [label for label, _ in built]
    assert len(reads) == 2 and len(set(labels)) == len(labels), labels
    assert {"qmat:2,2", "qmat:4,4", "qplane", "uq-sl3-plus"} <= set(labels)
    verify.run_paper_suite()
    assert len(reads) == 4 and len(built) == 2 * len(labels)
    for label, alg in built:
        assert presets.to_json(alg) == presets.to_json(build(label)), label


def test_verify_resolves_algebras_only_through_presets():
    # no second name-to-algebra map: every label goes through presets.load_algebra
    named = set()
    for node in ast.walk(ast.parse(pathlib.Path(verify.__file__).read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            named.update((node.module or "").split("."))
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            named.update(part for alias in node.names for part in alias.name.split("."))
    assert not named & {"qmat", "oqm", "quantum_plane"}, named
    # in the whole package, only presets builds a named algebra: qmat defines
    # the family and oqm, and no module builds the quantum plane in code
    builders, identifiers = set(), set()
    for path in sorted(pathlib.Path(presets.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            name = getattr(node, "name", None) or getattr(node, "id", None) or getattr(
                node, "attr", None)
            identifiers.add(name)
            if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
                callee = getattr(node.func, "id", None) or node.func.attr
                if callee in ("oqm", "QuantumMatrixAlgebra"):
                    builders.add((path.stem, callee))
    assert builders == {("presets", "oqm"), ("qmat", "QuantumMatrixAlgebra")}, builders
    assert "quantum_plane" not in identifiers


def test_every_suite_label_is_an_algebra_token(monkeypatch):
    # a failing criterion names its algebra as `qcgl axioms -a LABEL` takes it
    labels = []

    def recorded(label):
        labels.append(label)
        return presets.load_algebra(label)

    monkeypatch.setattr(verify, "load_algebra", recorded)
    for size in (None, (2, 4), (1, 1)):
        assert all(r.ok for r in verify.run_paper_suite(size))
    assert {"qmat:1,1", "qmat:2,4", "qmat:4,4", "qplane", "uq-sl3-plus"} <= set(labels)
    for label in sorted(set(labels)):
        with redirect_stdout(io.StringIO()):
            assert main(["axioms", "-a", label]) == 0, label


def test_a_failed_preset_load_fails_each_criterion_that_reads_it(tmp_path, monkeypatch):
    doc = presets.to_json(presets.load_preset("uq-sl3-plus"))
    doc["level_q"] = [[2, "1"], [3, "q^-2"]]  # root of unity: axiom (c) fails
    path = tmp_path / "uq-sl3-plus.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    monkeypatch.setitem(presets._FILE_PRESETS, "uq-sl3-plus", str(path))
    results = verify.run_paper_suite()
    assert [r.name[0] for r in results if r.ok] == ["1", "2", "3", "8"]
    for r in results:
        assert r.ok or r.detail.startswith(
            "raised ValueError: preset 'uq-sl3-plus' fails the CGL axioms"), (r.name, r.detail)


GOLDEN = pathlib.Path(__file__).parent / "golden"


@pytest.mark.parametrize("argv, golden", [
    (["verify", "paper", "--json"], "verify_paper.json"),
    (["verify", "paper", "--size", "2,2", "--json"], "verify_paper_2x2.json"),
    # theta falls back to qmat:2,2, criterion 8 runs at its size
    (["verify", "paper", "--size", "2,4", "--json"], "verify_paper_2x4.json"),
])
def test_verify_paper_document_matches_its_golden_copy(argv, golden):
    # every criterion's name, verdict and detail text, byte for byte; only
    # the timings are masked
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = main(argv)
    masked = re.sub(r'"seconds": [-0-9.e+]+', '"seconds": 0', out.getvalue())
    assert (rc, err.getvalue()) == (0, "")
    assert masked == (GOLDEN / golden).read_text()
