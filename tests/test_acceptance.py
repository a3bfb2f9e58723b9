"""Acceptance gate: every criterion runs at its stated size, tolerance exact.

Each test prints one PASS/FAIL line (visible with -v or on failure) and
asserts the criterion's verdict.
"""

from collections import Counter

from qcgl import verify

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
    _report(verify.check_cauchon_counts(((2, 2), (2, 3), (3, 3))))


def test_criterion_4_theta_is_a_homomorphism():
    _report(verify.check_theta_homomorphism(((2, 2), (2, 3)), pairs=100,
                                            seed=verify.DEFAULT_SEED))


def test_criterion_5_theta_expansions_agree():
    _report(verify.check_theta_expansions(((2, 2), (2, 3)), pairs=100,
                                          seed=verify.DEFAULT_SEED))


def test_criterion_6_cgl_axiom_checker():
    _report(verify.check_cgl_axioms())


def test_criterion_7_rewriting_soundness():
    _report(verify.check_rewriting_soundness())


def test_criterion_7_fails_on_an_unresolved_overlap(monkeypatch):
    # every per-generator axiom holds on this mutation, but its overlap
    # g_3 g_2 g_1 does not resolve
    mutation, = (alg for label, alg, _ in verify.mutated_specs()
                 if label == "non-derivation-correction")
    monkeypatch.setattr(verify, "load_preset", lambda name: mutation)
    result = verify.check_rewriting_soundness()
    assert not result.ok
    assert "uq-sl3-plus" in result.detail and "g_3*g_2*g_1" in result.detail


def test_criterion_7_reads_no_seed():
    details = set()
    for seed in (1, 2):
        result, = (r for r in verify.run_paper_suite(size=(2, 2), seed=seed, pairs=1)
                   if r.name == "7-rewriting-soundness")
        details.add(result.detail)
    assert len(details) == 1


def test_criterion_8_grassmannian_extremal_normality():
    _report(verify.check_grassmann(((2, 3), (2, 4))))


def test_criterion_9_torsionfree_verdicts():
    _report(verify.check_torsionfree(((2, 2), (2, 3), (3, 3))))


def test_full_suite_through_the_cli_entry_point():
    # tests/test_bench_hooks.py checks the names against the benchmark's oracle
    results = verify.run_paper_suite()
    assert len(results) == 9
    assert all(r.ok for r in results), [r.name for r in results if not r.ok]


def test_suite_draws_each_theta_sample_once(monkeypatch):
    # criteria 4 and 5 share one draw per shape, theta images included, so
    # criterion 5 calls theta zero times; called alone, it draws its own
    draws, theta_calls, per_check = Counter(), [0], {}
    samples, theta, run = verify._theta_samples, verify.theta, verify._run

    def counted_samples(shape, pairs, seed):
        draws[shape] += 1
        return samples(shape, pairs, seed)

    def counted_theta(*args, **kwargs):
        theta_calls[0] += 1
        return theta(*args, **kwargs)

    def counted_run(name, fn):
        before = theta_calls[0]
        result = run(name, fn)
        per_check[name] = theta_calls[0] - before
        return result

    monkeypatch.setattr(verify, "_theta_samples", counted_samples)
    monkeypatch.setattr(verify, "theta", counted_theta)
    monkeypatch.setattr(verify, "_run", counted_run)
    assert all(r.ok for r in verify.run_paper_suite())
    assert draws == {(2, 2): 1, (2, 3): 1}
    assert per_check["4-theta-is-a-homomorphism"] > 0
    assert per_check["5-theta-expansions-agree"] == 0
    result = verify.check_theta_expansions(((2, 2), (2, 3)), pairs=100, seed=verify.DEFAULT_SEED)
    assert result.ok, result.detail
    assert per_check["5-theta-expansions-agree"] == 400
