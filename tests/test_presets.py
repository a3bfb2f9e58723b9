import json

import pytest

from qcgl import presets
from qcgl.cli import main
from qcgl.ncalg import StepBudgetExceeded, quantum_plane
from qcgl.presets import load_algebra, load_preset


def test_named_presets_load_and_pass_axioms():
    assert load_preset("qplane").spec_equals(quantum_plane())
    uq = load_preset("uq-sl3-plus")
    assert uq.N == 3
    assert uq.check_cgl_axioms().ok
    assert uq.is_torsionfree() is True


def test_unknown_preset():
    with pytest.raises(ValueError):
        load_preset("no-such-algebra")


def test_corrupt_preset_is_rejected_at_load(tmp_path, monkeypatch):
    doc = load_preset("uq-sl3-plus").to_json()
    doc["level_q"] = [[2, "1"], [3, "q^-2"]]  # root of unity: axiom (c) fails
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    monkeypatch.setitem(presets._FILE_PRESETS, "broken", str(path))
    with pytest.raises(ValueError, match="CGL axioms"):
        load_preset("broken")


def _cli(argv, capsys):
    rc = main(argv)
    out, err = capsys.readouterr()
    return rc, out + err


def test_small_step_budgets_do_not_fail_the_preset_check(capsys):
    # overlap check (g) straightens g_3*g_2*g_1 in 3 steps: the load-time
    # check runs at the default budget, the algebra straightens at the given one
    for budget in (0, 1, 2):
        alg = load_preset("uq-sl3-plus", steps_budget=budget)
        assert alg.steps_budget == budget
        with pytest.raises(StepBudgetExceeded):
            alg.normal_form_word((3, 2, 1))
        assert _cli(["nf", "-a", "uq-sl3-plus", "--steps-budget", str(budget), "g_1"],
                    capsys) == (0, "g_1\n")
    rc, text = _cli(["nf", "-a", "uq-sl3-plus", "--steps-budget", "1", "g_3*g_2*g_1"], capsys)
    assert rc == 1 and "straightening g_2*g_3*g_1 exceeded 1 steps" in text
    rc, text = _cli(["axioms", "-a", "uq-sl3-plus", "--steps-budget", "2"], capsys)
    assert rc == 1 and "FAIL level 3 (g)" in text
    assert load_preset("uq-sl3-plus", steps_budget=3).check_cgl_axioms().ok


def test_load_algebra_tokens(tmp_path):
    alg = load_algebra("qmat:2,3")
    assert (alg.m, alg.n) == (2, 3)
    assert load_algebra("qplane").spec_equals(quantum_plane())
    with pytest.raises(ValueError):
        load_algebra("qmat:two,three")
    with pytest.raises(ValueError):
        load_algebra("nonexistent-file.json")
    path = tmp_path / "plane.json"
    path.write_text(json.dumps(quantum_plane().to_json()), encoding="utf-8")
    assert load_algebra(str(path)).spec_equals(quantum_plane())


def test_spec_files_are_checked_at_the_default_budget(tmp_path):
    # a spec file goes through the preset's check: a small budget is no
    # failure, and a file that fails the axioms loads only unchecked
    uq = load_preset("uq-sl3-plus")
    path = tmp_path / "uq.json"
    path.write_text(json.dumps(uq.to_json()), encoding="utf-8")
    alg = load_algebra(str(path), steps_budget=0)
    assert alg.spec_equals(uq) and alg.steps_budget == 0
    doc = uq.to_json()
    doc["level_q"] = [[2, "1"], [3, "q^-2"]]  # root of unity: axiom (c) fails
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ValueError, match="spec file .* fails the CGL axioms"):
        load_algebra(str(path))
    assert not presets.load_unchecked(str(path)).check_cgl_axioms().ok
