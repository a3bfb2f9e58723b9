import json
import os
import re
from pathlib import Path

import pytest

from qcgl import presets
from qcgl.cli import main
from qcgl.ncalg import StepBudgetExceeded
from qcgl.coef import ONE, Q
from qcgl.ncalg import OreAlgebra
from qcgl.presets import from_json, load_algebra, load_preset, to_json
from qcgl.qmat import QuantumMatrixAlgebra, oqm


def quantum_plane():
    """The quantum affine plane: g_2 g_1 = q g_1 g_2, no correction terms."""
    return OreAlgebra(
        names=("g_1", "g_2"),
        lam={(2, 1): Q},
        delta={},
        level_q={2: Q},
        torus_rank=2,
        weights=[(1, 0), (0, 1)],
        h_elems=[(Q, ONE), (Q, Q)],
    )


def test_named_presets_load_and_pass_axioms():
    assert presets.preset_names() == ["qplane", "uq-sl3-plus"]
    assert load_preset("qplane").spec_equals(quantum_plane())
    uq = load_preset("uq-sl3-plus")
    assert uq.N == 3
    assert uq.check_cgl_axioms().ok
    assert uq.is_torsionfree() is True


def test_writer_reproduces_the_shipped_preset():
    # no test generates the files under data/, so this pins the writer
    for name in presets.preset_names():
        path = os.path.join(os.path.dirname(presets.__file__), presets._FILE_PRESETS[name])
        with open(path, encoding="utf-8") as fh:
            shipped = json.load(fh)
        doc = to_json(load_preset(name))
        assert doc == shipped, name
        assert from_json(doc).spec_equals(load_preset(name)), name


def test_only_presets_knows_the_spec_format():
    # the cgl-spec-v1 document is read, checked and written in one module
    package = Path(presets.__file__).parent
    assert [path.name for path in sorted(package.glob("*.py"))
            if "cgl-spec-v1" in path.read_text(encoding="utf-8")] == ["presets.py"]


def test_unknown_preset():
    with pytest.raises(ValueError):
        load_preset("no-such-algebra")


def test_corrupt_preset_is_rejected_at_load(tmp_path, monkeypatch):
    doc = to_json(load_preset("uq-sl3-plus"))
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
    # overlap check (g) straightens each one-step reduct of g_3*g_2*g_1 in 2
    # steps, and normal_form_word the word itself in 3: the load-time check
    # runs at the default budget, the algebra straightens at the given one
    for budget in (0, 1, 2):
        alg = load_preset("uq-sl3-plus")
        alg.steps_budget = budget
        with pytest.raises(StepBudgetExceeded):
            alg.normal_form_word((3, 2, 1))
        assert _cli(["nf", "-a", "uq-sl3-plus", "--steps-budget", str(budget), "g_1"],
                    capsys) == (0, "g_1\n")
    rc, text = _cli(["nf", "-a", "uq-sl3-plus", "--steps-budget", "1", "g_3*g_2*g_1"], capsys)
    assert rc == 1 and "straightening g_2*g_3*g_1 exceeded 1 steps" in text
    rc, text = _cli(["axioms", "-a", "uq-sl3-plus", "--steps-budget", "1"], capsys)
    assert rc == 1 and "FAIL level 3 (g)" in text
    alg.steps_budget = 2
    assert alg.check_cgl_axioms().ok


def test_load_algebra_tokens(tmp_path, capsys):
    alg = load_algebra("qmat:2,3")
    assert (alg.m, alg.n) == (2, 3)
    assert load_algebra("qplane").spec_equals(quantum_plane())
    with pytest.raises(ValueError):
        load_algebra("qmat:two,three")
    with pytest.raises(ValueError):
        load_algebra("nonexistent-file.json")
    path = tmp_path / "plane.json"
    path.write_text(json.dumps(to_json(quantum_plane())), encoding="utf-8")
    assert load_algebra(str(path)).spec_equals(quantum_plane())
    # a file that is not UTF-8, or not JSON, is named in one error line
    for content, why in ((b"", "Expecting value"), (b"\xd0{}", "'utf-8' codec can't decode")):
        path.write_bytes(content)
        message = "spec file %r is not a JSON document: %s" % (str(path), why)
        with pytest.raises(ValueError, match=re.escape(message)):
            load_algebra(str(path))
        rc, text = _cli(["nf", "-a", str(path), "g_1"], capsys)
        assert rc == 2 and text.startswith("error: " + message) and text.count("\n") == 1


def test_a_token_with_a_nul_byte_is_unreadable(capsys):
    # open refuses the path with a ValueError, which is no JSON error
    message = "unknown algebra 'a\\x00b': not a preset and not a readable file"
    with pytest.raises(ValueError, match=re.escape(message)):
        load_algebra("a\0b")
    assert _cli(["nf", "-a", "a\0b", "1"], capsys) == (2, "error: %s\n" % message)


def _tagged_file(tmp_path, doc, tag):
    path = tmp_path / "tagged.json"
    path.write_text(json.dumps(dict(doc, qmat=tag)), encoding="utf-8")
    return str(path)


def test_qmat_tagged_spec_files_load_as_oqm(tmp_path, capsys):
    # the spec that `algebra -a qmat:2,3` prints loads back as oqm(2,3), minors included
    rc, text = _cli(["algebra", "-a", "qmat:2,3", "--json"], capsys)
    doc = json.loads(text)["result"]["spec"]
    assert rc == 0 and doc["qmat"] == [2, 3]
    path = _tagged_file(tmp_path, doc, [2, 3])
    assert isinstance(load_algebra(path), QuantumMatrixAlgebra)
    assert (_cli(["minor", "1,2", "2,3", "-a", path], capsys)
            == _cli(["minor", "1,2", "2,3", "-a", "qmat:2,3"], capsys))
    # a tag must name the oqm the document is, as a pair of integers
    doc12 = to_json(oqm(1, 2))
    bad_tag = r"field 'qmat' must be a pair of integers \[M, N\]"
    for tag, message in (([2, 2], r"qmat-tagged document does not match oqm\(2,2\)"),
                         ("x", bad_tag), ([2], bad_tag), ([1, 2, 3], bad_tag),
                         ([True, 2], bad_tag), ([1.0, 2], bad_tag), (None, bad_tag),
                         ([], bad_tag)):
        rc, text = _cli(["nf", "x[1,1]", "-a", _tagged_file(tmp_path, doc12, tag)], capsys)
        assert rc == 2 and re.match("error: %s" % message, text), (tag, text)


def test_qmat_tag_that_is_an_object_is_malformed(tmp_path, capsys):
    path = _tagged_file(tmp_path, to_json(oqm(1, 2)), {"m": 1, "n": 2})
    rc, text = _cli(["nf", "x[1,1]", "-a", path], capsys)
    assert rc == 2 and text == "error: field 'qmat' must be a pair of integers [M, N]\n"


def test_spec_files_are_checked_at_the_default_budget(tmp_path, capsys):
    # a spec file goes through the preset's check, at the default budget, since
    # the CLI lowers the budget only after loading: a small budget is no
    # failure, except to `axioms`, whose own check runs at it; a file that
    # fails the axioms loads only unchecked
    uq = load_preset("uq-sl3-plus")
    path = tmp_path / "uq.json"
    path.write_text(json.dumps(to_json(uq)), encoding="utf-8")
    assert load_algebra(str(path)).spec_equals(uq)
    assert _cli(["nf", "-a", str(path), "--steps-budget", "0", "g_1"], capsys) == (0, "g_1\n")
    rc, text = _cli(["axioms", "-a", str(path), "--steps-budget", "1"], capsys)
    assert rc == 1 and "FAIL level 3 (g)" in text
    doc = to_json(uq)
    doc["level_q"] = [[2, "1"], [3, "q^-2"]]  # root of unity: axiom (c) fails
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ValueError, match="spec file .* fails the CGL axioms"):
        load_algebra(str(path))
    assert not presets.load_unchecked(str(path)).check_cgl_axioms().ok


# qplane spec files with one bad table entry each, and the error each must give
_PLANE_DOC = to_json(quantum_plane())
BAD_ENTRIES = (
    ("lambda", [[2, 1, "q"], [3, 1, "q"]], r"lambda index \(3,1\) out of range"),
    ("lambda", [[2, 1, "q"], [1, 2, "q"]], r"lambda index \(1,2\) out of range"),
    ("level_q", [[2, "q"], [7, "q"]], "level_q index 7 out of range"),
    ("lambda", [[2, 1, "q"], [2, 1, "q^2"]], r"duplicate lambda entry \(2,1\)"),
    ("delta", [[2, 1, "1"], [2, 1, "g_1"]], r"duplicate delta entry \(2,1\)"),
    ("level_q", [[2, "q"], [2, "q^2"]], "duplicate level_q entry 2"),
    ("lambda", [[2, 1]], r"lambda entry \[2, 1\] needs 3 fields"),
    ("lambda", [[2, 1, "q", "q"]], r'lambda entry \[2, 1, "q", "q"\] needs 3 fields'),
    ("lambda", [5], "lambda entry 5 needs 3 fields"),
    ("delta", [[2, 1]], r"delta entry \[2, 1\] needs 3 fields"),
    ("level_q", [[2]], r"level_q entry \[2\] needs 2 fields"),
    ("level_q", [[2, "q", "q"]], r'level_q entry \[2, "q", "q"\] needs 2 fields'),
    ("lambda", [["2", 1, "q"]], r'lambda entry \["2", 1, "q"\] needs integer indices'),
    ("lambda", [[True, 1, "q"]], r'lambda entry \[true, 1, "q"\] needs integer indices'),
    ("lambda", [[2.0, 1, "q"]], r'lambda entry \[2.0, 1, "q"\] needs integer indices'),
    ("level_q", [["2", "q"]], r'level_q entry \["2", "q"\] needs integer indices'),
    ("delta", [["2", 1, "1"]], r'delta entry \["2", 1, "1"\] needs integer indices'),
    ("lambda", 5, "field 'lambda' must be a list of entries"),
    ("lambda", None, "field 'lambda' must be a list of entries"),
    ("lambda", [[2, 1, 5]], r"lambda entry \[2, 1, 5\] needs a text value"),
    ("names", 5, "field 'names' must be a list of generator names"),
    ("names", [1, 2], "field 'names' must be a list of generator names"),
    ("weights", 5, "field 'weights' must be a list of rows"),
    ("h", 5, "field 'h' must be a list of rows of text"),
    ("h", [5, ["q", "q"]], "field 'h' must be a list of rows of text"),
    ("h", [["q", 1], ["q", "q"]], "field 'h' must be a list of rows of text"),
)


@pytest.mark.parametrize("key, entries, message", BAD_ENTRIES)
def test_spec_files_refuse_bad_table_entries(key, entries, message, tmp_path, capsys):
    path = tmp_path / "plane.json"
    path.write_text(json.dumps(dict(_PLANE_DOC, **{key: entries})), encoding="utf-8")
    rc, text = _cli(["axioms", "-a", str(path)], capsys)
    assert rc == 2 and re.fullmatch("error: %s\n" % message, text), text
