import io
import json
import random
import re
import shlex
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import jsonschema
import pytest

from qcgl import cli, qmat
from qcgl.cauchon import count, diagram_drawings, enumerate_diagrams
from qcgl.cli import LIST_LIMIT, main
from qcgl.coef import ONE, Q, RatFunc
from qcgl.delderiv import LaurentElem, format_laurent, theta
from qcgl.expr import (MAX_EXPONENT, MAX_POWER_SIZE, ExprEvalError, ExprSyntaxError,
                       eval_free, evaluate, parse, parse_scalar)
from qcgl.ncalg import MAX_WEIGHT, STEPS_BUDGET, NcPoly, format_poly
from qcgl.presets import load_preset, to_json
from qcgl.qmat import oqm
from qcgl.schema import OUTPUT_SCHEMA
from qcgl.verify import mutated_specs
from sampling import random_poly

ALG = oqm(2, 2)


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


def test_eval_det_expression():
    assert evaluate(ALG, "x[1,1]*x[2,2] - q*x[1,2]*x[2,1]") == ALG.det()


def test_eval_reorders_products():
    v = evaluate(ALG, "x[2,2]*x[1,1]")
    assert v == ALG.multiply(ALG.x(2, 2), ALG.x(1, 1))
    assert len(v.terms) == 2


def test_eval_power_zero():
    assert evaluate(ALG, "(x[1,2])^0") == NcPoly.scalar(ONE)


def test_eval_minor_atom_and_scalar_division():
    assert evaluate(ALG, "[1,2|1,2]") == ALG.det()
    assert evaluate(ALG, "x[1,1]/q") == ALG.x(1, 1).scaled(Q.inverse())
    with pytest.raises(ExprEvalError):
        evaluate(ALG, "q/x[1,1]")
    with pytest.raises(ZeroDivisionError):
        evaluate(ALG, "x[1,1]/0")


def test_eval_free_cancellation_leaves_no_stored_zeros():
    # x[1,1]*x[1,2]^2 arises twice inside one product, with opposite signs
    v = eval_free("(x[1,1] + x[1,1]*x[1,2])*(x[1,2]*x[1,2] - x[1,2])", ALG.names)
    assert v.terms == {(1, 2, 2, 2): ONE, (1, 2): -ONE}


def test_eval_laurent_expressions():
    v = evaluate(ALG, "x[1,1] - q*x[1,2]*x[2,1]*X^-1", allow_x=True)
    assert v == theta(ALG, ALG.x(1, 1))
    assert evaluate(ALG, "X*X^-1", allow_x=True) == LaurentElem.x_power(0)
    with pytest.raises(ExprEvalError):
        evaluate(ALG, "X", allow_x=False)
    with pytest.raises(ExprEvalError):
        evaluate(ALG, "(x[1,1]+X)^-1", allow_x=True)


def test_top_generator_is_x_in_laurent_values():
    # x_N is X in the localisation: a polynomial joins a Laurent value with
    # the trailing x_N letters of its words as powers of X
    for text, printed in (("x[2,2]*X - X^2", "0"), ("X*x[2,2]", "X^2"),
                          ("[1,2|1,2]*X^-1", "x[1,1] - q*x[1,2]*x[2,1]*X^-1")):
        assert run_cli(["nf", text]) == (0, printed + "\n", "")
    assert evaluate(ALG, "[1,2|1,2]*X^-1", allow_x=True) == theta(ALG, ALG.x(1, 1))
    assert evaluate(ALG, "x[1,1]*x[2,2]^2 + X", allow_x=True) == LaurentElem(
        {2: ALG.x(1, 1), 1: NcPoly.scalar(ONE)})


def test_negative_powers_of_the_top_generator_are_powers_of_x():
    # c x_N^k is c X^k where X is allowed, so it has negative powers there
    for argv, printed in ((["nf", "x[2,2]^-1"], "X^-1"),
                          (["nf", "(q*x[2,2]^2)^-1"], "q^-1*X^-2"),
                          (["nf", "x[2,2]^-1*x[2,2]"], "1"),
                          (["nf", "-a", "uq-sl3-plus", "g_3^-1"], "X^-1")):
        assert run_cli(argv) == (0, printed + "\n", ""), argv
    # a plain element, a product with lower letters and a spec-file entry
    # still have none
    message = "error: negative powers are defined only for scalars and powers of X\n"
    for argv in (["qcommute", "x[2,2]^-1", "x[1,1]"], ["nf", "(x[1,1]*x[2,2])^-1"]):
        assert run_cli(argv) == (2, "", message), argv
    with pytest.raises(ExprEvalError, match="negative powers are defined only"):
        eval_free("x[2,2]^-1", ALG.names)


def test_syntax_errors_carry_positions():
    with pytest.raises(ExprSyntaxError) as err:
        parse("x[1,1] + %")
    assert err.value.pos == 9
    # where a chain of operators breaks off
    for text, pos in [("1 +", 3), ("x[1,1]*/2", 7), ("1 2", 2), ("1,2", 1)]:
        with pytest.raises(ExprSyntaxError) as err:
            parse(text)
        assert err.value.pos == pos, text
    with pytest.raises(ExprSyntaxError):
        parse("x[1,1]*")
    with pytest.raises(ExprSyntaxError):
        parse("[1,2|")
    with pytest.raises(ExprEvalError):
        evaluate(ALG, "g_1")  # unknown generator for this algebra
    with pytest.raises(ExprEvalError):
        evaluate(load_preset("qplane"), "[1|1]")  # minors need a matrix algebra


def test_print_parse_identity_on_normal_forms():
    rng = random.Random(0)
    for alg in (ALG, oqm(2, 3), load_preset("qplane")):
        for _ in range(40):
            p = random_poly(alg, rng)
            assert evaluate(alg, format_poly(alg.names, p)) == p


def test_print_parse_identity_on_laurent_values():
    rng = random.Random(1)
    for _ in range(30):
        a = random_poly(ALG, rng, max_level=3)
        img = theta(ALG, a)
        back = evaluate(ALG, format_laurent(ALG.names, img), allow_x=True)
        if not isinstance(back, LaurentElem):
            back = LaurentElem.from_poly(back)
        assert back == img


def test_scalar_round_trip():
    assert parse_scalar("(q^2-1)/q") == Q - Q.inverse()
    assert parse_scalar("q^-1") == Q.inverse()
    assert parse_scalar("-3*q^2") == -3 * Q * Q


def test_cli_qcommute_and_count():
    rc, out, _ = run_cli(["qcommute", "x[1,2]", "x[1,1]"])
    assert rc == 0 and out.strip() == "-1"
    rc, out, _ = run_cli(["cauchon", "count", "2", "2"])
    assert rc == 0 and out.strip() == "14"


def test_cli_deterministic_output():
    _, out1, _ = run_cli(["nf", "x[2,2]*x[1,1]"])
    _, out2, _ = run_cli(["nf", "x[2,2]*x[1,1]"])
    assert out1 == out2 == "x[1,1]*x[2,2] - (q^2-1)/q*x[1,2]*x[2,1]\n"


def test_cli_exit_codes():
    rc, _, err = run_cli(["nf", "x[1,1]*"])
    assert rc == 2 and "error" in err
    rc, _, err = run_cli(["nf", "x[5,5]"])
    assert rc == 2
    rc, _, _ = run_cli(["axioms"])
    assert rc == 0
    for deep in ("(" * 3000 + "x[1,1]" + ")" * 3000, "-" * 3000 + "x[1,1]"):
        rc, _, err = run_cli(["nf", "--", deep])
        assert rc == 2 and "error:" in err
    with pytest.raises(SystemExit):
        run_cli(["no-such-command"])


# Flat chains of + - and * / fold in a loop: their length costs no recursion
# depth, unlike nesting, which MAX_DEPTH caps.

def test_cli_long_flat_sum():
    rc, out, err = run_cli(["nf", "+".join(["x[1,1]"] * 5000)])
    assert rc == 0, err
    assert out.strip() == "5000*x[1,1]"


def test_long_flat_product_keeps_written_order():
    assert evaluate(ALG, "*".join(["x[1,1]"] * 1000)) == evaluate(ALG, "x[1,1]^1000")
    # x[2,2]*x[1,1] needs straightening; the chain must not reorder it
    chain = "*".join(["x[2,2]", "x[1,1]"] * 4)
    assert evaluate(ALG, chain) == evaluate(ALG, "(x[2,2]*x[1,1])^4")


def test_parse_scalar_long_flat_sum():
    assert parse_scalar("1" + "+q/q-1" * 3000) == ONE
    assert parse_scalar("-".join(["q"] * 5001)) == -4999 * Q


def test_eval_free_long_flat_sum():
    v = eval_free("x[1,1]*x[1,2]" + "+x[1,1]*x[1,2]-x[2,2]/q" * 3000, ALG.names)
    assert v.terms == {(1, 2): RatFunc(3001), (4,): -3000 * Q.inverse()}


def test_cli_json_outputs_validate():
    cases = [
        ["nf", "--json", "x[2,2]*x[1,1]"],
        ["minor", "--json", "1,2", "1,2"],
        ["qcommute", "--json", "x[1,1]", "x[2,2]"],
        ["normal", "--json", "x[1,2]"],
        ["weight", "--json", "x[1,1]+x[1,2]"],
        ["cauchon", "count", "2", "3", "--json"],
        ["cauchon", "histogram", "2", "2", "--json"],
        ["cauchon", "list", "1", "2", "--json"],
        ["theta", "--json", "x[1,1]"],
        ["theta", "--json", "--alt", "x[1,1]"],
        ["axioms", "--json"],
        ["algebra", "-a", "qmat:2,2", "--json"],
        ["algebra", "-a", "uq-sl3-plus", "--json"],
        ["nf", "--json", "-a", "uq-sl3-plus", "g_3*g_1"],
    ]
    for argv in cases:
        rc, out, _ = run_cli(argv)
        assert rc == 0, argv
        assert out.endswith("\n") and "\n" not in out[:-1], argv  # one line
        doc = json.loads(out)
        jsonschema.validate(doc, OUTPUT_SCHEMA)


def test_cli_algebra_from_spec_file(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(to_json(load_preset("qplane"))), encoding="utf-8")
    rc, out, _ = run_cli(["nf", "-a", str(path), "g_2*g_1"])
    assert rc == 0 and out.strip() == "q*g_1*g_2"
    # `algebra` prints a spec file's document as it prints the preset's
    assert run_cli(["algebra", "-a", str(path)]) == run_cli(["algebra", "-a", "qplane"])


def test_cli_spec_file_failing_the_axioms_is_rejected_at_load(tmp_path):
    # d(g_1) = g_1 is not locally nilpotent, so theta and the powers of X,
    # whose closed forms need the CGL axioms, never run on this file
    nonnil = next(alg for name, alg, _ in mutated_specs() if name == "non-nilpotent-derivation")
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(to_json(nonnil)), encoding="utf-8")
    for argv in (["nf", "X^-1*g_1"], ["nf", "g_2*g_1"], ["theta", "g_1"],
                 ["weight", "g_1", "--steps-budget", "0"]):
        rc, out, err = run_cli(argv + ["-a", str(path)])
        assert rc == 2 and not out and err.startswith("error: spec file") \
            and "fails the CGL axioms" in err and "FAIL level 2 (b)" in err, argv
    rc, out, _ = run_cli(["axioms", "-a", str(path)])
    assert rc == 1 and "FAIL level 2 (b) locally nilpotent delta" in out


def test_cli_spec_file_breaking_the_order_lemma_is_refused(tmp_path):
    # criterion 7's termination order needs each delta(j,i) below x_j
    doc = to_json(load_preset("qplane"))
    doc["delta"] = [[2, 1, "g_2"]]
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    rc, out, err = run_cli(["axioms", "-a", str(path)])
    assert rc == 2 and not out
    assert err.startswith("error:") and "delta(2,1) uses a generator index >= 2" in err


# A malformed spec file is a usage error (exit 2), never a traceback.

def _spec_file_rc(tmp_path, text):
    path = tmp_path / "spec.json"
    path.write_text(text, encoding="utf-8")
    rc, _, err = run_cli(["axioms", "-a", str(path)])
    return rc, err


def test_cli_spec_file_nested_too_deeply(tmp_path):
    rc, err = _spec_file_rc(tmp_path, "[" * 100000)
    assert rc == 2 and err.startswith("error:")


def test_cli_spec_file_missing_keys(tmp_path):
    rc, err = _spec_file_rc(tmp_path, json.dumps({"format": "cgl-spec-v1"}))
    assert rc == 2 and err.startswith("error:") and "names" in err


def test_cli_spec_file_not_an_object(tmp_path):
    rc, err = _spec_file_rc(tmp_path, json.dumps([to_json(load_preset("qplane"))]))
    assert rc == 2 and err.startswith("error:")


def test_cli_spec_file_non_integer_weights(tmp_path):
    path = tmp_path / "spec.json"
    for bad in ("a", 1.5, True):
        doc = to_json(oqm(1, 2))
        del doc["qmat"]  # an untagged spec, so the weights are used as given
        doc["weights"][0][1] = bad
        path.write_text(json.dumps(doc), encoding="utf-8")
        for argv in (["weight", "x[1,1]"], ["axioms"]):
            rc, _, err = run_cli(argv + ["-a", str(path)])
            assert rc == 2 and err.startswith("error:"), (bad, argv)


def test_cli_spec_file_weights_are_bounded(tmp_path):
    # h_eigenvalue raises h's entries to the weights by repeated products, so
    # a weight entry past MAX_WEIGHT is refused, naming its generator
    doc = to_json(load_preset("uq-sl3-plus"))
    doc["h"][0] = ["q+1", "1"]
    path = tmp_path / "spec.json"
    for e, rc_expected in ((MAX_WEIGHT, 1), (-MAX_WEIGHT, 1), (MAX_WEIGHT + 1, 2),
                           (-MAX_WEIGHT - 1, 2)):
        doc["weights"][0] = [e, 0]
        path.write_text(json.dumps(doc), encoding="utf-8")
        rc, out, err = run_cli(["axioms", "-a", str(path)])
        assert rc == rc_expected, (e, err)
        if rc == 2:
            assert err == "error: torus weight [%d, 0] of g_1 is past the bound |e| <= %d\n" % (
                e, MAX_WEIGHT) and not out
        else:
            assert "FAIL level 2 (d)" in out


def test_cli_spec_file_non_integer_torus_rank(tmp_path):
    path = tmp_path / "spec.json"
    for bad in (3.7, True, "3"):
        doc = to_json(oqm(1, 2))
        del doc["qmat"]
        doc["torus_rank"] = bad
        path.write_text(json.dumps(doc), encoding="utf-8")
        rc, out, err = run_cli(["weight", "x[1,1]", "-a", str(path)])
        assert rc == 2 and err.startswith("error:") and not out, bad


def test_cli_spec_file_bad_entries(tmp_path):
    path = tmp_path / "spec.json"
    cases = [("lambda", [[2, 1, "q/0"]]),
             ("level_q", [[2, "(q-q)^-1"]]),
             # a syntax tree as a JSON list would bypass the exponent cap
             ("lambda", [[2, 1, ["pow", ["q"], MAX_EXPONENT + 1]]]),
             ("h", [[["q"], "1"], ["q", "q"]])]
    for key, value in cases:
        doc = to_json(load_preset("qplane"))
        doc[key] = value
        path.write_text(json.dumps(doc), encoding="utf-8")
        rc, _, err = run_cli(["axioms", "-a", str(path)])
        assert rc == 2 and err.startswith("error:"), (key, value)


# parse_scalar and eval_free are evaluate over a free algebra of words: they
# reject what has no meaning there, and division by 0 is a usage error.

def test_parse_scalar_rejects_non_scalars():
    for text in ("x[1,1]", "X", "[1|1]"):
        with pytest.raises(ExprEvalError):
            parse_scalar(text)


def test_eval_free_rejects_what_has_no_word_meaning():
    for text in ("X", "[1|1]", "x[1,1]^-1", "x[3,3]"):
        with pytest.raises(ExprEvalError):
            eval_free(text, ALG.names)


def test_division_by_zero_is_a_usage_error():
    for text in ("1/0", "q/(q-q)", "0^-1"):
        with pytest.raises((ValueError, ZeroDivisionError)):
            parse_scalar(text)
    for text in ("x[1,1]/0", "x[1,1]*(q-q)^-2"):
        with pytest.raises((ValueError, ZeroDivisionError)):
            eval_free(text, ALG.names)
        rc, _, err = run_cli(["nf", text])
        assert rc == 2 and err.startswith("error:"), text


def test_cli_exponent_cap():
    rc, out, err = run_cli(["nf", "--", "q^-%d" % MAX_EXPONENT])
    assert rc == 0, err
    assert out.strip() == "q^-%d" % MAX_EXPONENT
    for text in ("x[1,1]^%d" % (MAX_EXPONENT + 1), "q^-%d" % (MAX_EXPONENT + 1)):
        rc, _, err = run_cli(["nf", "--", text])
        assert rc == 2 and "exceeds" in err and "position" in err


def test_cli_power_size_bound():
    # a partial power is refused once its terms plus coefficient entries pass
    # the bound: (q+1)^k has one term and k+1 numerator entries over 1
    largest = MAX_POWER_SIZE - 3
    rc, out, err = run_cli(["nf", "--", "(q+1)^%d" % largest])
    assert rc == 0, err
    for text, power, at in (("(q+1)^%d" % (largest + 1), "^%d" % (largest + 1), largest + 1),
                            ("(q+1)^-2048", "^-2048", largest + 1),
                            ("(x[1,1]+x[1,2])^128", "^128", None),
                            ("((q+1)/(q-1))^4096", "^4096", None)):
        rc, out, err = run_cli(["nf", "--", text])
        assert rc == 2 and not out, text
        assert err.startswith("error: the power %s passes %d terms" % (power, MAX_POWER_SIZE)), err
        if at is not None:
            assert err.rstrip().endswith("at ^%d" % at), err
    with pytest.raises(ExprEvalError, match="passes"):
        parse_scalar("(q+1)^%d" % (largest + 1))
    # powers of one word or of a signed power of q stay small at any exponent
    for text, want in (("x[1,1]^%d" % MAX_EXPONENT, "x[1,1]^%d" % MAX_EXPONENT),
                       ("q^%d" % MAX_EXPONENT, "q^%d" % MAX_EXPONENT),
                       ("(-q)^-%d" % MAX_EXPONENT, "q^-%d" % MAX_EXPONENT),
                       ("(q*x[2,2]^2)^-1", "q^-1*X^-2")):
        rc, out, err = run_cli(["nf", "--", text])
        assert rc == 0 and out.strip() == want, (text, out, err)


def test_cli_cauchon_bounds():
    rc, out, _ = run_cli(["cauchon", "count", "5", "5", "--json"])
    assert rc == 0
    doc = json.loads(out)
    jsonschema.validate(doc, OUTPUT_SCHEMA)
    assert doc["result"]["count"] == 329462
    for argv in (["cauchon", "list", "5", "5"],
                 ["cauchon", "count", "9", "8"],
                 ["cauchon", "histogram", "1", "65"]):
        rc, _, err = run_cli(argv)
        assert rc == 2 and err.startswith("error:"), argv
    # within the 20-cell limit, a list past LIST_LIMIT diagrams is refused
    for m, n in ((1, 17), (2, 10), (10, 2)):
        rc, out, err = run_cli(["cauchon", "list", str(m), str(n)])
        assert rc == 2 and out == "" and err.startswith("error:"), (m, n)
        assert str(count(m, n)) in err and str(LIST_LIMIT) in err, err


def test_cli_cauchon_list_json_builds_no_text(monkeypatch):
    # sorted (row, col) tuples, which json writes as [row, col] arrays
    expected = json.loads(json.dumps(list(enumerate_diagrams(3, 4))))
    with monkeypatch.context() as patch:
        def refuse(m, n):
            raise AssertionError("text formatted under --json")
        patch.setattr(cli, "diagram_drawings", refuse)
        rc, out, _ = run_cli(["cauchon", "list", "3", "4", "--json"])
    assert rc == 0
    assert json.loads(out)["result"]["diagrams"] == expected and len(expected) == 1066
    rc, out, _ = run_cli(["cauchon", "list", "2", "2"])
    assert rc == 0
    assert out == "\n\n".join(diagram_drawings(2, 2)) + "\n"
    assert out.count("\n\n") == count(2, 2) - 1


def test_cli_verify_small():
    rc, out, _ = run_cli(["verify", "paper", "--size", "2,2", "--json"])
    doc = json.loads(out)
    jsonschema.validate(doc, OUTPUT_SCHEMA)
    assert rc == 0 and doc["ok"]
    assert len(doc["result"]["checks"]) == 9


def test_cli_verify_size_bounds():
    for size in ("0,2", "3,2", "5,5", "", " ", "2", ",3", "2,x"):
        rc, _, err = run_cli(["verify", "paper", "--size", size])
        assert rc == 2 and err.startswith("error:"), size
    assert run_cli(["verify", "paper", "--size", "2,x"]) == (2, "", "error: --size expects m,n\n")
    rc, _, _ = run_cli(["verify", "paper", "--size", "2,3"])
    assert rc == 0


def test_cli_verify_takes_no_sample_options(capsys):
    # no criterion draws samples, so there is no --pairs or --triples to bound
    for option in ("--pairs", "--triples"):
        with pytest.raises(SystemExit) as info:
            main(["verify", "paper", "--size", "2,2", option, "5"])
        assert info.value.code == 2 and not capsys.readouterr().out, option


def test_cli_axioms_nilpotence_bound_edge():
    # d_4 x[1,1] != 0 = d_4^2 x[1,1] on O_q(M_2): check (b) passes exactly
    # when the bound reaches that index, 1
    rc, out, _ = run_cli(["axioms", "-a", "qmat:2,2", "--nilpotence-bound", "0"])
    assert rc == 1
    assert [line for line in out.splitlines() if line.startswith("FAIL")] == [
        "FAIL level 4 (b) locally nilpotent delta -- delta_4 not nilpotent within 0"]
    rc, out, _ = run_cli(["axioms", "-a", "qmat:2,2", "--nilpotence-bound", "1"])
    assert rc == 0 and "FAIL" not in out


def test_cli_budgets():
    for argv in (["nf", "x[2,2]*x[1,1]", "--steps-budget", "-1"],
                 ["theta", "x[1,1]", "--nilpotence-bound", "-1"],
                 ["axioms", "--nilpotence-bound", "-1"]):
        rc, _, err = run_cli(argv)
        assert rc == 2 and err.startswith("error:"), argv
    # a budget of 0 still means no step, and exceeding it is a failed computation
    rc, _, err = run_cli(["nf", "x[2,2]*x[1,1]", "--steps-budget", "0"])
    assert rc == 1 and err == "error: straightening x[2,2]*x[1,1] exceeded 0 steps\n"
    rc, out, _ = run_cli(["nf", "x[1,1]*x[2,2]", "--steps-budget", "0"])
    assert rc == 0 and out.strip() == "x[1,1]*x[2,2]"
    # the word that ran out is named with its runs as powers, as normal forms are
    rc, _, err = run_cli(["nf", "-a", "qmat:2,2", "x[2,2]^2000*x[1,1]"])
    assert rc == 1 and err == "error: straightening x[2,2]^2000*x[1,1] exceeded %d steps\n" \
        % STEPS_BUDGET
    rc, _, err = run_cli(["theta", "x[1,1]", "--nilpotence-bound", "0"])
    assert rc == 1 and "bound 0" in err


def test_cli_maps_resource_and_arithmetic_errors_to_exit_codes(monkeypatch):
    # ZeroDivisionError is an ArithmeticError, but stays a usage error
    cases = [(ZeroDivisionError("division by zero"), 2, "error: division by zero\n"),
             (OverflowError("int too large"), 1, "error: int too large\n"),
             (ArithmeticError("bad arithmetic"), 1, "error: bad arithmetic\n"),
             (RecursionError("maximum recursion depth exceeded"), 1,
              "error: maximum recursion depth exceeded\n"),
             (MemoryError(), 1, "error: MemoryError\n")]
    for exc, code, message in cases:
        def handler(args, exc=exc):
            raise exc
        monkeypatch.setitem(cli._HANDLERS, "nf", handler)
        assert run_cli(["nf", "x[1,1]"]) == (code, "", message), exc


# Each command takes only the options its handler reads: --json everywhere,
# --algebra where an algebra is loaded, --steps-budget where one computes,
# --nilpotence-bound on theta and axioms, --seed on verify.
_COMMAND_ARGS = {
    "algebra": [],
    "nf": ["x[2,2]*x[1,1]"],
    "minor": ["1,2", "1,2"],
    "qcommute": ["x[1,1]", "x[1,2]"],
    "normal": ["x[1,2]"],
    "weight": ["x[1,1]"],
    "cauchon": ["count", "2", "2"],
    "theta": ["x[1,1]"],
    "verify": ["paper"],
    "axioms": [],
}
_OPTION_VALUES = {"--json": [], "-a": ["qmat:2,2"], "--algebra": ["qmat:2,2"],
                  "--seed": ["7"], "--nilpotence-bound": ["8"], "--steps-budget": ["100"]}
_LOADS = {"--json", "-a", "--algebra", "--steps-budget"}
_TAKES = {
    "algebra": {"--json", "-a", "--algebra"},
    "nf": _LOADS, "minor": _LOADS, "qcommute": _LOADS, "normal": _LOADS, "weight": _LOADS,
    "cauchon": {"--json"},
    "theta": _LOADS | {"--nilpotence-bound"},
    "verify": {"--json", "--seed"},
    "axioms": _LOADS | {"--nilpotence-bound"},
}


def test_cli_options_per_command(monkeypatch):
    from qcgl import verify

    monkeypatch.setattr(verify, "run_paper_suite", lambda size=None: [])
    dropped = 0
    for command, args in _COMMAND_ARGS.items():
        for option, value in _OPTION_VALUES.items():
            argv = [command] + args + [option] + value
            if option in _TAKES[command]:
                rc, _, err = run_cli(argv)
                assert rc == 0, (argv, err)
                continue
            with pytest.raises(SystemExit) as exc:
                run_cli(argv)
            assert exc.value.code == 2, argv
            dropped += option != "--algebra"  # one slot with -a
    assert dropped == 22


def test_cli_reuses_one_parser():
    from qcgl.cli import build_parser

    parser = build_parser()
    builds = build_parser.cache_info().misses
    rc, _, err = run_cli(["theta", "x[1,1]", "--nilpotence-bound", "0"])
    assert rc == 1 and "bound 0" in err
    rc, out, _ = run_cli(["theta", "x[1,1]"])
    assert rc == 0 and out == "x[1,1] - q*x[1,2]*x[2,1]*X^-1\n"
    rc, out, _ = run_cli(["nf", "-a", "qplane", "g_2*g_1", "--steps-budget", "0"])
    assert rc == 1
    rc, out, _ = run_cli(["nf", "g_2*g_1"])
    assert rc == 2  # the default algebra is back
    assert build_parser() is parser and build_parser.cache_info().misses == builds


def test_cli_envelope_names_the_algebra():
    for argv, algebra in ((["algebra", "-a", "qmat:2,3"], "qmat:2,3"),
                          (["algebra", "-a", "qplane"], "qplane"),
                          (["algebra", "-a", "uq-sl3-plus"], "uq-sl3-plus"),
                          (["algebra"], "qmat:2,2"),
                          (["nf", "g_2", "-a", "qplane"], "qplane"),
                          (["axioms"], "qmat:2,2"),
                          (["cauchon", "count", "2", "2"], None)):
        rc, out, _ = run_cli(argv + ["--json"])
        assert rc == 0 and json.loads(out)["algebra"] == algebra, argv


def test_cli_algebra_parameter_counts():
    # `algebra` names its algebra with -a like every other command
    for argv in (["algebra", "qplane"], ["algebra", "qmat", "2", "3"],
                 ["algebra", "preset", "uq-sl3-plus"], ["algebra", "-a"]):
        with pytest.raises(SystemExit) as exc:
            run_cli(argv)
        assert exc.value.code == 2, argv
    rc, out, err = run_cli(["algebra", "-a", "no-such-algebra"])
    assert rc == 2 and not out and err.startswith("error: unknown algebra 'no-such-algebra'")


def test_cli_quantum_matrix_size_bound(tmp_path):
    for m, n in ((21, 20), (1, 401)):
        with pytest.raises(ValueError, match="at most 400"):
            oqm(m, n)
    doc = to_json(oqm(1, 2))
    doc["qmat"] = [21, 20]
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    for argv in (["nf", "-a", "qmat:21,20", "x[1,1]"], ["nf", "-a", "qmat:1,401", "x[1,1]"],
                 ["algebra", "-a", "qmat:21,20"], ["algebra", "-a", "qmat:1,401"],
                 ["axioms", "-a", str(path)]):
        rc, out, err = run_cli(argv)
        assert rc == 2 and err.startswith("error:") and "at most 400" in err, argv


def test_cli_minor_size_bound(monkeypatch):
    # a minor on t rows sums t! words: 10 rows are refused before any is formed
    def no_enumeration(*args):
        raise AssertionError("permutations enumerated")

    monkeypatch.setattr(qmat, "permutations", no_enumeration)
    ten = ",".join(map(str, range(1, 11)))
    for argv in (["minor", "-a", "qmat:10,10", ten, ten],
                 ["nf", "-a", "qmat:10,10", "[%s|%s]" % (ten, ten)]):
        rc, out, err = run_cli(argv)
        assert rc == 2 and not out and err.startswith("error:"), argv
        assert "at most %d rows" % qmat.MAX_MINOR_ROWS in err, argv
    with pytest.raises(AssertionError, match="permutations enumerated"):
        oqm(9, 9).minor(range(1, 10), range(1, 10))
    # an index below 1 names the minor the user wrote, not one of its generators
    for argv in (["minor", "0,1", "1,2"], ["nf", "[0,1|1,2]"]):
        assert run_cli(argv) == (2, "", "error: minor [0,1|1,2] does not fit the 2x2 grid\n")
    # an index that is no integer names the form minor expects
    for rows, cols in (("1,x", "1,2"), ("1,2", "1,"), ("", "1")):
        assert run_cli(["minor", rows, cols]) == (
            2, "", "error: minor expects comma-separated integer indices, e.g. 1,2 1,3\n")


# README examples whose comment is their literal output
README_EXAMPLES = (
    'qcgl nf "x[2,2]*x[1,1]"',
    "qcgl minor 1,2 1,2",
    'qcgl qcommute "x[1,2]" "x[1,1]"',
    'qcgl weight "x[1,1]"',
    "qcgl cauchon count 2 2",
    "qcgl cauchon count 5 5",
    'qcgl theta "x[1,1]"',
)


def test_readme_examples_print_their_comments():
    # an example's first output line is its comment, less a parenthesised note
    readme = Path(__file__).resolve().parents[1] / "README.md"
    comments = {}
    for line in readme.read_text(encoding="utf-8").splitlines():
        command, sep, comment = line.partition("  # ")
        if sep and command.startswith("qcgl "):
            comments[command.strip()] = re.sub(r" \(.*\)$", "", comment.strip())
    for command in README_EXAMPLES:
        rc, out, _ = run_cli(shlex.split(command)[1:])
        assert rc == 0 and out.splitlines()[0] == comments[command], command


def test_readme_library_block_prints_its_comment():
    # the block runs as written: its assert holds, it prints the comment on
    # its print line, and it sets no attribute an algebra does not have
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## Library\n", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    (comment,) = [line.partition("  # ")[2] for line in block.splitlines()
                  if line.startswith("print(")]
    namespace, out = {}, io.StringIO()
    with redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), namespace)
    assert "assert " in block and out.getvalue() == comment + "\n"
    assert vars(namespace["alg"]).keys() == vars(oqm(2, 2)).keys()


def test_cli_uq_preset_relation():
    # g_3 g_1 = q g_1 g_3 - q g_2 in the quantized enveloping preset
    rc, out, _ = run_cli(["nf", "-a", "uq-sl3-plus", "g_3*g_1"])
    assert rc == 0
    assert out.strip() == "-q*g_2 + q*g_1*g_3"


def test_every_exported_name_resolves():
    # `from qcgl import *` reads __all__, so a deleted export breaks it
    import qcgl

    assert all(hasattr(qcgl, name) for name in qcgl.__all__)
    namespace = {}
    exec("from qcgl import *", namespace)
    assert set(qcgl.__all__) <= set(namespace)


def test_start_up_imports_neither_dataclasses_nor_the_verify_suite():
    # every process pays for what importing the CLI imports: the report
    # classes are plain classes, only `verify` loads the suite, and presets
    # finds its files beside its module with open, not through
    # importlib.resources; -S keeps the interpreter's site-packages hooks out
    # of the count
    src = str(Path(__file__).resolve().parents[1] / "src")
    unwanted = {"dataclasses", "inspect", "qcgl.verify", "importlib.resources", "pathlib",
                "tempfile"}
    code = ("import sys; sys.path.insert(0, %r); import qcgl, qcgl.cli; "
            "print(sorted(%r & set(sys.modules)))" % (src, unwanted))
    done = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          check=True, timeout=60)
    assert done.stdout == "[]\n", done.stdout
