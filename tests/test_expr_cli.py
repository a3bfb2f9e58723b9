import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout

import jsonschema
import pytest

from qcgl.cli import main
from qcgl.coef import ONE, Q
from qcgl.delderiv import LaurentElem, format_laurent, theta
from qcgl.expr import (ExprEvalError, ExprSyntaxError, eval_free, evaluate, parse,
                       parse_scalar)
from qcgl.ncalg import format_poly, quantum_plane, random_poly
from qcgl.qmat import oqm
from qcgl.schema import OUTPUT_SCHEMA

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
    assert v.nterms() == 2


def test_eval_power_zero():
    assert evaluate(ALG, "(x[1,2])^0") == ALG.one()


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
    assert evaluate(ALG, "X*X^-1", allow_x=True) == LaurentElem.one()
    with pytest.raises(ExprEvalError):
        evaluate(ALG, "X", allow_x=False)
    with pytest.raises(ExprEvalError):
        evaluate(ALG, "(x[1,1]+X)^-1", allow_x=True)


def test_syntax_errors_carry_positions():
    with pytest.raises(ExprSyntaxError) as err:
        parse("x[1,1] + %")
    assert err.value.pos == 9
    with pytest.raises(ExprSyntaxError):
        parse("x[1,1]*")
    with pytest.raises(ExprSyntaxError):
        parse("[1,2|")
    with pytest.raises(ExprEvalError):
        evaluate(ALG, "g_1")  # unknown generator for this algebra
    with pytest.raises(ExprEvalError):
        evaluate(quantum_plane(), "[1|1]")  # minors need a matrix algebra


def test_print_parse_identity_on_normal_forms():
    rng = random.Random(0)
    for alg in (ALG, oqm(2, 3), quantum_plane()):
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
        ["algebra", "qmat", "2", "2", "--json"],
        ["algebra", "preset", "uq-sl3-plus", "--json"],
        ["nf", "--json", "-a", "uq-sl3-plus", "g_3*g_1"],
    ]
    for argv in cases:
        rc, out, _ = run_cli(argv)
        assert rc == 0, argv
        doc = json.loads(out)
        jsonschema.validate(doc, OUTPUT_SCHEMA)


def test_cli_algebra_from_spec_file(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(quantum_plane().to_json()), encoding="utf-8")
    rc, out, _ = run_cli(["nf", "-a", str(path), "g_2*g_1"])
    assert rc == 0 and out.strip() == "q*g_1*g_2"


def test_cli_verify_small():
    rc, out, _ = run_cli(["verify", "paper", "--size", "2,2",
                          "--pairs", "5", "--triples", "20", "--json"])
    doc = json.loads(out)
    jsonschema.validate(doc, OUTPUT_SCHEMA)
    assert rc == 0 and doc["ok"]
    assert len(doc["result"]["checks"]) == 9


def test_cli_seed_env_default(monkeypatch):
    from qcgl.cli import build_parser

    monkeypatch.setenv("QCGL_SEED", "12345")
    args = build_parser().parse_args(["verify", "paper"])
    assert args.seed == 12345
    args = build_parser().parse_args(["verify", "paper", "--seed", "7"])
    assert args.seed == 7


def test_cli_uq_preset_relation():
    # g_3 g_1 = q g_1 g_3 - q g_2 in the quantized enveloping preset
    rc, out, _ = run_cli(["nf", "-a", "uq-sl3-plus", "g_3*g_1"])
    assert rc == 0
    assert out.strip() == "-q*g_2 + q*g_1*g_3"
