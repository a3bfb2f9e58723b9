"""Command-line front end.

Exit codes: 0 success, 1 verification failure (or a computation that hit a
budget), 2 usage or parse errors.  The active algebra is chosen per
invocation with --algebra (qmat:M,N, qplane, uq-sl3-plus, or a spec file);
there is no persistent session state.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import verify as verify_mod
from .cauchon import count, count_by_black, enumerate_diagrams
from .delderiv import LaurentElem, format_laurent, theta, theta_alt
from .expr import ExprEvalError, ExprSyntaxError, evaluate
from .ncalg import NcPoly, NilpotenceBoundExceeded, StepBudgetExceeded, format_poly
from .presets import load_algebra, load_preset
from .qmat import oqm

USAGE_ERROR = 2
CHECK_FAILED = 1


def _common_options():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--algebra", "-a", default="qmat:2,2",
                        help="active algebra: qmat:M,N | qplane | uq-sl3-plus | spec file")
    common.add_argument("--json", action="store_true", help="machine-readable output")
    common.add_argument("--seed", type=int,
                        default=int(os.environ.get("QCGL_SEED", verify_mod.DEFAULT_SEED)),
                        help="seed for randomised property suites")
    common.add_argument("--nilpotence-bound", type=int, default=64,
                        help="bound for nilpotence-terminated computations")
    common.add_argument("--steps-budget", type=int, default=10**6,
                        help="rewriting step budget per normal form")
    return common


def build_parser():
    common = _common_options()
    parser = argparse.ArgumentParser(
        prog="qcgl",
        description="Exact computations in iterated skew polynomial algebras of "
                    "CGL type: PBW normal forms, quantum minors, torus weights, "
                    "q-commutation, Cauchon diagrams and deleting derivations. "
                    "Options such as --json and --algebra go after the command.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("algebra", parents=[common],
                       help="print the serialized spec of a named algebra")
    p.add_argument("kind", choices=["qmat", "qplane", "preset"])
    p.add_argument("params", nargs="*", help="qmat: M N; preset: NAME")

    p = sub.add_parser("nf", parents=[common], help="normal form of an expression")
    p.add_argument("expr")

    p = sub.add_parser("minor", parents=[common], help="quantum minor [I|J]")
    p.add_argument("rows", help="comma-separated row indices, e.g. 1,2")
    p.add_argument("cols", help="comma-separated column indices, e.g. 1,3")

    p = sub.add_parser("qcommute", parents=[common],
                       help="the exponent s with ab = q^s ba, or none")
    p.add_argument("expr1")
    p.add_argument("expr2")

    p = sub.add_parser("normal", parents=[common],
                       help="q-commutation exponents against every generator")
    p.add_argument("expr")

    p = sub.add_parser("weight", parents=[common],
                       help="torus weight of an expression, or inhomogeneous")
    p.add_argument("expr")

    p = sub.add_parser("cauchon", parents=[common], help="Cauchon diagram combinatorics")
    p.add_argument("action", choices=["count", "list", "histogram"])
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)

    p = sub.add_parser("theta", parents=[common],
                       help="deleting-derivations image of a base-algebra element")
    p.add_argument("expr")
    p.add_argument("--alt", action="store_true",
                   help="use the expansion with the q^(n^2) twist")

    p = sub.add_parser("verify", parents=[common],
                       help="run the claims-verification suite; exit 1 on failure")
    p.add_argument("suite", choices=["paper"])
    p.add_argument("--size", help="restrict size-parameterised checks, e.g. 2,2")
    p.add_argument("--pairs", type=int, default=100)
    p.add_argument("--triples", type=int, default=500)

    sub.add_parser("axioms", parents=[common],
                   help="CGL axiom report for the active algebra")
    return parser


def _emit(args, command, ok, result, text, algebra=None):
    if args.json:
        doc = {"command": command, "ok": ok, "algebra": algebra, "result": result}
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(text)
    return 0 if ok else CHECK_FAILED


def _load(args):
    return load_algebra(args.algebra, steps_budget=args.steps_budget)


def _cmd_algebra(args):
    if args.kind == "qmat":
        if len(args.params) != 2:
            raise ValueError("usage: algebra qmat M N")
        alg = oqm(int(args.params[0]), int(args.params[1]))
        label = "qmat:%s,%s" % tuple(args.params)
    elif args.kind == "qplane":
        alg = load_preset("qplane")
        label = "qplane"
    else:
        if len(args.params) != 1:
            raise ValueError("usage: algebra preset NAME")
        alg = load_preset(args.params[0])
        label = args.params[0]
    doc = alg.to_json()
    return _emit(args, "algebra", True, {"spec": doc},
                 json.dumps(doc, indent=2), algebra=label)


def _cmd_nf(args):
    alg = _load(args)
    value = evaluate(alg, args.expr, allow_x=True)
    if isinstance(value, LaurentElem):
        text = format_laurent(alg.names, value)
    else:
        text = format_poly(alg.names, value)
    return _emit(args, "nf", True, {"value": text}, text, algebra=args.algebra)


def _cmd_minor(args):
    alg = _load(args)
    if not hasattr(alg, "minor"):
        raise ValueError("minors need a quantum matrix algebra (use --algebra qmat:M,N)")
    rows = tuple(int(v) for v in args.rows.split(","))
    cols = tuple(int(v) for v in args.cols.split(","))
    text = format_poly(alg.names, alg.minor(rows, cols))
    return _emit(args, "minor", True, {"value": text}, text, algebra=args.algebra)


def _required_poly(alg, source):
    value = evaluate(alg, source, allow_x=False)
    if not isinstance(value, NcPoly):
        raise ValueError("expression must be a plain algebra element")
    return value


def _cmd_qcommute(args):
    alg = _load(args)
    a = _required_poly(alg, args.expr1)
    b = _required_poly(alg, args.expr2)
    s = alg.qcommute_exponent(a, b)
    return _emit(args, "qcommute", True, {"exponent": s},
                 "none" if s is None else str(s), algebra=args.algebra)


def _cmd_normal(args):
    alg = _load(args)
    report = alg.is_normal(_required_poly(alg, args.expr))
    result = {"normal": report.ok, "names": list(report.names),
              "exponents": list(report.exponents)}
    return _emit(args, "normal", True, result, str(report), algebra=args.algebra)


def _cmd_weight(args):
    alg = _load(args)
    w = alg.torus_weight(_required_poly(alg, args.expr))
    result = {"homogeneous": w is not None, "weight": None if w is None else list(w)}
    text = "inhomogeneous" if w is None else "(%s)" % ", ".join(map(str, w))
    return _emit(args, "weight", True, result, text, algebra=args.algebra)


def _cmd_cauchon(args):
    m, n = args.m, args.n
    result = {"m": m, "n": n}
    if args.action == "count":
        value = count(m, n)
        result["count"] = value
        text = str(value)
    elif args.action == "histogram":
        hist = count_by_black(m, n)
        result["histogram"] = {str(k): v for k, v in hist.items()}
        text = "\n".join("%d: %d" % (k, v) for k, v in hist.items())
    else:
        diagrams = list(enumerate_diagrams(m, n))
        result["diagrams"] = [d.to_cells() for d in diagrams]
        text = "\n\n".join(str(d) for d in diagrams)
    return _emit(args, "cauchon", True, result, text)


def _cmd_theta(args):
    alg = _load(args)
    a = _required_poly(alg, args.expr)
    image = (theta_alt if args.alt else theta)(alg, a, bound=args.nilpotence_bound)
    text = format_laurent(alg.names, image)
    return _emit(args, "theta", True, {"value": text}, text, algebra=args.algebra)


def _cmd_verify(args):
    size = None
    if args.size:
        size = tuple(int(v) for v in args.size.split(","))
        if len(size) != 2:
            raise ValueError("--size expects m,n")
    results = verify_mod.run_paper_suite(size=size, seed=args.seed,
                                         pairs=args.pairs, triples=args.triples)
    ok = all(r.ok for r in results)
    lines = []
    for r in results:
        lines.append("%s %-35s %6.2fs  %s"
                     % ("PASS" if r.ok else "FAIL", r.name, r.seconds, r.detail))
    lines.append("verify: %s" % ("all checks passed" if ok else "FAILURES PRESENT"))
    result = {"ok": ok, "checks": [
        {"name": r.name, "ok": r.ok, "detail": r.detail, "seconds": r.seconds}
        for r in results]}
    return _emit(args, "verify", ok, result, "\n".join(lines))


def _cmd_axioms(args):
    alg = _load(args)
    report = alg.check_cgl_axioms(nilpotence_bound=args.nilpotence_bound)
    result = {"ok": report.ok, "checks": [
        {"level": c.level, "axiom": c.axiom, "ok": c.ok, "detail": c.detail}
        for c in report.checks]}
    return _emit(args, "axioms", report.ok, result, str(report), algebra=args.algebra)


_HANDLERS = {
    "algebra": _cmd_algebra,
    "nf": _cmd_nf,
    "minor": _cmd_minor,
    "qcommute": _cmd_qcommute,
    "normal": _cmd_normal,
    "weight": _cmd_weight,
    "cauchon": _cmd_cauchon,
    "theta": _cmd_theta,
    "verify": _cmd_verify,
    "axioms": _cmd_axioms,
}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except (ExprSyntaxError, ExprEvalError, ValueError, ZeroDivisionError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return USAGE_ERROR
    except (StepBudgetExceeded, NilpotenceBoundExceeded) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return CHECK_FAILED


def console_main():
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
