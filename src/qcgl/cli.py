"""Command-line front end.

Exit codes: 0 success, 1 verification failure (or a computation that hit a
budget), 2 usage or parse errors.  The active algebra is chosen per
invocation with --algebra (qmat:M,N, a preset name, or a spec file);
there is no persistent session state.  Each command takes only the options
its handler reads.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import verify as verify_mod
from .cauchon import SIZE_LIMIT, count, count_by_black, diagram_drawings, diagram_json
from .delderiv import LaurentElem, format_laurent, theta, theta_alt
from .expr import evaluate
from .ncalg import (NILPOTENCE_BOUND, STEPS_BUDGET, NilpotenceBoundExceeded,
                    StepBudgetExceeded, format_poly)
from .presets import load_algebra, load_preset, load_unchecked, preset_names, to_json

USAGE_ERROR = 2
CHECK_FAILED = 1
LIST_LIMIT = 2 ** 16  # diagrams printed by one `cauchon list`


@functools.cache
def build_parser():
    """The command-line parser, built once per process and shared by every call."""
    json_opt = argparse.ArgumentParser(add_help=False)
    json_opt.add_argument("--json", action="store_true", help="machine-readable output")
    # for the commands that load an algebra
    algebra_opts = argparse.ArgumentParser(add_help=False)
    algebra_opts.add_argument("--algebra", "-a", default="qmat:2,2",
                              help="active algebra: qmat:M,N | %s | spec file"
                                   % " | ".join(preset_names()))
    algebra_opts.add_argument("--steps-budget", type=int, default=STEPS_BUDGET,
                              help="rewriting step budget per normal form")
    loads = [json_opt, algebra_opts]
    bounded = argparse.ArgumentParser(add_help=False, parents=loads)
    bounded.add_argument("--nilpotence-bound", type=int, default=NILPOTENCE_BOUND,
                         help="bound for nilpotence-terminated computations")

    parser = argparse.ArgumentParser(
        prog="qcgl",
        description="Exact computations in iterated skew polynomial algebras of "
                    "CGL type: PBW normal forms, quantum minors, torus weights, "
                    "q-commutation, Cauchon diagrams and deleting derivations. "
                    "Options such as --json and --algebra go after the command.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("algebra", parents=[json_opt],
                       help="print the serialized spec of a named algebra")
    p.add_argument("kind", choices=["qmat", "qplane", "preset"])
    p.add_argument("params", nargs="*", help="qmat: M N; preset: NAME")

    p = sub.add_parser("nf", parents=loads, help="normal form of an expression")
    p.add_argument("expr")

    p = sub.add_parser("minor", parents=loads, help="quantum minor [I|J]")
    p.add_argument("rows", help="comma-separated row indices, e.g. 1,2")
    p.add_argument("cols", help="comma-separated column indices, e.g. 1,3")

    p = sub.add_parser("qcommute", parents=loads,
                       help="the exponent s with ab = q^s ba, or none")
    p.add_argument("expr1")
    p.add_argument("expr2")

    p = sub.add_parser("normal", parents=loads,
                       help="q-commutation exponents against every generator")
    p.add_argument("expr")

    p = sub.add_parser("weight", parents=loads,
                       help="torus weight of an expression, or inhomogeneous")
    p.add_argument("expr")

    p = sub.add_parser("cauchon", parents=[json_opt], help="Cauchon diagram combinatorics")
    p.add_argument("action", choices=["count", "list", "histogram"])
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)

    p = sub.add_parser("theta", parents=[bounded],
                       help="deleting-derivations image of a base-algebra element")
    p.add_argument("expr")
    p.add_argument("--alt", action="store_true",
                   help="use the expansion with the q^(n^2) twist")

    p = sub.add_parser("verify", parents=[json_opt],
                       help="run the claims-verification suite; exit 1 on failure")
    p.add_argument("suite", choices=["paper"])
    # parsed for the scripts that pass one, such as every paper job of
    # perfbench/workloads.py; no check reads it
    p.add_argument("--seed", type=int, help="ignored: the suite draws no samples")
    p.add_argument("--size", help="restrict size-parameterised checks to one m,n "
                                  "grid with m <= n and at most %d cells" % SIZE_LIMIT)

    sub.add_parser("axioms", parents=[bounded],
                   help="CGL axiom report for the active algebra")
    return parser


# Each handler returns (ok, result, text): the verdict, the --json result and
# the plain-text output, which a handler may leave as None under --json.  A
# result may hold a report's own vars(), so nothing changes a result once made.
# A result whose "diagrams" is [] gives, as its text, the JSON text of that array.


def _load(args, load=load_algebra):
    # loaded, and checked, at the default budget; the command runs at its own
    alg = load(args.algebra)
    alg.steps_budget = args.steps_budget
    return alg


def _cmd_algebra(args):
    form = {"qmat": "M N", "qplane": "", "preset": "NAME"}[args.kind]
    if len(args.params) != len(form.split()):
        raise ValueError(("usage: algebra %s %s" % (args.kind, form)).rstrip())
    if args.kind == "qmat":
        # the envelope names the printed algebra
        args.algebra = "qmat:%s,%s" % tuple(args.params)
        alg = load_algebra(args.algebra)
    else:
        args.algebra = args.params[0] if args.params else "qplane"
        alg = load_preset(args.algebra)
    doc = to_json(alg)
    return True, {"spec": doc}, json.dumps(doc, indent=2)


def _cmd_nf(args):
    alg = _load(args)
    value = evaluate(alg, args.expr, allow_x=True)
    if isinstance(value, LaurentElem):
        text = format_laurent(alg.names, value)
    else:
        text = format_poly(alg.names, value)
    return True, {"value": text}, text


def _cmd_minor(args):
    alg = _load(args)
    if not hasattr(alg, "minor"):
        raise ValueError("minors need a quantum matrix algebra (use --algebra qmat:M,N)")
    try:
        rows, cols = (tuple(int(v) for v in arg.split(",")) for arg in (args.rows, args.cols))
    except ValueError:
        raise ValueError("minor expects comma-separated integer indices, e.g. 1,2 1,3") from None
    text = format_poly(alg.names, alg.minor(rows, cols))
    return True, {"value": text}, text


def _cmd_qcommute(args):
    alg = _load(args)
    a = evaluate(alg, args.expr1)
    b = evaluate(alg, args.expr2)
    s = alg.qcommute_exponent(a, b)
    return True, {"exponent": s}, "none" if s is None else str(s)


def _cmd_normal(args):
    alg = _load(args)
    report = alg.is_normal(evaluate(alg, args.expr))
    return True, dict(vars(report), normal=report.ok), str(report)


def _cmd_weight(args):
    alg = _load(args)
    w = alg.torus_weight(evaluate(alg, args.expr))
    result = {"homogeneous": w is not None, "weight": None if w is None else list(w)}
    return True, result, "inhomogeneous" if w is None else "(%s)" % ", ".join(map(str, w))


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
        # a grid of k cells has at most 2^k diagrams; only past that is a count needed
        if m * n <= SIZE_LIMIT and 2 ** (m * n) > LIST_LIMIT:
            total = count(m, n)
            if total > LIST_LIMIT:
                raise ValueError("the %dx%d grid has %d diagrams, more than the list "
                                 "limit of %d" % (m, n, total, LIST_LIMIT))
        if args.json:
            # main splices this text in where the result holds []
            result["diagrams"] = []
            text = "[%s]" % ", ".join(diagram_json(m, n))
        else:
            text = "\n\n".join(diagram_drawings(m, n))
    return True, result, text


def _cmd_theta(args):
    alg = _load(args)
    a = evaluate(alg, args.expr)
    image = (theta_alt if args.alt else theta)(alg, a, bound=args.nilpotence_bound)
    text = format_laurent(alg.names, image)
    return True, {"value": text}, text


def _cmd_verify(args):
    size = None
    if args.size is not None:
        try:
            m, n = size = tuple(int(v) for v in args.size.split(","))
        except ValueError:  # a wrong field count, or a field that is no integer
            raise ValueError("--size expects m,n") from None
        if not (1 <= m <= n and m * n <= SIZE_LIMIT):
            raise ValueError("--size m,n needs 1 <= m <= n and m*n <= %d" % SIZE_LIMIT)
    results = verify_mod.run_paper_suite(size=size)
    ok = all(r.ok for r in results)
    lines = []
    for r in results:
        lines.append("%s %-35s %6.2fs  %s"
                     % ("PASS" if r.ok else "FAIL", r.name, r.seconds, r.detail))
    lines.append("verify: %s" % ("all checks passed" if ok else "FAILURES PRESENT"))
    return ok, {"ok": ok, "checks": [vars(r) for r in results]}, "\n".join(lines)


def _cmd_axioms(args):
    alg = _load(args, load_unchecked)
    report = alg.check_cgl_axioms(nilpotence_bound=args.nilpotence_bound)
    result = {"ok": report.ok, "checks": [vars(c) for c in report.checks]}
    return report.ok, result, str(report)


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
    args = build_parser().parse_args(argv)
    try:
        for option in ("steps_budget", "nilpotence_bound"):
            if getattr(args, option, 0) < 0:
                raise ValueError("--%s must be at least 0" % option.replace("_", "-"))
        ok, result, text = _HANDLERS[args.command](args)
        if args.json:
            doc = {"command": args.command, "ok": ok,
                   "algebra": getattr(args, "algebra", None), "result": result}
            # one line: json's C encoder runs only without indent
            pieces = json.dumps(doc, sort_keys=True).partition('"diagrams": []')
            if result.get("diagrams") == []:
                pieces = (pieces[0], '"diagrams": ', text, pieces[2])
            print(*pieces, sep="")
        else:
            print(text)
    except (ValueError, ZeroDivisionError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return USAGE_ERROR
    except (StepBudgetExceeded, NilpotenceBoundExceeded, RecursionError, MemoryError,
            ArithmeticError) as exc:
        # a computation that ran out of a resource, or whose arithmetic failed
        # past the usage checks above; MemoryError usually carries no message
        print("error: %s" % (str(exc) or type(exc).__name__), file=sys.stderr)
        return CHECK_FAILED
    return 0 if ok else CHECK_FAILED


def console_main():
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
