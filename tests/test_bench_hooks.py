"""The names the benchmark reads must exist in the program.

perfbench/spans.py and perfbench/oracles.py are read as they stand; a rename
or a move in qcgl that would leave the tracer without a target, or the paper
oracle without its nine criteria, fails here instead of in a benchmark run.
"""

import argparse
import importlib
import importlib.util
import inspect
import json
from pathlib import Path

from qcgl import cli, schema, verify
from qcgl.coef import Q, RatFunc, qpow

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _perfbench(name):
    spec = importlib.util.spec_from_file_location("perfbench_" + name,
                                                  PERFBENCH / (name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _target(module, attr):
    owner = importlib.import_module(module)
    if "." in attr:
        cls_name, attr = attr.split(".")
        return vars(getattr(owner, cls_name))[attr]
    return getattr(owner, attr)


def test_every_span_target_resolves():
    spans = _perfbench("spans")
    labels = [label for label, _, _ in spans.SPAN_TARGETS]
    assert spans.ROOT_SPAN in labels and spans.GENERATOR_SPANS <= set(labels)
    for label, module, attr in spans.SPAN_TARGETS:
        fn = _target(module, attr)
        assert callable(fn), label
        assert inspect.isgeneratorfunction(fn) == (label in spans.GENERATOR_SPANS), label
    assert "cauchon.enumerate_diagrams" in spans.GENERATOR_SPANS
    assert {"__mul__", "__add__"} <= set(vars(RatFunc))


def test_general_den_reads_the_derived_denominator():
    # coef.mul.general_den_frac counts products with an operand whose
    # denominator is not a power of q, read through the derived `den` view
    general_den = _perfbench("spans")._general_den
    assert general_den(1 / (1 + Q))
    for laurent in (qpow(-3), 2 * qpow(5), (Q * Q + 1) / Q):
        assert not general_den(laurent)


def test_schema_commands_are_the_cli_subcommands():
    parser = cli.build_parser()
    sub, = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert schema.COMMANDS == list(sub.choices)


def test_paper_oracle_names_the_suite_criteria():
    results = verify.run_paper_suite(size=(2, 2))
    assert _perfbench("oracles").PAPER_CHECKS == tuple(r.name for r in results)


def test_output_schema_matches_its_golden_copy():
    # the benchmark validates every envelope against this schema; its
    # per-command rules compare in a fixed order, sorted by their JSON text
    rules = sorted(schema.OUTPUT_SCHEMA["allOf"], key=lambda r: json.dumps(r, sort_keys=True))
    text = json.dumps(dict(schema.OUTPUT_SCHEMA, allOf=rules), indent=2, sort_keys=True)
    assert text + "\n" == (Path(__file__).parent / "golden" / "output_schema.json").read_text()
