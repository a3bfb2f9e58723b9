"""The names the benchmark's span tracer patches must exist in the program.

perfbench/spans.py is read as it stands; a rename or a move in qcgl that
would leave the tracer without a target fails here instead of in a benchmark
run.
"""

import argparse
import importlib
import importlib.util
import inspect
from pathlib import Path

from qcgl import cli, schema
from qcgl.coef import Q, RatFunc, qpow

SPANS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
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
    spans = _spans()
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
    general_den = _spans()._general_den
    assert general_den(1 / (1 + Q))
    for laurent in (qpow(-3), 2 * qpow(5), (Q * Q + 1) / Q):
        assert not general_den(laurent)


def test_schema_commands_are_the_cli_subcommands():
    parser = cli.build_parser()
    sub, = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert schema.COMMANDS == list(sub.choices)
