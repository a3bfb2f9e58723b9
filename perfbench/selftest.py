"""Self-test of the benchmark: seeded job lists, oracles that accept the
engine's real answers and reject corrupted ones, and a tracer whose layer
self times partition each job.

Run from the repository root:

    python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import jsonschema  # noqa: E402

import oracles  # noqa: E402
import run as bench  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

CLI = workloads.import_program()
from qcgl.schema import OUTPUT_SCHEMA  # noqa: E402

VALIDATOR = jsonschema.Draft7Validator(OUTPUT_SCHEMA)
GOLDEN = oracles.load_golden()


def _job(workload, kind, argv_tail):
    """The job of the workload's mix with this kind whose argv ends so."""
    for job in next(workloads.passes(workload, 0)):
        if job.kind == kind and job.argv[len(job.argv) - len(argv_tail):] == argv_tail:
            return job
    raise LookupError((workload, kind, argv_tail))


def _answer(job):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = CLI.main(job.argv)
    return rc, out.getvalue()


def _check(job, rc, stdout):
    return oracles.check(job, rc, stdout, GOLDEN, VALIDATOR)


def _corrupt(stdout, edit):
    doc = json.loads(stdout)
    edit(doc["result"])
    return json.dumps(doc)


JOBS = {
    "count": ("cauchon", "count", ["3", "4", "--json"]),
    "histogram": ("cauchon", "histogram", ["3", "4", "--json"]),
    "list": ("cauchon", "list", ["3", "4", "--json"]),
    "det": ("minors", "det", ["[1,2,3,4|1,2,3,4]"]),
    "height-one": ("minors", "height-one", ["qmat:4,5", "[1|5]"]),
    "extremal": ("minors", "extremal", ["[1,2,3|4,5,6]", "[1,2,3|1,2,4]"]),
    "paper": ("paper", "paper", []),
}
ANSWERS = {}


def answer(name):
    if name not in ANSWERS:
        job = _job(*JOBS[name])
        ANSWERS[name] = (job,) + _answer(job)
    return ANSWERS[name]


def test_a_fixed_seed_gives_the_same_job_list():
    for workload in workloads.WORKLOADS:
        first = workloads.passes(workload, 7)
        again = workloads.passes(workload, 7)
        for _ in range(3):
            assert next(first) == next(again)
        assert next(workloads.passes(workload, 7)) != next(workloads.passes(workload, 8))


def test_mixes_have_the_documented_size():
    assert len(workloads.minors_mix()) == 59
    assert len(workloads.cauchon_mix()) == 23
    assert len(next(workloads.passes("paper", 1))) == len(workloads.PAPER_SEEDS)


def test_closed_form_matches_known_counts():
    known = {(2, 2): 14, (2, 3): 46, (3, 3): 230, (4, 4): 6902, (4, 5): 41506}
    for (m, n), value in known.items():
        assert oracles.cauchon_count(m, n) == value
        assert oracles.cauchon_count(n, m) == value


def test_oracles_accept_the_engines_answers():
    for name in JOBS:
        job, rc, stdout = answer(name)
        assert _check(job, rc, stdout) is None, name


def test_oracles_reject_corrupted_answers():
    def off_by_one(r):
        r["count"] += 1

    def histogram_off_by_one(r):
        r["histogram"]["2"] += 1

    def height_one_moved(r):
        r["histogram"]["1"] -= 1
        r["histogram"]["2"] += 1

    def diagram_dropped(r):
        r["diagrams"].pop()

    def diagram_repeated(r):
        r["diagrams"][-1] = r["diagrams"][0]

    def invalid_diagram(r):
        r["diagrams"][-1] = [[2, 2]]

    def null_exponent(r):
        r["exponents"][3] = None

    def changed_exponent(r):
        r["exponents"][3] += 1

    def null_qcommute(r):
        r["exponent"] = None

    def changed_qcommute(r):
        r["exponent"] += 1

    def one_failing_check(r):
        r["checks"][6]["ok"] = False

    def check_missing(r):
        r["checks"].pop()

    def extra_key(r):
        r["surprise"] = 1

    cases = [
        ("count", off_by_one), ("histogram", histogram_off_by_one),
        ("histogram", height_one_moved), ("list", diagram_dropped),
        ("list", diagram_repeated), ("list", invalid_diagram),
        ("det", null_exponent), ("det", changed_exponent),
        ("height-one", null_exponent), ("height-one", changed_exponent),
        ("extremal", null_qcommute), ("extremal", changed_qcommute),
        ("paper", one_failing_check), ("paper", check_missing),
        ("count", extra_key),
    ]
    for name, edit in cases:
        job, rc, stdout = answer(name)
        assert _check(job, rc, _corrupt(stdout, edit)) is not None, (name, edit.__name__)
    job, rc, stdout = answer("count")
    assert _check(job, 1, stdout) is not None
    assert _check(job, rc, "") is not None


def test_layer_self_times_partition_each_job():
    jobs = [_job(*JOBS["height-one"]), _job(*JOBS["count"]), _job(*JOBS["histogram"])]
    original = CLI.main
    run = bench.Run(CLI, jobs, GOLDEN, VALIDATOR, tracer=spans.Tracer())
    run.run([jobs], 0)
    assert CLI.main is original
    assert not run.failures
    metrics, properties, gap, unattributed = bench.per_layer_metrics(run)
    assert gap <= 1e-6
    assert 0 <= unattributed < 0.01 * sum(run.traced_jobs)
    assert metrics["qmat.build.calls"] == 1 / 3
    assert metrics["cauchon.enumerate_diagrams.diagrams"] == 2 * 1066 / 3
    assert set(metrics) == {name for name, _ in bench.PER_LAYER}


def test_benchmark_json_lists_every_metric():
    doc = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(bench.END_TO_END)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == list(bench.PER_LAYER)
