"""The qcgl benchmark: run one workload for a fixed time, check every answer,
print every metric.

Usage, from the repository root:

    python3 perfbench/run.py --workload paper|minors|cauchon --seed N \
        --seconds S --trace 0|1

Each job is one CLI request, ``qcgl.cli.main(argv)`` called in this process
with stdout captured; the loop is closed, with one client and one thread.
Jobs run pass after pass (see ``workloads.py``) until ``--seconds`` of wall
time have passed, the first pass always whole.  Every answer is checked by
``oracles.py`` outside the timed region; an output identical to one already
checked for the same job gets the same verdict.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs every job
twice, once plain and once under the span tracer of ``spans.py``, and
reports the per-layer metrics, each a mean per traced job.  The report lines
go to stdout first; the last line is the JSON result.  A run record and, for
traced runs, the spans go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import calibrate
import oracles
import spans
import workloads

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"
PROBE_TIMEOUT_S = 60
GAUGE_INTERVAL_S = 1.5

END_TO_END = (
    ("job_s.p50", "s"),
    ("job_s.p90", "s"),
    ("jobs_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("coef.mul.calls", "count/job"),
    ("coef.mul.self_s", "s/job"),
    ("coef.mul.general_den_frac", "fraction"),
    ("coef.add.self_s", "s/job"),
    ("ncalg.normal_form_word.calls", "count/job"),
    ("ncalg.normal_form_word.self_s", "s/job"),
    ("ncalg.normal_form_word.repeat_frac", "fraction"),
    ("ncalg.normal_form_word.word_len_mean", "generators"),
    ("ncalg.multiply.calls", "count/job"),
    ("ncalg.multiply.self_s", "s/job"),
    ("ncalg.apply_delta.calls", "count/job"),
    ("ncalg.apply_delta.self_s", "s/job"),
    ("ncalg.qcommute_exponent.calls", "count/job"),
    ("ncalg.qcommute_exponent.self_s", "s/job"),
    ("ncalg.check_cgl_axioms.self_s", "s/job"),
    ("qmat.build.calls", "count/job"),
    ("qmat.build.self_s", "s/job"),
    ("qmat.minor.calls", "count/job"),
    ("qmat.minor.self_s", "s/job"),
    ("delderiv.theta.calls", "count/job"),
    ("delderiv.theta.self_s", "s/job"),
    ("delderiv.theta_alt.self_s", "s/job"),
    ("delderiv.laurent_mul.calls", "count/job"),
    ("delderiv.laurent_mul.self_s", "s/job"),
    ("cauchon.enumerate_diagrams.diagrams", "count/job"),
    ("cauchon.enumerate_diagrams.self_s", "s/job"),
    ("cauchon.count_by_black.self_s", "s/job"),
    ("grassmann.extremal_normality_report.self_s", "s/job"),
    ("expr.evaluate.self_s", "s/job"),
    ("presets.load_algebra.self_s", "s/job"),
    ("cli.main.self_s", "s/job"),
) + tuple(("verify.check.%s.s" % name, "s/job") for name in oracles.PAPER_CHECKS) + (
    ("trace.overhead_ratio", "ratio"),
    ("trace.unattributed_frac", "fraction"),
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return p.parse_args(argv)


def git_commit():
    """HEAD of the checkout's git repository, read from .git, or 'unknown'."""
    git = workloads.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def probe_setup(workload, seed):
    """Seconds from starting a fresh process to its first job."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)]
    start = perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = perf_counter() - start
        proc.stdout.read()
        if proc.wait(timeout=PROBE_TIMEOUT_S) != 0 or line != "ready\n":
            raise RuntimeError("set-up probe failed: %r" % line)
    return elapsed


def run_job(cli, argv):
    """(seconds, exit code, stdout, error) of one CLI request."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    gc.collect()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        try:
            rc = cli.main(argv)
        except (Exception, SystemExit) as exc:  # a job that raises is a failed job
            rc, error = None, "%s: %s" % (type(exc).__name__, exc)
        elapsed = perf_counter() - start
    return elapsed, rc, out.getvalue(), error or err.getvalue().strip()


def percentile_90(values):
    """Linear interpolation between order statistics (numpy's default)."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


class Run:
    """The jobs of one run: latencies per distinct job, and failures."""

    def __init__(self, cli, mix, golden, validator, tracer=None, probe=None):
        self.cli = cli
        self.mix = [oracles.job_key(job) for job in mix]
        self.golden = golden
        self.validator = validator
        self.tracer = tracer
        self.probe = probe                   # runs one set-up probe, or None
        self.latencies = defaultdict(list)   # job key -> untraced latencies
        self.traced = defaultdict(list)      # job key -> traced latencies
        self.traced_jobs = []                # traced latencies, by tracer job id
        self.log = []                        # (job key, start, latency, traced)
        self.gauges = []                     # reference-loop samples, see calibrate.py
        self.gauged_at = None
        self.setup_times = []                # set-up probes, one after each gauge
        self.attempted = 0
        self.failures = []
        self.paper_jobs = 0
        self.verify_seconds = defaultdict(float)
        self._verdicts = {}                  # (job key, kind, exit code, stdout digest) -> reason

    def gauge(self):
        """Sample the reference loop and, in untraced runs, probe set-up."""
        self.gauges.append(calibrate.sample())
        if self.probe is not None:
            self.setup_times.append(self.probe())
        self.gauged_at = perf_counter()

    def _one(self, job, traced):
        key = oracles.job_key(job)
        start = perf_counter()
        if traced:
            self.tracer.begin_job(len(self.tracer.nfw))
            self.tracer.install()
            try:
                result = run_job(self.cli, job.argv)
            finally:
                self.tracer.uninstall()
                self.tracer.end_job()
        else:
            result = run_job(self.cli, job.argv)
        elapsed, rc, stdout, error = result
        (self.traced if traced else self.latencies)[key].append(elapsed)
        if traced:
            self.traced_jobs.append(elapsed)
        self.log.append((key, start, elapsed, traced))
        self.attempted += 1
        verdict = (key, job.kind, rc, hashlib.sha256(stdout.encode()).digest())
        if verdict not in self._verdicts:
            self._verdicts[verdict] = oracles.check(job, rc, stdout, self.golden, self.validator)
        reason = self._verdicts[verdict]
        if reason is not None:
            self.failures.append("%s: %s%s" % (key, reason, " (%s)" % error if error else ""))
        elif job.kind == "paper" and not traced:
            self.paper_jobs += 1
            for check in json.loads(stdout)["result"]["checks"]:
                self.verify_seconds[check["name"]] += check["seconds"]

    def run(self, passes, seconds):
        """Run the first pass whole, then further jobs until `seconds` of wall
        time have passed, so that every job of the mix runs at least once."""
        deadline = perf_counter() + seconds
        for n, jobs in enumerate(passes):
            for job in jobs:
                if n and perf_counter() >= deadline:
                    return
                if self.tracer is None:
                    self._one(job, traced=False)
                    if perf_counter() - self.gauged_at >= GAUGE_INTERVAL_S:
                        self.gauge()
                    continue
                # Alternate which copy runs first: a job runs faster right
                # after its twin, and the overhead ratio should not absorb that.
                traced_first = self.attempted % 4 == 2
                self._one(job, traced=traced_first)
                self._one(job, traced=not traced_first)

    def mean(self, latencies):
        """Each mix entry's mean latency in this run."""
        return [statistics.fmean(latencies[key]) for key in self.mix]


def end_to_end_metrics(run, scaled=True):
    """End-to-end metrics, with times scaled to the reference machine (see
    calibrate.py): a job's mean latency by the mean reference sample, the
    best set-up probe by the best reference sample.  Unscaled on request."""
    mean_ref = statistics.fmean(run.gauges) if scaled else calibrate.REFERENCE_S
    best_ref = min(run.gauges) if scaled else calibrate.REFERENCE_S
    lat = [calibrate.scale(t, mean_ref) for t in run.mean(run.latencies)]
    return {
        "job_s.p50": statistics.median(lat),
        "job_s.p90": percentile_90(lat),
        "jobs_per_s": len(lat) / sum(lat),
        "setup_s": calibrate.scale(min(run.setup_times), best_ref),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer_metrics(run):
    """Per-layer metrics from the traced jobs, plus the sum check per job."""
    tracer = run.tracer
    jobs = len(tracer.nfw)
    total = defaultdict(float)
    job_sum = defaultdict(float)
    job_root = {}
    for row in tracer.rows():
        name = row["name"]
        total[name + ".calls"] += 1
        total[name + ".self_s"] += row["self"]
        total[name + ".items"] += row["items"]
        for col in ("mul_n", "mul_s", "mul_gen", "add_n", "add_s"):
            total[col] += row[col]
        job_sum[row["job"]] += row["self"] + row["mul_s"] + row["add_s"]
        if row["parent"] == -1:
            if name != spans.ROOT_SPAN or row["job"] in job_root:
                raise RuntimeError("job %d has a second root span %s" % (row["job"], name))
            job_root[row["job"]] = row["busy"]
    if sorted(job_root) != list(range(jobs)):
        raise RuntimeError("a traced job has no %s span" % spans.ROOT_SPAN)
    # Self times partition the root span by construction, so a gap can only be
    # a bookkeeping defect (a mis-nested stack).  Time the tracer misses shows
    # instead as the job's latency minus its root span's busy time.
    gap = max(abs(job_sum[j] - job_root[j]) for j in job_root)
    if gap > 1e-6:
        raise RuntimeError("layer self times miss the root span by %.3g s" % gap)
    unattributed = sum(run.traced_jobs) - sum(job_root.values())

    nfw_calls, nfw_repeats, nfw_len = (sum(t[i] for t in tracer.nfw) for i in range(3))
    total["coef.mul.calls"] = total["mul_n"]
    total["coef.mul.self_s"] = total["mul_s"]
    total["coef.add.self_s"] = total["add_s"]
    total["cauchon.enumerate_diagrams.diagrams"] = total["cauchon.enumerate_diagrams.items"]
    ratios = {
        "coef.mul.general_den_frac": (total["mul_gen"], total["mul_n"]),
        "ncalg.normal_form_word.repeat_frac": (nfw_repeats, nfw_calls),
        "ncalg.normal_form_word.word_len_mean": (nfw_len, nfw_calls),
        "trace.overhead_ratio": (statistics.median(run.mean(run.traced)),
                                 statistics.median(run.mean(run.latencies))),
        "trace.unattributed_frac": (unattributed, sum(run.traced_jobs)),
    }
    for name in oracles.PAPER_CHECKS:
        # the suite's own per-check seconds, from the untraced runs
        ratios["verify.check.%s.s" % name] = (run.verify_seconds[name], run.paper_jobs)
    metrics = {}
    for name, _ in PER_LAYER:
        if name in ratios:
            part, base = ratios[name]
            metrics[name] = part / base if base else 0.0
        else:
            metrics[name] = total[name] / jobs
    properties = {
        "coef.mul.general_den_frac": (int(total["mul_gen"]), int(total["mul_n"])),
        "ncalg.normal_form_word.repeat_frac": (nfw_repeats, nfw_calls),
    }
    return metrics, properties, gap, unattributed


def main(argv=None):
    args = parse_args(argv)
    try:
        import jsonschema

        cli, first_pass, stream = workloads.set_up(args.workload, args.seed)
        from qcgl.schema import OUTPUT_SCHEMA
    except ImportError as exc:
        print("perfbench: cannot import the program or jsonschema: %s" % exc, file=sys.stderr)
        return 2

    validator = jsonschema.Draft7Validator(OUTPUT_SCHEMA)
    run = Run(cli, first_pass, oracles.load_golden(), validator,
              tracer=spans.Tracer() if args.trace else None,
              probe=None if args.trace else lambda: probe_setup(args.workload, args.seed))
    run.gauge()

    started = perf_counter()
    run.run(itertools.chain([first_pass], stream), args.seconds)
    wall = perf_counter() - started
    run.gauge()
    reps = [len(run.latencies[key] or run.traced[key]) for key in run.mix]

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)), "commit": git_commit(),
        "wall_s": wall, "attempted": run.attempted,
        "failed": len(run.failures), "failed_frac": len(run.failures) / run.attempted,
        "failures": run.failures[:20],
        # each percentile is over the mix, each entry the mean of its runs
        "samples": {"mix_jobs": len(run.mix), "runs_per_job": [min(reps), max(reps)]},
        "setup_probes_s": run.setup_times,
        "reference_loop_s": {"mean": statistics.fmean(run.gauges), "best": min(run.gauges),
                             "samples": run.gauges,
                             "nominal": calibrate.REFERENCE_S},
        "jobs": run.log,
    }
    OUT_DIR.mkdir(exist_ok=True)
    if args.trace:
        metrics, properties, gap, unattributed = per_layer_metrics(run)
        units = dict(PER_LAYER)
        record["self_time_gap_s"] = gap
        record["unattributed_s"] = unattributed
        record["workload_properties"] = properties
        record["escaped_exceptions"] = run.tracer.errors
        run.tracer.write(OUT_DIR / ("spans-%s.csv.gz" % args.workload))
    else:
        metrics = end_to_end_metrics(run)
        units = dict(END_TO_END)
        unscaled = end_to_end_metrics(run, scaled=False)
        record["unscaled"] = {name: unscaled[name] for name in ("job_s.p50", "job_s.p90",
                                                                "jobs_per_s", "setup_s")}
    record["metrics"] = metrics
    with open(OUT_DIR / ("run-%s-trace%d.json" % (args.workload, args.trace)), "w") as fh:
        json.dump(record, fh, indent=1)

    print("run: workload=%s seed=%d trace=%d python=%s nproc=%d commit=%s"
          % (args.workload, args.seed, args.trace, record["python"], record["nproc"],
             record["commit"]))
    print("jobs: %d attempted, %d failed (failed_frac %.4f) in %.1f s"
          % (run.attempted, len(run.failures), record["failed_frac"], wall))
    for failure in run.failures[:5]:
        print("FAILED %s" % failure)
    if args.trace:
        print("traced jobs: %d; layer self times sum to the root span within %.2g s; "
              "%.3g s of their %.3g s latency lies outside the root span"
              % (len(run.tracer.nfw), gap, unattributed, sum(run.traced_jobs)))
        for name, (part, base) in properties.items():
            print("workload property %s = %.4f (%d of %d)"
                  % (name, metrics[name], part, base))
        if run.tracer.errors:
            print("exceptions escaping wrapped functions: %s" % run.tracer.errors)
    else:
        print("job percentiles over the %d jobs of the mix, each the mean of %d to %d runs; "
              "set-up is the best of %d probes"
              % (len(run.mix), min(reps), max(reps), len(run.setup_times)))
        print("reference loop: mean %.5f s, best %.5f s in %d samples, nominal %.5f s"
              % (statistics.fmean(run.gauges), min(run.gauges), len(run.gauges),
                 calibrate.REFERENCE_S))
        for name, value in record["unscaled"].items():
            print("%-48s %14.6g %s unscaled" % (name, value, units[name]))
    for name, value in metrics.items():
        print("%-48s %14.6g %s" % (name, value, units[name]))

    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
