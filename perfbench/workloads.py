"""Seeded job lists for the three workloads, and the program's set-up.

A job is one qcgl CLI request with --json.  A workload is a stream of passes;
each pass is a list of jobs.  The benchmark runs whole passes, so every
metric of ``minors`` and ``cauchon`` is taken over complete copies of their
fixed mix, in an order drawn from the seed.

Why these workloads:

- paper: ``verify paper``, the headline command.  It is the only workload
  that runs the deleting-derivations layer (theta, Laurent products) and the
  only one whose Q(q) coefficients have denominators other than powers of q.
- minors: ``normal``/``qcommute`` on fresh quantum-matrix algebras.  Word
  straightening and Q(q) products dominate; every coefficient is a Laurent
  polynomial, and no theta is computed.  Light 3x6 jobs set the median (per
  request overhead); the 5x5 jobs set the 90th percentile.
- cauchon: diagram combinatorics and JSON only, no algebra.  ``count`` and
  ``histogram`` are aggregates a counting algorithm could replace, while
  ``list`` has to produce every diagram, so a faster counter moves only the
  first kind.
"""

from __future__ import annotations

import random
import sys
from collections import namedtuple
from itertools import combinations
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WORKLOADS = ("paper", "minors", "cauchon")

# kind: paper | det | height-one | extremal | count | histogram | list
Job = namedtuple("Job", "kind argv params")


def import_program():
    """Import qcgl from this checkout's src/; raise ImportError if absent."""
    sys.path.insert(0, str(SRC))
    import qcgl
    import qcgl.cli

    if Path(qcgl.__file__).resolve().parent != SRC / "qcgl":
        raise ImportError("qcgl imported from %s, not from %s" % (qcgl.__file__, SRC))
    return qcgl.cli


def _minor(rows, cols):
    return "[%s|%s]" % (",".join(map(str, rows)), ",".join(map(str, cols)))


def _height_one(m, n):
    """b_1..b_n and c_1..c_{m-1} of the m x n grid (m <= n), as minor strings."""
    out = []
    for i in range(1, n + 1):
        if i <= m:
            out.append(_minor(range(1, i + 1), range(n - i + 1, n + 1)))
        else:
            out.append(_minor(range(1, m + 1), range(n - i + 1, n + m - i + 1)))
    for i in range(1, m):
        out.append(_minor(range(m - i + 1, m + 1), range(1, i + 1)))
    return out


def minors_mix():
    """The fixed job mix of the minors workload, 59 jobs."""
    jobs = []
    for n in (4, 5):
        full = range(1, n + 1)
        jobs.append(Job("det", ["normal", "--json", "-a", "qmat:%d,%d" % (n, n),
                                _minor(full, full)], (n, n)))
    for m, n in ((4, 5), (5, 5)):
        for minor in _height_one(m, n):
            jobs.append(Job("height-one", ["normal", "--json", "-a",
                                           "qmat:%d,%d" % (m, n), minor], (m, n)))
    rows = (1, 2, 3)
    for extreme in ((1, 2, 3), (4, 5, 6)):
        for cols in combinations(range(1, 7), 3):
            jobs.append(Job("extremal", ["qcommute", "--json", "-a", "qmat:3,6",
                                         _minor(rows, extreme), _minor(rows, cols)], (3, 6)))
    return jobs


# The verify seeds of the paper mix: the suite's default and two others.  They
# are fixed, because a job's cost depends on its verify seed; the run seed
# only orders them.
PAPER_SEEDS = (20240801, 1, 2)
# Shapes up to the enumerator's 20-cell limit; 10x2 is left out because the
# row-wise enumerator is slowest there and one job would outweigh the mix.
CAUCHON_SHAPES = ((3, 4), (4, 3), (3, 5), (5, 3), (4, 4), (3, 6), (6, 3),
                  (4, 5), (5, 4), (2, 10))
# list must materialise every diagram, so it stops at 4x4 (6,902 diagrams).
CAUCHON_LIST_SHAPES = ((3, 4), (4, 3), (4, 4))


def paper_mix():
    """The fixed job mix of the paper workload, one job per verify seed."""
    return [Job("paper", ["verify", "paper", "--json", "--seed", str(seed)], ())
            for seed in PAPER_SEEDS]


def cauchon_mix():
    """The fixed job mix of the cauchon workload, 23 jobs."""
    jobs = []
    for action in ("count", "histogram"):
        for m, n in CAUCHON_SHAPES:
            jobs.append(Job(action, ["cauchon", action, str(m), str(n), "--json"], (m, n)))
    for m, n in CAUCHON_LIST_SHAPES:
        jobs.append(Job("list", ["cauchon", "list", str(m), str(n), "--json"], (m, n)))
    return jobs


def passes(workload, seed):
    """Endless stream of passes (lists of jobs), determined by the seed."""
    rng = random.Random("%s:%d" % (workload, seed))
    mix = {"paper": paper_mix, "minors": minors_mix, "cauchon": cauchon_mix}[workload]()
    while True:
        order = list(mix)
        rng.shuffle(order)
        yield order


def set_up(workload, seed):
    """What a run does before its first job: import the program, build its
    parser, load every preset and generate the first pass of jobs."""
    cli = import_program()
    from qcgl import presets

    cli.build_parser()
    for name in presets.preset_names():
        presets.load_preset(name)
    stream = passes(workload, seed)
    first = next(stream)
    return cli, first, stream
