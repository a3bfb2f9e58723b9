"""Machine-speed reference for the benchmark's times.

The benchmark runs on shared machines whose speed drifts, by up to 2.5x
within a minute, as neighbours load the same cores: the machine switches
between a few speeds, for spells of a fraction of a second to minutes.
Every time the benchmark reports is therefore scaled by how fast a fixed
pure-Python loop, which never changes and never calls qcgl, ran in the same
run:

    reported seconds = wall seconds * REFERENCE_S / reference loop seconds

The loop is sampled every 1.5 s of the run and after every longer job, so
its samples and the jobs see the same mix of speeds.

- A job's wall time is its mean over the run's repetitions, against the
  mean of the samples.  Means weigh the fast and slow spells alike on both
  sides, so the ratio holds when the mix of speeds changes.  Low percentiles
  do not: a job of a second or more seldom runs a whole repetition in a
  fast spell that a short loop sample catches, so its best time stays high
  while the loop's falls; and in runs with no fast spell at all, the loop's
  best sample was a blip that no job saw, and short jobs read up to 70%
  high.
- Set-up's wall time is its best probe, against the best sample.  A probe
  takes about as long as a sample and runs right after one, so both catch
  the fast spells alike; over 92 runs, in nine sets of 3 to 13, this
  pairing spread half as much within a set as the means did.

On busy machines the loop slows slightly more than qcgl jobs (1.85x to 2x,
against 1.75x to 1.95x), so a busy run reads up to a tenth low.

The loop does in three parts of about equal time what qcgl's hot paths do:
products of integer-coefficient polynomials held in tuples; inserts into and
updates of a dict of some twenty thousand tuple keys; and rational
arithmetic with big-integer gcds.  REFERENCE_S is about the loop's best time on a quiet 2-vCPU x86-64
(Xeon, 2.1 GHz) container running Python 3.11, so reported seconds read as
seconds on that machine.
"""

from __future__ import annotations

import math
from fractions import Fraction
from time import perf_counter

REFERENCE_S = 0.036
_POLY_ROUNDS = 4000
_DICT_ROUNDS = 22000
_FRACTION_ROUNDS = 14


def _polynomials():
    acc = {}
    a = (3, -1, 4, 1, -5, 9, 2)
    for i in range(_POLY_ROUNDS):
        b = (i % 7 + 1, -2, i % 5, 1)
        out = [0] * (len(a) + len(b) - 1)
        for x, ca in enumerate(a):
            for y, cb in enumerate(b):
                out[x + y] += ca * cb
        key = (i % 61, i % 17, math.gcd(out[0], out[-1]))
        prev = acc.get(key)
        acc[key] = tuple(out) if prev is None else tuple(p + q for p, q in zip(prev, out))
    return acc


def _dict():
    acc = {}
    x = 12345
    for i in range(_DICT_ROUNDS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        key = (x % 5003, x % 7, (i & 15,))
        prev = acc.get(key)
        acc[key] = (i, x) if prev is None else (prev[0] + i, prev[1] ^ x)
    return acc


def _fractions():
    a = [Fraction(i + 1, 3 * i + 2) for i in range(30)]
    acc = Fraction(0)
    for r in range(_FRACTION_ROUNDS):
        p = [Fraction(0)] * 59
        for i, x in enumerate(a):
            for j, y in enumerate(a):
                if (i + j + r) % 3 == 0:
                    p[i + j] += x * y
        acc += p[r]
    return acc


def reference_loop():
    _polynomials()
    _dict()
    _fractions()


def scale(seconds, reference_seconds):
    """Wall seconds as they would read on the reference machine, given the
    reference loop's time measured alongside them."""
    return seconds * REFERENCE_S / reference_seconds


def sample():
    """Best time of three runs of the reference loop, in seconds."""
    times = []
    for _ in range(3):
        start = perf_counter()
        reference_loop()
        times.append(perf_counter() - start)
    return min(times)
