"""Span tracer installed around the public functions of each qcgl layer.

The tracer patches functions from outside the program: each wrapped function
is replaced in its defining module and in every ``qcgl`` module that imported
it by name, and methods are replaced on their class.  A span records its
name, start, end, parent and job.  ``busy`` is the time the span's own code
was running; for a generator that excludes the time its consumer held
control between items.  Self time is busy time minus child spans and minus
the Q(q) arithmetic done directly inside the span.

Q(q) products and sums (``RatFunc.__mul__``/``__add__`` and their reflected
forms) are far too many to keep one record each (a ``verify paper`` job makes
about 143k products), so they are tallied on the span that called them.

Spans stay in memory as columns and are written once, by ``write``.
"""

from __future__ import annotations

import gzip
import itertools
import sys
import weakref
from array import array
from time import perf_counter

# (span name, module, attribute); "Class.method" patches the class.
SPAN_TARGETS = (
    ("cli.main", "qcgl.cli", "main"),
    ("expr.evaluate", "qcgl.expr", "evaluate"),
    ("presets.load_algebra", "qcgl.presets", "load_algebra"),
    ("qmat.build", "qcgl.qmat", "QuantumMatrixAlgebra.__init__"),
    ("qmat.minor", "qcgl.qmat", "QuantumMatrixAlgebra.minor"),
    ("ncalg.normal_form_word", "qcgl.ncalg", "OreAlgebra.normal_form_word"),
    ("ncalg.multiply", "qcgl.ncalg", "OreAlgebra.multiply"),
    ("ncalg.apply_delta", "qcgl.ncalg", "OreAlgebra.apply_delta"),
    ("ncalg.qcommute_exponent", "qcgl.ncalg", "OreAlgebra.qcommute_exponent"),
    ("ncalg.check_cgl_axioms", "qcgl.ncalg", "OreAlgebra.check_cgl_axioms"),
    ("delderiv.theta", "qcgl.delderiv", "theta"),
    ("delderiv.theta_alt", "qcgl.delderiv", "theta_alt"),
    ("delderiv.laurent_mul", "qcgl.delderiv", "laurent_mul"),
    ("cauchon.enumerate_diagrams", "qcgl.cauchon", "enumerate_diagrams"),
    ("cauchon.count_by_black", "qcgl.cauchon", "count_by_black"),
    ("grassmann.extremal_normality_report", "qcgl.grassmann", "extremal_normality_report"),
)
ROOT_SPAN = "cli.main"
GENERATOR_SPANS = {"cauchon.enumerate_diagrams"}

COLUMNS = (
    ("job", "i"), ("sid", "q"), ("parent", "q"), ("name", "H"),
    ("start", "d"), ("end", "d"), ("busy", "d"), ("self", "d"), ("items", "q"),
    ("mul_n", "q"), ("mul_s", "d"), ("mul_gen", "q"), ("add_n", "q"), ("add_s", "d"),
)


class _Open:
    __slots__ = ("name", "sid", "parent", "start", "seg", "busy", "child", "items",
                 "mul_n", "mul_s", "mul_gen", "add_n", "add_s")

    def __init__(self, name, sid, parent, now):
        self.name = name
        self.sid = sid
        self.parent = parent
        self.start = now
        self.seg = now
        self.busy = 0.0
        self.child = 0.0
        self.items = 0
        self.mul_n = 0
        self.mul_s = 0.0
        self.mul_gen = 0
        self.add_n = 0
        self.add_s = 0.0


def _general_den(x):
    """True when x is a RatFunc whose denominator is not a power of q."""
    den = getattr(x, "den", None)
    return den is not None and any(den[:-1])


class Tracer:
    """Collects spans for the jobs run between ``begin_job`` and ``end_job``."""

    def __init__(self):
        self.names = [name for name, _, _ in SPAN_TARGETS]
        self.cols = {col: array(code) for col, code in COLUMNS}
        self.errors = {}          # span name -> exceptions that escaped it
        self.nfw = []             # per job: [calls, repeated calls, total word length]
        self.epoch = perf_counter()
        self.job = -1
        self._stack = []
        self._sid = itertools.count()
        self._in_coef = False
        self._patches = []
        self._serials = weakref.WeakKeyDictionary()
        self._serial = itertools.count()
        self._seen = set()
        self._nfw = None

    # -- span bookkeeping -----------------------------------------------------

    def _open(self, name):
        parent = self._stack[-1].sid if self._stack else -1
        rec = _Open(name, next(self._sid), parent, perf_counter())
        self._stack.append(rec)
        return rec

    def _end_segment(self, rec):
        now = perf_counter()
        seg = now - rec.seg
        rec.busy += seg
        stack = self._stack
        if stack.pop() is not rec:
            raise RuntimeError("span %s closed out of order" % self.names[rec.name])
        if stack:
            stack[-1].child += seg
        rec.seg = now
        return now

    def _resume(self, rec):
        self._stack.append(rec)
        rec.seg = perf_counter()

    def _close(self, rec, active=True):
        end = self._end_segment(rec) if active else rec.seg
        c = self.cols
        c["job"].append(self.job)
        c["sid"].append(rec.sid)
        c["parent"].append(rec.parent)
        c["name"].append(rec.name)
        c["start"].append(rec.start - self.epoch)
        c["end"].append(end - self.epoch)
        c["busy"].append(rec.busy)
        c["self"].append(rec.busy - rec.child - rec.mul_s - rec.add_s)
        c["items"].append(rec.items)
        c["mul_n"].append(rec.mul_n)
        c["mul_s"].append(rec.mul_s)
        c["mul_gen"].append(rec.mul_gen)
        c["add_n"].append(rec.add_n)
        c["add_s"].append(rec.add_s)

    def begin_job(self, job):
        self.job = job
        self._seen.clear()
        self._nfw = [0, 0, 0]

    def end_job(self):
        if self._stack:
            raise RuntimeError("job %d ended with open spans" % self.job)
        self.nfw.append(self._nfw)
        self._seen.clear()

    # -- wrappers ---------------------------------------------------------------

    def _count_error(self, name):
        label = self.names[name]
        self.errors[label] = self.errors.get(label, 0) + 1

    def _wrap_call(self, fn, name):
        tracer = self

        def traced(*args, **kwargs):
            rec = tracer._open(name)
            try:
                return fn(*args, **kwargs)
            except Exception:
                tracer._count_error(name)
                raise
            finally:
                tracer._close(rec)

        traced.__wrapped__ = fn
        return traced

    def _wrap_generator(self, fn, name):
        tracer = self

        def traced(*args, **kwargs):
            rec = tracer._open(name)
            active = True
            try:
                for item in fn(*args, **kwargs):
                    rec.items += 1
                    tracer._end_segment(rec)
                    active = False
                    yield item
                    tracer._resume(rec)
                    active = True
            except Exception:
                tracer._count_error(name)
                raise
            finally:
                tracer._close(rec, active)

        traced.__wrapped__ = fn
        return traced

    def _wrap_normal_form_word(self, fn, name):
        tracer = self
        call = self._wrap_call(fn, name)

        def traced(alg, word, strategy="leftmost"):
            serial = tracer._serials.get(alg)
            if serial is None:
                serial = tracer._serials[alg] = next(tracer._serial)
            key = (serial, tuple(word), strategy)
            tally = tracer._nfw
            tally[0] += 1
            tally[2] += len(key[1])
            if key in tracer._seen:
                tally[1] += 1
            else:
                tracer._seen.add(key)
            return call(alg, word, strategy)

        traced.__wrapped__ = fn
        return traced

    def _wrap_coef(self, fn, is_mul):
        tracer = self

        def traced(a, b):
            stack = tracer._stack
            if tracer._in_coef or not stack:
                return fn(a, b)
            tracer._in_coef = True
            start = perf_counter()
            try:
                return fn(a, b)
            finally:
                elapsed = perf_counter() - start
                tracer._in_coef = False
                rec = stack[-1]
                if is_mul:
                    rec.mul_n += 1
                    rec.mul_s += elapsed
                    if _general_den(a) or _general_den(b):
                        rec.mul_gen += 1
                else:
                    rec.add_n += 1
                    rec.add_s += elapsed

        traced.__wrapped__ = fn
        return traced

    # -- installation -------------------------------------------------------------

    def _replace(self, owner, original, wrapped):
        for attr, value in list(vars(owner).items()):
            if value is original:
                self._patches.append((owner, attr, value))
                setattr(owner, attr, wrapped)

    def install(self):
        """Patch every target; qcgl and all its modules must be imported."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sys.modules.items() if n == "qcgl" or n.startswith("qcgl.")]
        for name, (label, module, attr) in enumerate(SPAN_TARGETS):
            owner = sys.modules[module]
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                original = vars(owner)[attr]
                owners = [owner]
            else:
                original = getattr(owner, attr)
                owners = modules
            if label == "ncalg.normal_form_word":
                wrapped = self._wrap_normal_form_word(original, name)
            elif label in GENERATOR_SPANS:
                wrapped = self._wrap_generator(original, name)
            else:
                wrapped = self._wrap_call(original, name)
            for target in owners:
                self._replace(target, original, wrapped)
        ratfunc = sys.modules["qcgl.coef"].RatFunc
        for attr, is_mul in (("__mul__", True), ("__add__", False)):
            original = vars(ratfunc)[attr]
            self._replace(ratfunc, original, self._wrap_coef(original, is_mul))

    def uninstall(self):
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    # -- results --------------------------------------------------------------------

    def rows(self):
        """The closed spans as dicts, in closing order."""
        names = [col for col, _ in COLUMNS]
        cols = [self.cols[col] for col in names]
        for values in zip(*cols):
            row = dict(zip(names, values))
            row["name"] = self.names[row["name"]]
            yield row

    def write(self, path):
        """Write every span as one CSV line to a gzip file."""
        header = [col for col, _ in COLUMNS]
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write(",".join(header) + "\n")
            for row in self.rows():
                fh.write(",".join(str(row[col]) for col in header) + "\n")
