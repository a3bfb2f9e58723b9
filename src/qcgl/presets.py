"""The named algebras, their cgl-spec-v1 document, and the one resolver of
--algebra tokens.

This is the only module that knows the named algebras: the quantum matrix
family (a `qmat:M,N` token, or a spec document tagged `"qmat": [M, N]`) and
the shipped spec files under data/, the quantum plane among them; and the
only one that knows the spec document, which to_json writes and from_json
reads and checks.
load_unchecked turns a token into an algebra; load_algebra, and load_preset
through it, then rejects every algebra but an oqm that fails the CGL axioms,
before any computation: theta and the powers of X rely on axiom (a).  The
check runs at the default step budget: the CLI sets --steps-budget after it.
"""

from __future__ import annotations

import json
import os

from .expr import eval_free, parse_scalar
from .ncalg import OreAlgebra, format_poly
from .qmat import QuantumMatrixAlgebra, oqm

_FILE_PRESETS = {
    "qplane": "data/qplane.json",
    "uq-sl3-plus": "data/uq-sl3-plus.json",
}
_SPEC_KEYS = ("names", "torus_rank", "lambda", "delta", "level_q", "weights", "h")


def preset_names():
    return sorted(_FILE_PRESETS)


def load_preset(name):
    if name not in preset_names():
        raise ValueError("unknown preset %r (available: %s)"
                         % (name, ", ".join(preset_names())))
    return load_algebra(name)


def load_algebra(token):
    """The algebra of an --algebra token, once it passes the CGL axioms.  An
    oqm, whether from a qmat:M,N token or a qmat-tagged spec document, is
    certified by construction and not checked again."""
    alg = load_unchecked(token)
    if not isinstance(alg, QuantumMatrixAlgebra):
        report = alg.check_cgl_axioms()
        if not report.ok:
            what = "preset" if token in preset_names() else "spec file"
            raise ValueError("%s %r fails the CGL axioms:\n%s" % (what, token, report))
    return alg


def load_unchecked(token):
    """The algebra of a token: qmat:M,N | preset name | file path,
    taken as it stands, so that `qcgl axioms` can report on it.  A spec
    document tagged "qmat": [M, N] must equal oqm(M, N), and gives it."""
    if token.startswith("qmat:"):
        try:
            m, n = (int(v) for v in token[5:].split(","))
        except ValueError:
            raise ValueError("expected qmat:M,N with integer M, N")
        return oqm(m, n)
    path = (os.path.join(os.path.dirname(__file__), _FILE_PRESETS[token])
            if token in _FILE_PRESETS else token)
    try:
        fh = open(path, encoding="utf-8")
    except (OSError, ValueError):  # ValueError: a NUL byte in the path
        raise ValueError("unknown algebra %r: not a preset and not a readable file" % token)
    try:
        with fh:
            doc = json.load(fh)
    except RecursionError:
        raise ValueError("spec file %r nests too deeply to be a cgl-spec-v1 document" % token)
    except ValueError as exc:  # not UTF-8, or not JSON
        raise ValueError("spec file %r is not a JSON document: %s" % (token, exc)) from exc
    alg = from_json(doc)
    if "qmat" not in doc:
        return alg
    shape = doc["qmat"]
    if not (isinstance(shape, list) and len(shape) == 2 and all(type(k) is int for k in shape)):
        raise ValueError("field 'qmat' must be a pair of integers [M, N]")
    tagged = oqm(*shape)
    if not tagged.spec_equals(alg):
        raise ValueError("qmat-tagged document does not match oqm(%d,%d)" % (shape[0], shape[1]))
    return tagged


def to_json(alg):
    """The cgl-spec-v1 document of an algebra, an oqm's tagged with its grid."""
    doc = {
        "format": "cgl-spec-v1",
        "names": list(alg.names),
        "torus_rank": alg.torus_rank,
        "lambda": [[j, i, str(v)] for (j, i), v in sorted(alg.lam.items())],
        "delta": [[j, i, format_poly(alg.names, p)] for (j, i), p in sorted(alg.delta.items())],
        "level_q": [[j, str(v)] for j, v in sorted(alg.level_q.items())],
        "weights": [list(w) for w in alg.weights],
        "h": [[str(v) for v in h] for h in alg.h_elems],
    }
    if isinstance(alg, QuantumMatrixAlgebra):
        doc["qmat"] = [alg.m, alg.n]
    return doc


def from_json(doc):
    """The algebra of a cgl-spec-v1 document, built as written: keys outside
    the spec, such as the qmat tag, are not read."""
    if not isinstance(doc, dict) or doc.get("format") != "cgl-spec-v1":
        raise ValueError("not a cgl-spec-v1 document")
    missing = [key for key in _SPEC_KEYS if key not in doc]
    if missing:
        raise ValueError("cgl-spec-v1 document lacks %s" % ", ".join(missing))
    names = _field(doc, "names", "a list of generator names", lambda name: isinstance(name, str))
    lam = {ji: parse_scalar(s) for ji, s in _table(doc, "lambda", 3).items()}
    delta = {ji: eval_free(s, names) for ji, s in _table(doc, "delta", 3).items()}
    level_q = {j: parse_scalar(s) for j, s in _table(doc, "level_q", 2).items()}
    weights = [tuple(w) for w in _field(doc, "weights", "a list of rows",
                                        lambda row: isinstance(row, list))]
    h = [tuple(map(parse_scalar, row)) for row in _field(
        doc, "h", "a list of rows of text",
        lambda row: isinstance(row, list) and all(isinstance(s, str) for s in row))]
    return OreAlgebra(names, lam, delta, level_q, doc["torus_rank"], weights, h)


def _field(doc, key, shape, item_ok=None):
    """A spec document's list field, each of whose items passes item_ok if given."""
    value = doc[key]
    if not isinstance(value, list) or (item_ok and not all(map(item_ok, value))):
        raise ValueError("field %r must be %s" % (key, shape))
    return value


def _table(doc, table, width):
    """{indices: text} of a spec document's table, in one pass: each entry is
    width fields, integer indices (j, i), or j alone, then a text value, and
    no indices occur twice."""
    out = {}
    for entry in _field(doc, table, "a list of entries"):
        why = ("%d fields" % width if not isinstance(entry, list) or len(entry) != width
               else "integer indices" if any(type(k) is not int for k in entry[:-1])
               else "a text value" if not isinstance(entry[-1], str) else None)
        if why:
            raise ValueError("%s entry %s needs %s" % (table, json.dumps(entry), why))
        key = tuple(entry[:-1]) if width == 3 else entry[0]
        if key in out:
            raise ValueError("duplicate %s entry %s" % (table, str(key).replace(" ", "")))
        out[key] = entry[-1]
    return out
