"""The named algebras, and the one resolver of --algebra tokens.

This is the only module that knows the named algebras: the quantum matrix
family (a `qmat:M,N` token, or a spec document tagged `"qmat": [M, N]`), the
quantum plane and the shipped spec files.  load_unchecked turns a token into
an algebra; load_algebra, and load_preset through it, then rejects every
algebra but an oqm that fails the CGL axioms, before any computation: theta
and the powers of X rely on axiom (a).  The check runs at the default step
budget: the CLI sets --steps-budget after it.
"""

from __future__ import annotations

import json
from importlib import resources
from pathlib import Path

from .coef import ONE, Q
from .ncalg import OreAlgebra
from .qmat import QuantumMatrixAlgebra, oqm

_FILE_PRESETS = {
    "uq-sl3-plus": "data/uq-sl3-plus.json",
}


def quantum_plane():
    """The quantum affine plane: g_2 g_1 = q g_1 g_2, no correction terms."""
    return OreAlgebra(
        names=("g_1", "g_2"),
        lam={(2, 1): Q},
        delta={},
        level_q={2: Q},
        torus_rank=2,
        weights=[(1, 0), (0, 1)],
        h_elems=[(Q, ONE), (Q, Q)],
    )


def preset_names():
    return ["qplane"] + sorted(_FILE_PRESETS)


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
    """The algebra of a token: qmat:M,N | qplane | preset name | file path,
    taken as it stands, so that `qcgl axioms` can report on it.  A spec
    document tagged "qmat": [M, N] must equal oqm(M, N), and gives it."""
    if token.startswith("qmat:"):
        try:
            m, n = (int(v) for v in token[5:].split(","))
        except ValueError:
            raise ValueError("expected qmat:M,N with integer M, N")
        return oqm(m, n)
    if token == "qplane":
        return quantum_plane()
    path = (resources.files("qcgl").joinpath(_FILE_PRESETS[token]) if token in _FILE_PRESETS
            else Path(token))
    try:
        with path.open("r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError:
        raise ValueError("unknown algebra %r: not a preset and not a readable file" % token)
    except RecursionError:
        raise ValueError("spec file %r nests too deeply to be a cgl-spec-v1 document" % token)
    except ValueError as exc:  # not UTF-8, or not JSON
        raise ValueError("spec file %r is not a JSON document: %s" % (token, exc)) from exc
    alg = OreAlgebra.from_json(doc)
    shape = doc.get("qmat")
    if not shape:
        return alg
    try:
        tagged = oqm(shape[0], shape[1])
    except (TypeError, LookupError) as exc:
        raise ValueError("malformed cgl-spec-v1 document: %s" % exc) from exc
    if not tagged.spec_equals(alg):
        raise ValueError("qmat-tagged document does not match oqm(%d,%d)" % (shape[0], shape[1]))
    return tagged
