"""Named algebra presets, and the one resolver of --algebra tokens.

load_unchecked turns a token into an algebra; load_algebra, and load_preset
through it, then rejects every algebra but an oqm that fails the CGL axioms,
before any computation: theta and the powers of X rely on axiom (a).  The
check runs at the default step budget: the CLI sets --steps-budget after it.
"""

from __future__ import annotations

import json
from importlib import resources
from pathlib import Path

from .ncalg import OreAlgebra, quantum_plane
from .qmat import QuantumMatrixAlgebra, oqm

_FILE_PRESETS = {
    "uq-sl3-plus": "data/uq-sl3-plus.json",
}


def preset_names():
    return ["qplane"] + sorted(_FILE_PRESETS)


def load_preset(name):
    if name not in preset_names():
        raise ValueError("unknown preset %r (available: %s)"
                         % (name, ", ".join(preset_names())))
    return load_algebra(name)


def load_algebra(token):
    """The algebra of an --algebra token, once it passes the CGL axioms.  A
    qmat-tagged spec file is certified against oqm by from_json instead."""
    alg = load_unchecked(token)
    if not isinstance(alg, QuantumMatrixAlgebra):
        report = alg.check_cgl_axioms()
        if not report.ok:
            what = "preset" if token in preset_names() else "spec file"
            raise ValueError("%s %r fails the CGL axioms:\n%s" % (what, token, report))
    return alg


def load_unchecked(token):
    """The algebra of a token: qmat:M,N | qplane | preset name | file path,
    taken as it stands, so that `qcgl axioms` can report on it."""
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
    return OreAlgebra.from_json(doc)
