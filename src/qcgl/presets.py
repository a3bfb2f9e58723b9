"""Named algebra presets loadable by the CLI.

Presets shipped as spec files are axiom-checked at load time, so a corrupt
file is rejected before any computation runs.
"""

from __future__ import annotations

import json
from importlib import resources

from .ncalg import STEPS_BUDGET, OreAlgebra, quantum_plane
from .qmat import oqm

_FILE_PRESETS = {
    "uq-sl3-plus": "data/uq-sl3-plus.json",
}


def preset_names():
    return ["qplane"] + sorted(_FILE_PRESETS)


def load_preset(name, steps_budget=STEPS_BUDGET):
    if name == "qplane":
        return quantum_plane(steps_budget=steps_budget)
    try:
        path = _FILE_PRESETS[name]
    except KeyError:
        raise ValueError("unknown preset %r (available: %s)"
                         % (name, ", ".join(preset_names())))
    doc = json.loads(resources.files("qcgl").joinpath(path).read_text(encoding="utf-8"))
    # check at the default budget, so that a small budget is not mistaken for
    # a broken preset; for another budget build afresh, so that no normal form
    # the check cached escapes that budget
    alg = OreAlgebra.from_json(doc)
    report = alg.check_cgl_axioms()
    if not report.ok:
        raise ValueError("preset %r fails the CGL axioms:\n%s" % (name, report))
    if steps_budget != STEPS_BUDGET:
        alg = OreAlgebra.from_json(doc, steps_budget=steps_budget)
    return alg


def load_algebra(token, steps_budget=STEPS_BUDGET):
    """Resolve an --algebra token: qmat:M,N | qplane | preset name | file path."""
    if token.startswith("qmat:"):
        try:
            m, n = (int(v) for v in token[5:].split(","))
        except ValueError:
            raise ValueError("expected qmat:M,N with integer M, N")
        return oqm(m, n, steps_budget=steps_budget)
    if token == "qplane" or token in _FILE_PRESETS:
        return load_preset(token, steps_budget=steps_budget)
    try:
        with open(token, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError:
        raise ValueError("unknown algebra %r: not a preset and not a readable file" % token)
    except RecursionError:
        raise ValueError("spec file %r nests too deeply to be a cgl-spec-v1 document" % token)
    return OreAlgebra.from_json(doc, steps_budget=steps_budget)
