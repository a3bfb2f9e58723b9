"""Named algebra presets loadable by the CLI.

Presets shipped as spec files are axiom-checked at load time, so a corrupt
file is rejected before any computation runs.
"""

from __future__ import annotations

import json
import os
from importlib import resources

from .ncalg import STEPS_BUDGET, OreAlgebra, quantum_plane
from .qmat import oqm

_FILE_PRESETS = {
    "uq-sl3-plus": "data/uq-sl3-plus.json",
}


def preset_names():
    return ["qplane"] + sorted(_FILE_PRESETS)


def _read_spec_text(path):
    if os.path.isabs(path):
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    return resources.files("qcgl").joinpath(path).read_text(encoding="utf-8")


def load_preset(name, steps_budget=STEPS_BUDGET):
    if name == "qplane":
        return quantum_plane(steps_budget=steps_budget)
    try:
        path = _FILE_PRESETS[name]
    except KeyError:
        raise ValueError("unknown preset %r (available: %s)"
                         % (name, ", ".join(preset_names())))
    alg = OreAlgebra.from_json(json.loads(_read_spec_text(path)),
                               steps_budget=steps_budget)
    report = alg.check_cgl_axioms()
    if not report.ok:
        raise ValueError("preset %r fails the CGL axioms:\n%s" % (name, report))
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
