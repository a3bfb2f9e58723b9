"""Named algebra presets loadable by the CLI.

Presets shipped as spec files, and spec files named by --algebra, are
axiom-checked at load time, so a corrupt file is rejected before any
computation runs: theta and the powers of X rely on axiom (a).
"""

from __future__ import annotations

import json
from importlib import resources

from .ncalg import STEPS_BUDGET, OreAlgebra, quantum_plane
from .qmat import QuantumMatrixAlgebra, oqm

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
    return _checked(doc, steps_budget, "preset %r" % name)


def _checked(doc, steps_budget, what):
    """The algebra of a spec document at steps_budget, once it passes the CGL
    axioms at the default budget, on a copy of its own when the budgets
    differ, so a small budget is no failure.  A qmat-tagged document is
    certified against oqm by from_json."""
    alg = OreAlgebra.from_json(doc, steps_budget=steps_budget)
    if not isinstance(alg, QuantumMatrixAlgebra):
        check = alg if steps_budget == STEPS_BUDGET else OreAlgebra.from_json(doc)
        report = check.check_cgl_axioms()
        if not report.ok:
            raise ValueError("%s fails the CGL axioms:\n%s" % (what, report))
    return alg


def load_algebra(token, steps_budget=STEPS_BUDGET):
    """Resolve an --algebra token: qmat:M,N | qplane | preset name | file path.
    A spec file must pass the CGL axioms, as a shipped preset must."""
    return _resolve(token, steps_budget, _checked)


def load_unchecked(token, steps_budget=STEPS_BUDGET):
    """load_algebra with a spec file taken as it stands, for `qcgl axioms`."""
    return _resolve(token, steps_budget, lambda doc, budget, _: OreAlgebra.from_json(
        doc, steps_budget=budget))


def _resolve(token, steps_budget, build):
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
    return build(doc, steps_budget, "spec file %r" % token)
