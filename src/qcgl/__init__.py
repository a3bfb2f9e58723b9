"""Exact symbolic computation in iterated skew polynomial algebras of CGL type.

Quantum matrices, PBW normal forms, quantum minors, torus weights,
q-commutation, Cauchon diagrams and the deleting-derivations embedding,
over the exact coefficient field Q(q).
"""

from .coef import ONE, Q, ZERO, RatFunc, is_root_of_unity, q_factorial, q_int, qpow
from .ncalg import (
    AxiomReport,
    NcPoly,
    NilpotenceBoundExceeded,
    NormalityReport,
    OreAlgebra,
    StepBudgetExceeded,
    format_poly,
)
from .qmat import QuantumMatrixAlgebra, oqm
from .cauchon import count, count_by_black, enumerate_diagrams, is_valid
from .delderiv import LaurentElem, format_laurent, laurent_mul, theta, theta_alt
from .grassmann import extremal_normality_report, maximal_minors
from .presets import load_algebra, load_preset

__version__ = "0.1.0"

__all__ = [
    "AxiomReport", "LaurentElem", "NcPoly",
    "NilpotenceBoundExceeded", "NormalityReport", "ONE", "OreAlgebra", "Q",
    "QuantumMatrixAlgebra", "RatFunc", "StepBudgetExceeded", "ZERO", "count",
    "count_by_black", "enumerate_diagrams", "extremal_normality_report",
    "format_laurent", "format_poly", "is_root_of_unity", "is_valid", "laurent_mul",
    "load_algebra", "load_preset", "maximal_minors", "oqm", "q_factorial", "q_int",
    "qpow", "theta", "theta_alt",
]
