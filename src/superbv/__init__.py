"""Exact symbolic calculus for Batalin-Vilkovisky structures on complex
supermanifold charts, with a property-based verification driver.

The building blocks, bottom up:

- :mod:`superbv.grading` -- the two-degree sign discipline
- :mod:`superbv.jetring` -- truncated polynomial superfunctions over
  Gaussian rationals
- :mod:`superbv.supermatrix` -- graded matrices, superdeterminant, supertrace
- :mod:`superbv.charts` -- coordinate systems, morphisms, pullbacks
- :mod:`superbv.mvforms` -- multivector-valued forms, wedge, dbar, the
  Schouten-Nijenhuis bracket
- :mod:`superbv.bvcalc` -- integral forms, the divergence operator, the BV
  operator and its bracket recursion, the parity-flip comparison
- :mod:`superbv.connect` -- Berezinian connections, curvature, formal
  parallel transport, the local Calabi-Yau consistency checks
- :mod:`superbv.dsl`, :mod:`superbv.suites`, :mod:`superbv.cli` -- the
  scenario language and the verification driver
"""

from .grading import reorder_sign
from .jetring import GaussianRational, JetSuperFunction, RingSignature
from .charts import BerSection, Chart, Morphism
from .mvforms import MultiVectorForm, dbar, pull_mvform, schouten, wedge
from .bvcalc import DeltaOperator, IntegralForm, delta_omega, extend_delta
from .supermatrix import SuperMatrix

__all__ = [
    "reorder_sign",
    "GaussianRational", "JetSuperFunction", "RingSignature",
    "BerSection", "Chart", "Morphism",
    "MultiVectorForm", "dbar", "pull_mvform", "schouten", "wedge",
    "DeltaOperator", "IntegralForm", "delta_omega", "extend_delta",
    "SuperMatrix",
]

__version__ = "0.1.0"
