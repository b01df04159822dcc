"""ILP / LP constraint-solving substrate.

The paper discharges its contract conjunction with the Z3 SMT solver; since
every assumption and guarantee in the methodology is a linear (in)equality
over bounded non-negative integer flows, the problem is exactly a
mixed-integer linear feasibility/optimization problem.  This package provides:

* :mod:`repro.solver.expressions` — variables, affine expressions, constraints;
* :mod:`repro.solver.model` — the :class:`ConstraintModel` container;
* :mod:`repro.solver.scipy_backend` — :func:`solve_model`, which hands every
  model (an LP when no variable is integer) to HiGHS.
"""

from __future__ import annotations

from .expressions import (
    EQ,
    GE,
    LE,
    ExpressionError,
    LinearConstraint,
    LinearExpr,
    Variable,
    variables_of,
)
from .model import MAXIMIZE, MINIMIZE, ConstraintModel, ModelError
from .result import SolveResult, SolveStatus
from .scipy_backend import solve_model

__all__ = [
    "ConstraintModel",
    "EQ",
    "ExpressionError",
    "GE",
    "LE",
    "LinearConstraint",
    "LinearExpr",
    "MAXIMIZE",
    "MINIMIZE",
    "ModelError",
    "SolveResult",
    "SolveStatus",
    "Variable",
    "solve_model",
    "variables_of",
]
