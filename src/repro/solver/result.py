"""Solve status and result types returned by :func:`repro.solver.solve_model`."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Optional

from .expressions import Variable


class SolveStatus(enum.Enum):
    """Outcome of a solve call.

    ``OPTIMAL``     — an optimal (or, for feasibility problems, feasible) solution
                      was found and proven.
    ``FEASIBLE``    — a feasible solution was found but optimality was not proven
                      (the time limit hit with an incumbent).
    ``INFEASIBLE``  — the model was proven infeasible.
    ``UNBOUNDED``   — the objective is unbounded below.
    ``LIMIT``       — an iteration/time limit was hit with no incumbent.
    ``ERROR``       — HiGHS failed for another reason.
    """

    OPTIMAL = "optimal"
    FEASIBLE = "feasible"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    LIMIT = "limit"
    ERROR = "error"

    @property
    def has_solution(self) -> bool:
        """True when :attr:`SolveResult.values` carries a usable assignment."""
        return self in (SolveStatus.OPTIMAL, SolveStatus.FEASIBLE)


@dataclass
class SolveResult:
    """Result of solving a :class:`~repro.solver.model.ConstraintModel`.

    Attributes
    ----------
    status:
        Outcome classification.
    objective:
        Objective value of the returned assignment (``None`` when no solution).
    values:
        Mapping from :class:`Variable` to its value in the returned assignment.
    message:
        Optional human-readable diagnostic from HiGHS.
    nodes:
        Branch-and-bound nodes HiGHS explored (0 for an LP or a model
        solved without HiGHS).
    """

    status: SolveStatus
    objective: Optional[float] = None
    values: Dict[Variable, float] = field(default_factory=dict)
    message: str = ""
    nodes: int = 0

    @property
    def is_feasible(self) -> bool:
        return self.status.has_solution

    def value(self, var: Variable, default: Optional[float] = None) -> Optional[float]:
        """Value of ``var`` in the solution (``default`` when absent)."""
        return self.values.get(var, default)

    def int_value(self, var: Variable, default: int = 0) -> int:
        """Value of ``var`` rounded to the nearest integer."""
        raw = self.values.get(var)
        if raw is None:
            return default
        return int(round(raw))

    def as_named_dict(self) -> Dict[str, float]:
        """Solution keyed by variable name (handy for serialization/tests)."""
        return {var.name: value for var, value in self.values.items()}
