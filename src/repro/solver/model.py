"""Constraint model: the container for ILP/LP problems.

A :class:`ConstraintModel` collects variables, linear constraints and an
optional linear objective; :func:`repro.solver.solve_model` exports it as
sparse arrays for HiGHS.

The model is the meeting point between the contract layer and the solver:
:func:`repro.core.flow_synthesis.synthesize_flows` compiles the conjunction of
the traffic-system contract and the workload contract into one of these models.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from .expressions import ExpressionError, LinearConstraint, LinearExpr, Variable

#: Objective senses accepted by :meth:`ConstraintModel.set_objective`.
MINIMIZE = "min"
MAXIMIZE = "max"


class ModelError(ValueError):
    """Raised for structural problems in a :class:`ConstraintModel`."""


class ConstraintModel:
    """A mixed-integer linear model built from :mod:`repro.solver.expressions`.

    Variables referenced by constraints but never added explicitly are
    registered automatically the first time they are seen; this lets callers
    (notably the contract layer) create variables stand-alone and only hand
    the constraints to the model.
    """

    def __init__(self, name: str = "model") -> None:
        self.name = name
        self._variables: List[Variable] = []
        self._var_index: Dict[Variable, int] = {}
        self._names: Dict[str, Variable] = {}
        self._constraints: List[LinearConstraint] = []
        self._objective: LinearExpr = LinearExpr()
        self._objective_sense: str = MINIMIZE

    # -- variables ----------------------------------------------------------
    def add_var(
        self,
        name: str,
        lb: Optional[float] = 0,
        ub: Optional[float] = None,
        integer: bool = False,
    ) -> Variable:
        """Create, register and return a new variable.

        Raises :class:`ModelError` if a different variable with the same name
        already exists.
        """
        existing = self._names.get(name)
        if existing is not None:
            raise ModelError(f"variable name {name!r} already used in model {self.name!r}")
        var = Variable(name=name, lb=lb, ub=ub, integer=integer)
        self._register(var)
        return var

    def register(self, var: Variable) -> Variable:
        """Register an externally created variable (idempotent)."""
        return self._register(var)

    def _register(self, var: Variable) -> Variable:
        if var in self._var_index:
            return var
        clash = self._names.get(var.name)
        if clash is not None and clash != var:
            raise ModelError(
                f"two distinct variables named {var.name!r} in model {self.name!r}"
            )
        self._var_index[var] = len(self._variables)
        self._variables.append(var)
        self._names[var.name] = var
        return var

    @property
    def variables(self) -> Tuple[Variable, ...]:
        return tuple(self._variables)

    def variable_by_name(self, name: str) -> Variable:
        try:
            return self._names[name]
        except KeyError as exc:
            raise ModelError(f"no variable named {name!r} in model {self.name!r}") from exc

    @property
    def num_variables(self) -> int:
        return len(self._variables)

    # -- constraints --------------------------------------------------------
    def add_constraint(
        self, constraint: LinearConstraint, name: str = ""
    ) -> LinearConstraint:
        """Add a constraint, auto-registering any new variables it mentions."""
        if not isinstance(constraint, LinearConstraint):
            raise ModelError(
                "add_constraint expects a LinearConstraint; "
                "did a comparison fall back to a plain bool?"
            )
        if name:
            constraint = constraint.named(name)
        for var in constraint.variables():
            self._register(var)
        self._constraints.append(constraint)
        return constraint

    def add_constraints(self, constraints: Iterable[LinearConstraint]) -> None:
        for constraint in constraints:
            self.add_constraint(constraint)

    @property
    def constraints(self) -> Tuple[LinearConstraint, ...]:
        return tuple(self._constraints)

    @property
    def num_constraints(self) -> int:
        return len(self._constraints)

    # -- objective ----------------------------------------------------------
    def set_objective(self, expr: LinearExpr, sense: str = MINIMIZE) -> None:
        """Set the (linear) objective.  ``sense`` is ``'min'`` or ``'max'``."""
        if sense not in (MINIMIZE, MAXIMIZE):
            raise ModelError(f"objective sense must be 'min' or 'max', got {sense!r}")
        expr = LinearExpr.from_operand(expr)
        for var in expr.variables():
            self._register(var)
        self._objective = expr
        self._objective_sense = sense

    @property
    def objective(self) -> LinearExpr:
        return self._objective

    @property
    def objective_sense(self) -> str:
        return self._objective_sense

    # -- validation & evaluation ---------------------------------------------
    def check_assignment(
        self, assignment: Mapping[Variable, float], tol: float = 1e-6
    ) -> List[LinearConstraint]:
        """Return the constraints violated by ``assignment`` (bounds included).

        Bound violations are reported as synthetic constraints so callers get a
        uniform list of offending restrictions.
        """
        violated: List[LinearConstraint] = []
        for var in self._variables:
            if var not in assignment:
                raise ExpressionError(f"assignment missing variable {var.name!r}")
            value = float(assignment[var])
            if var.lb is not None and value < var.lb - tol:
                violated.append((LinearExpr({var: 1.0}) >= var.lb).named(f"lb[{var.name}]"))
            if var.ub is not None and value > var.ub + tol:
                violated.append((LinearExpr({var: 1.0}) <= var.ub).named(f"ub[{var.name}]"))
            if var.integer and abs(value - round(value)) > tol:
                violated.append(
                    (LinearExpr({var: 1.0}) == round(value)).named(f"int[{var.name}]")
                )
        for constraint in self._constraints:
            if not constraint.is_satisfied(assignment, tol=tol):
                violated.append(constraint)
        return violated

    def objective_value(self, assignment: Mapping[Variable, float]) -> float:
        return self._objective.evaluate(assignment)

    def relaxed(self) -> "ConstraintModel":
        """A copy of this model with every integrality requirement dropped."""
        relaxed = ConstraintModel(name=f"{self.name}-lp-relaxation")
        substitution: Dict[Variable, Variable] = {}
        for var in self._variables:
            substitution[var] = relaxed.add_var(var.name, lb=var.lb, ub=var.ub, integer=False)

        def substitute(expr: LinearExpr) -> LinearExpr:
            return LinearExpr(
                {substitution[v]: c for v, c in expr.coeffs.items()}, expr.constant
            )

        for constraint in self._constraints:
            relaxed.add_constraint(
                LinearConstraint(substitute(constraint.expr), constraint.sense, constraint.name)
            )
        relaxed.set_objective(substitute(self._objective), self._objective_sense)
        return relaxed

    def summary(self) -> str:
        """One-line structural summary (used by logs and examples)."""
        n_int = sum(1 for v in self._variables if v.integer)
        return (
            f"model {self.name!r}: {self.num_variables} vars "
            f"({n_int} integer), {self.num_constraints} constraints"
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ConstraintModel({self.summary()})"
