"""Linear expression layer shared by the constraint model and the contract algebra.

The co-design methodology only ever needs *linear arithmetic over bounded integer
(or real) variables*:  agent flows, pickup/drop-off rates and their conservation
relations are all linear.  This module provides a small, explicit AST for that
fragment:

* :class:`Variable` — a named decision variable with bounds and an integrality flag.
* :class:`LinearExpr` — an affine combination ``sum(coeff_i * var_i) + constant``.
* :class:`LinearConstraint` — ``expr <sense> 0`` with ``sense`` one of ``<=``,
  ``>=`` or ``==`` (the right-hand side is folded into the expression constant).

Expressions support the natural Python operators so model-building code reads
like the maths in the paper::

    f_in = model.add_var("f_in", lb=0, ub=10, integer=True)
    f_out = model.add_var("f_out", lb=0, ub=10, integer=True)
    model.add_constraint(f_in - f_out == 0, name="conservation")

The classes are deliberately simple (dict-of-coefficients) rather than clever;
problems in this repository have at most a few tens of thousands of variables
and sparse constraints, which this representation handles comfortably.

**Hashing and pickling.**  Variables are dict keys everywhere, so a
:class:`Variable` computes its hash once, at construction, from its four
fields; equal variables (same name, bounds and integrality) hash equal.  String
hashes are salted per interpreter, so the cached hash must not travel:
pickling or copying a variable rebuilds it from its four fields
(:meth:`Variable.__reduce__`), and expressions, constraints and contracts that
hold variables unpickle into dicts keyed by freshly hashed ones.

**Fast compile path.**  Operators validate their operands and build one
intermediate expression per step.  Code that compiles many rows from
variables it holds fills one coefficient dict per row (:func:`add_terms`)
and hands it to :func:`linear_row`, which skips the re-validation and yields
the same constraint as the operator chain.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Dict, Iterable, Mapping, Optional, Tuple, Union

Number = Union[int, float]

#: Sense tokens used by :class:`LinearConstraint`.
LE = "<="
GE = ">="
EQ = "=="

_VALID_SENSES = (LE, GE, EQ)

#: Stands in for a variable an assignment lacks.
_MISSING = object()


class ExpressionError(ValueError):
    """Raised when an expression or constraint is built from invalid operands."""


@dataclass(frozen=True)
class Variable:
    """A named decision variable.

    Parameters
    ----------
    name:
        Unique name within a model (models enforce uniqueness; stand-alone
        variables used by the contract layer only need to be distinct objects
        or distinct names).
    lb, ub:
        Lower / upper bounds.  ``None`` means unbounded in that direction.
    integer:
        Whether the variable is integer-valued.
    """

    name: str
    lb: Optional[Number] = 0
    ub: Optional[Number] = None
    integer: bool = False

    def __post_init__(self) -> None:
        if self.lb is not None and self.ub is not None and self.lb > self.ub:
            raise ExpressionError(
                f"variable {self.name!r} has empty domain [{self.lb}, {self.ub}]"
            )
        # The value the dataclass hash would compute on every lookup.
        object.__setattr__(self, "_hash", hash((self.name, self.lb, self.ub, self.integer)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # Rebuild from the fields, so the hash is recomputed in the receiving
        # interpreter (string hashes are salted per process).
        return (Variable, (self.name, self.lb, self.ub, self.integer))

    # -- arithmetic ---------------------------------------------------------
    def _as_expr(self) -> "LinearExpr":
        return LinearExpr._of({self: 1.0}, 0.0)

    def __add__(self, other: "ExprLike") -> "LinearExpr":
        return self._as_expr() + other

    def __radd__(self, other: "ExprLike") -> "LinearExpr":
        return self._as_expr() + other

    def __sub__(self, other: "ExprLike") -> "LinearExpr":
        return self._as_expr() - other

    def __rsub__(self, other: "ExprLike") -> "LinearExpr":
        return (-1.0 * self._as_expr()) + other

    def __mul__(self, other: Number) -> "LinearExpr":
        return self._as_expr() * other

    def __rmul__(self, other: Number) -> "LinearExpr":
        return self._as_expr() * other

    def __neg__(self) -> "LinearExpr":
        return self._as_expr() * -1.0

    # -- comparisons --------------------------------------------------------
    def __le__(self, other: "ExprLike") -> "LinearConstraint":
        return self._as_expr() <= other

    def __ge__(self, other: "ExprLike") -> "LinearConstraint":
        return self._as_expr() >= other

    # NOTE: ``==`` on a Variable keeps the dataclass value-equality semantics
    # (variables are dict keys throughout the solver and contract layers).
    # To state an *equality constraint* on a single variable, lift it into an
    # expression first:  ``1 * var == rhs``.

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = "int" if self.integer else "real"
        return f"Variable({self.name!r}, [{self.lb}, {self.ub}], {kind})"


ExprLike = Union[Variable, "LinearExpr", Number]


class LinearExpr:
    """An affine expression ``sum(coeff * var) + constant``.

    Instances are immutable from the caller's point of view: every operator
    returns a new expression.
    """

    __slots__ = ("coeffs", "constant")

    def __init__(
        self,
        coeffs: Optional[Mapping[Variable, Number]] = None,
        constant: Number = 0.0,
    ) -> None:
        cleaned: Dict[Variable, float] = {}
        for var, coeff in (coeffs or {}).items():
            if not isinstance(var, Variable):
                raise ExpressionError(f"expression keys must be Variables, got {var!r}")
            c = float(coeff)
            if c != 0.0:
                cleaned[var] = c
        self.coeffs: Dict[Variable, float] = cleaned
        self.constant: float = float(constant)

    # -- constructors -------------------------------------------------------
    @classmethod
    def _of(cls, coeffs: Dict[Variable, float], constant: float) -> "LinearExpr":
        """Wrap coefficients that are already valid: Variable keys, float values.

        Skips the per-term checks of ``__init__``; zero terms are still dropped.
        """
        expr = cls.__new__(cls)
        if 0.0 in coeffs.values():
            coeffs = {var: coeff for var, coeff in coeffs.items() if coeff != 0.0}
        expr.coeffs = coeffs
        expr.constant = constant
        return expr

    @staticmethod
    def from_operand(value: ExprLike) -> "LinearExpr":
        """Coerce a variable, number or expression into a :class:`LinearExpr`."""
        if isinstance(value, LinearExpr):
            return value
        if isinstance(value, Variable):
            return LinearExpr._of({value: 1.0}, 0.0)
        if isinstance(value, (int, float)):
            return LinearExpr._of({}, float(value))
        raise ExpressionError(f"cannot build a linear expression from {value!r}")

    @staticmethod
    def sum(terms: Iterable[ExprLike]) -> "LinearExpr":
        """Sum an iterable of variables / expressions / numbers.

        Unlike Python's ``sum``, this avoids quadratic rebuild cost by
        accumulating into a single coefficient dictionary.
        """
        coeffs: Dict[Variable, float] = {}
        constant = 0.0
        for term in terms:
            if isinstance(term, Variable):
                coeffs[term] = coeffs.get(term, 0.0) + 1.0
                continue
            expr = LinearExpr.from_operand(term)
            constant += expr.constant
            for var, coeff in expr.coeffs.items():
                coeffs[var] = coeffs.get(var, 0.0) + coeff
        return LinearExpr._of(coeffs, constant)

    # -- queries ------------------------------------------------------------
    def variables(self) -> Tuple[Variable, ...]:
        """All variables with a non-zero coefficient, in insertion order."""
        return tuple(self.coeffs)

    def coefficient(self, var: Variable) -> float:
        """Coefficient of ``var`` (0.0 if absent)."""
        return self.coeffs.get(var, 0.0)

    def is_constant(self) -> bool:
        return not self.coeffs

    def evaluate(self, assignment: Mapping[Variable, Number]) -> float:
        """Evaluate the expression under a (possibly partial) assignment.

        Missing variables are treated as an error so silent mistakes do not
        propagate into flow accounting.
        """
        total = self.constant
        for var, coeff in self.coeffs.items():
            value = assignment.get(var, _MISSING)
            if value is _MISSING:
                raise ExpressionError(f"assignment missing variable {var.name!r}")
            total += coeff * float(value)
        return total

    # -- arithmetic ---------------------------------------------------------
    def _combine(self, other: ExprLike, sign: float) -> "LinearExpr":
        other_expr = LinearExpr.from_operand(other)
        coeffs = dict(self.coeffs)
        for var, coeff in other_expr.coeffs.items():
            coeffs[var] = coeffs.get(var, 0.0) + sign * coeff
        return LinearExpr._of(coeffs, self.constant + sign * other_expr.constant)

    def __add__(self, other: ExprLike) -> "LinearExpr":
        return self._combine(other, +1.0)

    def __radd__(self, other: ExprLike) -> "LinearExpr":
        return self._combine(other, +1.0)

    def __sub__(self, other: ExprLike) -> "LinearExpr":
        return self._combine(other, -1.0)

    def __rsub__(self, other: ExprLike) -> "LinearExpr":
        return (self * -1.0)._combine(other, +1.0)

    def __mul__(self, factor: Number) -> "LinearExpr":
        if not isinstance(factor, (int, float)):
            raise ExpressionError("expressions can only be scaled by numbers")
        factor = float(factor)
        return LinearExpr._of(
            {var: coeff * factor for var, coeff in self.coeffs.items()},
            self.constant * factor,
        )

    def __rmul__(self, factor: Number) -> "LinearExpr":
        return self * factor

    def __neg__(self) -> "LinearExpr":
        return self * -1.0

    # -- comparisons --------------------------------------------------------
    def __le__(self, other: ExprLike) -> "LinearConstraint":
        return LinearConstraint(self - other, LE)

    def __ge__(self, other: ExprLike) -> "LinearConstraint":
        return LinearConstraint(self - other, GE)

    def __eq__(self, other: object):  # type: ignore[override]
        if isinstance(other, (Variable, LinearExpr, int, float)):
            return LinearConstraint(self - other, EQ)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(
            (frozenset((v.name, c) for v, c in self.coeffs.items()), self.constant)
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        terms = [f"{coeff:+g}*{var.name}" for var, coeff in self.coeffs.items()]
        if self.constant or not terms:
            terms.append(f"{self.constant:+g}")
        return " ".join(terms)


@dataclass(frozen=True)
class LinearConstraint:
    """A normalized linear constraint ``expr <sense> 0``.

    Construction folds the right-hand side into ``expr``; callers should use
    the comparison operators on :class:`LinearExpr` / :class:`Variable` rather
    than instantiating this class directly.
    """

    expr: LinearExpr
    sense: str
    name: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        if self.sense not in _VALID_SENSES:
            raise ExpressionError(f"invalid constraint sense {self.sense!r}")

    def named(self, name: str) -> "LinearConstraint":
        """Return a copy of this constraint carrying a diagnostic name."""
        return LinearConstraint(self.expr, self.sense, name)

    def variables(self) -> Tuple[Variable, ...]:
        return self.expr.variables()

    def is_satisfied(
        self, assignment: Mapping[Variable, Number], tol: float = 1e-6
    ) -> bool:
        """Check the constraint under an assignment, with numeric tolerance."""
        value = self.expr.evaluate(assignment)
        if self.sense == LE:
            return value <= tol
        if self.sense == GE:
            return value >= -tol
        return abs(value) <= tol

    def violation(self, assignment: Mapping[Variable, Number]) -> float:
        """Amount by which the constraint is violated (0.0 when satisfied)."""
        value = self.expr.evaluate(assignment)
        if self.sense == LE:
            return max(0.0, value)
        if self.sense == GE:
            return max(0.0, -value)
        return abs(value)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        label = f"[{self.name}] " if self.name else ""
        return f"{label}{self.expr!r} {self.sense} 0"


def variables_of(constraints: Iterable[LinearConstraint]) -> Tuple[Variable, ...]:
    """Collect the distinct variables referenced by a constraint collection."""
    return tuple(dict.fromkeys(chain.from_iterable(c.expr.coeffs for c in constraints)))


def add_terms(
    coeffs: Dict[Variable, float], variables: Iterable[Variable], coeff: float
) -> Dict[Variable, float]:
    """Add ``coeff`` to each variable's coefficient in ``coeffs``, in order; returns ``coeffs``."""
    for var in variables:
        coeffs[var] = coeffs.get(var, 0.0) + coeff
    return coeffs


def linear_row(
    coeffs: Dict[Variable, float], sense: str, rhs: Number = 0.0, name: str = ""
) -> LinearConstraint:
    """The constraint ``Σ coeffs[v]·v <sense> rhs``, named ``name``.

    ``coeffs`` is one coefficient dict filled by the caller from Variables it
    holds, with float coefficients accumulated in term order; it is neither
    re-validated nor copied (zero terms are dropped), so the caller must not
    change it afterwards.  The result equals the operator-chained
    ``(expr <sense> rhs).named(name)`` term for term, in insertion order, as
    long as no term of the chain cancels to zero and is added again later.
    """
    return LinearConstraint(LinearExpr._of(coeffs, 0.0 - rhs), sense, name)
