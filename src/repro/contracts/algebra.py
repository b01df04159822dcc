"""Decision procedures for the conjunctive-linear contract fragment.

Every algebraic check on :class:`~repro.contracts.contract.AGContract` reduces
to linear-programming feasibility queries:

* :func:`is_satisfiable`  — does a constraint conjunction admit any behaviour?
* :func:`entails`         — does ``Φ`` imply a single constraint ``c``?
  (checked as infeasibility of ``Φ ∧ ¬c``, with a strict-inequality margin);
* :func:`refines`         — contract refinement ``C1 ⪯ C2``;
* :func:`is_consistent` / :func:`is_compatible` — non-emptiness of guarantees /
  assumptions;
* :func:`check_composition_consistency` — the synthesis-time sanity check the
  methodology performs before handing the composed contract to the solver.

The checks treat integer variables as reals (a sound relaxation for
entailment/refinement: if the relaxed query says "entailed", the integer
restriction is also entailed).  :func:`is_satisfiable` enforces integrality
when called with ``integer=True``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

from ..solver import SolveStatus, solve_model
from ..solver.expressions import EQ, GE, LE, LinearConstraint, LinearExpr
from ..solver.model import ConstraintModel
from .contract import AGContract

#: Margin used to encode the negation of a non-strict inequality.  Flow
#: variables are integers, so a margin below 1 is exact for integral data and
#: safe for the rational relaxation.
DEFAULT_STRICTNESS = 1e-6


def _model_from_constraints(
    constraints: Iterable[LinearConstraint], name: str, relax_integrality: bool
) -> ConstraintModel:
    model = ConstraintModel(name)
    for constraint in constraints:
        model.add_constraint(constraint)
    if relax_integrality:
        return model.relaxed()
    return model


def is_satisfiable(
    constraints: Iterable[LinearConstraint], integer: bool = False
) -> bool:
    """True when the conjunction of ``constraints`` admits a behaviour.

    ``integer=True`` keeps the variables' integrality requirements; otherwise
    the rational relaxation is checked (cheaper, sufficient for algebra checks).
    """
    model = _model_from_constraints(constraints, "satisfiability", not integer)
    result = solve_model(model)
    return result.status.has_solution


def negation_constraints(
    constraint: LinearConstraint, strictness: float = DEFAULT_STRICTNESS
) -> List[Tuple[LinearConstraint, ...]]:
    """The negation of a linear constraint as a list of conjunctive cases.

    ``¬(e <= 0)`` is ``e >= strictness``; ``¬(e >= 0)`` is ``e <= -strictness``;
    ``¬(e == 0)`` splits into the two cases.  Each returned tuple is one case
    (they are mutually exclusive alternatives).
    """
    expr = constraint.expr
    if constraint.sense == LE:
        return [((expr >= strictness),)]
    if constraint.sense == GE:
        return [((expr <= -strictness),)]
    if constraint.sense == EQ:
        return [((expr >= strictness),), ((expr <= -strictness),)]
    raise ValueError(f"unknown sense {constraint.sense!r}")  # pragma: no cover


def entails(
    premises: Iterable[LinearConstraint],
    conclusion: LinearConstraint,
    strictness: float = DEFAULT_STRICTNESS,
) -> bool:
    """Semantic entailment ``premises ⊨ conclusion`` over the rational relaxation.

    Checked by asking whether ``premises ∧ ¬conclusion`` is satisfiable for each
    disjunct of the negation; entailment holds when every such case is
    infeasible.  Variable bounds declared on the variables themselves are part
    of the premise set automatically (the model always enforces them).
    """
    premises = tuple(premises)
    for case in negation_constraints(conclusion, strictness):
        if is_satisfiable(premises + case):
            return False
    return True


def entails_all(
    premises: Iterable[LinearConstraint], conclusions: Iterable[LinearConstraint]
) -> bool:
    """``premises ⊨ c`` for every ``c`` in ``conclusions``."""
    premises = tuple(premises)
    return all(entails(premises, c) for c in conclusions)


@dataclass
class RefinementReport:
    """Outcome of a refinement check, with the offending constraints if any."""

    holds: bool
    failed_assumptions: Tuple[LinearConstraint, ...] = ()
    failed_guarantees: Tuple[LinearConstraint, ...] = ()

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.holds


def refines(refined: AGContract, abstract: AGContract) -> RefinementReport:
    """Check contract refinement ``refined ⪯ abstract``.

    In the conjunctive fragment this is:

    * every assumption of ``abstract`` entails the assumptions of ``refined``
      being *weaker or equal*, i.e. ``A_abstract ⊨ a`` for each ``a`` in
      ``A_refined`` — the refined contract may not assume more;
    * the refined guarantees are stronger: ``A_abstract ∧ G_refined ⊨ g`` for
      each ``g`` in ``G_abstract``.
    """
    failed_assumptions = tuple(
        a for a in refined.assumptions if not entails(abstract.assumptions, a)
    )
    premises = tuple(abstract.assumptions) + tuple(refined.guarantees)
    failed_guarantees = tuple(
        g for g in abstract.guarantees if not entails(premises, g)
    )
    return RefinementReport(
        holds=not failed_assumptions and not failed_guarantees,
        failed_assumptions=failed_assumptions,
        failed_guarantees=failed_guarantees,
    )


def is_consistent(contract: AGContract) -> bool:
    """A contract is consistent when its guarantees admit at least one behaviour."""
    return is_satisfiable(contract.guarantees)


def is_compatible(contract: AGContract) -> bool:
    """A contract is compatible when its assumptions admit at least one behaviour."""
    return is_satisfiable(contract.assumptions)


def check_composition_consistency(contracts: Sequence[AGContract]) -> Optional[str]:
    """Sanity-check a set of contracts before synthesis.

    Returns ``None`` when the composition of all contracts is consistent and
    compatible, otherwise a human-readable explanation.  The flow-synthesis
    front end calls this to give designers an actionable error instead of a
    bare "infeasible" from the solver.
    """
    if not contracts:
        return None
    for contract in contracts:
        if not is_consistent(contract):
            return f"contract {contract.name!r} is inconsistent (unsatisfiable guarantees)"
        if not is_compatible(contract):
            return f"contract {contract.name!r} is incompatible (unsatisfiable assumptions)"
    composed = contracts[0]
    for contract in contracts[1:]:
        composed = composed.compose(contract)
    if not is_satisfiable(composed.all_constraints()):
        return "the composed contract admits no behaviour (assumptions ∧ guarantees unsatisfiable)"
    return None


def strongest_bound(
    constraints: Iterable[LinearConstraint],
    expr: LinearExpr,
    sense: str = "max",
) -> Optional[float]:
    """Tightest bound on ``expr`` implied by ``constraints`` (None if unbounded).

    Useful for inspecting what throughput a traffic-system contract can
    actually promise — e.g. the maximum per-period station outflow of a
    product — without running the full synthesis.
    """
    model = _model_from_constraints(constraints, "bound-query", relax_integrality=False)
    for var in expr.variables():
        model.register(var)
    model = model.relaxed()
    relaxed_expr = LinearExpr(
        {model.variable_by_name(v.name): c for v, c in expr.coeffs.items()},
        expr.constant,
    )
    model.set_objective(relaxed_expr, sense=sense)
    result = solve_model(model)
    if result.status == SolveStatus.UNBOUNDED:
        return None
    if not result.status.has_solution:
        return None
    return result.objective
