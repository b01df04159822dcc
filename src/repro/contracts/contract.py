"""Assume-guarantee contracts over linear arithmetic constraints.

This module replaces the CHASE requirement-engineering framework [Nuzzo et al.,
DATE 2018] used by the paper to compile and compose component and workload
contracts.  A contract is the standard triple ``(V, A, G)`` of Benveniste et
al., *Contracts for System Design*:

* ``V`` — the component variables (here: per-cycle-period agent flows and
  pickup/drop-off rates, i.e. :class:`repro.solver.expressions.Variable`);
* ``A`` — assumptions: behaviours the component expects from its environment;
* ``G`` — guarantees: behaviours the component promises when the assumptions hold.

**Fragment.**  Assumptions and guarantees are *conjunctions of linear
(in)equalities* over bounded numeric variables.  This is exactly the fragment
needed by the methodology (Sec. IV-D of the paper) and it keeps every algebraic
query decidable with an LP/ILP call:

* satisfiability of a constraint set           → one feasibility solve;
* entailment ``Φ ⊨ c``                          → one LP per constraint
  (is ``Φ ∧ ¬c`` infeasible?);
* refinement, consistency, compatibility        → combinations of the above
  (see :mod:`repro.contracts.algebra`).

**Approximation note.**  In the general theory, composition weakens the
assumptions to ``(A1 ∧ A2) ∨ ¬(G1 ∧ G2)`` and saturation replaces ``G`` by
``G ∨ ¬A``.  Disjunction is not expressible in a conjunctive fragment, so
:meth:`AGContract.compose` and :meth:`AGContract.conjoin` use the *stronger*
(sound) conjunctive forms ``A1 ∧ A2`` / ``G1 ∧ G2``.  For the synthesis query
performed by the methodology — "find one flow assignment satisfying the
composition of all component contracts conjoined with the workload contract" —
the stronger form accepts a subset of the flows the exact form would accept,
so any flow synthesized here is also correct for the exact semantics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..solver.expressions import LinearConstraint, Variable, variables_of
from ..solver.model import ConstraintModel


class ContractError(ValueError):
    """Raised for malformed contracts or invalid contract operations."""


@dataclass(frozen=True)
class AGContract:
    """An assume-guarantee contract ``(V, A, G)`` in the conjunctive linear fragment.

    Parameters
    ----------
    name:
        Diagnostic name ("component[C3]", "workload", "traffic-system", ...).
    assumptions:
        Conjunction of linear constraints the environment must satisfy.
    guarantees:
        Conjunction of linear constraints the component promises.
    variables:
        Optional explicit variable set; defaults to every variable mentioned
        by the assumptions and guarantees.
    """

    name: str
    assumptions: Tuple[LinearConstraint, ...] = ()
    guarantees: Tuple[LinearConstraint, ...] = ()
    variables: Tuple[Variable, ...] = field(default=())

    def __post_init__(self) -> None:
        assumptions = tuple(self.assumptions or ())
        guarantees = tuple(self.guarantees or ())
        items = assumptions + guarantees
        for item in items:
            if not isinstance(item, LinearConstraint):
                raise ContractError(
                    f"contracts take LinearConstraint items, got {type(item).__name__}; "
                    "did a '==' comparison fall back to a plain bool?"
                )
        # One pass collects the variables, in first-mention order.
        mentioned = variables_of(items)
        object.__setattr__(self, "assumptions", assumptions)
        object.__setattr__(self, "guarantees", guarantees)
        if not self.variables:
            object.__setattr__(self, "variables", mentioned)
        else:
            missing = set(mentioned) - set(self.variables)
            if missing:
                names = ", ".join(sorted(v.name for v in missing))
                raise ContractError(
                    f"contract {self.name!r} uses undeclared variables: {names}"
                )

    # -- construction helpers -------------------------------------------------
    @staticmethod
    def from_constraints(
        name: str,
        assumptions: Optional[Iterable[LinearConstraint]] = None,
        guarantees: Optional[Iterable[LinearConstraint]] = None,
    ) -> "AGContract":
        return AGContract(
            name=name,
            assumptions=tuple(assumptions or ()),
            guarantees=tuple(guarantees or ()),
        )

    # -- queries --------------------------------------------------------------
    @property
    def num_assumptions(self) -> int:
        return len(self.assumptions)

    @property
    def num_guarantees(self) -> int:
        return len(self.guarantees)

    def all_constraints(self) -> Tuple[LinearConstraint, ...]:
        """Assumptions and guarantees as one conjunction.

        A behaviour (variable assignment) is *in* the contract's implementation
        ∩ environment exactly when it satisfies this conjunction; this is the
        set the synthesis query draws from.
        """
        return tuple(self.assumptions) + tuple(self.guarantees)

    def satisfied_by(
        self, assignment: Mapping[Variable, float], tol: float = 1e-6
    ) -> bool:
        """True when ``assignment`` satisfies both assumptions and guarantees."""
        return all(c.is_satisfied(assignment, tol=tol) for c in self.all_constraints())

    def violated_constraints(
        self, assignment: Mapping[Variable, float], tol: float = 1e-6
    ) -> Tuple[LinearConstraint, ...]:
        """The assumptions / guarantees violated by ``assignment`` (diagnostics)."""
        return tuple(
            c for c in self.all_constraints() if not c.is_satisfied(assignment, tol=tol)
        )

    # -- algebra --------------------------------------------------------------
    def compose(self, other: "AGContract", name: Optional[str] = None) -> "AGContract":
        """Contract composition ``self ⊗ other`` (conjunctive approximation).

        Guarantees are joined; assumptions are joined (the exact rule would
        further weaken the assumptions by ``¬(G1 ∧ G2)``, which the conjunctive
        fragment cannot express — see the module docstring).
        """
        return AGContract(
            name=name or f"({self.name} ⊗ {other.name})",
            assumptions=self.assumptions + other.assumptions,
            guarantees=self.guarantees + other.guarantees,
        )

    def conjoin(self, other: "AGContract", name: Optional[str] = None) -> "AGContract":
        """Contract conjunction ``self ∧ other`` (conjunctive approximation).

        The conjunction combines the requirements of both contracts: the
        resulting guarantee is ``G1 ∧ G2``; the resulting assumption is the
        conjunctive strengthening ``A1 ∧ A2`` (the exact rule uses ``A1 ∨ A2``).
        """
        return AGContract(
            name=name or f"({self.name} ∧ {other.name})",
            assumptions=self.assumptions + other.assumptions,
            guarantees=self.guarantees + other.guarantees,
        )

    def __mul__(self, other: "AGContract") -> "AGContract":
        """``c1 * c2`` is composition (mirrors the ⊗ operator in the paper)."""
        return self.compose(other)

    def __and__(self, other: "AGContract") -> "AGContract":
        """``c1 & c2`` is conjunction (mirrors the ∧ operator in the paper)."""
        return self.conjoin(other)

    # -- export ---------------------------------------------------------------
    def to_model(self, name: Optional[str] = None) -> ConstraintModel:
        """Export ``A ∧ G`` as a :class:`ConstraintModel` (feasibility problem)."""
        model = ConstraintModel(name or f"contract[{self.name}]")
        for var in self.variables:
            model.register(var)
        for constraint in self.all_constraints():
            model.add_constraint(constraint)
        return model

    def renamed(self, name: str) -> "AGContract":
        return AGContract(
            name=name,
            assumptions=self.assumptions,
            guarantees=self.guarantees,
            variables=self.variables,
        )

    def summary(self) -> str:
        return (
            f"contract {self.name!r}: |V|={len(self.variables)}, "
            f"|A|={self.num_assumptions}, |G|={self.num_guarantees}"
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"AGContract({self.summary()})"


def compose_all(
    contracts: Sequence[AGContract], name: str = "composition"
) -> AGContract:
    """Compose a collection of contracts into one (``⨂ contracts``).

    This is how the paper builds the traffic-system contract out of the
    per-component contracts.
    """
    assumptions: List[LinearConstraint] = []
    guarantees: List[LinearConstraint] = []
    for contract in contracts:
        assumptions.extend(contract.assumptions)
        guarantees.extend(contract.guarantees)
    return AGContract(name=name, assumptions=tuple(assumptions), guarantees=tuple(guarantees))


def top_contract(name: str = "true") -> AGContract:
    """The contract that assumes nothing and guarantees nothing (identity of ⊗)."""
    return AGContract(name=name)


def variable_index(contract: AGContract) -> Dict[str, Variable]:
    """Map variable names to variables (useful for tests and reporting)."""
    return {var.name: var for var in contract.variables}
