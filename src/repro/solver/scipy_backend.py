"""HiGHS via :func:`scipy.optimize.milp`: the one engine that solves a model.

The paper solves its flow-synthesis constraints with Z3 over linear real
arithmetic; we formulate them as a mixed-integer linear program and hand them
to HiGHS, which is the fastest engine available offline.  A model without
integer variables is simply an LP and takes the same path.  Sparse constraint
matrices are used so the paper-scale instances (tens of thousands of flow
variables on the Fulfillment-2 map) stay well within laptop memory.

Every solve runs without HiGHS's Feasibility Jump primal heuristic: on the
small flow MILPs, which close at the root, it took more than half of a solve
and rarely supplied the answer (DESIGN.md §3).
"""

from __future__ import annotations

import threading
import warnings
from typing import Optional

import numpy as np
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint as SciLinearConstraint
from scipy.optimize import milp

from .expressions import EQ, GE, LE
from .model import ConstraintModel
from .result import SolveResult, SolveStatus

_INF = float("inf")

#: ``milp`` status codes without a usable assignment.
_STATUS = {1: SolveStatus.LIMIT, 2: SolveStatus.INFEASIBLE, 3: SolveStatus.UNBOUNDED}

#: HiGHS options every solve passes on top of ``time_limit``.
_HIGHS_OPTIONS = {"mip_heuristic_run_feasibility_jump": False}

#: The start of the ``RuntimeWarning`` in which ``milp`` notes that it hands
#: ``_HIGHS_OPTIONS`` to HiGHS verbatim.  It is expected, so it is silenced.
#: A HiGHS that does not know the option says so in an ``OptimizeWarning``,
#: which is let through: that solve runs the heuristic after all.
_VERBATIM_NOTE = r"Unrecognized options detected: \{'mip_heuristic_run_feasibility_jump'\}\."

#: ``catch_warnings`` swaps process-wide filters, so solves in one process
#: take turns.  HiGHS releases the GIL while it solves, so threads that solve
#: at once lose their overlap; the pipeline solves in parallel only in pool
#: worker processes, each with a lock of its own.
_WARNINGS_LOCK = threading.Lock()


def _build_sparse(model: ConstraintModel):
    """Build sparse constraint matrices directly from the model.

    Returns (c, constraint_matrix, lower, upper, bounds, integrality, variables,
    objective_sign, objective_offset).  Both inequality senses and equalities
    are encoded as two-sided row bounds, which is the native HiGHS form.
    """
    variables = list(model.variables)
    index = {var: i for i, var in enumerate(variables)}
    n = len(variables)

    sign = 1.0 if model.objective_sense == "min" else -1.0
    c = np.zeros(n)
    for var, coeff in model.objective.coeffs.items():
        c[index[var]] = sign * coeff
    offset = sign * model.objective.constant

    rows, cols, data = [], [], []
    lower, upper = [], []
    for r, constraint in enumerate(model.constraints):
        for var, coeff in constraint.expr.coeffs.items():
            rows.append(r)
            cols.append(index[var])
            data.append(coeff)
        rhs = -constraint.expr.constant
        if constraint.sense == LE:
            lower.append(-_INF)
            upper.append(rhs)
        elif constraint.sense == GE:
            lower.append(rhs)
            upper.append(_INF)
        elif constraint.sense == EQ:
            lower.append(rhs)
            upper.append(rhs)
    matrix = sparse.csr_matrix(
        (data, (rows, cols)), shape=(model.num_constraints, n)
    )

    lb = np.array([-_INF if v.lb is None else float(v.lb) for v in variables])
    ub = np.array([_INF if v.ub is None else float(v.ub) for v in variables])
    integrality = np.array([1 if v.integer else 0 for v in variables])
    return (
        c,
        matrix,
        np.asarray(lower),
        np.asarray(upper),
        (lb, ub),
        integrality,
        variables,
        sign,
        offset,
    )


def _trivial_result(model: ConstraintModel) -> Optional[SolveResult]:
    """Handle the degenerate zero-variable model without calling HiGHS.

    Contract-algebra queries occasionally produce models with no variables at
    all (e.g. checking compatibility of a contract with no assumptions); such a
    model is satisfiable iff every (constant) constraint holds.
    """
    if model.num_variables > 0:
        return None
    for constraint in model.constraints:
        if not constraint.is_satisfied({}):
            return SolveResult(
                status=SolveStatus.INFEASIBLE,
                message=f"constant constraint violated: {constraint!r}",
            )
    return SolveResult(
        status=SolveStatus.OPTIMAL, objective=model.objective.constant, values={}
    )


def solve_model(
    model: ConstraintModel, time_limit: Optional[float] = None
) -> SolveResult:
    """Solve ``model`` with HiGHS through :func:`scipy.optimize.milp`.

    ``time_limit`` is in seconds; a solve that hits it returns ``FEASIBLE``
    with its incumbent, or ``LIMIT`` when it has none.
    """
    trivial = _trivial_result(model)
    if trivial is not None:
        return trivial

    (
        c,
        matrix,
        row_lb,
        row_ub,
        (lb, ub),
        integrality,
        variables,
        sign,
        offset,
    ) = _build_sparse(model)
    options = dict(_HIGHS_OPTIONS)
    if time_limit is not None:
        options["time_limit"] = float(time_limit)
    # Inserted in front of the caller's filters, so it holds under an outer
    # ``simplefilter("error")`` too.
    with _WARNINGS_LOCK, warnings.catch_warnings():
        warnings.filterwarnings("ignore", _VERBATIM_NOTE, RuntimeWarning)
        res = milp(
            c=c,
            constraints=(
                SciLinearConstraint(matrix, row_lb, row_ub) if model.num_constraints else ()
            ),
            bounds=Bounds(lb, ub),
            integrality=integrality,
            options=options,
        )
    message = str(res.message)
    nodes = int(res.mip_node_count or 0)
    if res.x is not None and res.status in (0, 1):
        x = np.asarray(res.x)
        if res.status == 0:
            int_idx = np.nonzero(integrality)[0]
            x[int_idx] = np.round(x[int_idx])
        return SolveResult(
            # Status 1 is the iteration/time limit with an incumbent.
            status=SolveStatus.OPTIMAL if res.status == 0 else SolveStatus.FEASIBLE,
            objective=sign * (float(c @ x) + offset),
            values={var: float(v) for var, v in zip(variables, x)},
            message=message,
            nodes=nodes,
        )
    return SolveResult(
        status=_STATUS.get(res.status, SolveStatus.ERROR), message=message, nodes=nodes
    )
