"""Component contracts (Sec. IV-D of the paper).

For every traffic-system component ``Ci`` we build an assume-guarantee
contract over the per-cycle-period flow variables:

Assumptions (on the environment, i.e. the components feeding ``Ci``):

* at most ``⌊|Ci| / 2⌋`` agents enter ``Ci`` per cycle period (the capacity
  that makes Algorithm 1's realization guarantee work — Property 4.1);
* flows are non-negative (encoded as variable bounds).

Guarantees (promised by ``Ci``):

* drop-offs only happen at station queues, and never exceed the loaded inflow
  of the corresponding product;
* pickups only happen at shelving rows, never exceed the locally stocked units
  spread over the available cycle periods (``UNITSAT(Ci, ρk) / q_c``), and in
  total never exceed the number of *empty-handed* agents entering;
* per-product and empty-handed flow conservation (agents neither appear nor
  disappear, they only change what they carry).

The traffic-system contract is the composition of all component contracts
(:func:`traffic_system_contract`).  The empty-handed flow ``f[i, j, 0]`` is
the integer ``empty[i, j]`` itself.  These per-product contracts are what the
runtime monitor checks against a simulated trace; the synthesis MILP is their
exact aggregate (:mod:`repro.core.flow_synthesis`).

Each constraint is compiled from one coefficient dict
(:func:`~repro.solver.expressions.linear_row`); ``tests/reference_contracts.py``
keeps the operator-chained compile they must equal.
"""

from __future__ import annotations

from typing import List

from ..contracts import AGContract, compose_all
from ..solver.expressions import EQ, LE, LinearConstraint, add_terms, linear_row
from ..traffic.component import Component
from ..warehouse.products import EMPTY_HANDED
from .flow_variables import FlowVariablePool


def component_contract(
    pool: FlowVariablePool,
    component: Component,
    num_periods: int,
) -> AGContract:
    """The contract ``˜Ci`` of one component for a given number of cycle periods."""
    index, name = component.index, component.name
    pickups = pool.row_pickups.get(index, {})
    dropoffs = pool.queue_dropoffs.get(index, {})
    empty_in = pool.inlet_flows(index, EMPTY_HANDED)

    # -- assumption: per-period inflow capacity ⌊|Ci|/2⌋ -----------------------
    assumptions = (
        linear_row(pool.total_inflow_coeffs(index), LE, component.capacity, f"capacity[{name}]"),
    )
    guarantees: List[LinearConstraint] = []

    # -- guarantees: drop-off bounds -------------------------------------------
    for product, dropoff in dropoffs.items():
        coeffs = add_terms({dropoff: 1.0}, pool.inlet_flows(index, product), -1.0)
        guarantees.append(linear_row(coeffs, LE, 0.0, f"dropoff-bound[{name},{product}]"))

    # -- guarantees: pickup bounds ------------------------------------------------
    stock = pool.units[index]
    periods = max(1, num_periods)
    for product, pickup in pickups.items():
        limit = stock[product] / periods
        guarantees.append(linear_row({pickup: 1.0}, LE, limit, f"pickup-stock[{name},{product}]"))
    if component.is_shelving_row:
        coeffs = add_terms(dict.fromkeys(pickups.values(), 1.0), empty_in, -1.0)
        guarantees.append(linear_row(coeffs, LE, 0.0, f"pickup-empty-agents[{name}]"))

    # -- guarantees: flow conservation ----------------------------------------------
    for product in pool.products:
        coeffs = add_terms({}, pool.inlet_flows(index, product), 1.0)
        add_terms(coeffs, pool.outlet_flows(index, product), -1.0)
        if product in pickups:
            add_terms(coeffs, (pickups[product],), 1.0)
        if product in dropoffs:
            add_terms(coeffs, (dropoffs[product],), -1.0)
        guarantees.append(linear_row(coeffs, EQ, 0.0, f"conservation[{name},{product}]"))

    coeffs = add_terms({}, empty_in, 1.0)
    add_terms(coeffs, pool.outlet_flows(index, EMPTY_HANDED), -1.0)
    add_terms(coeffs, pickups.values(), -1.0)
    add_terms(coeffs, dropoffs.values(), 1.0)
    guarantees.append(linear_row(coeffs, EQ, 0.0, f"conservation[{name},empty]"))

    return AGContract(
        name=f"component[{name}]",
        assumptions=assumptions,
        guarantees=tuple(guarantees),
    )


def traffic_system_contract(pool: FlowVariablePool, num_periods: int) -> AGContract:
    """The traffic-system contract ``˜C_TS = ⨂ ˜Ci`` (composition of all components)."""
    return compose_all(component_contracts(pool, num_periods), name="traffic-system")


def component_contracts(pool: FlowVariablePool, num_periods: int) -> List[AGContract]:
    """All individual component contracts (exposed for inspection and tests)."""
    return [
        component_contract(pool, component, num_periods)
        for component in pool.system.components
    ]
