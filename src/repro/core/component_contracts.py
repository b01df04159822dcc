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
runtime monitor checks against a simulated trace and what
``SynthesisOptions.check_contracts`` pre-checks; the synthesis MILP is their
exact aggregate (:mod:`repro.core.flow_synthesis`).
"""

from __future__ import annotations

from typing import List

from ..contracts import AGContract, compose_all
from ..solver.expressions import LinearConstraint
from ..traffic.component import Component
from ..traffic.system import TrafficSystem
from ..warehouse.products import EMPTY_HANDED
from .flow_variables import FlowVariablePool


def component_contract(
    pool: FlowVariablePool,
    component: Component,
    num_periods: int,
) -> AGContract:
    """The contract ``˜Ci`` of one component for a given number of cycle periods."""
    system = pool.system
    index = component.index
    assumptions: List[LinearConstraint] = []
    guarantees: List[LinearConstraint] = []

    # -- assumption: per-period inflow capacity ⌊|Ci|/2⌋ -----------------------
    assumptions.append(
        (pool.total_inflow(index) <= component.capacity).named(f"capacity[{component.name}]")
    )

    # -- guarantees: drop-off bounds -------------------------------------------
    for product in pool.products:
        dropoff = pool.dropoff(index, product)
        if dropoff is None:
            continue
        guarantees.append(
            (1 * dropoff <= pool.inflow(index, product)).named(
                f"dropoff-bound[{component.name},{product}]"
            )
        )

    # -- guarantees: pickup bounds ------------------------------------------------
    for product in pool.products:
        pickup = pool.pickup(index, product)
        if pickup is None:
            continue
        units = system.units_at(index, product)
        per_period_limit = units / max(1, num_periods)
        guarantees.append(
            (1 * pickup <= per_period_limit).named(
                f"pickup-stock[{component.name},{product}]"
            )
        )
    if component.is_shelving_row:
        guarantees.append(
            (pool.total_pickups_expr(index) <= pool.inflow(index, EMPTY_HANDED)).named(
                f"pickup-empty-agents[{component.name}]"
            )
        )

    # -- guarantees: flow conservation ----------------------------------------------
    for product in pool.products:
        balance = pool.inflow(index, product) - pool.outflow(index, product)
        pickup = pool.pickup(index, product)
        dropoff = pool.dropoff(index, product)
        if pickup is not None:
            balance = balance + pickup
        if dropoff is not None:
            balance = balance - dropoff
        guarantees.append(
            (balance == 0).named(f"conservation[{component.name},{product}]")
        )

    empty_balance = (
        pool.inflow(index, EMPTY_HANDED)
        - pool.outflow(index, EMPTY_HANDED)
        - pool.total_pickups_expr(index)
        + pool.total_dropoffs_expr(index)
    )
    guarantees.append(
        (empty_balance == 0).named(f"conservation[{component.name},empty]")
    )

    return AGContract(
        name=f"component[{component.name}]",
        assumptions=tuple(assumptions),
        guarantees=tuple(guarantees),
    )


def traffic_system_contract(pool: FlowVariablePool, num_periods: int) -> AGContract:
    """The traffic-system contract ``˜C_TS = ⨂ ˜Ci`` (composition of all components)."""
    contracts = [
        component_contract(pool, component, num_periods)
        for component in pool.system.components
    ]
    return compose_all(contracts, name="traffic-system")


def component_contracts(pool: FlowVariablePool, num_periods: int) -> List[AGContract]:
    """All individual component contracts (exposed for inspection and tests)."""
    return [
        component_contract(pool, component, num_periods)
        for component in pool.system.components
    ]
