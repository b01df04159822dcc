"""The operator-chained contract and model compile, kept as an oracle.

:func:`repro.core.synthesize_flows` compiles the component and workload
contracts and the aggregate MILP by filling one coefficient dict per row
(:func:`repro.solver.expressions.linear_row`) and reads UNITSAT from one
table (:meth:`repro.traffic.system.TrafficSystem.units_table`).  This module
keeps the compile that did the same with :class:`LinearExpr` operators, one
intermediate expression per term group, and a per-vertex UNITSAT sum:

* :func:`units_at` — UNITSAT(Ci, ρk) summed vertex by vertex;
* :func:`component_contract`, :func:`traffic_system_contract` and
  :func:`workload_contract` — the contracts;
* :func:`build_model` — the exact aggregate MILP;
* :func:`variables_of` — the contracts' variable order.

``tests/test_compile_equivalence.py`` checks that both compiles produce the
same constraints, in the same order, and the same sparse arrays for HiGHS.
Nothing under ``src/`` imports this module.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

from repro.contracts import AGContract
from repro.core.flow_variables import EdgeKey, FlowVariablePool
from repro.solver.expressions import LinearConstraint, LinearExpr, Variable
from repro.solver.model import ConstraintModel
from repro.traffic.component import Component
from repro.traffic.system import ComponentId, TrafficSystem
from repro.warehouse.products import EMPTY_HANDED, ProductId
from repro.warehouse.workload import Workload


def units_at(system: TrafficSystem, component_id: ComponentId, product: int) -> int:
    """UNITSAT(Ci, ρk): stocked units of a product accessible from a component."""
    stock = system.warehouse.stock
    return sum(
        stock.units_at(product, vertex)
        for vertex in system.component(component_id).vertices
        if system.floorplan.is_shelf_access(vertex)
    )


def variables_of(constraints: Iterable[LinearConstraint]) -> Tuple[Variable, ...]:
    """The distinct variables of ``constraints``, in first-mention order."""
    seen: Dict[Variable, None] = {}
    for constraint in constraints:
        for var in constraint.variables():
            seen.setdefault(var, None)
    return tuple(seen)


# -- the pool's expression builders ------------------------------------------

def inflow(pool: FlowVariablePool, component: ComponentId, product: ProductId) -> LinearExpr:
    """Σ over inlets of f[j, i, product]."""
    terms = []
    for inlet in pool.system.inlets_of(component):
        var = pool.edge(inlet, component, product)
        if var is not None:
            terms.append(var)
    return LinearExpr.sum(terms)


def outflow(pool: FlowVariablePool, component: ComponentId, product: ProductId) -> LinearExpr:
    """Σ over outlets of f[i, j, product]."""
    terms = []
    for outlet in pool.system.outlets_of(component):
        var = pool.edge(component, outlet, product)
        if var is not None:
            terms.append(var)
    return LinearExpr.sum(terms)


def total_inflow(pool: FlowVariablePool, component: ComponentId) -> LinearExpr:
    """Σ over inlets of the aggregate (loaded + empty) agent flow."""
    terms = []
    for inlet in pool.system.inlets_of(component):
        loaded = pool.loaded(inlet, component)
        empty = pool.empty(inlet, component)
        if loaded is not None:
            terms.append(loaded)
        if empty is not None:
            terms.append(empty)
    return LinearExpr.sum(terms)


def net_inflow(
    pool: FlowVariablePool, arcs: Dict[EdgeKey, Variable], component: ComponentId
) -> LinearExpr:
    """Σ over inlets − Σ over outlets of one aggregate family."""
    system = pool.system
    return LinearExpr.sum(
        [arcs[(inlet, component)] for inlet in system.inlets_of(component)]
        + [-1 * arcs[(component, outlet)] for outlet in system.outlets_of(component)]
    )


def total_pickups_expr(pool: FlowVariablePool, component: ComponentId) -> LinearExpr:
    terms = [var for (comp, _), var in pool.pickup_vars.items() if comp == component]
    return LinearExpr.sum(terms)


def total_dropoffs_expr(pool: FlowVariablePool, component: ComponentId) -> LinearExpr:
    terms = [var for (comp, _), var in pool.dropoff_vars.items() if comp == component]
    return LinearExpr.sum(terms)


def total_row_pickups(pool: FlowVariablePool, product: ProductId) -> LinearExpr:
    terms = [var for (_, prod), var in pool.pickup_vars.items() if prod == product]
    return LinearExpr.sum(terms)


def total_station_dropoffs(pool: FlowVariablePool, product: ProductId) -> LinearExpr:
    terms = [var for (_, prod), var in pool.dropoff_vars.items() if prod == product]
    return LinearExpr.sum(terms)


# -- contracts -----------------------------------------------------------------

def component_contract(
    pool: FlowVariablePool, component: Component, num_periods: int
) -> AGContract:
    """The contract ``˜Ci`` of one component for a given number of cycle periods."""
    system = pool.system
    index = component.index
    assumptions: List[LinearConstraint] = []
    guarantees: List[LinearConstraint] = []

    assumptions.append(
        (total_inflow(pool, index) <= component.capacity).named(f"capacity[{component.name}]")
    )

    for product in pool.products:
        dropoff = pool.dropoff(index, product)
        if dropoff is None:
            continue
        guarantees.append(
            (1 * dropoff <= inflow(pool, index, product)).named(
                f"dropoff-bound[{component.name},{product}]"
            )
        )

    for product in pool.products:
        pickup = pool.pickup(index, product)
        if pickup is None:
            continue
        units = units_at(system, index, product)
        per_period_limit = units / max(1, num_periods)
        guarantees.append(
            (1 * pickup <= per_period_limit).named(
                f"pickup-stock[{component.name},{product}]"
            )
        )
    if component.is_shelving_row:
        guarantees.append(
            (total_pickups_expr(pool, index) <= inflow(pool, index, EMPTY_HANDED)).named(
                f"pickup-empty-agents[{component.name}]"
            )
        )

    for product in pool.products:
        balance = inflow(pool, index, product) - outflow(pool, index, product)
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
        inflow(pool, index, EMPTY_HANDED)
        - outflow(pool, index, EMPTY_HANDED)
        - total_pickups_expr(pool, index)
        + total_dropoffs_expr(pool, index)
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
    """The composition of every component contract."""
    assumptions: Tuple[LinearConstraint, ...] = ()
    guarantees: Tuple[LinearConstraint, ...] = ()
    for component in pool.system.components:
        contract = component_contract(pool, component, num_periods)
        assumptions += contract.assumptions
        guarantees += contract.guarantees
    return AGContract(name="traffic-system", assumptions=assumptions, guarantees=guarantees)


def workload_contract(
    pool: FlowVariablePool, workload: Workload, num_periods: int, warmup_periods: int = 0
) -> AGContract:
    """The workload contract ``˜C_w`` (the horizon checks live in ``repro.core``)."""
    effective = num_periods - warmup_periods
    guarantees = []
    for product in workload.requested_products():
        required_rate = workload.demand(product) / effective
        guarantees.append(
            (total_station_dropoffs(pool, product) >= required_rate).named(
                f"workload[{product}]"
            )
        )
    return AGContract(name="workload", assumptions=(), guarantees=tuple(guarantees))


# -- the aggregate MILP ----------------------------------------------------------

def build_model(
    pool: FlowVariablePool,
    workload: Workload,
    num_periods: int,
    warmup_periods: int,
    objective: str,
) -> ConstraintModel:
    """The exact aggregate of the traffic-system ∧ workload contract conjunction."""
    model = ConstraintModel(name="agent-flow-synthesis")
    for family in (
        pool.loaded_vars,
        pool.empty_vars,
        pool.total_pickup_vars,
        pool.total_dropoff_vars,
        pool.pickup_vars,
    ):
        for variable in family.values():
            model.register(variable)
    system = pool.system
    for component in system.components:
        model.add_constraint(
            (total_inflow(pool, component.index) <= component.capacity).named(
                f"capacity[{component.name}]"
            )
        )
    for component in system.components:
        index, name = component.index, component.name
        loaded = net_inflow(pool, pool.loaded_vars, index)
        empty = net_inflow(pool, pool.empty_vars, index)
        picked = pool.total_pickup(index)
        if picked is not None:
            for product in pool.products:
                rate = pool.pickup(index, product)
                if rate is not None:
                    stock = units_at(system, index, product) / max(1, num_periods)
                    model.add_constraint(
                        (1 * rate <= stock).named(f"pickup-stock[{name},{product}]")
                    )
            model.add_constraint(
                (1 * picked <= inflow(pool, index, EMPTY_HANDED)).named(
                    f"pickup-empty-agents[{name}]"
                )
            )
            model.add_constraint(
                (total_pickups_expr(pool, index) - picked == 0).named(f"pickup-mix[{name}]")
            )
            loaded, empty = loaded + picked, empty - picked
        dropped = pool.total_dropoff(index)
        if dropped is not None:
            loaded, empty = loaded - dropped, empty + dropped
        model.add_constraint((loaded == 0).named(f"conservation[{name},loaded]"))
        model.add_constraint((empty == 0).named(f"conservation[{name},empty]"))
    effective = num_periods - warmup_periods
    for product in workload.requested_products():
        model.add_constraint(
            (total_row_pickups(pool, product) >= workload.demand(product) / effective).named(
                f"workload[{product}]"
            )
        )
    if objective == "min_agents":
        model.set_objective(
            LinearExpr.sum(list(pool.loaded_vars.values()) + list(pool.empty_vars.values())),
            sense="min",
        )
    elif objective == "min_carrying":
        model.set_objective(LinearExpr.sum(pool.loaded_vars.values()), sense="min")
    return model
